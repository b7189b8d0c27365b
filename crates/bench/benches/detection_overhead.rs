//! μ4 / Figure 8's mechanism at micro scale: the per-step overhead of the
//! pessimistic strategy's detection in a DU-only stream is a single flag
//! check — compare scheduler throughput under both strategies with a no-op
//! maintainer.

use dyno_bench::harness::Harness;
use dyno_core::{Dyno, MaintainOutcome, Maintainer, Strategy, Umq, UpdateKind, UpdateMeta};

struct Noop;

impl Maintainer<()> for Noop {
    fn maintain(
        &mut self,
        _batch: &[UpdateMeta<()>],
        _rest: &[Vec<UpdateMeta<()>>],
    ) -> MaintainOutcome {
        MaintainOutcome::Committed
    }

    fn refresh_view_relevance(&mut self, _queue: &mut Umq<()>) {}
}

fn main() {
    let mut h = Harness::new("dyno_step_du_only");
    for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
        h.bench_with_setup(
            &format!("{strategy:?}"),
            || {
                let mut q: Umq<()> = Umq::new();
                for k in 0..1000u64 {
                    q.enqueue(UpdateMeta::new(k, (k % 6) as u32, UpdateKind::Data, ()));
                }
                (q, Dyno::new(strategy), Noop)
            },
            |(mut q, mut dyno, mut m)| {
                while !q.is_empty() {
                    dyno.step(&mut q, &mut m);
                }
                dyno.stats()
            },
        );
    }
    h.finish();
}
