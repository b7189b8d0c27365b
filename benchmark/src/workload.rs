//! The four workloads: what each one builds, and the stream of source
//! updates it commits.
//!
//! Every workload runs the paper's testbed (`dyno_sim::build_space`: three
//! sources × two relations, key index on `K`). Inputs come from
//! `dyno_sim::WorkloadGen` seeded by `--seed`; the warehouse only ever sees
//! the generated `SourceUpdate`s.

use dyno_relational::SourceUpdate;
use dyno_sim::{build_view, tenant_views, EventKind, TestbedConfig, WorkloadGen};
use dyno_source::SourceId;
use dyno_view::ViewDefinition;

/// Which views a workload maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Views {
    /// The paper's one 6-way join view (24 columns).
    SixWayJoin,
    /// `n` single-relation and two-way tenant views (`dyno_sim::tenant_views`).
    Tenants(usize),
}

/// What one closed-loop round commits before the warehouse runs to
/// quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// One single-row data update; three inserts to one delete.
    PointDu,
    /// `n` single-row inserts.
    InsertBurst(usize),
    /// `dus` single-row inserts with `scs` schema changes spread among them.
    ScStorm {
        /// Data updates per round.
        dus: usize,
        /// Schema changes per round.
        scs: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Rows per relation at set-up.
    pub rows: usize,
    /// The view set.
    pub views: Views,
    /// Whether a WAL over `MemStorage` is attached.
    pub wal: bool,
    /// The shape of one round.
    pub round: Round,
    /// Rounds per second of `--seconds`. Repetitions are sized by count, not
    /// by the clock, so that the same seed does the same work on every
    /// commit: counts repeat exactly and memory does not grow with speed.
    /// The constants are what a 2-core sandbox sustained when the benchmark
    /// was written, which makes a run measure for about `--seconds`.
    pub rounds_per_s: f64,
}

/// All workloads, in reporting order. Why each is here: `BENCHMARK.json` in
/// one line, `README.md` at length.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "du_point",
        rows: 20_000,
        views: Views::SixWayJoin,
        wal: false,
        round: Round::PointDu,
        rounds_per_s: 10_000.0,
    },
    Spec {
        name: "fanout_burst",
        rows: 20_000,
        views: Views::Tenants(24),
        wal: false,
        round: Round::InsertBurst(32),
        rounds_per_s: 500.0,
    },
    Spec {
        name: "sc_storm",
        rows: 2_000,
        views: Views::SixWayJoin,
        wal: false,
        round: Round::ScStorm { dus: 16, scs: 2 },
        rounds_per_s: 60.0,
    },
    Spec {
        name: "durable_du",
        rows: 20_000,
        views: Views::SixWayJoin,
        wal: true,
        round: Round::PointDu,
        rounds_per_s: 850.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The testbed this workload runs on. The data seed follows `--seed`,
    /// so two seeds differ in the stored rows as well as in the updates.
    pub fn testbed(&self, seed: u64) -> TestbedConfig {
        TestbedConfig { tuples_per_relation: self.rows, seed, ..TestbedConfig::default() }
    }

    /// The views to register, in slot order.
    pub fn view_defs(&self, cfg: &TestbedConfig) -> Vec<ViewDefinition> {
        match self.views {
            Views::SixWayJoin => vec![build_view(cfg)],
            Views::Tenants(n) => tenant_views(cfg, n),
        }
    }
}

/// The benchmark's update generator: a `WorkloadGen` plus the round shape.
#[derive(Debug, Clone)]
pub struct Generator {
    gen: WorkloadGen,
    round: Round,
    rounds: u64,
    scs: u64,
}

impl Generator {
    /// A generator for `spec`, seeded by `seed` (independently of the
    /// testbed's rows, which use the same number through another stream).
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let gen = WorkloadGen::new(spec.testbed(seed), seed ^ 0x9E37_79B9_7F4A_7C15);
        Generator { gen, round: spec.round, rounds: 0, scs: 0 }
    }

    /// Appends the next round's updates to `out`, in commit order.
    pub fn next_round(&mut self, out: &mut Vec<(SourceId, SourceUpdate)>) {
        match self.round {
            Round::PointDu => {
                let kind = if self.rounds % 4 == 3 {
                    EventKind::DataDelete
                } else {
                    EventKind::DataUpdate
                };
                self.push(kind, out);
            }
            Round::InsertBurst(n) => {
                for _ in 0..n {
                    self.push(EventKind::DataUpdate, out);
                }
            }
            Round::ScStorm { dus, scs } => {
                // Schema change `j` goes after DU `(j + 1) · dus / (scs + 1)`,
                // so every SC has data updates queued on both sides of it.
                let mut next_sc = 0;
                for d in 0..dus {
                    self.push(EventKind::DataUpdate, out);
                    while next_sc < scs && d + 1 == (next_sc + 1) * dus / (scs + 1) {
                        // As `WorkloadGen::sc_train`: one drop, then renames.
                        let kind = if self.scs == 0 {
                            EventKind::DropAttribute
                        } else {
                            EventKind::RenameRelation
                        };
                        self.push(kind, out);
                        self.scs += 1;
                        next_sc += 1;
                    }
                }
            }
        }
        self.rounds += 1;
    }

    /// Appends one event of `kind` to `out`.
    pub fn push(&mut self, kind: EventKind, out: &mut Vec<(SourceId, SourceUpdate)>) {
        let c = self.gen.event(0, kind);
        out.push((c.source, c.update));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_have_the_stated_size_and_repeat_by_seed() {
        for spec in &WORKLOADS {
            let mut a = Generator::new(spec, 7);
            let mut b = Generator::new(spec, 7);
            let mut c = Generator::new(spec, 8);
            let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..5 {
                a.next_round(&mut ra);
                b.next_round(&mut rb);
                c.next_round(&mut rc);
            }
            let per_round = match spec.round {
                Round::PointDu => 1,
                Round::InsertBurst(n) => n,
                Round::ScStorm { dus, scs } => dus + scs,
            };
            assert_eq!(ra.len(), 5 * per_round, "{}", spec.name);
            assert_eq!(ra, rb, "{}: same seed, same inputs", spec.name);
            assert_ne!(ra, rc, "{}: another seed, other inputs", spec.name);
        }
    }

    #[test]
    fn sc_storm_interleaves_schema_changes() {
        let spec = find("sc_storm").unwrap();
        let mut g = Generator::new(spec, 1);
        let mut round = Vec::new();
        g.next_round(&mut round);
        let sc_at: Vec<usize> = round
            .iter()
            .enumerate()
            .filter(|(_, (_, u))| u.is_schema_change())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(sc_at.len(), 2);
        assert!(sc_at[0] > 0 && sc_at[1] < round.len() - 1, "DUs on both sides: {sc_at:?}");
    }
}
