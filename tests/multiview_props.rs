//! The differential multi-view suite: a warehouse holding N overlapping
//! views driven through the seeded fault-injection transport
//! (`dyno::sim::Experiment::multiview`), with the per-view differential oracle on at
//! every commit — each incrementally maintained extent must equal *that
//! view's* definition recomputed from scratch at the state vector the view
//! claims to reflect, so a deferred view audits at its own older vector
//! while its peers audit ahead of it.
//!
//! Invariants every healthy run must satisfy:
//!
//! * **termination** — quiescence within the step budget;
//! * **per-view convergence** — every final extent equals its (current)
//!   definition over the final source states, with nothing still deferred;
//! * **per-view strong consistency** — the differential audit passes after
//!   every commit and after every crash recovery;
//! * **bit identity** — shared-subplan execution, unshared execution, and
//!   kill/recover runs of the same seed all produce CRC-identical extents.
//!
//! The quick subset always runs; the full grid (seeds × profiles ×
//! strategies, with and without kills) is `#[ignore]`d and exercised by
//! `scripts/verify.sh` under `VERIFY_FULL=1` via `--include-ignored`. When
//! `DYNO_MULTIVIEW_SUMMARY` names a file, each run appends its view count,
//! shared-subplan hits, and divergent-verdict count so the harness can
//! assert the suite exercised ≥3 overlapping views, actually shared work,
//! and saw per-view safety verdicts split at least once.

mod common;

use common::assert_healthy;
use dyno::core::{CorrectionPolicy, Strategy};
use dyno::fault::FaultProfile;
use dyno::prelude::*;
use dyno::sim::Report;
use dyno::view::testkit::{bookinfo_space, bookinfo_view, insert_item};
use dyno::view::{CrashPlan, CrashPoint, InProcessPort, Warehouse};

/// Per-view extent CRCs, in slot order — the bit-identity fingerprint.
fn crcs(report: &Report) -> Vec<u32> {
    report.views.iter().map(|v| v.extent_crc).collect()
}

fn unshared(profile: FaultProfile, seed: u64) -> Experiment {
    Experiment { share_subplans: false, ..Experiment::multiview(profile, seed) }
}

fn killed(profile: FaultProfile, seed: u64, skip: u64) -> Experiment {
    Experiment {
        kills: vec![CrashPlan { point: CrashPoint::BetweenSteps, skip }],
        ..Experiment::multiview(profile, seed)
    }
}

#[test]
fn multiview_quick_each_profile_converges() {
    // One seed per fault profile (plus the fault-free baseline), three
    // overlapping views: the always-on smoke version of the full grid.
    let quiet = assert_healthy(Experiment::multiview(FaultProfile::quiet(), 11));
    assert_eq!(quiet.counter("fault.injected_total"), 0, "the quiet profile injects nothing");
    assert!(quiet.counter("subplan.shared_hits") > 0, "overlapping views must share first hops");
    let mut injected = 0;
    for profile in FaultProfile::all() {
        injected +=
            assert_healthy(Experiment::multiview(profile, 11)).counter("fault.injected_total");
    }
    assert!(injected > 0, "the quick sweep must inject at least one fault");
}

#[test]
fn multiview_quick_shared_matches_unshared_bit_for_bit() {
    let shared = assert_healthy(Experiment::multiview(FaultProfile::drop_dup(), 5));
    let unshared = assert_healthy(unshared(FaultProfile::drop_dup(), 5));
    assert!(shared.counter("subplan.shared_hits") > 0);
    assert_eq!(unshared.counter("subplan.shared_hits"), 0, "sharing off never consults the cache");
    assert_eq!(
        crcs(&shared),
        crcs(&unshared),
        "sharing changes how much work runs, never what is computed"
    );
}

#[test]
fn multiview_quick_kill_recovers_bit_identically() {
    let baseline = assert_healthy(Experiment::multiview(FaultProfile::quiet(), 31));
    let crashed = assert_healthy(killed(FaultProfile::quiet(), 31, 3));
    assert_eq!(crashed.counter("wal.power_cuts"), 1, "the armed kill fired");
    assert_eq!(crcs(&crashed), crcs(&baseline), "WAL recovery restores every view bit-identically");
}

/// The PriceList view (Retailer only — no `Catalog` dependency).
fn pricelist_view() -> ViewDefinition {
    let q = SpjQuery::over(["Store", "Item"])
        .select("Store", "StoreName")
        .select("Item", "Book")
        .select("Item", "Price")
        .join_eq(("Store", "SID"), ("Item", "SID"))
        .build();
    ViewDefinition::new("PriceList", q)
}

/// A Library-only view that does *not* project the `Review` attribute.
fn titles_view() -> ViewDefinition {
    let q = SpjQuery::over(["Catalog"])
        .select("Catalog", "Title")
        .select("Catalog", "Publisher")
        .build();
    ViewDefinition::new("Titles", q)
}

/// Satellite: the cross-view SC safety matrix. One schema change —
/// `DROP Catalog.Review` (paper SC2) — lands concurrently with an
/// in-flight data update. The SC is **unsafe** for `BookInfo` (it projects
/// `Review`, so the drop invalidates its definition: the paper's
/// broken-query anomaly classes) and **safe** for `PriceList` (Retailer
/// only) and `Titles` (reads `Catalog` but never `Review`). The warehouse
/// must record the split verdict, let the safe views commit untouched, and
/// correct the unsafe view through view synchronization (rewriting
/// `Review` → `ReaderDigest.Comments` per the information space) — and the
/// whole episode must be bit-identical with and without subplan sharing.
#[test]
fn sc_safety_matrix_splits_verdicts_and_corrects_only_the_unsafe_view() {
    let run = |strategy: Strategy, share: bool| {
        let space = bookinfo_space();
        let info = space.info().clone();
        let mut port = InProcessPort::new(space);
        let mut wh = Warehouse::new(info, strategy)
            .with_correction(CorrectionPolicy::MergeCycles)
            .with_subplan_sharing(share);
        wh.add_view(bookinfo_view()); // unsafe: projects Catalog.Review
        wh.add_view(pricelist_view()); // safe: never touches the Library
        wh.add_view(titles_view()); // safe: Catalog without Review
        wh.initialize(&mut port).unwrap();

        // A DU and the SC committed back to back: the drop arrives while
        // the insert's maintenance is still pending — the concurrency that
        // produces the paper's anomalies in the single-view setting.
        port.commit(
            SourceId(0),
            SourceUpdate::Data(insert_item(10, "Data Integration Guide", "Adams", 36)),
        )
        .unwrap();
        port.commit(
            SourceId(1),
            SourceUpdate::Schema(SchemaChange::DropAttribute {
                relation: "Catalog".into(),
                attr: "Review".into(),
            }),
        )
        .unwrap();
        wh.run_to_quiescence(&mut port, 200).unwrap();

        assert!(
            wh.divergent_verdicts() >= 1,
            "{strategy:?}: safe-for-A/unsafe-for-B must be recorded as a split verdict"
        );

        // A (PriceList) committed the DU and kept its definition verbatim.
        assert_eq!(wh.mv(1).len(), 2, "{strategy:?}: the safe view committed the insert");
        assert_eq!(
            wh.view(1).query,
            pricelist_view().query,
            "{strategy:?}: the SC must not rewrite a view it cannot invalidate"
        );
        assert_eq!(wh.view(2).query, titles_view().query);

        // B (BookInfo) was corrected: the information-space replacement
        // redirected `Catalog.Review` to `ReaderDigest.Comments`, keeping
        // the output name `Review` as an alias (consumer insulation).
        let rewritten = wh.view(0).query.to_string();
        assert!(
            rewritten.contains("ReaderDigest.Comments AS Review"),
            "{strategy:?}: VS must redirect Review to the Digest source, got {rewritten}"
        );
        assert!(
            wh.view(0).query.tables.iter().any(|t| t == "ReaderDigest"),
            "{strategy:?}: the corrected join reaches the replacement relation"
        );

        // Every view — corrected or untouched — converges to its current
        // definition over the final source states.
        for i in 0..wh.view_count() {
            let expected = dyno::relational::eval(&wh.view(i).query, &port.space().provider())
                .expect("post-SC definitions are valid");
            assert_eq!(wh.mv(i).extent(), &expected.rows, "{strategy:?}: view {i} converged");
        }
        let extents: Vec<_> = (0..wh.view_count()).map(|i| wh.mv(i).sorted_tuples()).collect();
        (extents, wh.subplan_hits())
    };

    for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
        let (shared, hits) = run(strategy, true);
        let (unshared, no_hits) = run(strategy, false);
        assert_eq!(
            shared, unshared,
            "{strategy:?}: shared-subplan execution is bit-identical to unshared"
        );
        assert!(hits >= 1, "{strategy:?}: the DU's first hop was shared across views");
        assert_eq!(no_hits, 0);
    }

    // The sim-level runner sees the same divergence under a seeded
    // workload; report it to the summary file for the verify.sh gate.
    let report = assert_healthy(Experiment::multiview(FaultProfile::quiet(), 2));
    assert!(
        report.counter("safety.divergent_verdicts") >= 1,
        "seeded SC train splits verdicts across views"
    );
}

/// The full differential grid: seeds × profiles × strategies, each run
/// audited per view at every commit. `#[ignore]`d (minutes in release
/// mode); run via `scripts/verify.sh` under `VERIFY_FULL=1` or
/// `cargo test --release --test multiview_props -- --include-ignored`.
#[test]
#[ignore = "full grid; run with --include-ignored (scripts/verify.sh)"]
fn multiview_full_grid_converges_under_chaos() {
    let mut injected = 0u64;
    let mut hits = 0u64;
    let mut divergent = 0u64;
    for profile in FaultProfile::all() {
        for seed in 0..4u64 {
            for strategy in [Strategy::Pessimistic, Strategy::Optimistic] {
                let report =
                    assert_healthy(Experiment { strategy, ..Experiment::multiview(profile, seed) });
                injected += report.counter("fault.injected_total");
                hits += report.counter("subplan.shared_hits");
                divergent += report.counter("safety.divergent_verdicts");
            }
        }
    }
    assert!(injected > 0, "the grid must inject faults");
    assert!(hits > 0, "the grid must share subplans");
    assert!(divergent > 0, "the grid's SC trains must split verdicts at least once");
}

#[test]
#[ignore = "full grid companion; run with --include-ignored (scripts/verify.sh)"]
fn multiview_full_grid_sharing_is_transparent() {
    // Across profiles and seeds, shared and unshared execution never
    // disagree on a single extent bit.
    for profile in FaultProfile::all() {
        for seed in 0..3u64 {
            let shared = assert_healthy(Experiment::multiview(profile, seed));
            let unshared = assert_healthy(unshared(profile, seed));
            assert_eq!(crcs(&shared), crcs(&unshared), "profile={} seed={seed}", profile.name);
        }
    }
}

#[test]
#[ignore = "full grid companion; run with --include-ignored (scripts/verify.sh)"]
fn multiview_full_grid_recovers_from_kills() {
    // Kill/recover at several points mid-run, under a faulty transport,
    // and demand bit-identity with the uncrashed run of the same seed.
    for profile in [FaultProfile::quiet(), FaultProfile::drop_dup()] {
        for seed in 0..3u64 {
            let baseline = assert_healthy(Experiment::multiview(profile, seed));
            for skip in [1u64, 4, 7] {
                let crashed = assert_healthy(killed(profile, seed, skip));
                assert!(
                    crashed.counter("wal.power_cuts") >= 1,
                    "profile={} seed={seed} skip={skip}",
                    profile.name
                );
                assert_eq!(
                    crcs(&crashed),
                    crcs(&baseline),
                    "profile={} seed={seed} skip={skip}: recovery is bit-identical per view",
                    profile.name
                );
            }
        }
    }
}
