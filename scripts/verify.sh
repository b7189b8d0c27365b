#!/usr/bin/env bash
# Full offline verification gauntlet: formatting, lints, build, tests
# (unit, integration and seeded randomized suites alike), and the figure
# binaries' JSON/trace export smoke test. No network access is required at
# any step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== no too_many_arguments allowance =="
# A long parameter list is a missing type: bundle the arguments (or read
# them from the value already passed) instead of silencing the lint.
if grep -rn --include='*.rs' 'allow(clippy::too_many_arguments)' crates src tests examples; then
    echo "verify: a too_many_arguments allowance (listed above) silences clippy" >&2
    exit 1
fi

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== cargo test (every suite, seeded randomized ones included) =="
cargo test -q --workspace --offline

echo "== hop protocol differential suite, release codegen =="
# tests/hop_props.rs: a port's native `hop` against the trait's default
# `execute` path — rows, errors, ExecStats, simulated time, fault draws,
# trace. Release too, because the probe path is what release builds inline.
cargo test -q --release --offline --test hop_props

echo "== source history + adaptation differential suites, release codegen =="
# tests/source_history_props.rs: every version `state_at` rewinds to equals
# the forward replay, over all seven schema-change kinds. tests/
# adapt_chain_props.rs: Equation 6 as delta chains, and pruned columns
# projected from the held extent, against RecomputeOnly and the batch-point
# `eval` reference. tests/adaptation_modes.rs: both modes agree, and a live
# port ships no rows through schema-change rounds. Release too: the
# projection and the list-built join they lean on are what release builds
# inline.
cargo test -q --release --offline --test source_history_props --test adapt_chain_props \
    --test adaptation_modes

echo "== benchmark/ package suite (out-of-workspace SourcePort/Storage implementors) =="
# `benchmark/` is its own workspace, so nothing above compiles it: a trait
# change that breaks its `TimingPort`/`TimingStorage` would go unseen until
# the benchmark driver runs.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== bench harness smoke test (bounded budget) =="
DYNO_BENCH_MS=50 DYNO_SWEEP_TUPLES=400,800 DYNO_BENCH_JSON="$out/smoke.jsonl" \
    cargo bench -q --offline -p dyno-bench >/dev/null

echo "== benchdiff regression gate (smoke medians vs BENCH_smoke.json) =="
# The smoke capture, reduced to median-only lines (the reduction in
# scripts/bench_smoke_baseline.sh), must stay within 4x of the checked-in
# baseline on every benchmark. The tolerance is deliberately loose — it
# absorbs machine-to-machine variance and the smoke's tiny budget — while
# still catching structural regressions: losing an index path, a delta
# operator falling back to replay, or an accidentally quadratic loop all
# move medians by well over 4x. Exit 1 on regression.
sed -E 's/"samples":[0-9]+,"block":[0-9]+,"min_ns":[0-9.]+,//; s/,"mean_ns":[0-9.]+,"max_ns":[0-9.]+//' \
    "$out/smoke.jsonl" > "$out/smoke_medians.jsonl"
cargo run -q --release --offline -p dyno-bench --bin benchdiff -- \
    BENCH_smoke.json "$out/smoke_medians.jsonl" --tol 4.0

echo "== structural gate: a rename's commit cost does not follow the relation's size =="
# `source_commit_rename/N` commits one relation rename at a source holding
# N-row relations. The relation is moved and nothing is pinned, so both
# sizes cost the same; a reintroduced per-schema-change copy (of the
# relation, or of the catalog as a snapshot) makes the 10x larger source
# ~10x slower at any machine speed — where the 4x tolerance above, against a
# baseline from another machine, can let it through.
smoke_median() {
    grep "\"bench\":\"$1\"" "$out/smoke.jsonl" \
        | grep -o '"median_ns":[0-9.]*' | grep -o '[0-9.]*$'
}
# Fails unless bench row `$1/$3` costs at most twice `$1/$2`.
size_gate() {
    local small large
    small="$(smoke_median "$1/$2")"
    large="$(smoke_median "$1/$3")"
    test -n "$small"
    test -n "$large"
    awk -v s="$small" -v l="$large" 'BEGIN { exit !(l <= 2 * s) }'
    echo "$1: $small ns at $2, $large ns at $3 (<= 2x)"
}
size_gate source_commit_rename 2000 20000

echo "== structural gate: a merged batch's adaptation cost follows |Δ|, not the relations =="
# `adapt_batch_rename/6xN` adapts one data update + rename batch over the
# six N-row testbed relations through `InProcessPort`, which answers its
# adaptation reads live: Equation 6's hops are index probes, so the cost
# follows the batch's delta. Shipping the six extents (the parent's path)
# makes the 10x larger testbed ~10x slower.
size_gate adapt_batch_rename 6x2000 6x20000

echo "== structural gate: a data update costs the views that read its relation, not N =="
# `fanout_du/N` runs one single-row insert to R0, and its delete, through a
# whole warehouse step with N views registered. The same six views read R0
# at both sizes; the rest read only relations the update does not touch. A
# per-commit walk over every view (classifying each slot, committing a skip
# to it, sizing a per-slot change vector) makes 240 views cost more than
# twice 24.
size_gate fanout_du 24 240

echo "== structural gate: a pruned column adapts from the held extent, not a recompute =="
# `adapt_batch_drop/6x2000` adapts one data update + a drop of a column the
# view selects, on `InProcessPort`: V′ is the held extent projected plus
# Equation 6 over the insert. `adapt_batch_drop_recompute/6x2000` is the same
# batch under RecomputeOnly, shipping and re-joining all six relations (the
# parent's path for this batch). The first must be at least 4x faster.
projected="$(smoke_median adapt_batch_drop/6x2000)"
recomputed="$(smoke_median adapt_batch_drop_recompute/6x2000)"
test -n "$projected"
test -n "$recomputed"
awk -v p="$projected" -v r="$recomputed" 'BEGIN { exit !(4 * p <= r) }'
echo "adapt_batch_drop: $projected ns projected vs $recomputed ns recomputed (>= 4x)"

echo "== fig10 --json/--trace smoke test =="
DYNO_TUPLES=300 cargo run -q --release --offline -p dyno-bench --bin fig10 -- \
    --json "$out/fig10.json" --trace "$out/fig10.jsonl" >/dev/null
test -s "$out/fig10.json"
test -s "$out/fig10.jsonl"
test -s "$out/fig10.jsonl.metrics.json"

echo "== recorded figure pins (the --json of every EXPERIMENTS.md figure) =="
# The nine bins behind EXPERIMENTS.md (fig04/05/08-12 and the two
# ablations) at default scale, against tests/data/figure_pins.txt: one line
# per bin, the CRC-32 of its --json. Every figure is virtual-clock driven,
# so a moved CRC is a moved figure. gzip's trailer is the CRC-32 (IEEE) of
# its input, stored little-endian. After an intended change, rewrite the
# line the failure names.
crc32() {
    gzip -c < "$1" | tail -c 8 | od -An -N4 -tx4 --endian=little | tr -d ' '
}
while read -r -u 3 bin pin; do
    cargo run -q --release --offline -p dyno-bench --bin "$bin" -- \
        --json "$out/$bin.json" >/dev/null
    got="json=$(crc32 "$out/$bin.json")"
    if [ "$got" != "$pin" ]; then
        echo "figure pins: $bin has $got, tests/data/figure_pins.txt records $pin" >&2
        exit 1
    fi
done 3< tests/data/figure_pins.txt
echo "figure pins: $(wc -l < tests/data/figure_pins.txt) figures match"

echo "== chrome trace export + tracecheck (Perfetto document validity) =="
# A lineage-traced chaos run exported as a Chrome trace_event document,
# then structurally validated: every B/E span balanced per lane, every
# flow arrow (s/t/f per causal id) resolved, no unknown phases. Spans and
# provenance share one ring here, so the run must evict nothing: then the
# export is exactly what two separate rings would have rendered.
DYNO_TUPLES=300 cargo run -q --release --offline -p dyno-bench --bin fig10 -- \
    --chrome "$out/fig10.chrome.json" > "$out/fig10_chrome.txt"
test -s "$out/fig10.chrome.json"
grep -q "records (0 dropped)" "$out/fig10_chrome.txt"
cargo run -q --release --offline -p dyno-bench --bin tracecheck -- \
    "$out/fig10.chrome.json"

echo "== forensics analyzer smoke (per-anomaly-class latency breakdown) =="
cargo run -q --release --offline -p dyno-bench --bin forensics -- \
    --json "$out/forensics.json" >/dev/null
test -s "$out/forensics.json"
grep -q '"by_class_us"' "$out/forensics.json"

echo "== chaos robustness sweep (every fault profile converges) =="
# The README's chaos bin at its default seeds: each row is one fault
# profile x seed run to quiescence. Every row's `converged` column must be
# true and the sweep must end with no `last_error` — a run that parks for
# good or surfaces an error is a recovery bug, whatever the fault counts.
cargo run -q --release --offline -p dyno-bench --bin chaos -- \
    --json "$out/chaos.json" >/dev/null
chaos_rows="$(grep -o '\["[a-z_]*",[0-9]*,"[a-z]*"' "$out/chaos.json")"
test -n "$chaos_rows"
if grep -v ',"true"$' <<<"$chaos_rows"; then
    echo "chaos: the runs above did not converge" >&2
    exit 1
fi
grep -q '"last_error":null' "$out/chaos.json"
echo "chaos: $(wc -l <<<"$chaos_rows") runs converged, last_error none"

echo "== plan cache invalidates on every committed schema change =="
# The traced fig10 run commits a train of 10 SCs; each must have cleared
# the maintenance-plan cache.
invalidations="$(grep -o '"plan.cache_invalidations":[0-9]*' \
    "$out/fig10.jsonl.metrics.json" | grep -o '[0-9]*$')"
test -n "$invalidations"
test "$invalidations" -ge 10
echo "plan.cache_invalidations = $invalidations (>= 10)"

# The #[ignore]d full grids (chaos: seeds x profiles x strategies x
# policies; crash: classes x seeds x policies) run when VERIFY_FULL=1;
# otherwise only the always-on quick subsets run, and the skip is announced
# rather than silent.
VERIFY_FULL="${VERIFY_FULL:-0}"
grid_flags=()
if [ "$VERIFY_FULL" = "1" ]; then
    grid_flags=(--include-ignored)
    echo "== VERIFY_FULL=1: full seeded grids enabled =="
else
    echo "== VERIFY_FULL not set: quick chaos/crash subsets only" \
         "(set VERIFY_FULL=1 for the full grids) =="
fi

echo "== chaos smoke (seeded fault-injection grid, wall-clock capped) =="
# Runs in release so the cap is comfortable; `timeout` guards against a hung
# recovery loop ever blocking verification. Each run appends its
# injected-fault count to the summary file — a suite that injected nothing
# proves nothing, so that is an error.
chaos_summary="$out/chaos_summary.txt"
: > "$chaos_summary"
DYNO_CHAOS_SUMMARY="$chaos_summary" timeout 600 \
    cargo test -q --release --offline --test chaos_props -- "${grid_flags[@]}"
test -s "$chaos_summary"
injected_total="$(awk -F= '/^fault.injected_total=/ { n += $2 } END { print n+0 }' \
    "$chaos_summary")"
test "$injected_total" -gt 0
echo "fault.injected_total = $injected_total (summed over $(wc -l < "$chaos_summary") runs)"

echo "== recorded grid fingerprints (chaos/crash/multiview x profiles x seeds 0..8) =="
# 192 runs of the one harness against tests/data/grids.txt, a capture the
# pre-`Experiment` drivers wrote: counters, simulated series, extent CRCs,
# final SQL and lineage must not move. `#[ignore]`d only for debug-build time.
timeout 600 cargo test -q --release --offline --test chaos_props grids_match -- --ignored

echo "== recorded capture pins (every capture surface of a fixed run set) =="
# Chaos runs over every fault profile x seeds {0, 3} (one killed) with
# tracing, lineage and the profiler on, plus a partitioned three-peer run,
# against tests/data/capture_pins.txt: CRC32s of trace_jsonl,
# lineage_jsonl, export_chrome, the forensics report and explain, the
# profile's call/row/probe totals, and the ring's drop count (0). Recorded
# while spans and provenance still had separate stores; must not move.
timeout 600 cargo test -q --release --offline --test provenance_props capture_matches

echo "== live monitor smoke (open-loop telemetry, DESIGN.md §14) =="
# A short bursty run against a bounded UMQ: the admission bound must
# actually shed, the load must still mostly flow, and the burn-rate SLO
# machinery must complete at least one evaluation window per lane.
cargo run -q --release --offline -p dyno-bench --bin monitor -- \
    --profile burst --seed 42 --duration-s 30 --json "$out/monitor.json" >/dev/null
test -s "$out/monitor.json"
shed="$(grep -o '"shed":[0-9]*' "$out/monitor.json" | head -1 | grep -o '[0-9]*$')"
admitted="$(grep -o '"admitted":[0-9]*' "$out/monitor.json" | head -1 | grep -o '[0-9]*$')"
evals="$(grep -o '"evaluations":[0-9]*' "$out/monitor.json" | grep -o '[0-9]*$' \
    | awk '{ n += $1 } END { print n+0 }')"
test "$shed" -gt 0
test "$admitted" -gt 0
test "$evals" -gt 0
echo "monitor: admitted=$admitted shed=$shed slo_evaluations=$evals"

echo "== saturation sweep (capacity knee curve, DESIGN.md §18) =="
# Steps the open-loop arrival rate across the default grid with the
# per-operator profiler on. The bin itself asserts the offered-load ramp is
# monotone; here we require a detected knee and hold the deterministic
# capture (admitted/shed, staleness quantiles, profile row/probe totals —
# no wall-ns) to the checked-in BENCH_pr10.json baseline exactly. Every
# field is virtual-clock driven, so the rerun is byte-identical on any
# machine; an intended retune regenerates the baseline in the same change.
cargo run -q --release --offline -p dyno-bench --bin saturate -- \
    --json "$out/saturate.jsonl" > "$out/saturate.txt"
grep -q '"bench":"knee"' "$out/saturate.jsonl"
grep -q '^knee: ' "$out/saturate.txt"
cargo run -q --release --offline -p dyno-bench --bin benchdiff -- \
    BENCH_pr10.json "$out/saturate.jsonl" --tol 0

echo "== profiler gates (conservation, bit-identity, disabled = 0 alloc) =="
# tests/profile_props.rs: per-phase totals are sums of operator nodes on a
# real capture, monitor/chaos determinism surfaces are byte-identical with
# the profiler on and off, and the disabled gate path performs zero heap
# allocations (counting global allocator). Release mode so the zero-alloc
# loop measures the real codegen, not debug-build temporaries.
timeout 600 cargo test -q --release --offline --test profile_props

echo "== multi-view smoke (shared maintenance DAG, per-view safety) =="
# The differential multi-view suite (tests/multiview_props.rs): N
# incrementally maintained views audited per view at every commit. The
# summary must show the suite exercised >= 3 overlapping views, actually
# served first-hop joins from the shared-subplan cache, and recorded at
# least one batch whose safety verdicts split across views (safe for A,
# unsafe/deferred for B) — a run that never shares and never diverges is
# not testing the multi-view machinery.
multiview_summary="$out/multiview_summary.txt"
: > "$multiview_summary"
DYNO_MULTIVIEW_SUMMARY="$multiview_summary" timeout 600 \
    cargo test -q --release --offline --test multiview_props -- "${grid_flags[@]}"
test -s "$multiview_summary"
max_views="$(awk -F= '/^views=/ { if ($2 > n) n = $2 } END { print n+0 }' "$multiview_summary")"
shared_hits="$(awk -F= '/^subplan.shared_hits=/ { n += $2 } END { print n+0 }' \
    "$multiview_summary")"
divergent="$(awk -F= '/^safety.divergent_verdicts=/ { n += $2 } END { print n+0 }' \
    "$multiview_summary")"
test "$max_views" -ge 3
test "$shared_hits" -gt 0
test "$divergent" -gt 0
echo "multiview: views=$max_views subplan.shared_hits=$shared_hits" \
     "safety.divergent_verdicts=$divergent (over $(wc -l < "$multiview_summary") lines)"

echo "== multiview bench sweep (shared vs independent warehouses) =="
# Shared-subplan maintenance must beat N independent single-view warehouses
# by >= 1.5x at 3 overlapping views (the in-bin gate), and the whole sweep
# must stay within 4x of the checked-in BENCH_pr8.json baseline — the same
# loose-but-structural tolerance as the smoke gate above. The speedup
# ratios (speedup_x1000_*) are scale-free, so the benchdiff comparison
# also catches a sharing regression that a fast machine would mask.
cargo run -q --release --offline -p dyno-bench --bin multiview -- \
    --check-ratio 1.5 --json "$out/multiview.jsonl"
cargo run -q --release --offline -p dyno-bench --bin benchdiff -- \
    BENCH_pr8.json "$out/multiview.jsonl" --tol 4.0

echo "== benchdiff self-check (a capture never regresses against itself) =="
cargo run -q --release --offline -p dyno-bench --bin benchdiff -- \
    BENCH_scale.json BENCH_scale.json --tol 0

echo "== provenance conservation (lineage vs. what maintenance did) =="
# Every committed extent delta must trace to an admitted update, terminals
# are exactly-once even across kill-restart, and same-seed captures are
# byte-identical (tests/provenance_props.rs).
timeout 600 cargo test -q --release --offline --test provenance_props -- \
    "${grid_flags[@]}"

echo "== crash-recovery smoke (seeded kill-restart, wall-clock capped) =="
# Warehouse processes are killed at deterministic commit-protocol points and
# recovered from the WAL (tests/crash_props.rs). The suite must actually
# kill something, every recovery must converge bit-identically, and a
# cleanly closed log must recover with recover.torn_records == 0 on every
# run — the simulated power cut drops whole records, so any torn tail here
# is a WAL framing bug.
crash_summary="$out/crash_summary.txt"
: > "$crash_summary"
DYNO_CRASH_SUMMARY="$crash_summary" timeout 600 \
    cargo test -q --release --offline --test crash_props -- "${grid_flags[@]}"
test -s "$crash_summary"
kills_total="$(awk -F'[= ]' '/^wal.kills=/ { n += $2 } END { print n+0 }' "$crash_summary")"
test "$kills_total" -gt 0
torn_total="$(awk -F= '/recover.torn_records=/ { n += $NF } END { print n+0 }' "$crash_summary")"
test "$torn_total" -eq 0
echo "wal.kills = $kills_total, recover.torn_records = $torn_total" \
     "(over $(wc -l < "$crash_summary") runs)"
# Every grid above pins `checkpoint_every`. tests/wal_compaction_props.rs
# runs the default policy instead — its kill-restart seed
# (`size_rule_is_crossed_before_and_after_a_power_cut`) crosses the size
# rule on both sides of a power cut — along with the 2x bounds, the CRC
# differential and the parent-format fixture; in release, because the CRC
# and framing paths are what release builds inline.
timeout 600 cargo test -q --release --offline --test wal_compaction_props

echo "== WAL compaction bound on the recovery sweep's default-policy rows =="
# A log the size rule maintains never exceeds two snapshots plus the rule's
# floor (COMPACT_FLOOR_BYTES in crates/view/src/wal.rs).
DYNO_BENCH_MS=20 cargo run -q --release --offline -p dyno-bench --bin recover -- \
    --json "$out/recover.jsonl" >/dev/null
compact_floor=16384
auto_rows=0
while IFS= read -r row; do
    log_bytes="$(grep -o '"log_bytes":[0-9]*' <<<"$row" | grep -o '[0-9]*$')"
    snapshot_bytes="$(grep -o '"snapshot_bytes":[0-9]*' <<<"$row" | grep -o '[0-9]*$')"
    if [ "$log_bytes" -gt $((2 * snapshot_bytes + compact_floor)) ]; then
        echo "recover: $row exceeds 2 x snapshot + $compact_floor B" >&2
        exit 1
    fi
    auto_rows=$((auto_rows + 1))
done < <(grep 'ckpt=auto' "$out/recover.jsonl")
test "$auto_rows" -gt 0
echo "recover: $auto_rows default-policy rows within 2 x snapshot + $compact_floor B"

echo "== recovery sweep: on-disk bytes unchanged, replay independent of history =="
# The sweep's logs are deterministic, so every row's log and snapshot sizes
# must equal BENCH_pr4.json's: a difference is a record or checkpoint
# format change. And a log checkpointed every 16 records replays the same
# bounded tail however long its history: n=1024/ckpt=16 must replay within
# 2x n=64/ckpt=16, at any machine speed.
byte_columns() {
    grep -o '"bench":"[^"]*","log_bytes":[0-9]*,"snapshot_bytes":[0-9]*' "$1"
}
diff <(byte_columns BENCH_pr4.json) <(byte_columns "$out/recover.jsonl")
recover_median() {
    grep "\"bench\":\"$1\"" "$out/recover.jsonl" \
        | grep -o '"median_ns":[0-9.]*' | grep -o '[0-9.]*$'
}
short_history="$(recover_median n=64/ckpt=16)"
long_history="$(recover_median n=1024/ckpt=16)"
test -n "$short_history"
test -n "$long_history"
awk -v s="$short_history" -v l="$long_history" 'BEGIN { exit !(l <= 2 * s) }'
echo "recover: $(byte_columns BENCH_pr4.json | wc -l) rows byte-identical to BENCH_pr4.json;" \
     "n=1024/ckpt=16 $long_history ns vs n=64/ckpt=16 $short_history ns (<= 2x)"

echo "== replication smoke (partitioned peer replicas, causal conflicts) =="
# The replicated-warehouse suite (tests/replica_props.rs): N peer replicas
# exchanging client source writes across a partition-capable fabric, run by
# the one loop; each replica commits a winner to its own sources and
# maintains it like any other update. Every run must converge to
# bit-identical extents with every peer source rewinding to version 0, and
# partition runs must hold traffic, detect concurrent writes to one
# (relation, key) (rd conflicts) and discard LWW losers — a suite that never
# partitions proves nothing about partition tolerance.
timeout 600 cargo test -q --release --offline --test replica_props -- "${grid_flags[@]}"

echo "== recorded replica fingerprints (replicas x profiles x seeds 0..8, kills) =="
# 155 replicated runs against tests/data/replica_grid.txt: convergence (the
# history oracle included), bit identity, per-peer extent CRCs and every
# replication counter (partitions, conflicts, supersedes, applies,
# publishes, duplicates, kills) must not move. Runs on every invocation;
# ~6 s in release.
timeout 600 cargo test -q --release --offline --test replica_props replica_grid_matches -- --ignored

echo "== replication bench sweep (replica count x profile) =="
# Convergence wall-clock medians, held within 4x of the checked-in
# BENCH_pr9.json. The sweep's replication counters are deterministic per
# seed and pinned exactly by the fingerprints above, not by this tolerance.
cargo run -q --release --offline -p dyno-bench --bin replicate -- \
    --json "$out/replicate.jsonl"
cargo run -q --release --offline -p dyno-bench --bin benchdiff -- \
    BENCH_pr9.json "$out/replicate.jsonl" --tol 4.0

echo "== replication forensics lens smoke =="
# Capture to a file rather than piping into `grep -q`: an early-exiting
# grep closes the pipe and the bin dies on EPIPE mid-print.
cargo run -q --release --offline -p dyno-bench --bin forensics -- --replica \
    > "$out/forensics_replica.txt"
grep -q "extents bit-identical: true" "$out/forensics_replica.txt"

echo "verify: all green"
