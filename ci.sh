#!/usr/bin/env bash
# Local CI gauntlet for the obfugraph workspace. Run from the repo root.
#
# Mirrors the hosted pipeline (.github/workflows/ci.yml), which invokes
# the same named steps so local and hosted runs can never drift. Usage:
#   ./ci.sh            # full run (all steps)
#   ./ci.sh fast       # skip the release build (debug test cycle only)
#   ./ci.sh lint       # fmt + clippy only
#   ./ci.sh test       # debug tests + docs only
#   ./ci.sh release    # release build + bench compile + determinism matrix
#   ./ci.sh serve      # obf_server integration tests + loadgen smoke + digest check
#   ./ci.sh evolve     # obf_evolve tests + republish bench smoke + digest check
#   ./ci.sh cluster    # obf_cluster fleet tests + router-vs-direct bench + fleet digest check
#   ./ci.sh snapshot   # snapshot v3 round-trip, convert tool, mmap-vs-heap digest, docs spec
#   ./ci.sh analyze    # obf_audit static analysis (deny-clean) + pedantic clippy on engine crates
#   ./ci.sh trend      # fold committed BENCH_server.json history into results/TREND.md
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

lint() {
    step "cargo fmt --check"
    cargo fmt --all -- --check

    step "cargo clippy (all targets, warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_tests() {
    step "cargo test"
    cargo test --workspace -q

    step "cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
}

release() {
    step "cargo build --release"
    cargo build --release --workspace

    step "benches compile"
    cargo bench --no-run --workspace -q

    # Thread-matrix smoke: the parallel engine must produce bit-identical
    # experiment output for every thread count (fixed seed). Run the
    # table3 and fig2 binaries at reduced scale with 1 and 4 threads and
    # diff the deterministic TSV columns (table3's wall-clock columns 4-5
    # are excluded; everything in fig2 is deterministic, and so are the
    # σ-search fast-path counters in table3 columns 7-9).
    step "thread-matrix determinism (table3 + fig2 at reduced scale)"
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    for t in 1 4; do
        OBF_FAST=1 ./target/release/table3 --threads "$t" >/dev/null 2>&1
        cut -f1-3,6-9 results/table3.tsv > "$tmpdir/table3_t$t"
        OBF_FAST=1 ./target/release/fig2 --threads "$t" >/dev/null 2>&1
        cp results/fig2_k5.tsv "$tmpdir/fig2_t$t"
    done
    diff "$tmpdir/table3_t1" "$tmpdir/table3_t4" \
        || { echo "table3 output differs between --threads 1 and 4"; exit 1; }
    diff "$tmpdir/fig2_t1" "$tmpdir/fig2_t4" \
        || { echo "fig2 output differs between --threads 1 and 4"; exit 1; }

    # The fast path must not change the search trajectory: diff the
    # deterministic columns against an OBF_CHECK=exhaustive run.
    step "check-strategy determinism (fastpath vs exhaustive)"
    OBF_FAST=1 OBF_CHECK=exhaustive ./target/release/table3 --threads 4 >/dev/null 2>&1
    cut -f1-3,6 results/table3.tsv > "$tmpdir/table3_exhaustive"
    # table3_t4 already holds columns (dataset, k, eps, generate_calls,
    # candidates, dp_evals, dp_hit_rate); the first four are the
    # strategy-independent trajectory.
    cut -f1-4 "$tmpdir/table3_t4" | diff - "$tmpdir/table3_exhaustive" \
        || { echo "table3 trajectory differs between fastpath and exhaustive"; exit 1; }
    echo "determinism OK: identical across thread counts and check strategies"

    # Leave results/table3.tsv + BENCH_table3.json reflecting the default
    # fast path (the exhaustive run above overwrote them), so the CI
    # artifact records the real per-PR perf trajectory.
    OBF_FAST=1 ./target/release/table3 --threads 4 >/dev/null 2>&1
}

serve() {
    step "obf_server integration tests"
    cargo test -q -p obf_server

    # The event-loop hardening suites, named so a failure points straight
    # at the broken layer: protocol fuzzing, fault injection (slowloris,
    # half-open, backpressure), transport bit-identity, the 1000-
    # connection swarm, and STAT transcripts that must not depend on the
    # world-statistics memo's capacity.
    step "obf_server fuzz + fault-injection + bit-identity + swarm + memo suites"
    cargo test -q -p obf_server --test fuzz_protocol
    cargo test -q -p obf_server --test fault_injection
    cargo test -q -p obf_server --test bit_identity
    cargo test -q -p obf_server --test high_concurrency
    cargo test -q -p obf_server --test stat_memo

    # Serving determinism: the probe script must answer bit-identically
    # across runs (throughput may differ, answers not) AND match the
    # digest pinned when the event loop replaced the blocking core — the
    # transport rewrite is forbidden from changing a single answer byte.
    expected_digest="f6ed1718c9ff44a5"
    step "serving determinism (answers digest across runs)"
    cargo build --release -p obf_bench -p obf_server
    OBF_FAST=1 ./target/release/loadgen --connections 2 --duration 200ms --open-loop-points 0
    digest1=$(grep answers_digest results/BENCH_server.json)
    case "$digest1" in
        *"$expected_digest"*) ;;
        *) echo "answers digest drifted from pinned $expected_digest: $digest1"; exit 1 ;;
    esac

    # Run 2 turns the full observability stack on (request logging +
    # metrics scrape); the digest-equality check below therefore
    # doubles as the digest-neutrality gate — instrumentation is
    # forbidden from changing a single answer byte.
    step "loadgen smoke (2s closed-loop + 6-point open-loop sweep, request log on)"
    OBF_FAST=1 ./target/release/loadgen --connections 2 --duration 2s \
        --request-log results/REQLOG.txt
    test -s results/BENCH_server.json \
        || { echo "loadgen did not emit results/BENCH_server.json"; exit 1; }
    digest2=$(grep answers_digest results/BENCH_server.json)
    [ "$digest1" = "$digest2" ] \
        || { echo "answers digest differs between runs: $digest1 vs $digest2"; exit 1; }
    points=$(grep -c offered_qps results/BENCH_server.json)
    [ "$points" -ge 5 ] \
        || { echo "open-loop sweep has $points points, need >= 5"; exit 1; }
    test -s results/REQLOG.txt \
        || { echo "loadgen did not emit results/REQLOG.txt"; exit 1; }
    head -1 results/REQLOG.txt | grep -q '^OBFUREQLOG v1$' \
        || { echo "results/REQLOG.txt is not an OBFUREQLOG v1 file"; exit 1; }
    test -s results/METRICS.txt \
        || { echo "loadgen did not emit results/METRICS.txt"; exit 1; }
    grep -q '^obf_server_queries_total ' results/METRICS.txt \
        || { echo "METRICS scrape is missing obf_server_queries_total"; exit 1; }
    grep -q 'obf_server_answer_micros_p99' results/METRICS.txt \
        || { echo "METRICS scrape is missing span histogram quantiles"; exit 1; }

    # Replay determinism: re-driving the recorded log must reproduce
    # the pinned answers digest, and two replays of the same log must
    # report the same replay digest.
    step "replay determinism (recorded log re-driven twice)"
    OBF_FAST=1 ./target/release/loadgen --connections 2 --replay results/REQLOG.txt \
        --expect-digest "$expected_digest"
    replay1=$(grep replay_digest results/BENCH_replay.json)
    OBF_FAST=1 ./target/release/loadgen --connections 4 --replay results/REQLOG.txt \
        --expect-digest "$expected_digest"
    replay2=$(grep replay_digest results/BENCH_replay.json)
    [ "$replay1" = "$replay2" ] \
        || { echo "replay digest differs between runs: $replay1 vs $replay2"; exit 1; }
    echo "serving OK: zero protocol errors, stable digest $digest1, $points-point open-loop curve, stable replay"
}

trend() {
    # Fold the committed BENCH_server.json history into the trend
    # dashboard. Needs real git history (hosted runs must fetch with
    # fetch-depth: 0).
    step "bench trend dashboard (results/TREND.md from BENCH history)"
    scripts/bench_trend --min-points 2
    grep -c '^| ' results/TREND.md >/dev/null \
        || { echo "TREND.md has no table rows"; exit 1; }
}

evolve() {
    step "obf_evolve unit + property tests"
    cargo test -q -p obf_evolve

    step "republish bench (toy-scale delta stream, end-to-end)"
    cargo build --release -p obf_bench -p obf_server
    OBF_FAST=1 ./target/release/republish --batches 4
    test -s results/BENCH_evolve.json \
        || { echo "republish did not emit results/BENCH_evolve.json"; exit 1; }
    digest1=$(grep evolve_digest results/BENCH_evolve.json)

    # Evolve determinism: the same seed must reproduce the same sigma
    # trajectory, rows-recomputed counts and snapshot checksums bit for
    # bit (wall-clock fields are excluded from the digest).
    step "republish determinism (evolve digest across runs)"
    OBF_FAST=1 ./target/release/republish --batches 4
    digest2=$(grep evolve_digest results/BENCH_evolve.json)
    [ "$digest1" = "$digest2" ] \
        || { echo "evolve digest differs between runs: $digest1 vs $digest2"; exit 1; }
    echo "evolve OK: zero dropped connections, stable digest $digest1"
}

cluster() {
    step "obf_cluster unit tests"
    cargo test -q -p obf_cluster

    # The fleet acceptance suite: epoch-consistent rollout under live
    # traffic, plus the router's failure paths (drain drops no
    # in-flight request, a dead replica is routed around).
    step "fleet-reload suite"
    cargo test -q --test fleet_reload

    # cluster_bench: router-vs-direct serving. The serving digest must
    # be the same pinned value the serve step checks — routing through
    # the replica fleet is forbidden from changing a single answer byte
    # (the binary exits non-zero otherwise).
    expected_digest="f6ed1718c9ff44a5"
    step "cluster_bench (router digest pin)"
    cargo build --release -p obf_bench -p obf_cluster
    OBF_FAST=1 ./target/release/cluster_bench --duration 300ms
    test -s results/BENCH_cluster.json \
        || { echo "cluster_bench did not emit results/BENCH_cluster.json"; exit 1; }
    digest=$(grep answers_digest results/BENCH_cluster.json)
    case "$digest" in
        *"$expected_digest"*) ;;
        *) echo "fleet answers digest drifted from pinned $expected_digest: $digest"; exit 1 ;;
    esac
    grep -q '"digest_match": true' results/BENCH_cluster.json \
        || { echo "router digest differs from direct serving"; exit 1; }

    step "loadgen through the fleet router (digest must survive the fleet path)"
    OBF_FAST=1 ./target/release/loadgen --fleet 2 --connections 2 --duration 200ms \
        --open-loop-points 0 --expect-digest "$expected_digest"
    echo "cluster OK: router answers match direct serving, stable digest $expected_digest"
}

snapshot() {
    step "snapshot + mapped-store + out-of-core-build test suites"
    cargo test -q -p obf_uncertain snapshot
    cargo test -q -p obf_uncertain mapped
    cargo test -q -p obf_uncertain build
    cargo test -q --test snapshot_v3

    # Docs consistency (every verb + format version appears in
    # docs/FORMATS.md) is rule `formats-doc` of `ci.sh analyze` now.

    # End-to-end tool check: TSV -> v3 (in-memory) and TSV -> v3
    # (out-of-core, tiny budget to force spill runs) must produce
    # byte-identical files, and --verify must pass on both paths.
    step "snapshot_convert round-trip (in-memory vs out-of-core, byte-identical)"
    cargo build --release -p obf_bench
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    cat > "$tmpdir/toy.tsv" <<'EOF'
# n=5
0	1	0.7
0	2	0.9
1	2	0.8
1	3	0.1
2	4	0.35
3	4	1
EOF
    ./target/release/snapshot_convert --verify "$tmpdir/toy.tsv" "$tmpdir/toy.mem.v3"
    ./target/release/snapshot_convert --verify --out-of-core --mem-budget 64 \
        "$tmpdir/toy.tsv" "$tmpdir/toy.ext.v3"
    cmp "$tmpdir/toy.mem.v3" "$tmpdir/toy.ext.v3" \
        || { echo "out-of-core v3 build differs from in-memory writer"; exit 1; }
    ./target/release/snapshot_convert --verify --format v2 "$tmpdir/toy.mem.v3" "$tmpdir/toy.v2" \
        || { echo "v3 -> v2 conversion failed"; exit 1; }

    # Serving equivalence: the bench asserts the mmap-served candidate
    # stream digests equal to the heap-loaded one at every size, and
    # records the open-time columns the nightly job tracks.
    step "snapshot_bench (mmap-vs-heap digest + open-time columns)"
    OBF_FAST=1 ./target/release/snapshot_bench
    test -s results/BENCH_snapshot.json \
        || { echo "snapshot_bench did not emit results/BENCH_snapshot.json"; exit 1; }
    matches=$(grep -c '"digest_match": true' results/BENCH_snapshot.json)
    [ "$matches" -ge 3 ] \
        || { echo "expected >= 3 digest_match entries, got $matches"; exit 1; }
    echo "snapshot OK: byte-identical builds, $matches mmap-vs-heap digest matches"
}

analyze() {
    # The workspace's own static analysis: determinism + unsafe-hygiene
    # rules (D1-D4), wire/format doc exhaustiveness (P1), pragma
    # hygiene. Deny findings fail; the machine-readable report lands in
    # results/AUDIT.json. `--explain <rule>` documents any failure.
    step "obf_audit (determinism & unsafe-hygiene rules, deny level)"
    cargo run -q --release -p obf_audit --bin obf_audit

    # Pedantic clippy subset promoted to errors on the engine crates
    # (their path dependencies compile — and are linted — with them).
    step "clippy pedantic subset (engine crates)"
    cargo clippy -q -p obf_core -p obf_uncertain -p obf_graph -p obf_cluster --all-targets -- \
        -D clippy::if_not_else \
        -D clippy::manual_let_else \
        -D clippy::semicolon_if_nothing_returned \
        -D clippy::match_same_arms \
        -D clippy::uninlined_format_args \
        -D clippy::unnecessary_wraps
}

case "${1:-all}" in
    lint) lint ;;
    test) run_tests ;;
    release) release ;;
    serve) serve ;;
    evolve) evolve ;;
    cluster) cluster ;;
    snapshot) snapshot ;;
    analyze) analyze ;;
    trend) trend ;;
    fast)
        lint
        run_tests
        ;;
    all)
        lint
        analyze
        run_tests
        release
        serve
        evolve
        cluster
        snapshot
        trend
        ;;
    *)
        echo "unknown step '${1}' (expected lint|test|release|serve|evolve|cluster|snapshot|analyze|trend|fast)" >&2
        exit 2
        ;;
esac

printf '\nCI OK\n'
