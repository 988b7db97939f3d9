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
#   ./ci.sh serve      # obf_server tests + shard reload + loadgen smoke + digest check
#   ./ci.sh evolve     # obf_evolve tests + republish bench smoke + digest check
#   ./ci.sh snapshot   # snapshot v3 round-trip, convert tool, mmap-vs-heap digest, docs spec
#   ./ci.sh analyze    # obf_audit static analysis (deny-clean) + pedantic clippy on engine crates
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

    echo "determinism OK: table3 and fig2 identical across thread counts"

    # The publish surface itself: Algorithm 1 checks each σ's trials on
    # worker threads, so the CLI's release must not depend on --threads.
    # One seeded 1000-vertex power-law (Chung-Lu) graph, three thread
    # counts, byte-compared.
    step "publish determinism (obfugraph-cli obfuscate at --threads 1, 2, 4)"
    python3 - "$tmpdir/social.txt" <<'PY'
import random, sys
rng = random.Random(601)
n, m = 1000, 4000
weights = [(i + 10) ** (-2 / 3) for i in range(n)]
edges = set()
while len(edges) < m:
    u, v = rng.choices(range(n), weights=weights, k=2)
    if u != v:
        edges.add((min(u, v), max(u, v)))
with open(sys.argv[1], "w") as f:
    f.writelines(f"{u} {v}\n" for u, v in sorted(edges))
PY
    for t in 1 2 4; do
        ./target/release/obfugraph-cli obfuscate "$tmpdir/social.txt" "$tmpdir/release_t$t.up" \
            --k 10 --eps 0.05 --seed 7 --threads "$t" 2>/dev/null
    done
    for t in 2 4; do
        cmp "$tmpdir/release_t1.up" "$tmpdir/release_t$t.up" \
            || { echo "published release differs between --threads 1 and $t"; exit 1; }
    done
    echo "publish determinism OK: identical release at --threads 1, 2 and 4"
}

serve() {
    step "obf_server integration tests"
    cargo test -q -p obf_server

    # The event-loop hardening suites, named so a failure points straight
    # at the broken layer: protocol fuzzing, fault injection (slowloris,
    # half-open, backpressure), bit-identity against the transport-free
    # ServerState::answer transcript at 1, 2 and 4 shards, the 1000-
    # connection swarm, STAT transcripts that must not depend on the
    # world-statistics memo's capacity, and live reload across shards
    # (no connection ever sees two epochs).
    step "obf_server fuzz + fault-injection + bit-identity + swarm + memo + shard-reload suites"
    cargo test -q -p obf_server --test fuzz_protocol
    cargo test -q -p obf_server --test fault_injection
    cargo test -q -p obf_bench --test bit_identity
    cargo test -q -p obf_server --test high_concurrency
    cargo test -q -p obf_server --test stat_memo
    cargo test -q --test shard_reload

    # Serving determinism: the probe script must answer bit-identically
    # across runs (throughput may differ, answers not) AND match the
    # pinned digest — the transport is forbidden from changing a single
    # answer byte.
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

    # Shards: two event loops behind the one listener must serve the
    # same pinned digest.
    step "loadgen at --shards 2 (digest must not depend on the shard count)"
    OBF_FAST=1 ./target/release/loadgen --shards 2 --connections 2 --duration 200ms \
        --open-loop-points 0 --expect-digest "$expected_digest"
    echo "serving OK: zero protocol errors, stable digest $digest1, $points-point open-loop curve, stable replay, shard-count-free answers"
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
    cargo clippy -q -p obf_core -p obf_uncertain -p obf_graph --all-targets -- \
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
    snapshot) snapshot ;;
    analyze) analyze ;;
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
        snapshot
        ;;
    *)
        echo "unknown step '${1}' (expected lint|test|release|serve|evolve|snapshot|analyze|fast)" >&2
        exit 2
        ;;
esac

printf '\nCI OK\n'
