#!/usr/bin/env bash
# Local CI gauntlet for the obfugraph workspace. Run from the repo root.
#
# Mirrors the hosted pipeline (.github/workflows/ci.yml), which invokes
# the same named steps so local and hosted runs can never drift. Usage:
#   ./ci.sh            # full run (all steps)
#   ./ci.sh fast       # skip the release build (debug test cycle only)
#   ./ci.sh lint       # fmt + clippy only
#   ./ci.sh test       # debug tests + docs only
#   ./ci.sh release    # release build + bench compile + examples run + determinism matrix + release audit
#   ./ci.sh serve      # obf_server tests + shard reload + loadgen smoke + digest check
#   ./ci.sh evolve     # obf_evolve tests + republish bench smoke + pinned digest check
#   ./ci.sh snapshot   # CSR store/validator + snapshot/mapped suites, TSV -> v3 convert round trip, mmap-vs-heap digest
#   ./ci.sh analyze    # obf_audit static analysis (deny-clean) + pedantic clippy on engine crates
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# The bench binaries write their TSVs, BENCH_*.json files and the METRICS
# scrape under OBF_RESULTS_DIR, and the steps below read them back from
# there: the temp dir, unless the caller names another directory (the
# hosted pipeline does, to upload them). A run leaves results/ as it was;
# only `analyze` refreshes the tracked results/AUDIT.json.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
export OBF_RESULTS_DIR="${OBF_RESULTS_DIR:-$tmpdir}"
mkdir -p "$OBF_RESULTS_DIR"

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

    # The lint step only compiles the examples; run each, so a panic in
    # one fails here. None of them writes a file.
    step "examples (release build, each run to completion)"
    cargo build --release --examples -q
    for src in examples/*.rs; do
        ex=$(basename "$src" .rs)
        ./target/release/examples/"$ex" > "$tmpdir/example_$ex.log" 2>&1 \
            || { cat "$tmpdir/example_$ex.log"; echo "example $ex failed"; exit 1; }
    done
    echo "examples OK: $(ls examples/*.rs | wc -l) ran to completion"

    # Thread-matrix smoke: the parallel engine must produce bit-identical
    # experiment output for every thread count (fixed seed). Run the
    # table3 and fig2 binaries at reduced scale with 1 and 4 threads and
    # diff the deterministic TSV columns (table3's wall-clock columns 4-5
    # are excluded; everything in fig2 is deterministic, and so are the
    # σ-search fast-path counters in table3 columns 7-9).
    step "thread-matrix determinism (table3 + fig2 at reduced scale)"
    for t in 1 4; do
        OBF_FAST=1 ./target/release/table3 --threads "$t" >/dev/null 2>&1
        cut -f1-3,6-9 "$OBF_RESULTS_DIR/table3.tsv" > "$tmpdir/table3_t$t"
        OBF_FAST=1 ./target/release/fig2 --threads "$t" >/dev/null 2>&1
        cp "$OBF_RESULTS_DIR/fig2_k5.tsv" "$tmpdir/fig2_t$t"
    done
    diff "$tmpdir/table3_t1" "$tmpdir/table3_t4" \
        || { echo "table3 output differs between --threads 1 and 4"; exit 1; }
    diff "$tmpdir/fig2_t1" "$tmpdir/fig2_t4" \
        || { echo "fig2 output differs between --threads 1 and 4"; exit 1; }

    echo "determinism OK: table3 and fig2 identical across thread counts"

    # The publish surface itself: Algorithm 1 draws and checks trials on
    # a pool of workers that speculate along the bisection, so the CLI's
    # release must not depend on --threads.
    # One seeded 1000-vertex power-law (Chung-Lu) graph, four thread
    # counts, byte-compared.
    step "publish determinism (obfugraph-cli obfuscate at --threads 1, 2, 3, 4)"
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
    # The search's counters are defined by trial order, so the number of
    # trials checked (the `checked=` field of the `phases` line) must not
    # depend on --threads either. One thread draws nothing ahead of a
    # verdict, so there every trial drawn (`drawn=`) is a trial checked.
    for t in 1 2 3 4; do
        ./target/release/obfugraph-cli obfuscate "$tmpdir/social.txt" "$tmpdir/release_t$t.up" \
            --k 10 --eps 0.05 --seed 7 --threads "$t" 2>"$tmpdir/publish_t$t.log"
        grep -o 'checked=[0-9]*' "$tmpdir/publish_t$t.log" > "$tmpdir/checked_t$t" \
            || { echo "obfuscate printed no checked= count at --threads $t"; exit 1; }
    done
    for t in 2 3 4; do
        cmp "$tmpdir/release_t1.up" "$tmpdir/release_t$t.up" \
            || { echo "published release differs between --threads 1 and $t"; exit 1; }
        diff "$tmpdir/checked_t1" "$tmpdir/checked_t$t" \
            || { echo "trials checked differ between --threads 1 and $t"; exit 1; }
    done
    checked_t1=$(cut -d= -f2 "$tmpdir/checked_t1")
    drawn_t1=$(grep -o 'drawn=[0-9]*' "$tmpdir/publish_t1.log" | cut -d= -f2)
    [ "$drawn_t1" = "$checked_t1" ] \
        || { echo "--threads 1 drew ${drawn_t1:-no} trials but checked $checked_t1"; exit 1; }
    echo "publish determinism OK: identical release and $(cat "$tmpdir/checked_t1") at --threads 1, 2, 3 and 4; drawn=$drawn_t1 at --threads 1"

    # The release bytes themselves are pinned too, so a change that moves
    # every thread count's output in lockstep still fails here.
    step "publish bytes (sha256 of the seed-7 release)"
    expected_release_sha="472b65ea15cc082c591f10a6a4e887f28015400ffe113f843ea4084c528667cf"
    release_sha=$(sha256sum "$tmpdir/release_t1.up" | cut -d' ' -f1)
    [ "$release_sha" = "$expected_release_sha" ] \
        || { echo "release sha256 drifted from pinned $expected_release_sha: $release_sha"; exit 1; }
    echo "publish bytes OK: sha256 $release_sha"

    # A fresh Definition 2 check of the pinned release on the CLI
    # surface: audit re-runs the publish check on the written file, and
    # its eps must meet the tolerance and equal the eps obfuscate
    # reported, to the 4 decimals audit prints.
    step "publish certificate (obfugraph-cli audit of the pinned release)"
    ./target/release/obfugraph-cli audit "$tmpdir/social.txt" "$tmpdir/release_t1.up" --k 10 \
        > "$tmpdir/audit.log"
    audit_eps=$(sed -n 's/^vertices below obfuscation level k = 10: \([0-9.]*\) (eps)$/\1/p' "$tmpdir/audit.log")
    publish_eps=$(sed -n 's/.* achieved eps = \([0-9.]*\),.*/\1/p' "$tmpdir/publish_t1.log")
    [ -n "$audit_eps" ] && [ -n "$publish_eps" ] \
        || { echo "could not read eps (audit: '$audit_eps', obfuscate: '$publish_eps')"; exit 1; }
    awk -v a="$audit_eps" -v p="$publish_eps" \
        'BEGIN { exit !(a + 0 <= 0.05 && sprintf("%.4f", p) == a) }' \
        || { echo "audit eps $audit_eps does not certify obfuscate's eps $publish_eps at <= 0.05"; exit 1; }
    echo "publish certificate OK: audit eps $audit_eps (obfuscate: $publish_eps)"
}

serve() {
    # Every obf_server test target, each run once: the unit tests, the
    # integration suite, protocol fuzzing, fault injection (slowloris,
    # half-open, backpressure, pipelined flood), the 1000-connection
    # swarm, observability neutrality, STAT transcripts that must not
    # depend on the world-statistics memo's capacity (and equal
    # evaluate_uncertain's means bit for bit), and the per-release
    # INFO/EXPECTED answers (direct-function bits on heap and mmap
    # releases, kept by a pinned connection across a RELOAD). A failure
    # names its target in cargo's "to rerun pass --test <name>" line.
    step "obf_server tests (every target once)"
    cargo test -q -p obf_server

    # Outside the obf_server package: bit-identity against the
    # transport-free ServerState::answer transcript at 1, 2 and 4
    # shards, and live reload across shards (no connection ever sees
    # two epochs).
    step "bit-identity + shard-reload suites"
    cargo test -q -p obf_bench --test bit_identity
    cargo test -q --test shard_reload

    # Serving determinism: the probe script must answer bit-identically
    # across runs (throughput may differ, answers not) AND match the
    # pinned digest — the transport is forbidden from changing a single
    # answer byte.
    expected_digest="f6ed1718c9ff44a5"
    step "serving determinism (answers digest across runs)"
    cargo build --release -p obf_bench -p obf_server
    OBF_FAST=1 ./target/release/loadgen --connections 2 --duration 200ms --open-loop-points 0
    digest1=$(grep answers_digest "$OBF_RESULTS_DIR/BENCH_server.json")
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
        --request-log "$OBF_RESULTS_DIR/REQLOG.txt"
    test -s "$OBF_RESULTS_DIR/BENCH_server.json" \
        || { echo "loadgen did not emit BENCH_server.json"; exit 1; }
    digest2=$(grep answers_digest "$OBF_RESULTS_DIR/BENCH_server.json")
    [ "$digest1" = "$digest2" ] \
        || { echo "answers digest differs between runs: $digest1 vs $digest2"; exit 1; }
    points=$(grep -c offered_qps "$OBF_RESULTS_DIR/BENCH_server.json")
    [ "$points" -ge 5 ] \
        || { echo "open-loop sweep has $points points, need >= 5"; exit 1; }
    test -s "$OBF_RESULTS_DIR/REQLOG.txt" \
        || { echo "loadgen did not emit REQLOG.txt"; exit 1; }
    head -1 "$OBF_RESULTS_DIR/REQLOG.txt" | grep -q '^OBFUREQLOG v1$' \
        || { echo "REQLOG.txt is not an OBFUREQLOG v1 file"; exit 1; }
    test -s "$OBF_RESULTS_DIR/METRICS.txt" \
        || { echo "loadgen did not emit METRICS.txt"; exit 1; }
    grep -q '^obf_server_queries_total ' "$OBF_RESULTS_DIR/METRICS.txt" \
        || { echo "METRICS scrape is missing obf_server_queries_total"; exit 1; }
    grep -q 'obf_server_answer_micros_p99' "$OBF_RESULTS_DIR/METRICS.txt" \
        || { echo "METRICS scrape is missing span histogram quantiles"; exit 1; }
    # perfbench's cache figures read these two series and count a
    # missing one as 0.
    for series in obf_cache_hits_total obf_cache_misses_total; do
        grep -q "^$series " "$OBF_RESULTS_DIR/METRICS.txt" \
            || { echo "METRICS scrape is missing $series"; exit 1; }
    done

    # Replay determinism: re-driving the recorded log must reproduce
    # the pinned answers digest, and two replays of the same log must
    # report the same replay digest.
    step "replay determinism (recorded log re-driven twice)"
    OBF_FAST=1 ./target/release/loadgen --connections 2 --replay "$OBF_RESULTS_DIR/REQLOG.txt" \
        --expect-digest "$expected_digest"
    replay1=$(grep replay_digest "$OBF_RESULTS_DIR/BENCH_replay.json")
    OBF_FAST=1 ./target/release/loadgen --connections 4 --replay "$OBF_RESULTS_DIR/REQLOG.txt" \
        --expect-digest "$expected_digest"
    replay2=$(grep replay_digest "$OBF_RESULTS_DIR/BENCH_replay.json")
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
    OBF_FAST=1 ./target/release/republish --batches 4 --threads 1
    test -s "$OBF_RESULTS_DIR/BENCH_evolve.json" \
        || { echo "republish did not emit BENCH_evolve.json"; exit 1; }
    # Pinned like the answers digest: a change to the sigma trajectory,
    # the rows recomputed or the snapshot checksums must be deliberate.
    expected_evolve_digest="4882b911b9557b98"
    digest1=$(grep evolve_digest "$OBF_RESULTS_DIR/BENCH_evolve.json")
    case "$digest1" in
        *"$expected_evolve_digest"*) ;;
        *) echo "evolve digest drifted from pinned $expected_evolve_digest: $digest1"; exit 1 ;;
    esac

    # Evolve determinism: the same seed must reproduce the same sigma
    # trajectory, rows-recomputed counts and snapshot checksums bit for
    # bit at any thread count (wall-clock fields are excluded from the
    # digest).
    step "republish determinism (evolve digest at --threads 1 and 2)"
    OBF_FAST=1 ./target/release/republish --batches 4 --threads 2
    digest2=$(grep evolve_digest "$OBF_RESULTS_DIR/BENCH_evolve.json")
    [ "$digest1" = "$digest2" ] \
        || { echo "evolve digest differs between thread counts: $digest1 vs $digest2"; exit 1; }
    echo "evolve OK: zero dropped connections, stable digest $digest1"
}

snapshot() {
    # The graph's one CSR and its one validator: the store's unit tests
    # (graph::), the validator's (csr::), the snapshot and mapped
    # readers that run it, and apply_delta's rows against a rebuild.
    step "CSR store + validator + snapshot/mapped-store test suites"
    cargo test -q -p obf_uncertain graph::
    cargo test -q -p obf_uncertain csr::
    cargo test -q -p obf_uncertain snapshot
    cargo test -q -p obf_uncertain mapped
    cargo test -q --test snapshot_v3
    cargo test -q -p obf_evolve --test proptests uncertain_delta_equals_rebuild

    # Docs consistency (every verb + format version appears in
    # docs/FORMATS.md) is rule `formats-doc` of `ci.sh analyze` now.

    # End-to-end tool check: TSV -> v3 must pass --verify, and
    # perfbench's exact invocation (`<in> <out> --format v3`, which the
    # serve-mixed workload depends on) must write the same bytes.
    step "snapshot_convert round-trip (TSV -> v3 --verify, perfbench invocation)"
    cargo build --release -p obf_bench
    cat > "$tmpdir/toy.tsv" <<'EOF'
# n=5
0	1	0.7
0	2	0.9
1	2	0.8
1	3	0.1
2	4	0.35
3	4	1
EOF
    ./target/release/snapshot_convert --verify "$tmpdir/toy.tsv" "$tmpdir/toy.verified.v3"
    ./target/release/snapshot_convert "$tmpdir/toy.tsv" "$tmpdir/toy.v3" --format v3
    cmp "$tmpdir/toy.verified.v3" "$tmpdir/toy.v3" \
        || { echo "snapshot_convert --format v3 differs from the --verify run"; exit 1; }

    # Serving equivalence: the bench asserts the mmap-served candidate
    # stream digests equal to the heap-loaded one at every size, and
    # records the open-time columns the nightly job tracks.
    step "snapshot_bench (mmap-vs-heap digest + open-time columns)"
    OBF_FAST=1 ./target/release/snapshot_bench
    test -s "$OBF_RESULTS_DIR/BENCH_snapshot.json" \
        || { echo "snapshot_bench did not emit BENCH_snapshot.json"; exit 1; }
    matches=$(grep -c '"digest_match": true' "$OBF_RESULTS_DIR/BENCH_snapshot.json")
    [ "$matches" -ge 3 ] \
        || { echo "expected >= 3 digest_match entries, got $matches"; exit 1; }
    echo "snapshot OK: verified v3 conversion, $matches mmap-vs-heap digest matches"
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
