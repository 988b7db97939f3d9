#!/usr/bin/env bash
# Golden check for the deterministic columns of the OBF_FAST=1 `run_all`
# outputs — the nightly bench-trajectory job fails when any of them
# drifts from the checked-in goldens under results/golden/.
#
# Usage (from the repo root, after `cargo build --release`):
#   OBF_FAST=1 ./target/release/run_all      # produce results/*.tsv
#   ./scripts/check_goldens.sh               # diff against goldens
#   ./scripts/check_goldens.sh --update      # regenerate the goldens
#
# The TSVs are read from $OBF_RESULTS_DIR when it is set (the directory
# run_all wrote them to), else from results/. The goldens always live in
# results/golden/.
#
# What is golden: every TSV of the reduced-scale run except the
# wall-clock columns of table3 (columns 4-5: edges/sec and seconds).
# Everything else is a pure function of (seed, scale) by the engine's
# determinism guarantee — identical for every thread count. Note that
# table3's dp_evals/dp_hit_rate counters are goldened on purpose, to
# catch fast-path accounting regressions. Goldens are tied to the default
# OBF_FAST configuration (seed 0xC0FFEE, scale 0.1); regenerate with
# --update whenever an intentional engine change shifts the numbers,
# and explain the shift in the commit message.
set -euo pipefail
cd "$(dirname "$0")/.."

RESULTS="${OBF_RESULTS_DIR:-results}"
GOLD=results/golden
mode="${1:-check}"

# file -> deterministic-column extraction
extract() {
    local f="$1"
    case "$(basename "$f")" in
        table3.tsv) cut -f1-3,6-9 "$f" ;;
        *) cat "$f" ;;
    esac
}

FILES=(
    table1.tsv
    table2.tsv
    table3.tsv
    table4.tsv
    table5.tsv
    table6_dblp.tsv
    table6_calibrated_dblp.tsv
    fig2_k5.tsv
    fig3_k5.tsv
    fig4_dblp.tsv
)

case "$mode" in
    --update)
        mkdir -p "$GOLD"
        for f in "${FILES[@]}"; do
            [[ -f "$RESULTS/$f" ]] || { echo "missing $RESULTS/$f — run OBF_FAST=1 run_all first" >&2; exit 1; }
            extract "$RESULTS/$f" > "$GOLD/$f"
            echo "updated $GOLD/$f"
        done
        ;;
    check)
        fail=0
        for f in "${FILES[@]}"; do
            if [[ ! -f "$GOLD/$f" ]]; then
                echo "MISSING GOLDEN: $GOLD/$f (run with --update)" >&2
                fail=1
                continue
            fi
            if [[ ! -f "$RESULTS/$f" ]]; then
                echo "MISSING OUTPUT: $RESULTS/$f (run OBF_FAST=1 run_all first)" >&2
                fail=1
                continue
            fi
            if ! diff -u "$GOLD/$f" <(extract "$RESULTS/$f"); then
                echo "GOLDEN DRIFT: $f" >&2
                fail=1
            fi
        done
        if [[ "$fail" -ne 0 ]]; then
            echo "golden check FAILED — deterministic columns drifted" >&2
            exit 1
        fi
        echo "golden check OK (${#FILES[@]} files)"
        ;;
    *)
        echo "usage: $0 [--update]" >&2
        exit 2
        ;;
esac
