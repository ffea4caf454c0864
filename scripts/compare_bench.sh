#!/usr/bin/env bash
# compare_bench.sh BASELINE.jsonl CURRENT.jsonl
#
# Gate a fresh `stegbench -json` run against the committed BENCH_seed.json
# baseline. See scripts/compare_bench.jq for exactly which columns are
# compared and with what tolerance (deterministic columns only — never
# wall clock). Exits non-zero, listing every offending row, on drift.
#
# Refresh the baseline deliberately, on a quiet machine, when a PR changes
# the benched behavior on purpose:
#   rm -f BENCH_seed.json
#   go run ./cmd/stegbench -exp ablate-stegdb       -scale small -json BENCH_seed.json
#   go run ./cmd/stegbench -exp ablate-stegdb-write -scale small -json BENCH_seed.json
#   go run ./cmd/stegbench -exp speed              -scale small -json BENCH_seed.json
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASELINE.jsonl CURRENT.jsonl" >&2
    exit 2
fi

exec jq -rn \
    --slurpfile base "$1" \
    --slurpfile cur "$2" \
    -f "$(dirname "$0")/compare_bench.jq"
