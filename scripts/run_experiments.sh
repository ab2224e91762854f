#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the wall-clock
# shuffle and real-engine scaling benches, writing the combined report
# to experiments_output.txt. Usage:
#   scripts/run_experiments.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=experiments_output.txt
: > "$out"
for target in repro fig_shuffle real_scaling; do
    echo ">>> $target"
    cargo bench -q -p presto-bench --bench "$target" 2>&1 | tee -a "$out"
done
echo "criterion micro-benches: cargo bench -p presto-bench --bench micro"
echo "full report written to $out"
