#!/usr/bin/env bash
# Run the untraced suite twice on the same code and set the two results side
# by side. Exits nonzero if an output check fails or if any end-to-end metric
# differs between the runs by more than its bound in BENCHMARK.json.
# Extra arguments go to both runs, e.g.  benchmark/repeat.sh --seed 7
set -euo pipefail
cd "$(dirname "$0")/.."

perfbench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

out=benchmark/out
for run in first second; do
    echo "== $run run =="
    perfbench --workload all --trace 0 "$@"
    cp "$out/results-all-trace0.json" "$out/repeat-$run.json"
done
echo "== comparison =="
perfbench compare "$out/repeat-first.json" "$out/repeat-second.json"
