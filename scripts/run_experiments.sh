#!/bin/sh
# Run every experiment binary in crates/bench/src/bin/, regenerating the
# series DESIGN.md's per-experiment index describes and the BENCH_*.json
# perf trajectory, then the microbenchmarks. Pass --smoke to run each
# experiment at reduced CI scale and skip the microbenchmarks.
set -e

cd "$(dirname "$0")/.."

SMOKE=""
if [ "$1" = "--smoke" ]; then
    SMOKE="--smoke"
fi

cargo build --release -p tcq-bench

for exp in exp_eddy_adaptivity exp_adaptivity_knobs exp_cacq_sharing \
    exp_hybrid_join exp_window_memory exp_psoup exp_dynamic_queries \
    exp_storage exp_flux exp_chaos exp_throughput exp_scaling \
    exp_kernels exp_query_scale exp_recovery exp_liveness exp_clients; do
    echo
    echo "==== $exp $SMOKE ===="
    ./target/release/"$exp" $SMOKE
done

if [ -n "$SMOKE" ]; then
    echo
    echo "run_experiments: all experiments completed"
    exit 0
fi

echo
echo "==== microbenchmarks (std timer harness) ===="
cargo bench -p tcq-bench

echo
echo "run_experiments: all experiments and microbenchmarks completed"
