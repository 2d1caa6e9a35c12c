#!/bin/bash
# Regenerates bench_output.txt: one experiment binary per paper table/figure
# plus ablations and microbenchmarks.
#
# The search experiments run at GANNS_SCALE=10000; the construction
# experiments (which also simulate the single-thread CPU baselines
# faithfully) run at GANNS_SCALE=4000 to stay tractable on one core. Every
# section header echoes its scale. Raise the scales on bigger machines —
# construction speedups grow with corpus size (see EXPERIMENTS.md).
#
# One harness per clock: apart from the micro_* benchmarks, which time host
# code by design, every row these binaries print or write is simulated
# device time or a count, so BENCH_*.json reproduces across machines. Host
# wall time (served req/s, latency under load, CPU and memory) is measured
# by perfbench: python3 perfbench/run.py, see perfbench/README.md.
cd "$(dirname "$0")"
exec > bench_output.txt 2>&1

# Provenance, stamped into every BENCH_*.json the binaries write (see
# bench::ProvenanceJson), so a regression report names the commit (suffixed
# -dirty when the tree has uncommitted changes), time, host, build flags,
# wall duration, and telemetry overhead that produced the numbers.
export GANNS_PROV_GIT_SHA="$(git describe --always --dirty 2>/dev/null || echo unknown)"
export GANNS_PROV_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export GANNS_PROV_HOST="$(hostname 2>/dev/null || echo unknown)"
export GANNS_PROV_FLAGS="$(grep -E '^CMAKE_BUILD_TYPE|^GANNS_(TRACING|SANITIZE)' build/CMakeCache.txt 2>/dev/null | tr '\n' ' ' || echo unknown)"

# Telemetry overhead: sim QPS of the same serve run with tracing+metrics on,
# divided by the run with them off. It must be exactly 1.000000 —
# instrumentation observes, it never charges cycles — so it doubles as a
# standing end-to-end check of the two-clock rule in every provenance
# block. What telemetry costs the host is perfbench's obs.tracing_overhead.
telemetry_overhead() {
  local extract='s/.*"sim_qps": \([0-9.][0-9.]*\).*/\1/p' off on
  off=$(./build/tools/ganns serve-bench --n 2000 --queries 1000 --shards 2 \
          2>/dev/null | sed -n "$extract" | head -n1)
  on=$(./build/tools/ganns serve-bench --n 2000 --queries 1000 --shards 2 \
         --trace-out /tmp/ganns_prov_trace.json \
         --stats-out /tmp/ganns_prov_stats.json \
         2>/dev/null | sed -n "$extract" | head -n1)
  rm -f /tmp/ganns_prov_trace.json /tmp/ganns_prov_stats.json
  if [ -n "$on" ] && [ -n "$off" ] && [ "$off" != "0" ]; then
    awk -v on="$on" -v off="$off" 'BEGIN { printf "%.6f", on / off }'
  else
    echo unknown
  fi
}
export GANNS_PROV_TELEMETRY_OVERHEAD="$(telemetry_overhead)"

# Each binary writes wall_seconds as the "pending" placeholder; stamp_wall
# replaces it with the measured duration once the binary has exited.
export GANNS_PROV_WALL_SECONDS="pending"
stamp_wall() { # <BENCH json> <start $SECONDS>
  sed -i "s/\"wall_seconds\": \"pending\"/\"wall_seconds\": \"$((SECONDS - $2))\"/" "$1"
}

export GANNS_QUERIES=200
export GANNS_SCALE=10000
for b in table1_datasets fig06_throughput_recall fig07_time_breakdown \
         fig08_vary_k fig09_vary_dim fig10_vary_threads \
         fig11_construction_time; do
  echo "===== bench/$b ====="
  ./build/bench/$b
  echo
done

export GANNS_SCALE=4000
for b in table2_nsw_vs_cpu fig12_graph_quality fig13_vary_dmax \
         fig14_vary_blocks table3_hnsw_vs_cpu ablation_lazy \
         ablation_structures ablation_visited remark_transfer \
         micro_structures micro_distance; do
  echo "===== bench/$b ====="
  ./build/bench/$b
  echo
done

# Online serving engine: closed-loop load over 1/2/4 shards on a synthetic
# 100k x 128 corpus. Writes BENCH_serve.json.
echo "===== bench/serve_throughput ====="
t0=$SECONDS
GANNS_SCALE=100000 GANNS_QUERIES=500 ./build/bench/serve_throughput BENCH_serve.json
stamp_wall BENCH_serve.json $t0
echo

# Mutable index lifecycle: baseline / mixed insert+remove / post-compaction
# phases over 1 and 2 shards. Writes BENCH_update.json.
echo "===== bench/update_workload ====="
t0=$SECONDS
GANNS_SCALE=20000 GANNS_QUERIES=200 ./build/bench/update_workload BENCH_update.json
stamp_wall BENCH_update.json $t0
echo

# Compressed search: exact float vs SQ8/PQ two-stage rows at a fixed
# traversal budget, sweeping rerank_factor. Writes BENCH_quantized.json.
echo "===== bench/quantized_sweep ====="
t0=$SECONDS
GANNS_SCALE=20000 GANNS_QUERIES=200 ./build/bench/quantized_sweep BENCH_quantized.json
stamp_wall BENCH_quantized.json $t0
echo

# Simulated cluster serving: nodes x replicas x failure axes over one
# sharded index, with inline bit-identity and zero-loss gates. Writes
# BENCH_cluster.json.
echo "===== bench/cluster_sweep ====="
t0=$SECONDS
GANNS_SCALE=20000 GANNS_QUERIES=200 ./build/bench/cluster_sweep BENCH_cluster.json
stamp_wall BENCH_cluster.json $t0
echo

echo "ALL_BENCHES_DONE"
