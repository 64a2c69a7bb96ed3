#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the test suite — fast `unit`
# label first, then the long-running `stress` label, then (unless
# SKIP_SANITIZE=1) again under ASan+UBSan, and finally the concurrency
# tests under TSan, via the E2NVM_SANITIZE CMake option. Ends with a
# per-test timing summary of the plain run. Run from anywhere inside
# the repo.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
timing_log="$(mktemp)"
trap 'rm -f "$timing_log"' EXIT

build_tree() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j "$jobs"
}

run_ctest() {
  local build_dir="$1"
  shift
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "$@" \
    | tee -a "$timing_log"
}

echo "== plain build =="
build_tree "$repo_root/build"
echo "== unit tests (native SIMD dispatch) =="
run_ctest "$repo_root/build" -L unit
# On an AVX-512 machine the AVX2 tier would otherwise run only inside
# kernels_test; this pass drives it end to end through the store and
# fast-path equivalence tests. Without AVX2 the override clamps down to
# scalar.
echo "== unit tests (forced AVX2 kernels, E2NVM_SIMD=avx2) =="
E2NVM_SIMD=avx2 run_ctest "$repo_root/build" -L unit
echo "== unit tests (forced scalar kernels, E2NVM_SIMD=scalar) =="
E2NVM_SIMD=scalar run_ctest "$repo_root/build" -L unit
echo "== stress tests (oracle model check + concurrent shards + recovery fuzz) =="
# The recovery fuzzer runs its fixed-seed default budget (500 crash/fault
# scenarios) here; set E2NVM_FUZZ_ITERS for longer soak runs, e.g.
#   E2NVM_FUZZ_ITERS=20000 ctest --test-dir build -R recovery_fuzz
run_ctest "$repo_root/build" -L stress --timeout 600

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== sanitized build + ctest (ASan+UBSan) =="
  build_tree "$repo_root/build-sanitize" -DE2NVM_SANITIZE=ON
  run_ctest "$repo_root/build-sanitize"

  echo "== concurrency tests under TSan =="
  build_tree "$repo_root/build-tsan" -DE2NVM_SANITIZE=thread
  run_ctest "$repo_root/build-tsan" --timeout 600 \
    -R "thread_pool|parallel_ml|background_retrain|fastpath_equivalence|incremental_learning|sharded_stress|sharded_store|store_test|store_model|workload_model|recovery_fuzz|energy_accounting|net_server"
fi

if [[ "${SKIP_PERF_SMOKE:-0}" != "1" ]]; then
  echo "== perf smoke (Release micro_ops, shortened pass) =="
  perf_dir="$repo_root/build-perf"
  cmake -B "$perf_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$perf_dir" -j "$jobs" --target micro_ops
  # Short store-ops pass; microbenchmarks are skipped via a filter that
  # matches nothing. Writes BENCH_ops.json into the build dir.
  (cd "$perf_dir" && E2NVM_OPS_SMOKE=1 \
    ./bench/micro_ops --benchmark_filter='NoSuchBenchmark')
  # Each smoke stage's BENCH file goes through scripts/check_bench.py,
  # which lists every key check and threshold and when it disarms.
  python3 "$repo_root/scripts/check_bench.py" ops "$perf_dir/BENCH_ops.json"
  echo "perf smoke OK"

  echo "== scaling smoke (1/2/4/8-shard sweep -> BENCH_scaling.json) =="
  (cd "$perf_dir" && E2NVM_OPS_SMOKE=1 E2NVM_OPS_SCALING_ONLY=1 \
    ./bench/micro_ops --benchmark_filter='NoSuchBenchmark')
  python3 "$repo_root/scripts/check_bench.py" scaling \
    "$perf_dir/BENCH_scaling.json"
  echo "scaling smoke OK"

  echo "== chaos smoke (crash/fault/scrub sweep) =="
  cmake --build "$perf_dir" -j "$jobs" --target chaos_sweep
  # Exits nonzero on any recovered-prefix violation or undetected rot;
  # writes BENCH_chaos.json into the build dir.
  (cd "$perf_dir" && ./bench/chaos_sweep)
  python3 "$repo_root/scripts/check_bench.py" chaos \
    "$perf_dir/BENCH_chaos.json"
  echo "chaos smoke OK"

  echo "== net smoke (loopback server + closed/open-loop sweep) =="
  cmake --build "$perf_dir" -j "$jobs" --target net_sweep
  # Spins up the epoll server on an ephemeral loopback port, runs the
  # shortened closed-loop depth sweep + open-loop Poisson section, and
  # writes BENCH_net.json into the build dir. The binary itself exits
  # nonzero if any request failed or went unanswered, so a lossy server
  # cannot pass this stage.
  (cd "$perf_dir" && E2NVM_NET_SMOKE=1 ./bench/net_sweep)
  python3 "$repo_root/scripts/check_bench.py" net \
    "$perf_dir/BENCH_net.json"
  echo "net smoke OK"

  echo "== workload smoke (scenario matrix -> BENCH_workloads.json) =="
  cmake --build "$perf_dir" -j "$jobs" --target workload_sweep
  # Runs the shortened scenario matrix (skew / YCSB mixes / churn /
  # drift / mixed-width / net front-end). The binary itself exits
  # nonzero when any operation fails or the store's final key count
  # disagrees with the generator, so a lossy scenario cannot pass.
  (cd "$perf_dir" && E2NVM_WORKLOAD_SMOKE=1 ./bench/workload_sweep)
  python3 "$repo_root/scripts/check_bench.py" workloads \
    "$perf_dir/BENCH_workloads.json"
  echo "workload smoke OK"

  echo "== perfbench smoke (self-test + short traced kv_ycsb_a run) =="
  # The benchmark of record compiles ../src into .bench_build/ on its
  # own, probes the serving model (AssignScratch, CloneUntrained) and
  # checks that its runs are deterministic; a src/ change that breaks
  # any of these fails here. run.py exits nonzero on a failed self-test,
  # a failed or mismatched operation, or a malformed result line.
  python3 "$repo_root/perfbench/run.py" --self-test
  python3 "$repo_root/perfbench/run.py" --workload kv_ycsb_a --seconds 2 \
    --trace 1
  echo "perfbench smoke OK"
fi

echo "== slowest tests =="
# awk keeps the first ten lines but reads all of its input: `head` would
# close the pipe early and, under pipefail, fail the script with sort's
# SIGPIPE.
sed -nE 's@^ *[0-9]+/[0-9]+ Test +#[0-9]+: +([A-Za-z0-9_]+) .* (Passed|\*\*\*[A-Za-z]+) +([0-9.]+) sec.*@\3 \1@p' \
    "$timing_log" \
  | sort -rn | awk 'NR <= 10 {printf "%8.2f s  %s\n", $1, $2}'

echo "All checks passed."
