#!/usr/bin/env bash
# Pre-PR gate: the tier-1 test suite, the iw_lint static-analysis matrix
# over every assembled reference kernel, the iw_lint --wcet certification
# gate (floor <= dynamic <= ceiling for every kernel), a determinism grep
# over shipped sources, the iw_fleetd smoke and input checks (bad numeric
# flags of iw_fleetd, iw_lint, the fleet bench and fleet_week, a checkpoint
# over its own resume file, an IW_SIMD value that names no tier), the
# trace/interpreter bit-identity smoke, the fleet SIMD-tier bit-identity
# smoke (its digest pinned under IW_SIMD=off, avx2 and avx512, in the SIMD
# build and in a portable -DIW_SIMD=OFF build — the cross-build half of the
# bit-exactness contract), a 5000-device iw_fleetd checkpoint compared byte
# for byte across the same tiers and builds, a 20000-device checkpoint +
# resume compared byte for byte between the default shard cap and --shard
# 4096 with the default run's peak RSS bounded, an UndefinedBehaviorSanitizer pass over the
# platform/fleet suites, the SIMD parity suites and the superblock-trace
# suite (the fast-path day kernel, per-worker scratch reuse, the intrinsic
# packs and the direct-threaded trace executor are where a stale-pointer or
# aliasing bug would live), a ThreadSanitizer pass over the concurrent
# fleet/platform layers, the kernel runner's compile memo and the rvsim
# load-analysis cache, and clang-tidy when available.
#
# Usage: scripts/check.sh            # from the repository root
#
# Build trees: ./build (plain, reused if present), ./build-nosimd
# (IW_SIMD=OFF), ./build-ubsan (IW_SANITIZE=undefined) and ./build-tsan
# (IW_SANITIZE=thread). All are incremental across runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# The digest of bench_fleet_throughput --smoke (64-device x 1-day per-device
# rows) is pinned: a change that moves any simulated bit must re-pin it on
# purpose.
smoke_digest=a412842da30e4534

echo "== tier-1 gate (plain build) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -L tier1 --output-on-failure -j "$(nproc)"

echo
echo "== iw_lint (static analysis of every reference kernel, all profiles) =="
./build/tools/iw_lint --kernels

echo
echo "== iw_lint --wcet (static energy certification of the kernel suite) =="
./build/tools/iw_lint --wcet
if ! ./build/tools/iw_lint --wcet --json | grep -q '"all_sound":true'; then
  echo "FAIL: iw_lint --wcet --json did not report all_sound:true"
  exit 1
fi

echo
echo "== determinism lint (no wall-clock or libc randomness in src/tools) =="
# The whole repo is replay-deterministic by contract (fleet checkpoints,
# cohort bit-exactness, pinned Table III cycle counts); these sources of
# nondeterminism must never appear in shipped code. Tests may use them.
if grep -rn --include='*.cpp' --include='*.hpp' \
    -e 'std::rand\b' -e 'time(nullptr)' -e 'time(NULL)' \
    -e 'std::random_device' -e 'system_clock' \
    src/ tools/ bench/ 2>/dev/null; then
  echo "FAIL: nondeterministic time/randomness source in shipped code"
  exit 1
fi
# Iterating an unordered container in the fleet merge/stats paths would make
# merged statistics order-dependent; the deterministic layers use ordered
# containers only.
if grep -rn --include='*.cpp' --include='*.hpp' 'std::unordered_' \
    src/fleet src/platform 2>/dev/null; then
  echo "FAIL: unordered container in a determinism-critical layer"
  exit 1
fi
echo "determinism lint clean"

echo
echo "== iw_fleetd smoke (longitudinal determinism self-check) =="
./build/tools/iw_fleetd --smoke

echo
echo "== input checks (bad numeric flags, checkpoint over the resume file) =="
for args in "--shard -1" "--devices 10x" "--threads 0"; do
  # shellcheck disable=SC2086  # split into flag and value on purpose
  if ./build/tools/iw_fleetd $args >/dev/null 2>&1; then
    echo "FAIL: iw_fleetd $args exited 0"
    exit 1
  fi
done
ckpt_dir=$(mktemp -d)
./build/tools/iw_fleetd --devices 200 --days 3 --checkpoint "$ckpt_dir/f.ckpt" \
  --checkpoint-day 1 >/dev/null
cp "$ckpt_dir/f.ckpt" "$ckpt_dir/banked.ckpt"
if ./build/tools/iw_fleetd --devices 200 --days 3 --resume "$ckpt_dir/f.ckpt" \
    --checkpoint "$ckpt_dir/f.ckpt" --checkpoint-day 2 >/dev/null 2>&1; then
  echo "FAIL: iw_fleetd wrote its checkpoint over the resume file"
  exit 1
fi
if ! cmp -s "$ckpt_dir/f.ckpt" "$ckpt_dir/banked.ckpt"; then
  echo "FAIL: the resume checkpoint changed"
  exit 1
fi
rm -rf "$ckpt_dir"
lint_dir=$(mktemp -d)
printf 'main:\n  addi a0, zero, 1\n  ecall\n' > "$lint_dir/t.s"
for args in "--mem -1" "--mem zz" "--mem 4096x" "--entry 4x" "--entry -5"; do
  # Exit 2 is a refused flag; an abort (134) or 0 is a bug.
  status=0
  # shellcheck disable=SC2086  # split into flag and value on purpose
  ./build/tools/iw_lint $args "$lint_dir/t.s" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: iw_lint $args exited $status, not 2"
    exit 1
  fi
done
./build/tools/iw_lint --mem 0x10000 --entry 0x0 "$lint_dir/t.s" >/dev/null
# A refused image is reported once, under one "iw_lint:" prefix.
status=0
./build/tools/iw_lint --mem 4 "$lint_dir/t.s" >/dev/null 2>"$lint_dir/err.txt" || status=$?
prefixes=$(grep -o 'iw_lint:' "$lint_dir/err.txt" | wc -l)
if [ "$status" -ne 2 ] || [ "$prefixes" -ne 1 ]; then
  echo "FAIL: iw_lint --mem 4 exited $status with $prefixes 'iw_lint:' prefixes:"
  cat "$lint_dir/err.txt"
  exit 1
fi
rm -rf "$lint_dir"
status=0
./build/bench/bench_fleet_throughput --devices 10x >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: bench_fleet_throughput --devices 10x exited $status, not 2"
  exit 1
fi
# IW_SIMD accepts off, avx2 and avx512; any other value is refused, not
# widened.
simd_dir=$(mktemp -d)
status=0
IW_SIMD=sse2 ./build/tools/iw_fleetd --smoke >/dev/null 2>"$simd_dir/err.txt" || status=$?
if [ "$status" -eq 0 ] || ! grep -q 'IW_SIMD=sse2 is not a SIMD tier; accepted: off, avx2, avx512' \
    "$simd_dir/err.txt"; then
  echo "FAIL: IW_SIMD=sse2 iw_fleetd --smoke exited $status:"
  cat "$simd_dir/err.txt"
  exit 1
fi
# The default is the widest usable tier, so each tier gets its own pinned
# run (a tier the host cannot run clamps down to the next one).
for tier in off avx2 avx512; do
  IW_SIMD=$tier ./build/bench/bench_fleet_throughput --smoke >"$simd_dir/$tier.txt"
  if ! grep -q "smoke digest: $smoke_digest" "$simd_dir/$tier.txt"; then
    echo "FAIL: IW_SIMD=$tier fleet smoke digest is not the pinned $smoke_digest"
    exit 1
  fi
done
rm -rf "$simd_dir"
for args in "10x" "0" "12 0" "12 3 x"; do
  status=0
  # shellcheck disable=SC2086  # positional arguments, split on purpose
  ./build/examples/fleet_week $args >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: fleet_week $args exited $status, not 2"
    exit 1
  fi
done
echo "bad flags rejected; resume checkpoint left byte-identical"

echo
echo "== trace engine smoke (interpreter bit-identity on all targets) =="
./build/bench/bench_sim_throughput --smoke

echo
echo "== fleet SIMD smoke (every day path and dispatch tier, one build) =="
./build/bench/bench_fleet_throughput --smoke | tee /tmp/iw_smoke_simd.txt
if ! grep -q "smoke digest: $smoke_digest" /tmp/iw_smoke_simd.txt; then
  echo "FAIL: fleet smoke digest is not the pinned $smoke_digest"
  exit 1
fi

echo
echo "== portable build (-DIW_SIMD=OFF) must reproduce the same bytes =="
cmake -B build-nosimd -S . -DIW_SIMD=OFF >/dev/null
cmake --build build-nosimd -j "$(nproc)" \
  --target bench_fleet_throughput test_cohort_simd test_fleet_simd iw_fleetd
# Without the vector tiers the tier-parity tests skip or compare off only;
# they must not fail.
./build-nosimd/tests/test_cohort_simd
./build-nosimd/tests/test_fleet_simd
./build-nosimd/bench/bench_fleet_throughput --smoke | tee /tmp/iw_smoke_nosimd.txt
if ! grep -q "smoke digest: $smoke_digest" /tmp/iw_smoke_nosimd.txt; then
  echo "FAIL: portable build's smoke digest is not the pinned $smoke_digest"
  exit 1
fi
echo "portable build matches SIMD build ($smoke_digest)"

echo
echo "== cross-tier checkpoint at population scale (5000 devices x 2 days) =="
# The smoke populations hold about one lane per (policy, period, archetype)
# bucket, so they never form a shape-uniform pack; this population does. Its
# day-2 checkpoint must be the same bytes under every tier and in the
# portable build.
pop_dir=$(mktemp -d)
pop_args=(--devices 5000 --days 2 --threads 4 --checkpoint-day 2)
for tier in off avx2 avx512; do
  IW_SIMD=$tier ./build/tools/iw_fleetd "${pop_args[@]}" \
    --checkpoint "$pop_dir/$tier.ckpt" >/dev/null
done
./build-nosimd/tools/iw_fleetd "${pop_args[@]}" \
  --checkpoint "$pop_dir/portable.ckpt" >/dev/null
for other in avx2 avx512 portable; do
  if ! cmp "$pop_dir/off.ckpt" "$pop_dir/$other.ckpt"; then
    echo "FAIL: the $other checkpoint differs from IW_SIMD=off"
    exit 1
  fi
done
rm -rf "$pop_dir"
echo "checkpoints byte-identical across off, avx2, avx512 and the portable build"

echo
echo "== default shard cap vs --shard 4096 (20000 devices x 2 days, checkpoint + resume) =="
# On 4 threads the default cap cuts 32 shards of 625 devices and --shard 4096
# cuts 16 of 1250; the partition must not move a checkpoint byte. The default
# run's peak RSS is held under 13 MiB (1250-device shards read about
# 17.9 MiB); a sanitizer build's RSS says nothing about the product, so the
# bound is skipped when ./build is one.
cap_dir=$(mktemp -d)
cap_args=(--devices 20000 --days 2 --threads 4)
run_cap() {  # <label> [extra iw_fleetd flags...]
  local label=$1
  shift
  ./build/tools/iw_fleetd "${cap_args[@]}" "$@" --checkpoint "$cap_dir/$label.d1.ckpt" \
    --checkpoint-day 1 >/dev/null
  ./build/tools/iw_fleetd "${cap_args[@]}" "$@" --resume "$cap_dir/$label.d1.ckpt" \
    --checkpoint "$cap_dir/$label.d2.ckpt" --checkpoint-day 2 \
    --json "$cap_dir/$label.json" >/dev/null
}
run_cap default
run_cap cap4096 --shard 4096
if ! cmp "$cap_dir/default.d2.ckpt" "$cap_dir/cap4096.d2.ckpt"; then
  echo "FAIL: the default shard cap's day-2 checkpoint differs from --shard 4096"
  exit 1
fi
if grep -q '^IW_SANITIZE:STRING=.\+' build/CMakeCache.txt; then
  echo "peak RSS bound skipped: ./build is a sanitizer build"
else
  rss=$(sed -n 's/.*"peak_rss_bytes": *\([0-9.e+]*\).*/\1/p' "$cap_dir/default.json")
  if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss < 13 * 1048576) }'; then
    echo "FAIL: iw_fleetd 20000 x 2 resume leg peak RSS ${rss:-missing} B is not under 13 MiB"
    exit 1
  fi
  awk -v rss="$rss" 'BEGIN { printf "default-cap resume leg peak RSS: %.1f MiB (bound 13 MiB)\n", rss / 1048576 }'
fi
rm -rf "$cap_dir"
echo "default cap and --shard 4096 write byte-identical day-2 checkpoints"

echo
echo "== clang-tidy (skipped automatically when not installed) =="
scripts/tidy.sh

echo
# test_cohort_simd and test_fleet_simd hold the avx2 and avx512 tiers to the
# scalar oracle, so both tiers run under each sanitizer on a host that has
# them.
echo "== UBSan pass (platform + fleet + trace suites) =="
cmake -B build-ubsan -S . -DIW_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$(nproc)" \
  --target test_platform test_fast_day test_cohort_day test_cohort_simd \
  test_fleet test_fleet_cohort test_fleet_simd test_fleet_long test_trace \
  test_analysis test_wcet_fuzz test_cli_flags
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_analysis
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_wcet_fuzz
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_trace
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_platform
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_fast_day
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_cohort_day
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_cohort_simd
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_fleet
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_fleet_cohort
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_fleet_simd
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_fleet_long
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ./build-ubsan/tests/test_cli_flags
echo
echo "== TSan pass (fleet + platform suites, kernel compile memo, load-analysis cache) =="
cmake -B build-tsan -S . -DIW_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" \
  --target test_platform test_fast_day test_cohort_day test_cohort_simd \
  test_fleet test_fleet_cohort test_fleet_simd test_fleet_long test_kernel_memo \
  test_load_cache
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_fleet
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_fleet_cohort
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_fleet_simd
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_fleet_long
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_cohort_simd
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_platform
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_fast_day
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_cohort_day
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_kernel_memo
TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
  ./build-tsan/tests/test_load_cache

echo
echo "check.sh: all green"
