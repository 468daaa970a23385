#!/usr/bin/env bash
# Static analysis, tier-1 verification, and a three-way sanitizer matrix.
#
#   tools/ci.sh [build-dir-prefix]
#
# Stage 0 builds and runs aneci_lint over the whole tree — a hard-fail gate:
# any unsuppressed finding (or a suppression without a reason) stops CI
# before a single test runs, and failures name the exact check as
# `file:line: check-name: message`. This includes the cross-TU concurrency
# suite (guarded-member-access, lock-order-cycle, determinism-taint) over
# the ANECI_GUARDED_BY/... annotations. Use `aneci_lint --check=<name>`
# locally to reproduce one check in isolation (`aneci_lint --list-checks`).
#
# Stage 0b cross-checks the same annotations with clang's flow-sensitive
# -Wthread-safety analysis (the macros lower to the native attributes under
# clang). The leg needs clang++ AND an annotated standard library (libc++
# with _LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS; libstdc++'s std::mutex
# carries no capability attributes, so clang would see no acquisitions at
# all). When either is missing the leg is skipped with a notice — the
# lexical suite in stage 0 remains the hard gate either way.
#
# Stage 1 builds the default configuration and runs the full ctest suite
# (the tier-1 gate), which includes the linter's own test suite (-L lint).
# The kernel-backend suite (-L kernels) then re-runs with
# ANECI_KERNEL_BACKEND=scalar so the portable fallback keeps full coverage
# on hardware whose auto-selection would otherwise always pick avx2.
#
# Stage 2 is the sanitizer matrix: the fault-injection, attack, serving,
# streaming, kernel and training test subsets
# (-L 'fault|attack|serve|stream|kernels|training') run under ASan, UBSan,
# and TSan — the subsets that exercise error paths over partially written
# buffers and fuzzed protocol frames (ASan), integer/float conversions in
# the perturbation math and wire decoding (UBSan), and the parallel kernels
# plus the hot-swap path (TSan). The training label (autograd, losses,
# AnECI and graph suites) covers the trainer's epoch arena, whose recycled
# buffers are the use-after-free class ASan catches, and the graph's lazily
# built adjacency lists, which concurrent readers share. The stream label
# covers the event-log replay and chaos tests, whose thread-count
# replay-identity contract is exactly what TSan must see race-free. The
# TSan build additionally re-runs the thread-pool and defense determinism
# suites plus the metrics-labelled observability tests (sharded counters
# and span aggregation are lock-free hot paths), where a data race would
# actually bite. Each leg builds the suites its labels select, read from
# tests/CMakeLists.txt, and fails if one of them is left unbuilt.
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"

echo "== stage 0: aneci_lint (static analysis, hard fail) =="
cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${prefix}" -j "$(nproc)" --target aneci_lint
"./${prefix}/tools/aneci_lint" --root=.

echo "== stage 0b: clang -Wthread-safety annotation cross-check =="
if command -v clang++ >/dev/null 2>&1; then
  if printf '#include <mutex>\nint main(){std::mutex m;std::lock_guard<std::mutex> l(m);}\n' |
    clang++ -x c++ -std=c++17 -stdlib=libc++ \
      -D_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS -fsyntax-only - \
      >/dev/null 2>&1; then
    ts_failed=0
    while IFS= read -r tu; do
      clang++ -x c++ -std=c++17 -stdlib=libc++ \
        -D_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS \
        -Isrc -I. -fsyntax-only -Wthread-safety -Werror=thread-safety \
        "$tu" || ts_failed=1
    done < <(find src -name '*.cc' | sort)
    if [[ "${ts_failed}" != 0 ]]; then
      echo "stage 0b: clang -Wthread-safety reported violations" >&2
      exit 1
    fi
  else
    echo "notice: clang++ found but no annotated libc++;" \
      "skipping the -Wthread-safety leg (stage 0 remains the hard gate)"
  fi
else
  echo "notice: clang++ not installed; skipping the -Wthread-safety leg" \
    "(stage 0's lexical concurrency suite remains the hard gate)"
fi

echo "== stage 1: tier-1 build + full test suite =="
cmake --build "${prefix}" -j "$(nproc)"
ctest --test-dir "${prefix}" --output-on-failure -j "$(nproc)"

echo "== stage 1b: kernel suite pinned to the scalar backend =="
# Auto-selection picks avx2 wherever the hardware has it, so without this
# leg the portable fallback would only ever run on machines that lack AVX2.
ANECI_KERNEL_BACKEND=scalar ctest --test-dir "${prefix}" \
  --output-on-failure -j "$(nproc)" -L kernels

# Test targets whose LABELS in tests/CMakeLists.txt match the ERE $1. The
# sanitizer legs build exactly these, so a newly labelled suite joins its
# legs without a second list to keep in step.
label_targets() {
  awk -v want="^($1)\$" '/^aneci_add_test\(/ {
      gsub(/[()]/, " "); on = 0
      for (i = 3; i <= NF; ++i) {
        if ($i == "LABELS" || $i == "LIBS") on = ($i == "LABELS")
        else if (on && $i ~ want) { print $2; next }
      }
    }' tests/CMakeLists.txt
}

# build_leg <build-dir> <label-ERE> [extra-target...]: builds every suite
# carrying a selected label, plus the extras, and fails if ctest still sees
# one of them unbuilt. ctest registers an unbuilt suite as one unlabelled
# <target>_NOT_BUILT test, which `ctest -L` would drop without a word.
build_leg() {
  local dir="$1" labels="$2"
  shift 2
  local targets listed t unbuilt=0
  mapfile -t targets < <(label_targets "${labels}")
  if [[ ${#targets[@]} == 0 ]]; then
    echo "${dir}: no test target carries a label in '${labels}'" >&2
    return 1
  fi
  cmake --build "${dir}" -j "$(nproc)" --target "${targets[@]}" "$@"
  listed="$(ctest --test-dir "${dir}" -N)"
  for t in "${targets[@]}"; do
    if grep -q " ${t}_NOT_BUILT\$" <<<"${listed}"; then
      echo "${dir}: ${t} is labelled '${labels}' but was not built" >&2
      unbuilt=1
    fi
  done
  return "${unbuilt}"
}

matrix_labels='fault|attack|serve|stream|kernels|training'

echo "== stage 2a: AddressSanitizer (${matrix_labels} tests) =="
cmake -B "${prefix}-asan" -S . -DANECI_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
build_leg "${prefix}-asan" "${matrix_labels}"
ctest --test-dir "${prefix}-asan" --output-on-failure -j "$(nproc)" \
  -L "${matrix_labels}"
# The scalar fallback's packing/tail paths get the same ASan coverage.
ANECI_KERNEL_BACKEND=scalar ctest --test-dir "${prefix}-asan" \
  --output-on-failure -j "$(nproc)" -L kernels

echo "== stage 2b: UndefinedBehaviorSanitizer (${matrix_labels} tests) =="
cmake -B "${prefix}-ubsan" -S . -DANECI_UBSAN=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
build_leg "${prefix}-ubsan" "${matrix_labels}"
ctest --test-dir "${prefix}-ubsan" --output-on-failure -j "$(nproc)" \
  -L "${matrix_labels}"

echo "== stage 2c: ThreadSanitizer (${matrix_labels}|metrics tests + concurrency suites) =="
cmake -B "${prefix}-tsan" -S . -DANECI_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
build_leg "${prefix}-tsan" "${matrix_labels}|metrics" \
  thread_pool_test defense_test
ctest --test-dir "${prefix}-tsan" --output-on-failure -j "$(nproc)" \
  -L "${matrix_labels}|metrics"
ctest --test-dir "${prefix}-tsan" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|Defense|Jaccard|LowRank|AttributeClip|Smoothing|AdversarialTraining'

echo "== ci.sh: all stages passed =="
