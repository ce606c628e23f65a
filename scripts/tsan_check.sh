#!/usr/bin/env bash
# Runs every tier-1 test under two sanitizer builds, each in one ctest
# call: first ThreadSanitizer, then AddressSanitizer with UBSan. TSan
# fails the run on any data race the suite can reach: thread-pool
# workers in training and batch classification, client threads
# hammering one server through hot reloads, the shard reactors of the
# network front end, stream sessions fed while the evictor runs, the
# metric and trace cells, the fuzz sweeps, and concurrent readers of one
# mmap'd dataset.
#
# Usage: scripts/tsan_check.sh [tsan-dir] [asan-dir]
#        (defaults: build-tsan, build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DRPM_SANITIZE=thread \
  -DRPM_BUILD_BENCHMARKS=OFF
# Build everything registered with ctest: partially built trees leave
# NOT_BUILT placeholder tests that fail the run.
cmake --build "${build_dir}" -j

# halt_on_error makes ctest report races as hard failures.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
ctest --test-dir "${build_dir}" --output-on-failure

echo "TSan check passed."

# ASan+UBSan over every tier-1 test, examples included, in one ctest
# run. The matcher's slab kernels read zero-padded 64-byte rows and issue
# unaligned vector loads right up to the last window; the fuzz sweeps
# feed adversarial bytes to the codecs and the model loaders; the
# dataset sweeps hand the mmap parser corrupt headers and length tables;
# the transform engines and trained models are moved and outlive the
# vectors they were built from. ASan catches any read past a buffer or
# after its free, UBSan any misaligned pointer or overflow; TSan sees
# neither, hence the separate build.
asan_build_dir="${2:-${repo_root}/build-asan}"
cmake -S "${repo_root}" -B "${asan_build_dir}" \
  -DRPM_SANITIZE=address,undefined \
  -DRPM_BUILD_BENCHMARKS=OFF
cmake --build "${asan_build_dir}" -j

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=0 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
ctest --test-dir "${asan_build_dir}" --output-on-failure

echo "ASan+UBSan check passed."
