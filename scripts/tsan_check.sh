#!/usr/bin/env bash
# Builds the thread-sanitized configuration and runs the concurrency
# surface: the thread-pool/matcher tests, the cross-thread determinism
# tests, the training-path equivalence suites (clustering, DTW cascade,
# training cache — everything carrying the `training` ctest label), the
# serving-layer suites (registry hot reload, batching queue, server
# hammering, connection framing), and the streaming suites (session
# manager under concurrent feeds, eviction racing feeds, shutdown racing
# feeds — everything carrying the `stream` ctest label), the
# observability suites (8-thread registry/tracer hammer — the `obs`
# label), and the network front-end suites (reactor threads, async
# response re-sequencing, graceful stop racing live connections — the
# `net` label), and the fixed-seed fuzz schedules driving all of the
# above at once (the `fuzz` label), and the dataset/format suites
# (`dataset` label: concurrent mmap readers racing the lazy per-chunk
# CRC flags). Any data race in the pool, the parallel transform paths,
# the training cache, the serve path, the stream session manager, the
# metric/trace cells, or the shard reactors fails the script. It then
# builds the ASan+UBSan configuration and runs every tier-1 test there.
#
# Usage: scripts/tsan_check.sh [tsan-dir] [asan-dir]
#        (defaults: build-tsan, build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DRPM_SANITIZE=thread \
  -DRPM_BUILD_BENCHMARKS=OFF \
  -DRPM_BUILD_EXAMPLES=OFF
# Build everything registered with ctest: partially built trees leave
# NOT_BUILT placeholder tests that fail the run.
cmake --build "${build_dir}" -j

# halt_on_error makes ctest report races as hard failures.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
ctest --test-dir "${build_dir}" --output-on-failure \
  -R 'ThreadPool|ParallelFor|ParallelDeterminism|BatchedBestMatch|BatchMatcher|SeriesContext|ModelRegistry|BatchingQueue|InferenceServer|ServeConcurrency|LineAssembler'

# Training-path suites (cluster_linkage, dtw_cascade, training_cache):
# includes 8 threads racing TrainingCache lookups through LRU eviction
# and the pool-shared iterative-split tests.
ctest --test-dir "${build_dir}" --output-on-failure -L training

# Streaming suites: 8 sessions fed from 8 threads while models hot-reload
# and the evictor runs, plus Shutdown racing active feeds.
ctest --test-dir "${build_dir}" --output-on-failure -L stream

# Observability suites: 8 threads hammering one registry's counter,
# gauge, and histogram cells plus one tracer's rings while snapshots and
# flushes race the writers.
ctest --test-dir "${build_dir}" --output-on-failure -L obs

# Network front-end suites: shard reactor threads accepting and serving
# concurrent connections, dispatcher-thread CLASSIFY responses posted
# back across threads and re-sequenced, and Stop() racing in-flight I/O.
ctest --test-dir "${build_dir}" --output-on-failure -L net

# Fuzzing suites: the fixed-seed protocol sweeps drive a live sharded
# front end (reactor threads + dispatcher threads + the harness's poll
# loop) through fault-injection schedules — split writes, abrupt
# disconnects, shutdown racing pipelined streams — so any race those
# interleavings expose fails here.
ctest --test-dir "${build_dir}" --output-on-failure -L fuzz

# Dataset/format suites: pool workers hammering one mmap reader's
# values(), racing the lazy per-chunk CRC verification flags.
ctest --test-dir "${build_dir}" --output-on-failure -L dataset

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
