#!/usr/bin/env bash
# Records a benchmark snapshot at the repo root:
#   BENCH_kernels.json        micro_kernels --json  (matcher + DTW-cascade
#                             kernel timings with exactness checksums; the
#                             matcher rows cover the naive per-call scan,
#                             the one-pattern call of the bucket kernel,
#                             and the SoA pattern-store scan — the latter
#                             also as one best_match_soa_<tier> row per
#                             available ISA tier (scalar / avx2 / avx512,
#                             forced via the RPM_FORCE_ISA override) plus
#                             a soa_buckets array with per-length-bucket
#                             ns/op, and match_all_seeded / any_below
#                             rows (the cutoff-seeded scan and the
#                             first-hit existence sweep behind the
#                             training hot loops, each also per forced
#                             tier that has a kernel of its own).
#                             checksum_drift and
#                             train_kernel_checksum_drift compare the
#                             forced tiers' checksums and the run aborts
#                             unless both are exactly zero)
#   BENCH_table2.json         table2_runtime --json (suite sweep:
#                             per-dataset LS/FS/RPM totals, per-method
#                             train sums, and a train_phases object with
#                             the --profile per-phase rpm/fs/st wall
#                             times)
#   BENCH_stream.json         stream_bench          (streaming scorer:
#                             samples/sec/session + decision p50/p95,
#                             single and 8 concurrent sessions, plus a
#                             shard sweep — 1/2/4/8 server shards, one
#                             pinned session each, per-shard rows and
#                             aggregate samples/s with a bit-identical
#                             decision check against the replay path)
#   BENCH_serve.json          serve_bench           (per-request vs
#                             batched serving throughput + latency)
#   BENCH_serve_metrics.json  serve_bench           (end-of-run METRICS
#                             scrape: Prometheus text, STATS JSON, and
#                             recent trace spans — the observability
#                             view of the same run)
#   BENCH_scaling.json        scaling_bench --json  (archive-scale sweep,
#                             docs/DATASETS.md: CBF archives of 20k..1M
#                             series streamed to RPMD files and trained
#                             through the mmap DatasetReader under a
#                             stratified 200/class training cap and
#                             50/class sampled candidate discovery; one
#                             row per size with generation / open /
#                             train wall times, the per-phase
#                             TrainingReport split, and the process's
#                             current RssAnon and RssFile after that
#                             training. With the caps binding,
#                             mine_seconds must stay flat while
#                             num_series grows 50x; rss_anon_mb grows
#                             only with the decoded label columns and
#                             rss_file_mb counts the mapped archive
#                             pages faulted in — the archive files
#                             themselves are deleted after each row.
#                             RPM_BENCH_SCALING_MAX caps the sweep
#                             (default 1000000) for quick runs.)
#
# Every file starts with a "host" object (bench::HostJson in
# bench/harness.h): the HEAD commit of the source tree when the bench
# runs, with "-dirty" when a tracked file other than the BENCH files
# differs, nproc, ISA tier and build type. The script rebuilds the five
# benches before running them, so that commit is also the one they were
# built from. Commit before taking a snapshot.
#
# Usage: scripts/bench_snapshot.sh [build-dir]   (default: build)
#
# The sweep honours RPM_BENCH_SCALE / RPM_BENCH_CACHE (see
# bench/harness.h).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

if [[ ! -x "${build_dir}/bench/micro_kernels" ||
      ! -x "${build_dir}/bench/table2_runtime" ||
      ! -x "${build_dir}/bench/stream_bench" ||
      ! -x "${build_dir}/bench/serve_bench" ||
      ! -x "${build_dir}/bench/scaling_bench" ]]; then
  echo "bench binaries missing under ${build_dir}/bench;" \
       "configure with -DRPM_BUILD_BENCHMARKS=ON and build first" >&2
  exit 1
fi

# Rebuild so the binaries match the HEAD their host stamp names.
cmake --build "${build_dir}" --target micro_kernels table2_runtime \
    stream_bench serve_bench scaling_bench

cd "${repo_root}"
"${build_dir}/bench/micro_kernels" --json
"${build_dir}/bench/table2_runtime" --json
"${build_dir}/bench/stream_bench"
"${build_dir}/bench/serve_bench"

# Archive files are written to (and removed from) a scratch dir so a
# killed run never leaves gigabyte .rpmd files at the repo root.
scaling_work="$(mktemp -d)"
trap 'rm -rf "${scaling_work}"' EXIT
"${build_dir}/bench/scaling_bench" --json \
    --max "${RPM_BENCH_SCALING_MAX:-1000000}" --workdir "${scaling_work}"

echo "snapshot written: ${repo_root}/BENCH_kernels.json," \
     "${repo_root}/BENCH_table2.json, ${repo_root}/BENCH_stream.json," \
     "${repo_root}/BENCH_serve.json, ${repo_root}/BENCH_serve_metrics.json," \
     "${repo_root}/BENCH_scaling.json"
