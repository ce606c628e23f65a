// Pipeline-level scaling study for the Section 5.3 complexity analysis:
// RPM training cost as a function of (a) training-set size and (b) series
// length, with the per-stage breakdown from the TrainingReport. The
// discretization + grammar stages should scale near-linearly; the
// candidate-matching stage (Transform during selection) dominates, as the
// paper observes ("this step seems to be the bottleneck of the training
// stage due to the repeated distance call").
//
// `--json` runs the archive-scale sweep instead (docs/DATASETS.md): CBF
// archives up to --max series (default 1,000,000) are streamed to RPMD
// files via GenerateToFile, then trained through the mmap-backed
// DatasetReader with a stratified per-class training cap and sampled
// candidate discovery, once on one thread and once at the default
// (ts::DefaultThreads()). Each (size, threads) pair emits a
// BENCH_scaling.json row with generation/open/train wall times, the
// per-phase TrainingReport split, and the process's resident anonymous
// and file-backed memory right after that training, with the archive
// still mapped — the bounded-memory and sub-linear discovery-growth
// evidence. The run fails if the two thread counts learn different
// patterns.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/rpm.h"
#include "harness.h"
#include "ts/dataset_io.h"
#include "ts/generators.h"
#include "ts/parallel.h"

namespace {

rpm::core::RpmOptions Fixed(std::size_t window) {
  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = window;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  return opt;
}

void Row(const rpm::ts::DatasetSplit& split, std::size_t window) {
  rpm::core::RpmClassifier clf(Fixed(window));
  const auto t0 = std::chrono::steady_clock::now();
  clf.Train(split.train);
  const auto t1 = std::chrono::steady_clock::now();
  const auto& r = clf.report();
  std::printf("  n=%3zu m=%4zu  total=%7.3fs  mine=%6.3fs select=%6.3fs "
              "fit=%6.3fs  cands=%3zu k=%2zu\n",
              split.train.size(), split.train.MinLength(),
              std::chrono::duration<double>(t1 - t0).count(),
              r.candidate_mining_seconds, r.pattern_selection_seconds,
              r.classifier_fit_seconds, r.candidates_total,
              r.patterns_selected);
}

// Resident memory of this process now, from /proc/self/status (Linux):
// anonymous pages (heap and stacks) and file-backed pages (the mapped
// archive and the binary). Both are current values; ru_maxrss is a
// lifetime peak, so a sweep's later rows could only repeat or raise it.
struct Residency {
  double anon_mb = 0.0;
  double file_mb = 0.0;
};

Residency CurrentResidency() {
  Residency r;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return r;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long kib = 0;
    if (std::sscanf(line, "RssAnon: %lu kB", &kib) == 1) {
      r.anon_mb = static_cast<double>(kib) / 1024.0;
    } else if (std::sscanf(line, "RssFile: %lu kB", &kib) == 1) {
      r.file_mb = static_cast<double>(kib) / 1024.0;
    }
  }
  std::fclose(f);
  return r;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Archive-scale sweep: stream a CBF archive of each size to disk, train
// off the mmap reader under constant caps, and emit one JSON row per
// size and thread count. With the caps binding, the materialized subset
// — and with it the candidate-discovery cost — is constant in the
// archive size, so the mine_seconds column must stay flat while
// num_series grows 50x. rss_anon_mb grows only with the label and length
// columns the reader decodes at open; rss_file_mb counts the archive
// pages the mapping has faulted in, which can reach the file.
int ArchiveSweep(std::size_t max_series, const std::string& workdir) {
  using namespace rpm;
  constexpr std::size_t kLength = 128;
  constexpr std::size_t kTrainCap = 200;       // per class, stratified
  constexpr std::size_t kDiscoveryCap = 50;    // per class, reservoir
  std::vector<std::size_t> sizes;
  for (std::size_t n : {std::size_t{20'000}, std::size_t{100'000},
                        std::size_t{400'000}, std::size_t{1'000'000}}) {
    if (n <= max_series) sizes.push_back(n);
  }
  if (sizes.empty()) sizes.push_back(max_series);
  std::vector<std::size_t> thread_counts = {1};
  if (ts::DefaultThreads() > 1) thread_counts.push_back(ts::DefaultThreads());

  std::FILE* f = std::fopen("BENCH_scaling.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scaling.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"host\": %s,\n"
               "  \"bench\": \"archive_scaling\",\n"
               "  \"family\": \"CBF\",\n"
               "  \"length\": %zu,\n"
               "  \"max_train_per_class\": %zu,\n"
               "  \"discovery_sample_per_class\": %zu,\n"
               "  \"rows\": [\n",
               bench::HostJson().c_str(), kLength, kTrainCap, kDiscoveryCap);

  bool first = true;
  for (std::size_t n : sizes) {
    const std::string path =
        workdir + "/scaling_" + std::to_string(n) + ".rpmd";
    ts::ArchiveOptions gen;
    gen.num_series = n;
    gen.length = kLength;
    gen.seed = 20160315 + n;
    auto t0 = std::chrono::steady_clock::now();
    ts::GenerateToFile("CBF", gen, path);
    const double gen_seconds = Seconds(t0);

    // Repeat runs over pristine generator output: skip the per-chunk
    // data CRC (the structural tables are still verified at open).
    ts::DatasetReaderOptions reader_options;
    reader_options.verify_data_crc = false;
    t0 = std::chrono::steady_clock::now();
    const ts::DatasetReader reader(path, reader_options);
    const double open_seconds = Seconds(t0);

    core::TrainFromDiskOptions disk;
    disk.max_train_per_class = kTrainCap;
    std::vector<std::vector<double>> first_patterns;
    for (std::size_t threads : thread_counts) {
      core::RpmOptions opt = Fixed(32);
      opt.discovery_sample_per_class = kDiscoveryCap;
      opt.num_threads = threads;
      core::RpmClassifier clf(opt);
      t0 = std::chrono::steady_clock::now();
      clf.Train(reader, disk);
      const double train_seconds = Seconds(t0);
      const auto& r = clf.report();
      const Residency rss = CurrentResidency();
      std::vector<std::vector<double>> patterns;
      for (const auto& p : clf.patterns()) patterns.push_back(p.values);
      if (threads == thread_counts.front()) {
        first_patterns = patterns;
      } else if (patterns != first_patterns) {
        std::fprintf(stderr, "n=%zu: %zu threads learned other patterns "
                     "than 1 thread\n", n, threads);
        std::fclose(f);
        return 1;
      }

      std::fprintf(
          f,
          "%s    {\"num_series\": %zu, \"threads\": %zu, "
          "\"file_mb\": %.1f, \"gen_seconds\": %.3f, "
          "\"open_seconds\": %.6f, \"train_seconds\": %.3f, "
          "\"select_sax_seconds\": %.3f, \"mine_seconds\": %.3f, "
          "\"select_patterns_seconds\": %.3f, \"fit_seconds\": %.3f, "
          "\"candidates\": %zu, \"patterns\": %zu, \"rss_anon_mb\": %.1f, "
          "\"rss_file_mb\": %.1f}",
          first ? "" : ",\n", n, threads,
          static_cast<double>(reader.file_bytes()) / (1024.0 * 1024.0),
          gen_seconds, open_seconds, train_seconds,
          r.parameter_selection_seconds, r.candidate_mining_seconds,
          r.pattern_selection_seconds, r.classifier_fit_seconds,
          r.candidates_total, r.patterns_selected, rss.anon_mb, rss.file_mb);
      first = false;
      std::printf("  n=%8zu  threads=%zu  file=%7.1fMB  gen=%6.2fs "
                  "open=%.4fs train=%6.2fs (mine=%5.2fs)  "
                  "rss anon=%6.1fMB file=%7.1fMB\n",
                  n, threads,
                  static_cast<double>(reader.file_bytes()) /
                      (1024.0 * 1024.0),
                  gen_seconds, open_seconds, train_seconds,
                  r.candidate_mining_seconds, rss.anon_mb, rss.file_mb);
    }
    std::remove(path.c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scaling.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::size_t max_series = 1'000'000;
  std::string workdir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--max") == 0 && i + 1 < argc) {
      max_series = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--workdir") == 0 && i + 1 < argc) {
      workdir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: scaling_bench [--json] [--max N] [--workdir D]\n");
      return 2;
    }
  }
  if (json) {
    std::printf("Archive-scale sweep (CBF, RPMD via mmap, capped "
                "training):\n");
    return ArchiveSweep(max_series, workdir);
  }

  using namespace rpm;
  std::printf("Scaling in training-set size (CBF, length 128):\n");
  for (std::size_t n : {5u, 10u, 20u, 40u}) {
    Row(ts::MakeCbf(n, 2, 128, 900 + n), 32);
  }
  std::printf("\nScaling in series length (CBF, 10 train/class):\n");
  for (std::size_t m : {64u, 128u, 256u, 512u}) {
    Row(ts::MakeCbf(10, 2, m, 950 + m), m / 4);
  }
  std::printf("\nScaling with threads (CBF 20x512, DIRECT budget 12):\n");
  for (std::size_t threads : {1u, 2u, 4u}) {
    const ts::DatasetSplit split = ts::MakeCbf(20, 2, 512, 999);
    core::RpmOptions opt;
    opt.search = core::ParameterSearch::kDirect;
    opt.direct_max_evaluations = 12;
    opt.param_splits = 2;
    opt.param_folds = 2;
    opt.num_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    core::RpmClassifier clf(opt);
    clf.Train(split.train);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("  threads=%zu  total=%.3fs  (R=%zu combos)\n", threads,
                std::chrono::duration<double>(t1 - t0).count(),
                clf.combos_evaluated());
  }
  return 0;
}
