// Shared benchmark harness: builds the six classifiers with the
// evaluation configuration, sweeps them over the synthetic UCR-style
// suite, and caches per-(dataset, method) error/time results on disk so
// the table/figure binaries that share a sweep (Table 1, Table 2,
// Figures 7-8) compute it only once per build. The cache is keyed on a
// digest of the running executable, so a rebuilt binary never
// re-reports another build's results.
//
// Environment knobs:
//   RPM_BENCH_SCALE  size multiplier for the dataset suite (default 1.0)
//   RPM_BENCH_CACHE  cache file path (default .rpm_bench_results_cache.csv
//                    in the working directory; set to "off" to disable
//                    caching)

#ifndef RPM_BENCH_HARNESS_H_
#define RPM_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fast_shapelets.h"
#include "baselines/learning_shapelets.h"
#include "baselines/nn_dtw.h"
#include "baselines/nn_euclidean.h"
#include "baselines/rpm_adapter.h"
#include "baselines/sax_vsm.h"
#include "distance/isa_dispatch.h"
#include "ts/dataset_io.h"
#include "ts/generators.h"
#include "ts/parallel.h"

namespace rpm::bench {

inline double BenchScale() {
  const char* env = std::getenv("RPM_BENCH_SCALE");
  return env != nullptr ? std::atof(env) : 1.0;
}

inline std::vector<ts::DatasetSplit> Suite() {
  ts::SuiteOptions options;
  options.size_scale = BenchScale();
  return ts::BenchmarkSuite(options);
}

/// The "host" object every BENCH_*.json carries, so that each number can
/// be traced to the code and machine that produced it: the HEAD commit of
/// the source tree when the bench runs (with "-dirty" when a tracked file
/// other than the BENCH_*.json outputs differs from it, "unknown" without
/// git), the CPUs this process may run on, the matcher's ISA tier and the
/// build type. The commit is read at run time, not at build time, so it
/// names the built code only if the binary was rebuilt after the last
/// checkout; scripts/bench_snapshot.sh rebuilds the benches first.
inline std::string HostJson() {
  auto git = [](const std::string& args) {
    std::string out;
    const std::string cmd =
        "git -C '" RPM_SOURCE_DIR "' " + args + " 2>/dev/null";
    if (std::FILE* p = popen(cmd.c_str(), "r")) {
      char buf[256];
      while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
      pclose(p);
    }
    return out;
  };
  std::string commit = git("rev-parse HEAD");
  commit.erase(commit.find_last_not_of('\n') + 1);
  if (commit.empty()) {
    commit = "unknown";
  } else if (!git("status --porcelain --untracked-files=no -- . "
                  "':!BENCH_*.json'")
                  .empty()) {
    commit += "-dirty";
  }
  return "{\"commit\": \"" + commit +
         "\", \"nproc\": " + std::to_string(ts::DefaultThreads()) +
         ", \"isa_tier\": \"" +
         distance::IsaTierName(distance::CurrentIsaTier()) +
         "\", \"build_type\": \"" RPM_BUILD_TYPE "\"}";
}

/// Names of the six evaluated methods, table order (Table 1).
inline const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string> names = {
      "NN-ED", "NN-DTWB", "SAX-VSM", "FS", "LS", "RPM"};
  return names;
}

/// RPM with the paper's defaults: per-class DIRECT parameter selection,
/// gamma 20 %, tau at the 30th percentile. One thread, so Table 2 and
/// Figure 8 compare it with the single-threaded baselines.
inline core::RpmOptions RpmMethodOptions() {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kDirect;
  opt.direct_max_evaluations = 16;
  opt.param_splits = 2;
  opt.param_folds = 3;
  opt.num_threads = 1;
  return opt;
}

/// Fresh classifier instance by method name, configured as in Section 5.
inline std::unique_ptr<baselines::Classifier> MakeMethod(
    const std::string& name) {
  if (name == "NN-ED") return std::make_unique<baselines::NnEuclidean>();
  if (name == "NN-DTWB") {
    return std::make_unique<baselines::NnDtwBestWindow>();
  }
  if (name == "SAX-VSM") return std::make_unique<baselines::SaxVsm>();
  if (name == "FS") return std::make_unique<baselines::FastShapelets>();
  if (name == "LS") {
    // Grabocka et al. run thousands of full-batch iterations; this is what
    // makes LS the accurate-but-slow pole of Table 2.
    baselines::LearningShapeletsOptions opt;
    opt.max_epochs = 2000;
    return std::make_unique<baselines::LearningShapelets>(opt);
  }
  return std::make_unique<baselines::RpmAdapter>(RpmMethodOptions());
}

/// One (dataset, method) measurement.
struct Result {
  std::string dataset;
  std::string method;
  double error = 0.0;
  double train_seconds = 0.0;
  double classify_seconds = 0.0;
};

/// CRC-32 of the running executable's bytes as 8 hex digits, or "" when
/// /proc/self/exe cannot be read (the sweep then runs uncached).
inline std::string ExecutableDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) return "";
  std::vector<char> buf(std::size_t{1} << 20);
  std::uint32_t crc = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    crc = ts::Crc32(buf.data(), static_cast<std::size_t>(in.gcount()), crc);
  }
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  return hex;
}

inline std::string CachePath() {
  const char* env = std::getenv("RPM_BENCH_CACHE");
  return env != nullptr ? env : ".rpm_bench_results_cache.csv";
}

inline std::vector<Result> LoadCache(const std::string& path,
                                     const std::string& tag) {
  std::vector<Result> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  if (!std::getline(in, line) || line != "# " + tag) return {};
  while (std::getline(in, line)) {
    std::istringstream row(line);
    Result r;
    std::string err;
    std::string tr;
    std::string cl;
    if (std::getline(row, r.dataset, ',') &&
        std::getline(row, r.method, ',') && std::getline(row, err, ',') &&
        std::getline(row, tr, ',') && std::getline(row, cl, ',')) {
      r.error = std::atof(err.c_str());
      r.train_seconds = std::atof(tr.c_str());
      r.classify_seconds = std::atof(cl.c_str());
      out.push_back(std::move(r));
    }
  }
  return out;
}

inline void SaveCache(const std::string& path, const std::string& tag,
                      const std::vector<Result>& results) {
  std::ofstream out(path);
  if (!out) return;
  // Round-trip precision: a cached sweep must print exactly what the
  // fresh one did (six digits shift Wilcoxon ties, hence p-values).
  out.precision(17);
  out << "# " << tag << "\n";
  for (const auto& r : results) {
    out << r.dataset << ',' << r.method << ',' << r.error << ','
        << r.train_seconds << ',' << r.classify_seconds << '\n';
  }
}

/// Runs every method over every suite dataset (or loads the cached sweep).
inline std::vector<Result> RunOrLoadSuiteResults() {
  const std::string digest = ExecutableDigest();
  const std::string tag =
      "v3 scale=" + std::to_string(BenchScale()) + " exe=" + digest;
  const std::string path = digest.empty() ? "off" : CachePath();
  if (path != "off") {
    std::vector<Result> cached = LoadCache(path, tag);
    if (!cached.empty()) {
      std::fprintf(stderr, "[harness] loaded %zu cached results from %s\n",
                   cached.size(), path.c_str());
      return cached;
    }
  }
  std::vector<Result> results;
  for (const auto& split : Suite()) {
    for (const auto& name : MethodNames()) {
      auto clf = MakeMethod(name);
      const auto t0 = std::chrono::steady_clock::now();
      clf->Train(split.train);
      const auto t1 = std::chrono::steady_clock::now();
      const double error = clf->Evaluate(split.test);
      const auto t2 = std::chrono::steady_clock::now();
      Result r;
      r.dataset = split.name;
      r.method = name;
      r.error = error;
      r.train_seconds = std::chrono::duration<double>(t1 - t0).count();
      r.classify_seconds = std::chrono::duration<double>(t2 - t1).count();
      results.push_back(r);
      std::fprintf(stderr, "[harness] %-16s %-8s err=%.4f train=%.2fs\n",
                   split.name.c_str(), name.c_str(), r.error,
                   r.train_seconds);
    }
  }
  if (path != "off") SaveCache(path, tag, results);
  return results;
}

/// (dataset, method) -> result lookup.
inline std::map<std::pair<std::string, std::string>, Result> Index(
    const std::vector<Result>& results) {
  std::map<std::pair<std::string, std::string>, Result> idx;
  for (const auto& r : results) idx[{r.dataset, r.method}] = r;
  return idx;
}

}  // namespace rpm::bench

#endif  // RPM_BENCH_HARNESS_H_
