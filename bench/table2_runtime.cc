// Regenerates Table 2: total running time (training incl. parameter
// selection + classification) of Learning Shapelets, Fast Shapelets and
// RPM per dataset, the "# best" row, and the LS/RPM speedup summary
// (Section 5.3 reports a 78x average speedup on the authors' hardware;
// the shape to reproduce is LS >> RPM ~ FS).
//
// Flags:
//   --json     also write the table plus per-method train/classify sums,
//              the per-phase train timings (the same live profiled runs
//              --profile prints) and RPM's thread sweep (suite train
//              seconds and combos at 1..DefaultThreads() threads; the run
//              fails if any count's combos or predictions differ from one
//              thread's) to BENCH_table2.json (used by
//              scripts/bench_snapshot.sh)
//   --profile  skip the table; instead train RPM and FS freshly on every
//              suite dataset with the core phase profiler enabled and
//              print per-phase wall time (discretization / grammar /
//              clustering / selection / distinct for RPM; the
//              shapelet-scan phase for FS)

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "baselines/shapelet_transform.h"
#include "core/phase_profile.h"
#include "harness.h"
#include "ts/parallel.h"

namespace {

using rpm::core::PhaseProfile;

// Per-dataset phase totals from one fresh, profiled training run.
struct DatasetPhases {
  std::string name;
  std::array<double, PhaseProfile::kNumPhases> phases{};
  double train = 0.0;
};

// Fresh training per suite dataset with the global phase counters armed.
// The suite sweep cache is deliberately bypassed: profiling needs a live
// run.
std::vector<DatasetPhases> ProfileMethod(const char* method) {
  std::vector<DatasetPhases> out;
  for (const auto& split : rpm::bench::Suite()) {
    // "ST" (shapelet transform) is the extra comparator outside the six
    // Table 2 methods; its candidate scans share the kShapelets counter
    // with FS.
    std::unique_ptr<rpm::baselines::Classifier> clf;
    if (std::strcmp(method, "ST") == 0) {
      clf = std::make_unique<rpm::baselines::ShapeletTransform>();
    } else {
      clf = rpm::bench::MakeMethod(method);
    }
    PhaseProfile::Reset();
    PhaseProfile::Enable(true);
    const auto t0 = std::chrono::steady_clock::now();
    clf->Train(split.train);
    const auto t1 = std::chrono::steady_clock::now();
    PhaseProfile::Enable(false);
    DatasetPhases d;
    d.name = split.name;
    d.phases = PhaseProfile::Totals();
    d.train = std::chrono::duration<double>(t1 - t0).count();
    out.push_back(std::move(d));
  }
  return out;
}

DatasetPhases SumPhases(const std::vector<DatasetPhases>& rows) {
  DatasetPhases total;
  total.name = "TOTAL";
  for (const auto& r : rows) {
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
      total.phases[i] += r.phases[i];
    }
    total.train += r.train;
  }
  return total;
}

void RunProfile() {
  const auto rpm_rows = ProfileMethod("RPM");
  std::printf("RPM training per-phase wall time, seconds\n");
  std::printf("%-18s%11s%11s%11s%11s%11s%11s%11s%12s\n", "Dataset",
              "selection", "discretize", "grammar", "cluster", "distinct",
              "transform", "svm", "train-total");
  auto rpm_row = [](const DatasetPhases& d) {
    std::printf("%-18s%11.3f%11.3f%11.3f%11.3f%11.3f%11.3f%11.3f%12.3f\n",
                d.name.c_str(), d.phases[PhaseProfile::kSelection],
                d.phases[PhaseProfile::kDiscretization],
                d.phases[PhaseProfile::kGrammar],
                d.phases[PhaseProfile::kClustering],
                d.phases[PhaseProfile::kDistinct],
                d.phases[PhaseProfile::kTransform],
                d.phases[PhaseProfile::kSvm], d.train);
  };
  for (const auto& d : rpm_rows) rpm_row(d);
  rpm_row(SumPhases(rpm_rows));

  auto shapelet_table = [](const char* method,
                           const std::vector<DatasetPhases>& rows) {
    std::printf("\n%s training per-phase wall time, seconds\n", method);
    std::printf("%-18s%11s%12s\n", "Dataset", "shapelets", "train-total");
    auto row = [](const DatasetPhases& d) {
      std::printf("%-18s%11.3f%12.3f\n", d.name.c_str(),
                  d.phases[PhaseProfile::kShapelets], d.train);
    };
    for (const auto& d : rows) row(d);
    row(SumPhases(rows));
  };
  shapelet_table("FS", ProfileMethod("FS"));
  shapelet_table("ST", ProfileMethod("ST"));

  std::printf(
      "\nPhases overlap: selection is end-to-end stage-0 time, and the\n"
      "discretize/grammar/cluster/distinct columns count that kind of\n"
      "work anywhere in training (including inside selection's combo\n"
      "search). The FS shapelets column is the candidate scan + split\n"
      "routing share of the tree build.\n");
}

// One `"method": {"phase": seconds, ..., "train_total": s}` JSON object.
void WritePhaseObject(std::FILE* f, const char* key,
                      const std::vector<DatasetPhases>& rows, bool last) {
  const DatasetPhases total = SumPhases(rows);
  std::fprintf(f, "    \"%s\": {", key);
  for (std::size_t i = 0; i < PhaseProfile::kNumPhases; ++i) {
    std::fprintf(f, "\"%s\": %.4f, ",
                 PhaseProfile::Name(static_cast<PhaseProfile::Phase>(i)),
                 total.phases[i]);
  }
  std::fprintf(f, "\"train_total\": %.4f}%s\n", total.train,
               last ? "" : ",");
}

// RPM's Table 2 configuration trained over the suite at one thread count.
struct ThreadSweepRow {
  std::size_t threads = 0;
  double train_seconds = 0.0;  // summed over the suite
  std::size_t combos = 0;      // summed over the suite
  std::vector<std::size_t> combos_by_dataset;
  std::vector<std::vector<int>> predictions_by_dataset;
};

ThreadSweepRow TrainSuiteRpm(std::size_t threads) {
  ThreadSweepRow row;
  row.threads = threads;
  for (const auto& split : rpm::bench::Suite()) {
    rpm::core::RpmOptions opt = rpm::bench::RpmMethodOptions();
    opt.num_threads = threads;
    rpm::core::RpmClassifier clf(opt);
    const auto t0 = std::chrono::steady_clock::now();
    clf.Train(split.train);
    row.train_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    row.combos += clf.combos_evaluated();
    row.combos_by_dataset.push_back(clf.combos_evaluated());
    row.predictions_by_dataset.push_back(clf.ClassifyAll(split.test));
  }
  return row;
}

// Rows for 1..DefaultThreads() threads; empty when any row's combos or
// predictions differ from the 1-thread row's.
std::vector<ThreadSweepRow> RpmThreadSweep() {
  std::vector<ThreadSweepRow> rows;
  for (std::size_t threads = 1; threads <= rpm::ts::DefaultThreads();
       ++threads) {
    rows.push_back(TrainSuiteRpm(threads));
    const ThreadSweepRow& row = rows.back();
    if (row.combos_by_dataset != rows.front().combos_by_dataset ||
        row.predictions_by_dataset != rows.front().predictions_by_dataset) {
      std::fprintf(stderr,
                   "RPM at %zu threads differs from 1 thread (combos %zu vs "
                   "%zu, or a prediction)\n",
                   threads, row.combos, rows.front().combos);
      return {};
    }
    std::printf("RPM suite train at %zu thread(s): %.3fs, %zu combos\n",
                threads, row.train_seconds, row.combos);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpm;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      RunProfile();
      return 0;
    }
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const auto results = bench::RunOrLoadSuiteResults();
  const auto idx = bench::Index(results);
  const std::vector<std::string> methods = {"LS", "FS", "RPM"};

  std::set<std::string> seen;
  std::vector<std::string> datasets;
  for (const auto& r : results) {
    if (seen.insert(r.dataset).second) datasets.push_back(r.dataset);
  }

  std::printf("Table 2: running time in seconds (train + classify)\n");
  std::printf("%-18s%12s%12s%12s%14s\n", "Dataset", "LS", "FS", "RPM",
              "LS/RPM");
  std::map<std::string, int> best_count;
  std::vector<double> speedups;
  double speedup_sum = 0.0;
  double speedup_max = 0.0;
  for (const auto& ds : datasets) {
    std::map<std::string, double> total;
    for (const auto& m : methods) {
      const auto& r = idx.at({ds, m});
      total[m] = r.train_seconds + r.classify_seconds;
    }
    double best = 1e300;
    for (const auto& m : methods) best = std::min(best, total[m]);
    for (const auto& m : methods) {
      if (total[m] <= best + 1e-12) ++best_count[m];
    }
    const double speedup = total["LS"] / std::max(1e-9, total["RPM"]);
    speedups.push_back(speedup);
    speedup_sum += speedup;
    speedup_max = std::max(speedup_max, speedup);
    std::printf("%-18s%12.3f%12.3f%12.3f%13.1fx\n", ds.c_str(),
                total["LS"], total["FS"], total["RPM"], speedup);
  }
  std::printf("%-18s%12d%12d%12d\n", "# best (ties)", best_count["LS"],
              best_count["FS"], best_count["RPM"]);
  const double speedup_avg =
      speedup_sum / static_cast<double>(datasets.size());
  std::printf("\nLS/RPM speedup: average %.1fx, max %.1fx\n", speedup_avg,
              speedup_max);

  if (json) {
    const std::vector<ThreadSweepRow> sweep = RpmThreadSweep();
    if (sweep.empty()) return 1;
    std::FILE* f = std::fopen("BENCH_table2.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_table2.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"host\": %s,\n  \"datasets\": [\n",
                 bench::HostJson().c_str());
    for (std::size_t i = 0; i < datasets.size(); ++i) {
      std::map<std::string, double> total;
      for (const auto& m : methods) {
        const auto& r = idx.at({datasets[i], m});
        total[m] = r.train_seconds + r.classify_seconds;
      }
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ls\": %.4f, \"fs\": %.4f, "
                   "\"rpm\": %.4f, \"ls_over_rpm\": %.2f}%s\n",
                   datasets[i].c_str(), total["LS"], total["FS"],
                   total["RPM"], speedups[i],
                   i + 1 < datasets.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"train_seconds_by_method\": {");
    bool first = true;
    for (const auto& m : bench::MethodNames()) {
      double train = 0.0;
      for (const auto& r : results) {
        if (r.method == m) train += r.train_seconds;
      }
      std::fprintf(f, "%s\n    \"%s\": %.4f", first ? "" : ",", m.c_str(),
                   train);
      first = false;
    }
    std::fprintf(f,
                 "\n  },\n  \"ls_over_rpm\": {\"average\": %.2f, "
                 "\"max\": %.2f},\n",
                 speedup_avg, speedup_max);
    // Per-phase train timings come from live profiled runs (the sweep
    // cache has no phase breakdown), summed over the suite datasets.
    std::fprintf(f, "  \"train_phases\": {\n");
    WritePhaseObject(f, "rpm", ProfileMethod("RPM"), false);
    WritePhaseObject(f, "fs", ProfileMethod("FS"), false);
    WritePhaseObject(f, "st", ProfileMethod("ST"), true);
    std::fprintf(f, "  },\n  \"rpm_thread_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"train_seconds\": %.4f, "
                   "\"combos\": %zu}%s\n",
                   sweep[i].threads, sweep[i].train_seconds, sweep[i].combos,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("-> BENCH_table2.json\n");
  }
  return 0;
}
