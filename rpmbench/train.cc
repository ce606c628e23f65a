// Training-path workloads.
//
// train_suite: the 14-dataset synthetic suite as UCR text, each dataset
//   taken through exactly what `rpm_cli train` does (LoadUcrFile,
//   RpmClassifier with RpmOptions{} defaults, Train, SaveToFile). DIRECT
//   parameter selection dominates; dataset_io and serving never run.
// train_archive: a 100k-series CBF archive in RPMD format, trained off
//   disk with sampling caps and fixed SAX. The lazy data CRC over the
//   touched chunks dominates; parameter selection does no work.
//
// Untraced passes call the public entry points exactly as a user does.
// Traced passes make the same calls one public function at a time, each
// timed, with core::PhaseProfile on; untraced and traced passes
// alternate so the tracing overhead is measured under the same drift.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/phase_profile.h"
#include "core/rpm.h"
#include "core/sampling.h"
#include "obs/metrics.h"
#include "ts/dataset_io.h"
#include "ts/generators.h"
#include "ts/ucr_io.h"

namespace rpmbench {
namespace {

using rpm::core::PhaseProfile;

// Archive geometry: 100,000 CBF series of length 128 in chunks of 4096
// series, i.e. 25 chunks of 4 MiB of values (98 MiB).
constexpr std::size_t kArchiveSeries = 100000;
constexpr std::size_t kArchiveLength = 128;
constexpr std::size_t kArchiveChunkSeries = 4096;
constexpr std::size_t kArchiveTrainPerClass = 200;
constexpr std::size_t kArchiveDiscoveryPerClass = 50;
constexpr std::size_t kHeldOutPerClass = 334;  // 1002 check series
// Rounds of train_suite's data-path measurement after each untraced
// pass (see RunTrainSuite).
constexpr int kParseRoundsPerPass = 6;
// Rounds of train_archive's cold reads: each opens the archive and reads
// one series from every chunk, 25 reads a round, 200 a run.
constexpr int kColdReadRounds = 8;
// Accounting tolerance of the traced run: the timed parts of a pass must
// explain its wall time to within this share.
constexpr double kTrainAccountingTolerance = 0.03;

// What a trained model outputs, independent of the model file's
// encoding: the learned patterns and the per-class SAX parameters.
std::string PatternDigest(const rpm::core::RpmClassifier& clf) {
  Digest d;
  for (const auto& p : clf.patterns()) {
    d.AddU64(static_cast<std::uint64_t>(p.class_label));
    d.AddU64(p.values.size());
    for (double v : p.values) d.AddDouble(v);
  }
  for (const auto& [label, sax] : clf.sax_by_class()) {
    d.AddU64(static_cast<std::uint64_t>(label));
    d.AddU64(sax.window);
    d.AddU64(sax.paa_size);
    d.AddU64(static_cast<std::uint64_t>(sax.alphabet));
  }
  return d.Hex();
}

std::string LabelString(const std::vector<int>& labels) {
  std::string s;
  for (int l : labels) {
    if (!s.empty()) s += '.';
    s += std::to_string(l);
  }
  return s;
}

// A trained model to check, with the series it must classify.
struct TrainedModel {
  std::string key;
  const rpm::core::RpmClassifier* clf;
  std::string path;
  const rpm::ts::Dataset* test;
};

// Output checks, outside the timed region. Each model, reloaded from its
// file, must predict exactly as the in-memory model did, series by series
// and batched; at the default seed its outputs must equal the stored
// reference. Returns the number of mismatched outputs.
std::size_t CheckModels(const std::vector<TrainedModel>& models,
                        Reference& ref, Result& res) {
  Digest digest;
  std::size_t bad = 0;
  for (const auto& m : models) {
    const auto& test = *m.test;
    const std::vector<int> expected = m.clf->ClassifyAll(test);
    const rpm::core::RpmClassifier reloaded =
        rpm::core::RpmClassifier::LoadFromFile(m.path);
    bad += reloaded.ClassifyAll(test) != expected;
    for (std::size_t i = 0; i < test.size(); ++i) {
      bad += reloaded.Classify(test[i].values) != expected[i];
    }
    const std::string labels = LabelString(expected);
    const std::string patterns = PatternDigest(*m.clf);
    digest.Add(m.key);
    digest.Add(labels);
    digest.Add(patterns);
    bad += !ref.Check(m.key + ".labels", labels);
    bad += !ref.Check(m.key + ".patterns", patterns);
  }
  if (bad > 0) {
    std::fprintf(stderr, "[rpmbench] %zu model outputs differ\n", bad);
  }
  res.digest = digest.value();
  return bad;
}

// Per-pass layer accumulators of a traced pass.
struct TrainLayers {
  double pass_s = 0;
  double parse_s = 0, select_s = 0, mine_s = 0, distinct_s = 0, fit_s = 0,
         save_s = 0;
  double open_s = 0, sample_s = 0, crc_s = 0, copy_s = 0;
  double crc_bytes = 0, sampled_bytes = 0;
  double combos = 0;

  void AddReport(const rpm::core::TrainingReport& r) {
    select_s += r.parameter_selection_seconds;
    mine_s += r.candidate_mining_seconds;
    distinct_s += r.pattern_selection_seconds;
    fit_s += r.classifier_fit_seconds;
    combos += double(r.combos_evaluated);
  }
  double parts() const {
    return parse_s + select_s + mine_s + distinct_s + fit_s + save_s +
           open_s + sample_s + crc_s + copy_s;
  }
};

double MeanOf(const std::vector<TrainLayers>& v, double TrainLayers::*f) {
  double s = 0;
  for (const auto& x : v) s += x.*f;
  return v.empty() ? 0.0 : s / double(v.size());
}

struct MatcherCounts {
  double scans = 0, windows = 0, matchall = 0, buckets = 0;

  static MatcherCounts Now() {
    const auto snap = rpm::obs::DefaultRegistry().Snapshot();
    return {double(snap.Count("rpm_matcher_scans_total")),
            double(snap.Count("rpm_matcher_scan_windows_total")),
            double(snap.Count("rpm_matcher_matchall_calls_total")),
            double(snap.Count("rpm_matcher_bucket_scans_total"))};
  }
  void AddSince(const MatcherCounts& before) {
    const MatcherCounts now = Now();
    scans += now.scans - before.scans;
    windows += now.windows - before.windows;
    matchall += now.matchall - before.matchall;
    buckets += now.buckets - before.buckets;
  }
};

// Per-layer rows shared by both training workloads: means over the
// traced passes, in unscaled seconds. `counts` holds the matcher counters
// summed over the traced passes.
void AddTrainLayerMetrics(Result& res, const std::vector<TrainLayers>& traced,
                          const std::vector<double>& untraced_pass_s,
                          const MatcherCounts& counts) {
  const double n = double(std::max<std::size_t>(traced.size(), 1));
  const auto phases = PhaseProfile::Totals();
  auto mean = [&](double TrainLayers::*f) { return MeanOf(traced, f); };
  auto& L = res.layer;
  L["ts.parse_s"] = mean(&TrainLayers::parse_s);
  L["core.save_s"] = mean(&TrainLayers::save_s);
  L["core.select_s"] = mean(&TrainLayers::select_s);
  L["core.mine_s"] = mean(&TrainLayers::mine_s);
  L["core.distinct_s"] = mean(&TrainLayers::distinct_s);
  L["core.fit_s"] = mean(&TrainLayers::fit_s);
  L["sax.discretize_s"] = phases[PhaseProfile::kDiscretization] / n;
  L["grammar.induce_s"] = phases[PhaseProfile::kGrammar] / n;
  L["cluster.split_s"] = phases[PhaseProfile::kClustering] / n;
  L["core.transform_s"] = phases[PhaseProfile::kTransform] / n;
  L["ml.svm_s"] = phases[PhaseProfile::kSvm] / n;
  L["opt.combos"] = mean(&TrainLayers::combos);
  L["distance.scans"] = counts.scans / n;
  L["distance.windows"] = counts.windows / n;
  L["distance.matchall_calls"] = counts.matchall / n;
  L["distance.bucket_scans"] = counts.buckets / n;
  L["ts.open_s"] = mean(&TrainLayers::open_s);
  L["core.sample_s"] = mean(&TrainLayers::sample_s);
  const double crc_s = mean(&TrainLayers::crc_s);
  const double crc_bytes = mean(&TrainLayers::crc_bytes);
  L["ts.crc_s"] = crc_s;
  L["ts.crc_mb_per_s"] = crc_s > 0 ? crc_bytes / crc_s / 1e6 : 0.0;
  L["ts.copy_s"] = mean(&TrainLayers::copy_s);
  L["ts.crc_useful_ratio"] =
      crc_bytes > 0 ? mean(&TrainLayers::sampled_bytes) / crc_bytes : 0.0;

  // The timed parts must explain the traced pass within the tolerance.
  const double pass = mean(&TrainLayers::pass_s);
  double parts = 0;
  for (const auto& t : traced) parts += t.parts() / n;
  const double gap = pass > 0 ? (pass - parts) / pass : 0.0;
  L["bench.unaccounted_pct"] = 100.0 * gap;
  res.info["accounting"] =
      std::abs(gap) <= kTrainAccountingTolerance ? "ok" : "OUT_OF_TOLERANCE";

  std::vector<double> traced_pass_s;
  for (const auto& t : traced) traced_pass_s.push_back(t.pass_s);
  const double untraced = Median(untraced_pass_s);
  L["obs.trace_overhead_pct"] =
      untraced > 0 ? 100.0 * (Median(traced_pass_s) - untraced) / untraced
                   : 0.0;
}

// Runs passes until `seconds` have elapsed (at least `min_passes`),
// alternating untraced and traced passes when tracing.
template <typename Pass>
void RunPasses(double seconds, bool trace, std::size_t min_passes,
               Pass&& pass) {
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < min_passes || Seconds(start, Clock::now()) < seconds; ++i) {
    pass(trace && i % 2 == 1);
  }
}

// The end-to-end rows both training workloads share; the latency row is
// already in.
void AddTrainEndToEnd(Result& res, double train_s, double setup_s,
                      double peak_mb) {
  res.e2e.insert(res.e2e.begin(), {"train_s", "s", train_s});
  res.e2e.push_back({"setup_s", "s", setup_s});
  res.e2e.push_back({"peak_rss_mb", "MB", peak_mb});
}

}  // namespace

Result RunTrainSuite(const RunConfig& cfg) {
  Result res;
  Reference ref(cfg);
  const std::filesystem::path dir = cfg.tmp;
  rpm::ts::SuiteOptions suite_options;
  suite_options.seed = cfg.seed;

  // Set-up: generate the suite and write each training split as UCR text.
  std::vector<rpm::ts::DatasetSplit> suite;
  std::vector<std::string> train_paths, model_paths;
  const double setup_s = MedianSetupSeconds([&] {
    suite = rpm::ts::BenchmarkSuite(suite_options);
    train_paths.clear();
    model_paths.clear();
    for (const auto& split : suite) {
      train_paths.push_back((dir / (split.name + "_TRAIN.tsv")).string());
      model_paths.push_back((dir / (split.name + ".model")).string());
      rpm::ts::SaveUcrFile(split.train, train_paths.back());
    }
  });
  const std::size_t n = suite.size();

  // One op = one dataset trained and saved in one pass. A pass's time is
  // the sum of its datasets' times, each scaled to the reference host
  // speed by probes taken around it.
  std::vector<double> untraced_s, raw_pass_s;
  std::vector<TrainLayers> traced;
  std::vector<rpm::core::RpmClassifier> last(n);
  std::vector<std::string> first_digest(n);
  std::vector<double> dataset_peak_mb(n);
  MatcherCounts traced_counts;

  // Data path: train_suite's p50_us, p90_us and rate_per_s measure the
  // path in front of training, whose cost is fixed by the input sizes
  // rather than by what the seed makes the models learn: one training
  // series through ts::ParseUcr (one UCR line) for the latency,
  // LoadUcrFile over the suite's files for the rate. kParseRoundsPerPass
  // rounds follow every untraced pass, so they sample the host across the
  // whole run, and the run reports the median round. Parsing swings with
  // the host probe (ScaledSeconds): within one run a round's raw p50 was
  // ~15 or ~24 us, and the raw median round spread 0.22-0.33 of the
  // median across runs of the same code. Each round's parse is scaled by
  // the probes around it; the lowest scaled round of a run would pick the
  // probe's outliers (spread 0.27), the median does not.
  std::vector<std::string> lines;
  for (const auto& split : suite) {
    std::istringstream text(rpm::ts::FormatUcr(split.train));
    for (std::string line; std::getline(text, line);) lines.push_back(line);
  }
  std::vector<double> parse_p50, parse_p90, load_rate;
  auto data_path_round = [&] {
    std::vector<double> us;
    const double p0 = HostProbeSeconds();
    for (const auto& line : lines) {
      const auto t0 = Clock::now();
      if (rpm::ts::ParseUcr(line).size() != 1) Fail("bad UCR line");
      us.push_back(Micros(t0, Clock::now()));
    }
    const double scale = kProbeRefS / (0.5 * (p0 + HostProbeSeconds()));
    parse_p50.push_back(scale * Percentile(us, 50));
    parse_p90.push_back(scale * Percentile(us, 90));
    const auto t0 = Clock::now();
    double series = 0;
    for (const auto& path : train_paths) {
      series += double(rpm::ts::LoadUcrFile(path).size());
    }
    load_rate.push_back(series / Seconds(t0, Clock::now()));
  };

  if (cfg.trace) PhaseProfile::Reset();
  RunPasses(cfg.seconds, cfg.trace, cfg.trace ? 2 : 3, [&](bool traced_pass) {
    TrainLayers t;
    const MatcherCounts before = MatcherCounts::Now();
    PhaseProfile::Enable(traced_pass);
    double pass_s = 0, raw_s = 0;
    for (std::size_t d = 0; d < n; ++d) {
      ++res.attempted;
      try {
        // Free heap pages go back to the OS first, so each dataset's
        // high-water mark is its own, not what earlier ones left behind.
        ::malloc_trim(0);
        ResetPeakRss();
        pass_s += ScaledSeconds(
            [&] {
              const auto t0 = Clock::now();
              const rpm::ts::Dataset train =
                  rpm::ts::LoadUcrFile(train_paths[d]);
              const auto t1 = Clock::now();
              rpm::core::RpmClassifier clf{rpm::core::RpmOptions{}};
              clf.Train(train);
              const auto t2 = Clock::now();
              clf.SaveToFile(model_paths[d]);
              if (traced_pass) {
                t.parse_s += Seconds(t0, t1);
                t.AddReport(clf.report());
                t.save_s += Seconds(t2, Clock::now());
              }
              last[d] = std::move(clf);
            },
            &raw_s);
        dataset_peak_mb[d] = PeakRssMb();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[rpmbench] %s: %s\n", suite[d].name.c_str(),
                     e.what());
        ++res.failed;
      }
    }
    PhaseProfile::Enable(false);
    // Every pass must learn the same models.
    for (std::size_t d = 0; d < n; ++d) {
      if (!last[d].trained()) continue;
      const std::string digest = PatternDigest(last[d]);
      if (first_digest[d].empty()) {
        first_digest[d] = digest;
      } else if (digest != first_digest[d]) {
        std::fprintf(stderr, "[rpmbench] %s: pass learned a different model\n",
                     suite[d].name.c_str());
        ++res.failed;
      }
    }
    if (traced_pass) {
      traced_counts.AddSince(before);
      t.pass_s = raw_s;
      traced.push_back(t);
    } else {
      untraced_s.push_back(pass_s);
      raw_pass_s.push_back(raw_s);
      for (int r = 0; r < kParseRoundsPerPass && !cfg.trace; ++r) {
        data_path_round();
      }
    }
  });
  // The suite's high-water RSS is set by whichever dataset's parameter
  // search probes the widest windows, which depends on the seed; the
  // median over datasets of each one's high-water mark is the steadier
  // figure.
  const double peak_mb = Median(dataset_peak_mb);

  std::vector<TrainedModel> models;
  for (std::size_t d = 0; d < n; ++d) {
    if (last[d].trained()) {
      models.push_back(
          {suite[d].name, &last[d], model_paths[d], &suite[d].test});
    } else {
      ++res.failed;
    }
  }
  res.failed += CheckModels(models, ref, res);
  ref.Save();
  res.info["passes"] = std::to_string(untraced_s.size() + traced.size());
  res.info["raw_train_s"] = std::to_string(Median(raw_pass_s));

  if (cfg.trace) {
    AddTrainLayerMetrics(res, traced, raw_pass_s, traced_counts);
    return res;
  }
  res.e2e.push_back({"p50_us", "us", Median(parse_p50)});
  // Provenance only, as for the serving workloads (see README.md).
  res.info["p90_us"] = std::to_string(Median(parse_p90));
  res.info["rate_per_s"] = std::to_string(Median(load_rate));
  AddTrainEndToEnd(res, Median(untraced_s), setup_s, peak_mb);
  return res;
}

Result RunTrainArchive(const RunConfig& cfg) {
  Result res;
  Reference ref(cfg);
  const std::filesystem::path dir = cfg.tmp;
  const std::string archive = (dir / "cbf.rpmd").string();
  const std::string model_path = (dir / "archive.model").string();

  // Set-up: stream the archive to disk. Chunks hold a fixed series count
  // so the benchmark knows which chunks a sample touches.
  const double setup_s = MedianSetupSeconds([&] {
    rpm::ts::DatasetWriterOptions wopt;
    wopt.chunk_series = kArchiveChunkSeries;
    wopt.chunk_bytes = kArchiveChunkSeries * kArchiveLength * sizeof(double);
    wopt.fixed_length = kArchiveLength;
    rpm::ts::DatasetWriter writer(archive, wopt);
    rpm::ts::ArchiveOptions gen;
    gen.num_series = kArchiveSeries;
    gen.length = kArchiveLength;
    gen.seed = cfg.seed;
    rpm::ts::GenerateToWriter("CBF", gen, writer);
    writer.Finish();
  });

  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 32;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.discovery_sample_per_class = kArchiveDiscoveryPerClass;
  // One thread: with nproc threads on the shared host the pass time
  // spread 0.21 of the median across runs of the same code, with one
  // 0.06-0.16 (most of it the seed's SVM fit). The CRC that dominates the
  // pass is single-threaded either way.
  opt.num_threads = 1;
  rpm::core::TrainFromDiskOptions disk;
  disk.max_train_per_class = kArchiveTrainPerClass;

  // One op = one pass: open, train off disk, save. The pass is mostly
  // the CRC (integer work), so its time is raw (see ScaledSeconds).
  std::vector<double> untraced_s;
  std::vector<TrainLayers> traced;
  rpm::core::RpmClassifier last;
  std::string first_digest;
  MatcherCounts traced_counts;
  if (cfg.trace) PhaseProfile::Reset();
  ResetPeakRss();
  RunPasses(cfg.seconds, cfg.trace, cfg.trace ? 4 : 5, [&](bool traced_pass) {
    ++res.attempted;
    TrainLayers t;
    rpm::core::RpmClassifier clf(opt);
    const MatcherCounts before = MatcherCounts::Now();
    PhaseProfile::Enable(traced_pass);
    double pass_s = 0;
    try {
      const auto start = Clock::now();
      [&] {
        if (!traced_pass) {
          const rpm::ts::DatasetReader reader(archive);
          clf.Train(reader, disk);
          clf.SaveToFile(model_path);
          return;
        }
        // The same work as Train(reader, disk), one public call at a
        // time: the sample's first touch of each chunk runs that
        // chunk's data CRC, after which ReadSubset only copies.
        const auto t0 = Clock::now();
        const rpm::ts::DatasetReader reader(archive);
        const auto t1 = Clock::now();
        const std::vector<std::size_t> subset =
            rpm::core::StratifiedSample(reader.labels(),
                                        disk.max_train_per_class,
                                        opt.seed);
        const auto t2 = Clock::now();
        std::vector<bool> touched(reader.num_chunks(), false);
        for (std::size_t i : subset) {
          (void)reader.values(i).data();
          touched[i / kArchiveChunkSeries] = true;
        }
        const auto t3 = Clock::now();
        const rpm::ts::Dataset train = reader.ReadSubset(subset);
        const auto t4 = Clock::now();
        clf.Train(train);
        const auto t5 = Clock::now();
        clf.SaveToFile(model_path);
        t.save_s = Seconds(t5, Clock::now());
        t.open_s = Seconds(t0, t1);
        t.sample_s = Seconds(t1, t2);
        t.crc_s = Seconds(t2, t3);
        t.copy_s = Seconds(t3, t4);
        t.AddReport(clf.report());
        for (std::size_t c = 0; c < touched.size(); ++c) {
          if (!touched[c]) continue;
          const std::size_t first = c * kArchiveChunkSeries;
          const std::size_t count =
              std::min(kArchiveChunkSeries, reader.size() - first);
          t.crc_bytes += double(count * kArchiveLength * sizeof(double));
        }
        t.sampled_bytes =
            double(subset.size() * kArchiveLength * sizeof(double));
      }();
      pass_s = Seconds(start, Clock::now());
      if (!traced_pass) untraced_s.push_back(pass_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[rpmbench] archive pass: %s\n", e.what());
      ++res.failed;
      PhaseProfile::Enable(false);
      return;
    }
    PhaseProfile::Enable(false);
    const std::string digest = PatternDigest(clf);
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      std::fprintf(stderr, "[rpmbench] archive pass learned a different "
                           "model\n");
      ++res.failed;
    }
    if (traced_pass) {
      traced_counts.AddSince(before);
      t.pass_s = pass_s;
      traced.push_back(t);
    }
    last = std::move(clf);
  });
  const double peak_mb = PeakRssMb();

  // Output check on the last pass's model, over held-out CBF series.
  const rpm::ts::DatasetSplit held_out =
      rpm::ts::MakeCbf(0, kHeldOutPerClass, kArchiveLength, cfg.seed + 1);
  if (last.trained()) {
    res.failed += CheckModels(
        {{"CBF-archive", &last, model_path, &held_out.test}}, ref, res);
  } else {
    ++res.failed;
  }
  ref.Save();
  res.info["passes"] = std::to_string(untraced_s.size() + traced.size());

  if (cfg.trace) {
    AddTrainLayerMetrics(res, traced, untraced_s, traced_counts);
    return res;
  }
  // Data path: p50/p90 of a cold read, reading one series from a chunk
  // of a freshly opened archive (the read runs the chunk's data CRC),
  // and opens per second. Each round opens the archive once and reads
  // one seeded-random series from every chunk, in a seeded order. The
  // CRC is integer work that does not swing with the host probe, so the
  // times are raw; the open alone (page faults, label-column CRC) spread
  // 14-25% across runs of the same code.
  std::mt19937_64 rng(cfg.seed);
  std::vector<double> cold_us;
  double opens_s = 0;
  for (int round = 0; round < kColdReadRounds; ++round) {
    const auto t0 = Clock::now();
    const rpm::ts::DatasetReader reader(archive);
    opens_s += Seconds(t0, Clock::now());
    std::vector<std::size_t> chunks(reader.num_chunks());
    std::iota(chunks.begin(), chunks.end(), std::size_t{0});
    std::shuffle(chunks.begin(), chunks.end(), rng);
    for (std::size_t c : chunks) {
      const std::size_t first = c * kArchiveChunkSeries;
      const std::size_t count =
          std::min(kArchiveChunkSeries, reader.size() - first);
      const std::size_t i = first + rng() % count;
      const auto t1 = Clock::now();
      const rpm::ts::LabeledSeries series = reader.Get(i);
      cold_us.push_back(Micros(t1, Clock::now()));
      if (series.values.size() != kArchiveLength) Fail("short series");
    }
  }
  res.e2e.push_back({"p50_us", "us", Percentile(cold_us, 50)});
  // Provenance only, as for the serving workloads (see README.md).
  res.info["p90_us"] = std::to_string(Percentile(cold_us, 90));
  res.info["rate_per_s"] = std::to_string(kColdReadRounds / opens_s);
  AddTrainEndToEnd(res, Median(untraced_s), setup_s, peak_mb);
  return res;
}

}  // namespace rpmbench
