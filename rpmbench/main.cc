// End-to-end benchmark of the train and serve paths. run.py builds this
// binary and rpm_serve from the checkout's sources and invokes it as
//
//   rpmbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//
// It prints one provenance line (commit, host, build, output digest)
// and, as the last line of stdout, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics
// for --trace 1. A run whose load generator fell behind its schedule is
// invalid: it prints no result and exits with status 3.

#include <algorithm>
#include <cstdio>
#include <vector>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "distance/isa_dispatch.h"

namespace {

using namespace rpmbench;

struct WorkloadInfo {
  Result (*run)(const RunConfig&);
  const char* why;
  const char* most;   // layers this workload loads most
  const char* least;  // layers it leaves idle
};

const std::map<std::string, WorkloadInfo>& Workloads() {
  static const std::map<std::string, WorkloadInfo> table = {
      {"train_suite",
       {&RunTrainSuite,
        "the paper's efficiency claim on the default user path (rpm_cli "
        "train, DIRECT R=24)",
        "core.select_s sax grammar cluster ml.svm opt.combos ts.parse_s",
        "ts.open_s ts.crc_s ts.copy_s core.sample_s serve.* stream.*"}},
      {"train_archive",
       {&RunTrainArchive,
        "out-of-core training off an RPMD archive with sampling caps, "
        "fixed SAX and one thread",
        "ts.crc_s ts.open_s ts.copy_s core.sample_s core.mine_s",
        "core.select_s opt.combos serve.* stream.*"}},
      {"serve_classify",
       {&RunServeClassify,
        "CLASSIFY over loopback TCP, text codec: open loop at a light rate "
        "(p50/p90) and a closed loop of 32 in flight (rate)",
        "serve.queue_wait_us serve.batch_us serve.occupancy "
        "core.classify_us net.*",
        "stream.* ts.crc_s core.select_s"}},
      {"serve_stream",
       {&RunServeStream,
        "STREAM_FEED over a Unix socket, binary codec, 2 closed-loop "
        "sessions, one per shard",
        "stream.feed_us stream.score_us net.* serve.busiest_shard_share",
        "serve.batch_us serve.latency_us serve.occupancy ts.crc_s"}},
  };
  return table;
}

// Every per-layer metric, in output order, with its unit. A traced run
// prints all of them; a layer the workload never enters reads 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"ts.parse_s", "s"},
      {"core.save_s", "s"},
      {"core.select_s", "s"},
      {"core.mine_s", "s"},
      {"core.distinct_s", "s"},
      {"core.fit_s", "s"},
      {"sax.discretize_s", "s"},
      {"grammar.induce_s", "s"},
      {"cluster.split_s", "s"},
      {"core.transform_s", "s"},
      {"ml.svm_s", "s"},
      {"opt.combos", "count"},
      {"distance.scans", "count"},
      {"distance.windows", "count"},
      {"distance.matchall_calls", "count"},
      {"distance.bucket_scans", "count"},
      {"ts.open_s", "s"},
      {"core.sample_s", "s"},
      {"ts.crc_s", "s"},
      {"ts.crc_mb_per_s", "MB/s"},
      {"ts.copy_s", "s"},
      {"ts.crc_useful_ratio", "ratio"},
      {"core.classify_us", "us"},
      {"serve.latency_us", "us"},
      {"serve.batch_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.occupancy", "count"},
      {"serve.occupancy_ratio", "ratio"},
      {"net.overhead_us", "us"},
      {"net.loop_iteration_us", "us"},
      {"net.events_per_wake", "count"},
      {"stream.feed_us", "us"},
      {"stream.score_us", "us"},
      {"stream.truncated_ratio", "ratio"},
      {"serve.busiest_shard_share", "ratio"},
      {"bench.late_us", "us"},
      {"bench.unaccounted_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return table;
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "rpmbench: %s\nusage: rpmbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --tmp DIR [--reference FILE] "
               "[--write-reference] [--commit C] [--source-digest D]\n",
               msg);
  std::exit(2);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown", source_digest = "unknown";
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe");
  cfg.serve_bin = (self.parent_path() / "rpm_serve").string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(next());
    } else if (arg == "--trace") {
      cfg.trace = next() != "0";
    } else if (arg == "--tmp") {
      cfg.tmp = next();
    } else if (arg == "--reference") {
      cfg.reference_path = next();
    } else if (arg == "--write-reference") {
      cfg.write_reference = true;
    } else if (arg == "--commit") {
      commit = next();
    } else if (arg == "--source-digest") {
      source_digest = next();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto it = Workloads().find(cfg.workload);
  if (it == Workloads().end()) Usage("unknown workload");
  if (cfg.tmp.empty() || !std::filesystem::is_directory(cfg.tmp)) {
    Usage("--tmp must name an existing directory");
  }
  if (cfg.seconds <= 0) Usage("--seconds must be positive");
  if (cfg.reference_path.empty()) Usage("--reference is required");

  Result res;
  try {
    res = it->second.run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpmbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string prov = "{\"bench\":\"rpmbench\",\"workload\":\"" +
                     cfg.workload + "\",\"seed\":" +
                     std::to_string(cfg.seed) + ",\"seconds\":" +
                     Number(cfg.seconds) + ",\"trace\":" +
                     (cfg.trace ? "1" : "0") + ",\"commit\":\"" +
                     JsonEscape(commit) + "\",\"source_digest\":\"" +
                     JsonEscape(source_digest) + "\",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"isa\":\"" +
                     rpm::distance::IsaTierName(
                         rpm::distance::CurrentIsaTier()) +
                     "\",\"build_type\":\"" RPMBENCH_BUILD_TYPE
                     "\",\"compiler\":\"" RPMBENCH_COMPILER
                     "\",\"output_digest\":\"" +
                     Hex(res.digest) + "\",\"valid\":" +
                     (res.valid ? "true" : "false") + ",\"why\":\"" +
                     it->second.why + "\",\"most_work\":\"" +
                     it->second.most + "\",\"least_work\":\"" +
                     it->second.least + "\"";
  for (const auto& [k, v] : res.info) {
    prov += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  prov += "}";
  std::printf("%s\n", prov.c_str());
  if (!res.valid) {
    std::fflush(stdout);
    std::fprintf(stderr, "rpmbench: invalid run: %s\n",
                 res.invalid_reason.c_str());
    return 3;
  }

  std::vector<Metric> metrics = res.e2e;
  if (cfg.trace) {
    metrics.clear();
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto v = res.layer.find(name);
      metrics.push_back({name, unit, v == res.layer.end() ? 0.0 : v->second});
    }
    for (const auto& [name, v] : res.layer) {
      if (std::none_of(metrics.begin(), metrics.end(),
                       [&](const Metric& m) { return m.name == name; })) {
        std::fprintf(stderr, "rpmbench: unlisted layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
  }
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
