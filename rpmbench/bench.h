// Shared pieces of the end-to-end benchmark: run configuration, the
// result every workload returns, output digests, the stored reference,
// and small statistics helpers. See README.md for the workloads and
// metrics.

#ifndef RPMBENCH_BENCH_H_
#define RPMBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rpmbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] inline void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// Seed used when --seed is not given; the stored reference holds the
/// outputs for this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;             ///< per-run scratch directory (exists)
  std::string serve_bin;       ///< path of the rpm_serve executable
  std::string reference_path;  ///< stored reference outputs
  bool write_reference = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload run reports. `e2e` is filled by untraced runs and
/// `layer` by traced ones; main prints whichever the run asked for.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of every output the workload checked, comparable across
  /// commits at any seed.
  std::uint64_t digest = 0;
  /// False when the load generator could not keep its schedule.
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> e2e;
  /// Per-layer values by name; main prints the full per-layer list,
  /// with 0 for layers the workload never enters.
  std::map<std::string, double> layer;
  /// Workload-specific facts printed with the provenance line.
  std::map<std::string, std::string> info;
};

/// FNV-1a, 64-bit.
class Digest {
 public:
  void Add(const void* data, std::size_t n);
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  void AddU64(std::uint64_t v) { Add(&v, sizeof(v)); }
  void AddDouble(double v) { Add(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(std::uint64_t v);

/// Reference outputs stored with the benchmark: one "<workload> <key>
/// <value>" line each. Outputs are compared against it only at the
/// default seed.
class Reference {
 public:
  Reference(const RunConfig& cfg);

  /// True when this run's outputs are checked against the reference.
  bool active() const { return active_; }

  /// Checks (or, in write mode, records) one output; returns false on a
  /// mismatch or a key the reference lacks.
  bool Check(const std::string& key, const std::string& value);

  /// Writes the recorded outputs back to the reference file, replacing
  /// this workload's lines. No-op unless in write mode.
  void Save() const;

 private:
  std::string workload_;
  std::string path_;
  bool active_ = false;
  bool write_ = false;
  std::map<std::string, std::string> expected_;
  std::vector<std::pair<std::string, std::string>> recorded_;
};

/// Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);

/// Seconds of a fixed cache-resident arithmetic kernel that runs no
/// library code: a gauge of how fast this host is running right now.
double HostProbeSeconds();

/// HostProbeSeconds() on an idle host of the kind the bounds were sized
/// on (4-vCPU Xeon VM).
inline constexpr double kProbeRefS = 0.008;

/// Times `work` between two host probes and returns its seconds scaled
/// to the reference host speed: raw * kProbeRefS / (mean probe). For
/// floating-point-heavy work only: on the shared host the bounds were
/// sized on, the probe's own speed and that of such work swing together
/// (the probe flips between ~7 and ~13 ms from one call to the next, on
/// each vCPU on its own), so the scaled time keeps changes of the program
/// and drops most of that swing. Integer and memory-bound work (the
/// archive's CRC and copies) does not swing with the probe and is timed
/// raw. `raw`, when given, accumulates the unscaled seconds.
template <typename F>
double ScaledSeconds(F&& work, double* raw = nullptr) {
  const double p0 = HostProbeSeconds();
  const auto t0 = Clock::now();
  work();
  const double t = Seconds(t0, Clock::now());
  const double p1 = HostProbeSeconds();
  if (raw != nullptr) *raw += t;
  return t * kProbeRefS / (0.5 * (p0 + p1));
}

/// Set-ups per run whose median is reported as setup_s: at least this
/// many, and as many more as fit in kSetupMinS, so cheap set-ups (50 ms
/// for train_suite) give a median of dozens.
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr double kSetupMinS = 2.0;

/// Resets this process's RSS high-water mark to its current RSS.
void ResetPeakRss();

/// High-water resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(int pid = 0);

/// Runs `setup` at least kSetupRepeats times and until kSetupMinS have
/// passed, and returns the median seconds of one, scaled to the
/// reference host speed like ScaledSeconds does but by the mean of the
/// probes taken between the set-ups: set-up is mostly floating-point
/// generation, formatting and training, and a single probe is as noisy
/// as the swing it gauges.
template <typename F>
double MedianSetupSeconds(F&& setup) {
  std::vector<double> t;
  double probes_s = HostProbeSeconds();
  const auto start = Clock::now();
  while (t.size() < kSetupRepeats ||
         Seconds(start, Clock::now()) < kSetupMinS) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(Seconds(t0, Clock::now()));
    probes_s += HostProbeSeconds();
  }
  return Median(t) * kProbeRefS / (probes_s / double(t.size() + 1));
}

Result RunTrainSuite(const RunConfig& cfg);
Result RunTrainArchive(const RunConfig& cfg);
Result RunServeClassify(const RunConfig& cfg);
Result RunServeStream(const RunConfig& cfg);

}  // namespace rpmbench

#endif  // RPMBENCH_BENCH_H_
