#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace rpmbench {

void Digest::Add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Digest::Hex() const { return rpmbench::Hex(h_); }

Reference::Reference(const RunConfig& cfg)
    : workload_(cfg.workload),
      path_(cfg.reference_path),
      active_(cfg.seed == kDefaultSeed || cfg.write_reference),
      write_(cfg.write_reference) {
  if (!active_ || write_) return;
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("cannot read reference " + path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, value;
    if (!(fields >> workload >> key >> value)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    if (workload == workload_) expected_[key] = value;
  }
}

bool Reference::Check(const std::string& key, const std::string& value) {
  if (!active_) return true;
  if (write_) {
    recorded_.emplace_back(key, value);
    return true;
  }
  const auto it = expected_.find(key);
  if (it != expected_.end() && it->second == value) return true;
  std::fprintf(stderr, "[rpmbench] %s: output %s differs from reference\n",
               workload_.c_str(), key.c_str());
  return false;
}

void Reference::Save() const {
  if (!write_) return;
  std::vector<std::string> kept;
  {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(workload_ + " ", 0) != 0) kept.push_back(line);
    }
  }
  std::ofstream out(path_, std::ios::trunc);
  for (const auto& line : kept) out << line << '\n';
  for (const auto& [key, value] : recorded_) {
    out << workload_ << ' ' << key << ' ' << value << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference " + path_);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : std::size_t(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

double HostProbeSeconds() {
  // Four timed chunks of the same kernel; the fastest, times four, is
  // the probe, so an interrupt inside one chunk does not skew it.
  static std::vector<double> buf(std::size_t{1} << 15, 1.0);  // 256 KiB
  const std::size_t mask = buf.size() - 1;
  double fastest = 1e300;
  double acc = 0;
  for (int chunk = 0; chunk < 4; ++chunk) {
    const auto t0 = Clock::now();
    for (int r = 0; r < 75; ++r) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        acc += buf[i] * buf[(i * 7) & mask];
      }
    }
    fastest = std::min(fastest, Seconds(t0, Clock::now()));
  }
  volatile double sink = acc;
  (void)sink;
  return 4 * fastest;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out) throw std::runtime_error("cannot reset the RSS high-water mark");
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

}  // namespace rpmbench
