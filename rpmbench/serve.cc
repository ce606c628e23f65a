// Serving-path workloads. Both drive the shipped rpm_serve binary as a
// child process through its sockets, from one generator thread.
//
// serve_classify: rpm_serve at its defaults (1 shard, batch 32, 2 ms
//   linger, 1/16 span sampling) on loopback TCP, text codec, four
//   connections. Phase (a) is an open loop at a light fixed rate, each
//   request timed from its due time: the queue is idle, so the linger is
//   most of the latency. Phase (b) is a closed loop of 32 in flight,
//   enough to fill a max-size batch: batching sets the capacity.
// serve_stream: rpm_serve --shards 2 on a Unix socket, binary codec, four
//   sessions (one per connection) each in a closed loop of 256-sample
//   STREAM_FEED frames. The stream scorer, session routing and two
//   reactors work; the batching queue does not. Unix connections are
//   pinned to shards by arrival order, so the connection->shard map is
//   the same on every run.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/rpm.h"
#include "net/frame.h"
#include "net/hash_ring.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"

namespace rpmbench {
namespace {

namespace net = rpm::net;

// serve_classify's connections.
constexpr int kConnections = 4;
// serve_classify: phase (a) offered rate and share of the run, phase (b)
// requests in flight. The rate is ~4% of capacity, and its period (2.5 ms)
// stays clear of the 2 ms linger: at exactly one request per linger each
// arrival would race the previous batch's dispatch, and p50 would flip
// between the two outcomes.
constexpr double kOpenLoopRate = 400.0;
constexpr double kOpenLoopShare = 0.75;
constexpr int kClosedInFlight = 32;
constexpr std::size_t kMaxBatch = 32;  // rpm_serve's default --batch
// An open-loop window in which half the requests or more went out over
// this late measured the generator, not the server (see Summarize).
constexpr double kLateLimitUs = 500.0;
constexpr auto kSpinWindow = std::chrono::microseconds(300);
// serve_stream geometry: one control connection (LOAD, METRICS), then
// one session per shard. Unix connections are keyed by arrival order
// from 1, and the ring puts keys 2 and 3 on different shards; with the
// earlier four sessions on keys 1-4 the ring's 3:1 split queued three
// sessions behind one reactor, and their round trip swung with how the
// single client thread interleaved them (spread 0.2 of the median
// across runs, against 0.07 for the session alone on its shard).
constexpr std::size_t kStreamShards = 2;
constexpr int kStreamSessions = 2;
constexpr std::size_t kFeedSamples = 256;
constexpr std::size_t kWindow = 128;
constexpr std::size_t kHop = 16;
constexpr std::size_t kSignalSamples = std::size_t{1} << 20;
// serve_classify's open-loop latency and both closed loops' rates are read
// per fixed window of the measured phase, and a run reports its least
// disturbed window: the lowest window p50 and p90, the highest window
// rate (best-of-N, as the repository's other benches time). On a shared
// VM the host deschedules a vCPU for milliseconds at a time, in bursts
// that can cover several seconds; windows they hit show the host, not the
// server. The median window p99 goes to the provenance line: descheduling
// alone sets it, and it swung 2-5x between runs of the same code. A
// latency window counts only with at least 1000 samples, as does a
// stream session's whole run (SessionLatency).
constexpr double kWindowS = 2.5;
constexpr std::size_t kMinWindowSamples = 1000;
// Throughput windows of the closed loops.
constexpr double kRateWindowS = 1.0;
// Decisions of the reference replay compared with the stored reference,
// in blocks of this many.
constexpr std::size_t kRefDecisions = 4096;
constexpr std::size_t kRefBlock = 512;
// Traced serve_classify/serve_stream: accounting tolerance for the
// remainders (queue wait, net overhead) that must not go negative.
constexpr double kServeAccountingTolerance = 0.05;
constexpr double kReplyTimeoutS = 5.0;
// Trainings of the served model behind train_s: the Trace model takes
// ~0.9 s, the stream model ~7 ms.
constexpr int kClassifyTrainRepeats = 5;
constexpr int kStreamTrainRepeats = 25;

// ---- Child process ----

// rpm_serve as a child: started with its stdout/stderr in a log file,
// stopped with SIGTERM (then SIGKILL) and always waited for. The child
// also dies with this process (PR_SET_PDEATHSIG) if it never gets here.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, std::vector<std::string> args,
                const std::string& log_path)
      : log_path_(log_path) {
    args.insert(args.begin(), bin);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // A log left by an earlier server must not be read as this one's.
    std::filesystem::remove(log_path);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) Fail("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    WaitReady();
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string Log() const {
    std::ifstream in(log_path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void WaitReady() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const std::string log = Log();
      const std::size_t at = log.find("listening on ");
      if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
        const std::size_t colon = log.find("localhost:", at);
        if (colon != std::string::npos) {
          port_ = std::atoi(log.c_str() + colon + 10);
        }
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        Fail("rpm_serve exited during start-up:\n" + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Fail("rpm_serve did not start:\n" + Log());
  }

  std::string log_path_;
  pid_t pid_ = -1;
  int port_ = 0;
};

// ---- Client connections ----

// One non-blocking client socket with an output buffer and the
// library's own line/frame reassemblers for replies.
class Conn {
 public:
  static std::unique_ptr<Conn> Tcp(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      Fail("cannot connect to port " + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<Conn>(new Conn(fd, false));
  }
  static std::unique_ptr<Conn> Unix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) Fail("socket path too long");
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      Fail("cannot connect to " + path);
    }
    auto conn = std::unique_ptr<Conn>(new Conn(fd, true));
    conn->Queue(std::string_view(net::kBinaryMagic, 4));
    return conn;
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool wants_write() const { return !out_.empty(); }

  /// Appends to the output buffer and writes what the socket takes now.
  void Queue(std::string_view bytes) {
    out_.append(bytes);
    Flush();
  }
  void Flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, std::size_t(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      } else {
        Fail("send failed");
      }
    }
  }
  /// Reads everything available; false once the peer closed.
  bool Drain() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        if (binary_) {
          frames_.Append(std::string_view(buf, std::size_t(n)));
        } else {
          lines_.Append(std::string_view(buf, std::size_t(n)));
        }
      } else if (n == 0) {
        return false;
      } else {
        return errno == EAGAIN || errno == EINTR;
      }
    }
  }
  bool NextLine(std::string* line) {
    return lines_.NextLine(line) == net::LineAssembler::LineStatus::kLine;
  }
  bool NextFrame(net::Frame* frame) {
    const auto s = frames_.Next(frame);
    if (s == net::FrameAssembler::FrameStatus::kFrame) return true;
    if (s != net::FrameAssembler::FrameStatus::kNone) Fail("bad reply frame");
    return false;
  }

  /// Blocking request/reply helpers for set-up and scrapes.
  std::string Line(double timeout_s = kReplyTimeoutS) {
    std::string line;
    Await(timeout_s, [&] { return NextLine(&line); });
    return line;
  }
  net::Frame Reply(double timeout_s = kReplyTimeoutS) {
    net::Frame frame;
    Await(timeout_s, [&] { return NextFrame(&frame); });
    return frame;
  }

 private:
  Conn(int fd, bool binary) : fd_(fd), binary_(binary) {
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  template <typename Ready>
  void Await(double timeout_s, Ready&& ready) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    while (!ready()) {
      Flush();
      pollfd p{fd_, short(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) Fail("no reply within timeout");
      ::poll(&p, 1, int(left.count()) + 1);
      if (!Drain()) Fail("server closed the connection");
    }
  }

  int fd_;
  bool binary_;
  std::string out_;
  net::LineAssembler lines_;
  net::FrameAssembler frames_;
};

// Waits up to `timeout` for any connection to become readable (or
// writable when it has output pending).
void PollConns(const std::vector<std::unique_ptr<Conn>>& conns,
               std::chrono::duration<double> timeout) {
  std::vector<pollfd> fds;
  for (const auto& c : conns) {
    fds.push_back(
        {c->fd(), short(POLLIN | (c->wants_write() ? POLLOUT : 0)), 0});
  }
  const std::int64_t ns = std::max<std::int64_t>(
      0, std::int64_t(timeout.count() * 1e9));
  timespec ts{ns / 1000000000, ns % 1000000000};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

// ---- Scrapes ----

// Prometheus text -> "name{labels}" -> value.
using Scrape = std::map<std::string, double>;

Scrape ParseMetrics(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

// Sum of every labelled cell of metric `name` (exact name match).
double SumOf(const Scrape& s, const std::string& name) {
  double total = 0;
  for (const auto& [key, v] : s) {
    if (key == name || key.rfind(name + "{", 0) == 0) total += v;
  }
  return total;
}
double Delta(const Scrape& a, const Scrape& b, const std::string& name) {
  return SumOf(b, name) - SumOf(a, name);
}
// Mean of a histogram over the interval between two scrapes.
double HistMean(const Scrape& a, const Scrape& b, const std::string& name) {
  const double n = Delta(a, b, name + "_count");
  return n > 0 ? Delta(a, b, name + "_sum") / n : 0.0;
}

// Mean duration of the spans called `name` in a TRACE JSON array.
double MeanSpanUs(const std::string& json, const std::string& name) {
  const std::string tag = "\"name\":\"" + name + "\"";
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t at = json.find(tag); at != std::string::npos;
       at = json.find(tag, at + 1)) {
    const std::size_t d = json.find("\"dur_us\":", at);
    if (d == std::string::npos) break;
    sum += std::strtod(json.c_str() + d + 9, nullptr);
    ++n;
  }
  return n > 0 ? sum / double(n) : 0.0;
}

Scrape TextMetrics(Conn& c) {
  c.Queue("METRICS\n");
  if (c.Line() != "OK metrics") Fail("METRICS refused");
  std::string body;
  for (std::string line = c.Line(); line != "# EOF"; line = c.Line()) {
    body += line + '\n';
  }
  return ParseMetrics(body);
}
std::string TextTrace(Conn& c) {
  c.Queue("TRACE 1024\n");
  const std::string line = c.Line();
  if (line.rfind("OK ", 0) != 0) Fail("TRACE refused: " + line);
  return line.substr(3);
}

net::Frame BinaryCall(Conn& c, net::BinaryVerb verb,
                      const std::string& payload) {
  c.Queue(net::EncodeFrame(verb, net::WireStatus::kOk, payload));
  net::Frame f = c.Reply();
  if (f.status != 0) {
    Fail(std::string(net::VerbName(f.verb)) + " answered status " +
         std::to_string(f.status));
  }
  return f;
}
Scrape BinaryMetrics(Conn& c) {
  const net::Frame f = BinaryCall(c, net::BinaryVerb::kMetrics, "");
  net::PayloadReader r(f.payload);
  std::string body;
  if (!r.Blob(&body)) Fail("bad METRICS payload");
  return ParseMetrics(body);
}

std::vector<std::string> ServeArgs(bool traced) {
  // Untraced runs keep rpm_serve's default 1/16 span sampling.
  if (traced) return {"--trace-sample", "1"};
  return {};
}

double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

// ---- serve_classify ----

struct ClassifySetup {
  rpm::core::RpmClassifier clf;
  std::optional<rpm::core::ClassificationEngine> engine;
  std::vector<std::string> lines;  // "CLASSIFY trace v,...\n" per series
  std::vector<int> expected;       // in-process engine label per series
  rpm::ts::Dataset requests;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

// One reply of the measured phase, placed in its window.
struct Sample {
  std::size_t window;
  double value_us;
};

// The lowest p50 and p90 over full windows, and the median window p99;
// `keep` selects the windows that count.
struct Latency {
  double p50_us = 0, p90_us = 0, p99_us = 0;
};

template <typename Keep>
Latency WindowedLatency(const std::vector<Sample>& samples, Keep&& keep) {
  std::map<std::size_t, std::vector<double>> windows;
  for (const auto& x : samples) {
    if (keep(x.window)) windows[x.window].push_back(x.value_us);
  }
  std::vector<double> p50s, p90s, p99s;
  for (auto& [w, v] : windows) {
    if (v.size() < kMinWindowSamples) continue;
    p50s.push_back(Percentile(v, 50));
    p90s.push_back(Percentile(v, 90));
    p99s.push_back(Percentile(v, 99));
  }
  if (p50s.empty()) Fail("no latency window with enough samples");
  return {*std::min_element(p50s.begin(), p50s.end()),
          *std::min_element(p90s.begin(), p90s.end()), Median(p99s)};
}

// serve_stream's latency: each session's percentiles over the whole
// measured phase, and their median over the sessions. Unlike CLASSIFY's
// open loop, the closed loops leave no idle windows to pick from: the
// lowest window p50 of a run spread 0.2 of the median across runs of the
// same code, the whole run's 0.13. Pooling the sessions' replies instead
// would weigh a session by how fast its shard answers.
Latency SessionLatency(const std::vector<std::vector<double>>& rtt_us) {
  std::vector<double> p50s, p90s, p99s;
  for (const auto& v : rtt_us) {
    if (v.size() < kMinWindowSamples) Fail("a session has too few replies");
    p50s.push_back(Percentile(v, 50));
    p90s.push_back(Percentile(v, 90));
    p99s.push_back(Percentile(v, 99));
  }
  return {Median(p50s), Median(p90s), Median(p99s)};
}

// Counts per throughput window of a closed loop; the rate is the best
// full window's.
struct RateWindows {
  Clock::time_point start;
  std::vector<double> counts;

  void Add(Clock::time_point t, double n) {
    const auto w = std::size_t(Seconds(start, t) / kRateWindowS);
    if (counts.size() <= w) counts.resize(w + 1, 0.0);
    counts[w] += n;
  }
  double BestPerSecond(double measured_s) const {
    const auto full = std::size_t(measured_s / kRateWindowS);
    if (full == 0 || counts.size() < full) Fail("no full rate window");
    return *std::max_element(counts.begin(), counts.begin() + full) /
           kRateWindowS;
  }
};

// train_s of the serving workloads: the served model's training, repeated
// after the measured phase (set-up trains it once, as a user does). The
// median training time is scaled to the reference host speed like
// ScaledSeconds does, by the mean of the probes taken between the
// trainings: a single probe is as noisy as the swing it gauges (scaled
// one by one, the stream model's trainings spread 0.12 of the median
// across runs of the same code; this way, 0.04-0.08).
double ServedModelTrainSeconds(const rpm::core::RpmOptions& opt,
                               const rpm::ts::Dataset& train, int repeats) {
  std::vector<double> raw;
  double probes_s = HostProbeSeconds();
  for (int i = 0; i < repeats; ++i) {
    rpm::core::RpmClassifier clf(opt);
    const auto t0 = Clock::now();
    clf.Train(train);
    raw.push_back(Seconds(t0, Clock::now()));
    probes_s += HostProbeSeconds();
  }
  return Median(std::move(raw)) * kProbeRefS / (probes_s / (repeats + 1));
}

// The tail and the throughput go to the provenance line, not to the gated
// metrics: under the host contention measured while sizing the bounds
// their spread across runs of the same code exceeded any allowed bound
// (see README.md).
void AddDiagnostics(Result& res, const Latency& latency, double rate) {
  res.info["p90_us"] = std::to_string(latency.p90_us);
  res.info["p99_us"] = std::to_string(latency.p99_us);
  res.info["rate_per_s"] = std::to_string(rate);
}

struct ClassifyPhase {
  std::vector<Sample> lat_due_us;   // (a): reply - due time
  std::vector<double> lat_send_us;  // (a): reply - send time
  std::vector<Sample> late_us;      // (a): send - due time
  RateWindows completed;  // (b): replies per window
  double window_s = 0;
};

struct InFlight {
  std::size_t series;
  Clock::time_point due, sent;
};

// Reads every available reply and matches each, in order, with its
// connection's oldest request. Counts failures; returns replies taken.
template <typename OnReply>
std::size_t TakeReplies(ClassifySetup& s, std::deque<InFlight>* inflight,
                        Result& res, OnReply&& on_reply) {
  std::size_t taken = 0;
  for (int c = 0; c < kConnections; ++c) {
    if (!s.conns[c]->Drain()) Fail("server closed a connection");
    std::string line;
    while (s.conns[c]->NextLine(&line)) {
      const auto now = Clock::now();
      if (inflight[c].empty()) Fail("unsolicited reply: " + line);
      const InFlight req = inflight[c].front();
      inflight[c].pop_front();
      ++taken;
      // "OK <label>" for exactly the in-process engine's label; ERR
      // TIMEOUT/OVERLOADED/... and wrong labels are failed ops.
      if (line != "OK " + std::to_string(s.expected[req.series])) {
        ++res.failed;
        if (res.failed <= 5) {
          std::fprintf(stderr, "[rpmbench] CLASSIFY #%zu answered '%s'\n",
                       req.series, line.c_str());
        }
      }
      on_reply(req, now);
    }
  }
  return taken;
}

void Send(ClassifySetup& s, std::deque<InFlight>* inflight, int c,
          std::size_t k, Clock::time_point due, Result& res) {
  const std::size_t series = k % s.lines.size();
  inflight[c].push_back({series, due, Clock::now()});
  s.conns[c]->Queue(s.lines[series]);
  ++res.attempted;
}

// Waits for every outstanding reply; those missing at the deadline fail.
template <typename OnReply>
void DrainReplies(ClassifySetup& s, std::deque<InFlight>* inflight,
                  Result& res, OnReply&& on_reply) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(kReplyTimeoutS);
  auto pending = [&] {
    std::size_t n = 0;
    for (int c = 0; c < kConnections; ++c) n += inflight[c].size();
    return n;
  };
  while (pending() > 0 && Clock::now() < deadline) {
    PollConns(s.conns, std::chrono::milliseconds(10));
    TakeReplies(s, inflight, res, on_reply);
  }
  res.failed += pending();
}

void IgnoreReply(const InFlight&, Clock::time_point) {}

// Phase (a): open loop at kOpenLoopRate, requests round-robin over the
// connections, each timed from its due time.
ClassifyPhase OpenLoop(ClassifySetup& s, double seconds, Result& res) {
  ClassifyPhase ph;
  std::deque<InFlight> inflight[kConnections];
  const auto period = std::chrono::duration<double>(1.0 / kOpenLoopRate);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const std::size_t total = std::size_t(seconds * kOpenLoopRate);
  ph.lat_due_us.reserve(total);
  auto on_reply = [&](const InFlight& r, Clock::time_point now) {
    const auto w = std::size_t(Seconds(start, r.due) / kWindowS);
    ph.lat_due_us.push_back({w, Micros(r.due, now)});
    ph.lat_send_us.push_back(Micros(r.sent, now));
    ph.late_us.push_back({w, Micros(r.due, r.sent)});
  };
  for (std::size_t k = 0; k < total;) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(period * double(k));
    const auto now = Clock::now();
    if (now >= due) {
      Send(s, inflight, int(k % kConnections), k, due, res);
      ++k;
      continue;
    }
    // Sleep in poll until shortly before the due time, then spin: a
    // timer wake-up alone can miss the schedule by hundreds of us.
    const auto wait = due - now;
    PollConns(s.conns, wait > kSpinWindow ? wait - kSpinWindow
                                          : Clock::duration::zero());
    for (auto& c : s.conns) c->Flush();
    TakeReplies(s, inflight, res, on_reply);
  }
  DrainReplies(s, inflight, res, on_reply);
  return ph;
}

// Phase (b): closed loop keeping kClosedInFlight requests outstanding:
// every reply is answered by a new request.
ClassifyPhase ClosedLoop(ClassifySetup& s, double seconds, Result& res) {
  ClassifyPhase ph;
  std::deque<InFlight> inflight[kConnections];
  std::size_t k = 0;
  auto send = [&] {
    int target = 0;
    for (int c = 1; c < kConnections; ++c) {
      if (inflight[c].size() < inflight[target].size()) target = c;
    }
    Send(s, inflight, target, k++, Clock::now(), res);
  };
  for (int i = 0; i < kClosedInFlight; ++i) send();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  ph.completed.start = start;
  while (Clock::now() < end) {
    PollConns(s.conns, end - Clock::now());
    for (auto& c : s.conns) c->Flush();
    const std::size_t done = TakeReplies(s, inflight, res, IgnoreReply);
    ph.completed.Add(Clock::now(), double(done));
    for (std::size_t i = 0; i < done; ++i) send();
  }
  ph.window_s = Seconds(start, Clock::now());
  DrainReplies(s, inflight, res, IgnoreReply);
  return ph;
}

rpm::ts::DatasetSplit TraceSplit(std::uint64_t suite_seed) {
  rpm::ts::SuiteOptions options;
  options.seed = suite_seed;
  for (auto& split : rpm::ts::BenchmarkSuite(options)) {
    if (split.name == "Trace") return std::move(split);
  }
  Fail("the suite has no Trace dataset");
}

void SetUpClassify(const RunConfig& cfg, bool traced, ClassifySetup& s,
                   Result& res) {
  s.conns.clear();
  s.server.reset();
  // The served model is trained on the canonical suite's Trace split:
  // its size (and so the cost of every request) would otherwise swing
  // with the seed. The requests are the Trace test split of the suite
  // generated from --seed.
  const rpm::ts::DatasetSplit model_split =
      TraceSplit(rpm::ts::SuiteOptions{}.seed);
  const rpm::ts::DatasetSplit request_split = TraceSplit(cfg.seed);
  s.engine.reset();
  s.clf = rpm::core::RpmClassifier(rpm::core::RpmOptions{});
  s.clf.Train(model_split.train);
  const std::string model =
      std::filesystem::absolute(std::filesystem::path(cfg.tmp) / "trace.model")
          .string();
  s.clf.SaveToFile(model);
  s.engine.emplace(s.clf);
  s.requests = request_split.test;
  s.lines.clear();
  s.expected.clear();
  for (const auto& inst : s.requests) {
    std::string line = "CLASSIFY trace ";
    char buf[32];
    for (std::size_t i = 0; i < inst.values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%.17g" : ",%.17g",
                    inst.values[i]);
      line += buf;
    }
    s.lines.push_back(line + "\n");
    s.expected.push_back(s.engine->Classify(inst.values));
  }

  std::vector<std::string> args = {"--port", "0"};
  for (auto& a : ServeArgs(traced)) args.push_back(a);
  s.server = std::make_unique<ServerProcess>(
      cfg.serve_bin, args,
      (std::filesystem::path(cfg.tmp) / "serve.log").string());
  for (int c = 0; c < kConnections; ++c) {
    s.conns.push_back(Conn::Tcp(s.server->port()));
  }
  s.conns[0]->Queue("LOAD trace " + model + "\n");
  const std::string loaded = s.conns[0]->Line();
  if (loaded.rfind("OK loaded trace", 0) != 0) Fail("LOAD: " + loaded);
  // Warm-up: one full closed-loop round, checked like any other.
  std::deque<InFlight> inflight[kConnections];
  for (int i = 0; i < kClosedInFlight; ++i) {
    Send(s, inflight, i % kConnections, std::size_t(i), Clock::now(), res);
  }
  DrainReplies(s, inflight, res, IgnoreReply);
}

struct ClassifyRun {
  ClassifyPhase open, closed;
  double peak_rss_mb = 0;
  Scrape m0, m1, m2;   // after warm-up, after (a), after (b)
  std::string trace_a;  // spans as phase (a) ends
};

ClassifyRun MeasureClassify(ClassifySetup& s, double seconds, bool scrape,
                            Result& res) {
  ClassifyRun run;
  if (scrape) run.m0 = TextMetrics(*s.conns[0]);
  // Phase (a) runs whole windows.
  const double open_s =
      kWindowS * std::max(1.0, std::round(seconds * kOpenLoopShare / kWindowS));
  run.open = OpenLoop(s, open_s, res);
  if (scrape) {
    run.m1 = TextMetrics(*s.conns[0]);
    run.trace_a = TextTrace(*s.conns[0]);
  }
  run.closed = ClosedLoop(s, std::max(1.0, seconds - open_s), res);
  if (scrape) run.m2 = TextMetrics(*s.conns[0]);
  run.peak_rss_mb = PeakRssMb(s.server->pid());
  return run;
}

// Open-loop validity: a window in which the generator fell behind its
// schedule (median send lateness over kLateLimitUs) measured the
// generator, not the server, and is left out; with fewer than half the
// windows left the run is invalid. Host stalls delay the sends inside
// them and show in bench.late_us (the p99) without invalidating a window.
struct OpenLoopResult {
  Latency latency;
  double late_p99_us = 0;
};

OpenLoopResult Summarize(const ClassifyPhase& ph, Result& res) {
  std::map<std::size_t, std::vector<double>> late;
  for (const auto& x : ph.late_us) late[x.window].push_back(x.value_us);
  std::map<std::size_t, bool> valid;
  std::size_t n_valid = 0;
  for (auto& [w, v] : late) {
    valid[w] = Percentile(v, 50) <= kLateLimitUs;
    n_valid += valid[w];
  }
  std::vector<double> all_late;
  for (const auto& x : ph.late_us) all_late.push_back(x.value_us);
  OpenLoopResult out;
  out.late_p99_us = Percentile(all_late, 99);
  out.latency = WindowedLatency(ph.lat_due_us,
                                [&](std::size_t w) { return valid[w]; });
  res.info["open_loop_windows_valid"] =
      std::to_string(n_valid) + "/" + std::to_string(late.size());
  if (2 * n_valid < late.size()) {
    res.valid = false;
    res.invalid_reason = "open-loop generator fell behind its schedule in " +
                         std::to_string(late.size() - n_valid) + " of " +
                         std::to_string(late.size()) + " windows";
  }
  return out;
}

// ---- serve_stream ----

struct StreamSetup {
  rpm::core::RpmClassifier clf;
  std::optional<rpm::core::ClassificationEngine> engine;
  std::vector<double> signal;  // fed cyclically by every session
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Conn> control;
  std::vector<std::unique_ptr<Conn>> conns;  // one per session
  std::vector<std::string> ids;
  std::vector<std::size_t> fed;  // samples accepted per session
  std::vector<std::vector<rpm::stream::StreamDecision>> decisions;
};

rpm::core::RpmOptions StreamModelOptions() {
  rpm::core::RpmOptions opt;
  opt.search = rpm::core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 32;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  return opt;
}

rpm::ts::DatasetSplit StreamModelSplit() {
  return rpm::ts::MakeCbf(10, 6, kWindow, 778);
}

rpm::stream::StreamOptions StreamOpts() {
  rpm::stream::StreamOptions o;
  o.window = kWindow;
  o.hop = kHop;
  return o;
}

std::string FeedPayload(const StreamSetup& s, int c) {
  double values[kFeedSamples];
  for (std::size_t j = 0; j < kFeedSamples; ++j) {
    values[j] = s.signal[(s.fed[c] + j) % s.signal.size()];
  }
  std::string p;
  net::PayloadWriter w(&p);
  w.Str(s.ids[c]);
  w.F64Array(values, kFeedSamples);
  return p;
}

// Parses a STREAM_FEED reply into the session's decision list; returns
// the samples accepted.
std::size_t ParseFeed(const net::Frame& f, StreamSetup& s, int c) {
  if (f.status != 0) return 0;
  net::PayloadReader r(f.payload);
  std::uint32_t accepted = 0, n = 0;
  if (!r.U32(&accepted) || !r.U32(&n)) Fail("bad STREAM_FEED reply");
  for (std::uint32_t i = 0; i < n; ++i) {
    rpm::stream::StreamDecision d;
    std::uint64_t k = 0;
    std::int32_t label = 0;
    std::uint8_t early = 0;
    if (!r.U64(&k) || !r.I32(&label) || !r.F64(&d.margin) || !r.U8(&early)) {
      Fail("bad STREAM_FEED decision");
    }
    d.window_index = k;
    d.label = label;
    d.early = early != 0;
    s.decisions[c].push_back(d);
  }
  return accepted;
}

void SetUpStream(const RunConfig& cfg, bool traced, StreamSetup& s) {
  s.conns.clear();
  s.control.reset();
  s.server.reset();
  // stream_bench's model, trained on the same fixed CBF draw: trained on
  // a seeded draw it holds 2 to 12 patterns, and the scoring cost of every
  // window swings with it. The fed signal comes from --seed.
  s.engine.reset();
  s.clf = rpm::core::RpmClassifier(StreamModelOptions());
  s.clf.Train(StreamModelSplit().train);
  s.engine.emplace(s.clf);
  const std::filesystem::path tmp = cfg.tmp;
  const std::string model =
      std::filesystem::absolute(tmp / "cbf.model").string();
  s.clf.SaveToFile(model);
  // The feed: concatenated CBF instances, so the regime changes every
  // series length.
  const rpm::ts::DatasetSplit feed = rpm::ts::MakeCbf(
      1, kSignalSamples / kWindow / 3 + 1, kWindow, cfg.seed * 7919 + 99);
  s.signal.clear();
  for (const auto& inst : feed.test) {
    s.signal.insert(s.signal.end(), inst.values.begin(), inst.values.end());
  }
  s.signal.resize(kSignalSamples);

  // A short relative path keeps the socket under the sun_path limit.
  const std::string sock =
      std::filesystem::relative(tmp / "s.sock").string();
  std::vector<std::string> args = {"--unix", sock, "--shards",
                                   std::to_string(kStreamShards)};
  for (auto& a : ServeArgs(traced)) args.push_back(a);
  s.server = std::make_unique<ServerProcess>(cfg.serve_bin, args,
                                             (tmp / "serve.log").string());
  // The connections open first, in a fixed order: pinning follows
  // arrival order, and any earlier connection would shift it.
  s.control = Conn::Unix(sock);
  for (int c = 0; c < kStreamSessions; ++c) {
    s.conns.push_back(Conn::Unix(sock));
  }
  std::string p;
  net::PayloadWriter w(&p);
  w.Str("cbf");
  w.Str(model);
  BinaryCall(*s.control, net::BinaryVerb::kLoad, p);
  s.ids.assign(kStreamSessions, "");
  for (int c = 0; c < kStreamSessions; ++c) {
    std::string open;
    net::PayloadWriter ow(&open);
    ow.Str("cbf");
    ow.U32(kWindow);
    ow.U32(kHop);
    ow.F64(0.0);
    ow.F64(0.5);
    const net::Frame f =
        BinaryCall(*s.conns[c], net::BinaryVerb::kStreamOpen, open);
    net::PayloadReader r(f.payload);
    if (!r.Str(&s.ids[c])) Fail("bad STREAM_OPEN reply");
  }
  s.fed.assign(kStreamSessions, 0);
  s.decisions.assign(kStreamSessions, {});
}

// The connection->shard map: each session id names its home shard
// ("s<k>" lives on shard (k-1) % shards). It must be the map the front
// end's ring gives the sessions' arrival keys (Unix connections are keyed
// by arrival order, counting from 1; the control connection is key 1),
// one session per shard, and METRICS must agree.
bool CheckShardMap(StreamSetup& s, Result& res) {
  const net::ConsistentHashRing ring(kStreamShards);
  std::vector<int> per_shard(kStreamShards, 0);
  std::string map;
  bool ok = true;
  for (int c = 0; c < kStreamSessions; ++c) {
    const std::size_t k = std::stoul(s.ids[c].substr(1));
    const std::size_t shard = (k - 1) % kStreamShards;
    ok = ok && shard == ring.PickHash(std::uint64_t(c) + 2);
    ok = ok && ++per_shard[shard] == 1;
    map += std::to_string(shard);
  }
  const Scrape m = BinaryMetrics(*s.control);
  for (std::size_t sh = 0; sh < kStreamShards; ++sh) {
    const auto key = "rpm_stream_shard_sessions{shard=\"" +
                     std::to_string(sh) + "\"}";
    const auto it = m.find(key);
    ok = ok && it != m.end() && int(it->second) == per_shard[sh];
  }
  res.info["shard_map"] = map;
  if (!ok) {
    res.valid = false;
    res.invalid_reason = "connection->shard map " + map +
                         " differs from the ring's or from METRICS";
  }
  return ok;
}

struct StreamRun {
  std::vector<std::vector<double>> rtt_us;  // per session
  RateWindows samples;  // samples accepted per window
  double window_s = 0;
  double peak_rss_mb = 0;
  Scrape m0, m1;
};

// Closed loop per session: one 256-sample feed outstanding per
// connection; each reply is answered by the session's next feed, and a
// short reply is re-offered from where it stopped.
StreamRun MeasureStream(StreamSetup& s, double seconds, bool scrape,
                        Result& res) {
  StreamRun run;
  run.rtt_us.resize(kStreamSessions);
  if (scrape) run.m0 = BinaryMetrics(*s.control);
  std::vector<Clock::time_point> sent(kStreamSessions);
  std::vector<bool> busy(kStreamSessions, false);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  run.samples.start = start;
  auto send = [&](int c) {
    sent[c] = Clock::now();
    busy[c] = true;
    ++res.attempted;
    s.conns[c]->Queue(net::EncodeFrame(net::BinaryVerb::kStreamFeed,
                                       net::WireStatus::kOk,
                                       FeedPayload(s, c)));
  };
  auto take = [&](bool resend) {
    for (int c = 0; c < kStreamSessions; ++c) {
      if (!s.conns[c]->Drain()) Fail("server closed a connection");
      net::Frame f;
      while (s.conns[c]->NextFrame(&f)) {
        const auto now = Clock::now();
        if (!busy[c]) Fail("unsolicited STREAM_FEED reply");
        busy[c] = false;
        run.rtt_us[c].push_back(Micros(sent[c], now));
        if (f.status != 0) {
          ++res.failed;
        } else {
          const std::size_t accepted = ParseFeed(f, s, c);
          s.fed[c] += accepted;
          if (now <= end) run.samples.Add(now, double(accepted));
        }
        if (resend) send(c);
      }
    }
  };
  for (int c = 0; c < kStreamSessions; ++c) send(c);
  while (Clock::now() < end) {
    PollConns(s.conns, end - Clock::now());
    for (auto& c : s.conns) c->Flush();
    take(true);
  }
  run.window_s = Seconds(start, Clock::now());
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(kReplyTimeoutS);
  auto any_busy = [&] {
    return std::find(busy.begin(), busy.end(), true) != busy.end();
  };
  while (any_busy() && Clock::now() < deadline) {
    PollConns(s.conns, std::chrono::milliseconds(10));
    take(false);
  }
  res.failed += std::size_t(std::count(busy.begin(), busy.end(), true));
  if (scrape) run.m1 = BinaryMetrics(*s.control);
  run.peak_rss_mb = PeakRssMb(s.server->pid());
  return run;
}

std::string DecisionKey(const rpm::stream::StreamDecision& d) {
  return std::to_string(d.window_index) + ":" + std::to_string(d.label) +
         ":" + Hex(std::bit_cast<std::uint64_t>(d.margin)) + ":" +
         (d.early ? "1" : "0");
}

// Every session's decisions must equal ReplayWindows over exactly the
// samples it was fed; at the default seed the replay's first decisions
// must also equal the stored reference. Mismatches fail the feeds that
// carried them (counted per session and per reference block).
void CheckStream(StreamSetup& s, Reference& ref, Result& res) {
  const std::size_t longest = *std::max_element(s.fed.begin(), s.fed.end());
  std::vector<double> fed(longest);
  for (std::size_t i = 0; i < longest; ++i) {
    fed[i] = s.signal[i % s.signal.size()];
  }
  const auto replay = rpm::stream::ReplayWindows(
      *s.engine, rpm::ts::SeriesView(fed.data(), fed.size()), StreamOpts());
  Digest digest;
  for (int c = 0; c < kStreamSessions; ++c) {
    const auto& got = s.decisions[c];
    std::size_t expected_n = 0;
    while (expected_n < replay.size() &&
           replay[expected_n].window_index * kHop + kWindow <= s.fed[c]) {
      ++expected_n;
    }
    std::size_t bad = got.size() == expected_n ? 0 : 1;
    for (std::size_t i = 0; i < std::min(got.size(), expected_n); ++i) {
      const auto& a = got[i];
      const auto& b = replay[i];
      if (a.window_index != b.window_index || a.label != b.label ||
          std::bit_cast<std::uint64_t>(a.margin) !=
              std::bit_cast<std::uint64_t>(b.margin) ||
          a.early != b.early) {
        ++bad;
      }
    }
    if (bad > 0) {
      std::fprintf(stderr,
                   "[rpmbench] session %d: %zu decisions differ from "
                   "ReplayWindows\n",
                   c, bad);
      res.failed += bad;
    }
  }
  if (replay.size() < kRefDecisions) Fail("too few decisions to check");
  for (std::size_t b = 0; b < kRefDecisions / kRefBlock; ++b) {
    Digest block;
    for (std::size_t i = b * kRefBlock; i < (b + 1) * kRefBlock; ++i) {
      block.Add(DecisionKey(replay[i]));
    }
    digest.AddU64(block.value());
    if (!ref.Check("decisions." + std::to_string(b), block.Hex())) {
      res.failed += kStreamSessions;
    }
  }
  res.digest = digest.value();
}

}  // namespace

Result RunServeClassify(const RunConfig& cfg) {
  Result res;
  Reference ref(cfg);
  ClassifySetup s;
  Result warmup;  // set-up ops are checked but not counted as measured
  // Traced runs measure an untraced server first, for the overhead.
  const double seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  ClassifyRun base;
  double setup_s = 0;
  if (!cfg.trace) {
    setup_s = MedianSetupSeconds(
        [&] { SetUpClassify(cfg, false, s, warmup); });
  } else {
    SetUpClassify(cfg, false, s, warmup);
    base = MeasureClassify(s, seconds, false, res);
    SetUpClassify(cfg, true, s, warmup);
  }
  ClassifyRun run = MeasureClassify(s, seconds, cfg.trace, res);
  s.conns.clear();
  s.server->Stop();
  res.failed += warmup.failed;
  const OpenLoopResult open = Summarize(run.open, res);

  // Output record: the label of every request series.
  Digest digest;
  std::string labels;
  for (std::size_t i = 0; i < s.expected.size(); ++i) {
    labels += (i ? "." : "") + std::to_string(s.expected[i]);
  }
  digest.Add(labels);
  if (!ref.Check("Trace.labels", labels)) res.failed += 1;
  ref.Save();
  res.digest = digest.value();
  res.info["open_loop_requests"] = std::to_string(run.open.lat_due_us.size());

  if (!cfg.trace) {
    res.e2e.push_back(
        {"train_s", "s",
         ServedModelTrainSeconds(rpm::core::RpmOptions{},
                                 TraceSplit(rpm::ts::SuiteOptions{}.seed).train,
                                 kClassifyTrainRepeats)});
    res.e2e.push_back({"p50_us", "us", open.latency.p50_us});
    AddDiagnostics(res, open.latency,
                   run.closed.completed.BestPerSecond(run.closed.window_s));
    res.e2e.push_back({"setup_s", "s", setup_s});
    res.e2e.push_back({"peak_rss_mb", "MB", run.peak_rss_mb});
    return res;
  }

  auto& L = res.layer;
  const std::string lat = "rpm_serve_request_latency_microseconds";
  const double server_us = HistMean(run.m0, run.m1, lat);
  const double batch_us = MeanSpanUs(run.trace_a, "serve.batch");
  const double client_us = Mean(run.open.lat_send_us);
  const double occupancy =
      HistMean(run.m1, run.m2, "rpm_serve_batch_occupancy");
  const double requests = Delta(run.m0, run.m2, lat + "_count");
  auto per_request = [&](const std::string& name) {
    return requests > 0 ? Delta(run.m0, run.m2, name) / requests : 0.0;
  };
  // core.classify_us: the in-process engine on the same request set.
  std::vector<double> classify_us;
  for (int round = 0; round < 5; ++round) {
    for (const auto& inst : s.requests) {
      const auto t0 = Clock::now();
      (void)s.engine->Classify(inst.values);
      classify_us.push_back(Micros(t0, Clock::now()));
    }
  }
  L["core.classify_us"] = (Mean(classify_us));
  L["serve.latency_us"] = (server_us);
  L["serve.batch_us"] = (batch_us);
  L["serve.queue_wait_us"] = (server_us - batch_us);
  L["serve.occupancy"] = (occupancy);
  L["serve.occupancy_ratio"] = (occupancy / kMaxBatch);
  L["net.overhead_us"] = (client_us - server_us);
  L["net.loop_iteration_us"] = (HistMean(run.m0, run.m2,
                        "rpm_net_loop_iteration_microseconds"));
  L["net.events_per_wake"] = (HistMean(run.m0, run.m2, "rpm_net_loop_events_per_wake"));
  L["distance.scans"] = (per_request("rpm_matcher_scans_total"));
  L["distance.windows"] = (per_request("rpm_matcher_scan_windows_total"));
  L["distance.matchall_calls"] = (per_request("rpm_matcher_matchall_calls_total"));
  L["distance.bucket_scans"] = (per_request("rpm_matcher_bucket_scans_total"));
  L["bench.late_us"] = open.late_p99_us;
  // Accounting: queue wait and network overhead are remainders; neither
  // may be negative beyond the tolerance.
  const double worst = std::min((server_us - batch_us) / server_us,
                                (client_us - server_us) / client_us);
  L["bench.unaccounted_pct"] = (100.0 * std::min(worst, 0.0));
  res.info["accounting"] =
      worst >= -kServeAccountingTolerance ? "ok" : "OUT_OF_TOLERANCE";
  const double p50_base = Summarize(base.open, res).latency.p50_us;
  L["obs.trace_overhead_pct"] =
      Pct(open.latency.p50_us - p50_base, p50_base);
  return res;
}

Result RunServeStream(const RunConfig& cfg) {
  Result res;
  Reference ref(cfg);
  StreamSetup s;
  const double seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  StreamRun base;
  double setup_s = 0;
  if (!cfg.trace) {
    setup_s = MedianSetupSeconds(
        [&] { SetUpStream(cfg, false, s); });
    CheckShardMap(s, res);
  } else {
    SetUpStream(cfg, false, s);
    CheckShardMap(s, res);
    base = MeasureStream(s, seconds, false, res);
    CheckStream(s, ref, res);
    SetUpStream(cfg, true, s);
    CheckShardMap(s, res);
  }
  StreamRun run = MeasureStream(s, seconds, cfg.trace, res);
  s.conns.clear();
  s.control.reset();
  s.server->Stop();
  CheckStream(s, ref, res);
  ref.Save();

  if (!cfg.trace) {
    const Latency rtt = SessionLatency(run.rtt_us);
    std::string session_p50;
    for (const auto& v : run.rtt_us) {
      session_p50 += (session_p50.empty() ? "" : "/") +
                     std::to_string(Percentile(v, 50));
    }
    res.info["session_p50_us"] = session_p50;
    res.e2e.push_back({"train_s", "s",
                       ServedModelTrainSeconds(StreamModelOptions(),
                                               StreamModelSplit().train,
                                               kStreamTrainRepeats)});
    res.e2e.push_back({"p50_us", "us", rtt.p50_us});
    AddDiagnostics(res, rtt, run.samples.BestPerSecond(run.window_s));
    res.e2e.push_back({"setup_s", "s", setup_s});
    res.e2e.push_back({"peak_rss_mb", "MB", run.peak_rss_mb});
    return res;
  }

  // stream.feed_us: the in-process scorer fed the same 256-sample chunks
  // session 0 was fed (capped so the replay stays short).
  std::vector<double> feed_us;
  {
    rpm::stream::StreamScorer scorer(&*s.engine, [] {
      auto o = StreamOpts();
      rpm::stream::ValidateStreamOptions(&o);
      return o;
    }());
    std::vector<rpm::stream::StreamDecision> out;
    const std::size_t limit = std::min<std::size_t>(s.fed[0], 1u << 21);
    std::vector<double> chunk(kFeedSamples);
    for (std::size_t pos = 0; pos < limit;) {
      const std::size_t n = std::min(kFeedSamples, limit - pos);
      for (std::size_t j = 0; j < n; ++j) {
        chunk[j] = s.signal[(pos + j) % s.signal.size()];
      }
      out.clear();
      const auto t0 = Clock::now();
      const std::size_t accepted =
          scorer.Feed(rpm::ts::SeriesView(chunk.data(), n), &out);
      feed_us.push_back(Micros(t0, Clock::now()));
      if (accepted == 0) break;
      pos += accepted;
    }
  }
  auto& L = res.layer;
  const double feed = Mean(feed_us);
  std::vector<double> rtt;
  for (const auto& v : run.rtt_us) rtt.insert(rtt.end(), v.begin(), v.end());
  const double client = Mean(rtt);
  const double feeds = Delta(run.m0, run.m1, "rpm_stream_shard_feeds_total");
  auto per_feed = [&](const std::string& name) {
    return feeds > 0 ? Delta(run.m0, run.m1, name) / feeds : 0.0;
  };
  double busiest = 0, samples = 0;
  for (std::size_t sh = 0; sh < kStreamShards; ++sh) {
    const std::string key = "rpm_stream_shard_samples_total{shard=\"" +
                            std::to_string(sh) + "\"}";
    const double v = run.m1[key] - run.m0[key];
    busiest = std::max(busiest, v);
    samples += v;
  }
  L["stream.feed_us"] = (feed);
  L["net.overhead_us"] = (client - feed);
  L["stream.score_us"] = (HistMean(run.m0, run.m1, "rpm_stream_score_microseconds"));
  L["stream.truncated_ratio"] = (per_feed("rpm_stream_truncated_feeds_total"));
  L["serve.busiest_shard_share"] = (samples > 0 ? busiest / samples : 0.0);
  L["net.loop_iteration_us"] = (HistMean(run.m0, run.m1,
                        "rpm_net_loop_iteration_microseconds"));
  L["net.events_per_wake"] = (HistMean(run.m0, run.m1, "rpm_net_loop_events_per_wake"));
  L["distance.scans"] = (per_feed("rpm_matcher_scans_total"));
  L["distance.windows"] = (per_feed("rpm_matcher_scan_windows_total"));
  L["distance.matchall_calls"] = (per_feed("rpm_matcher_matchall_calls_total"));
  L["distance.bucket_scans"] = (per_feed("rpm_matcher_bucket_scans_total"));
  const double worst = (client - feed) / client;
  L["bench.unaccounted_pct"] = (100.0 * std::min(worst, 0.0));
  res.info["accounting"] =
      worst >= -kServeAccountingTolerance ? "ok" : "OUT_OF_TOLERANCE";
  const double p50_base = SessionLatency(base.rtt_us).p50_us;
  L["obs.trace_overhead_pct"] =
      Pct(SessionLatency(run.rtt_us).p50_us - p50_base, p50_base);
  return res;
}

}  // namespace rpmbench
