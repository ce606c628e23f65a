#include "fuzz/harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>

#include "core/classifier.h"
#include "fuzz/mutator.h"
#include "net/frame.h"
#include "net/front_end.h"
#include "serve/net_handler.h"
#include "serve/server.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"

namespace rpm::fuzz {
namespace {

using Clock = std::chrono::steady_clock;

// One small trained model per process (training dominates harness
// startup); the same fixture geometry the net/serve suites use.
const std::string& FixtureModelText() {
  static const std::string* text = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 32;
    options.fixed_sax.paa_size = 5;
    options.fixed_sax.alphabet = 4;
    const ts::DatasetSplit split = ts::MakeCbf(10, 6, 128, 778);
    core::RpmClassifier classifier(options);
    classifier.Train(split.train);
    std::stringstream buffer;
    classifier.Save(buffer);
    return new std::string(buffer.str());
  }();
  return *text;
}

core::RpmClassifier LoadFixture() {
  std::istringstream in(FixtureModelText());
  return core::RpmClassifier::Load(in);
}

std::string MarginText(double margin) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", margin);
  return buf;
}

bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

constexpr const char* kBogusStreamId = "s999999";

// One decision as the harness collected it off the wire. Text
// connections only carry the %.3f rendering of the margin, so the
// comparison keys on `margin_text` there and on the raw bits for binary.
struct WireDecision {
  std::uint64_t index = 0;
  int label = 0;
  double margin = 0.0;
  std::string margin_text;
  bool early = false;
};

struct SlotInfo {
  bool resolved = false;  // the STREAM_OPEN's response has been parsed
  bool ok = false;
  bool closed = false;
  bool poisoned = false;  // received non-finite samples: skip the replay
  bool differential = false;
  std::string id;
  std::uint32_t window = 0;
  std::uint32_t hop = 0;
  std::vector<double> accepted;
  std::vector<WireDecision> decisions;
};

struct Expected {
  enum class Kind : std::uint8_t {
    kRequest,   // a scripted request
    kOversize,  // the injected oversized line/frame: one ERR, recoverable
    kCorrupt,   // the reserved-corrupted frame: one ERR, then close
  };
  Kind kind = Kind::kRequest;
  const FuzzRequest* req = nullptr;
  int slot = -1;  // slot this request opens or targets
};

}  // namespace

struct FuzzHarness::EngineSlot {
  core::RpmClassifier clf;
  core::ClassificationEngine engine;
  explicit EngineSlot(core::RpmClassifier c)
      : clf(std::move(c)), engine(clf) {}
};

struct FuzzHarness::CaseResult {
  bool failed = false;
  std::string what;
};

FuzzHarness::FuzzHarness(HarnessOptions options) : options_(options) {
  model_text_ = FixtureModelText();
  engine_ = std::make_unique<EngineSlot>(LoadFixture());

  char tmpl[] = "/tmp/rpm_fuzz_XXXXXX";
  if (::mkdtemp(tmpl) != nullptr) temp_dir_ = tmpl;
  auto write_file = [&](const std::string& name, const std::string& body) {
    if (temp_dir_.empty()) return;
    std::ofstream out(temp_dir_ + "/" + name + ".model");
    out << body;
    path_names_.push_back(name);
  };
  write_file("good", model_text_);
  for (std::uint64_t i = 0; i < 4; ++i) {
    SplitMix64 rng(0xF00D + i);
    write_file("mut" + std::to_string(i), MutateModelText(model_text_, &rng));
  }
}

FuzzHarness::~FuzzHarness() {
  if (temp_dir_.empty()) return;
  for (const auto& name : path_names_) {
    ::unlink((temp_dir_ + "/" + name + ".model").c_str());
  }
  ::rmdir(temp_dir_.c_str());
}

FailureReport FuzzHarness::RunProtocolCase(std::uint64_t seed) {
  const FuzzPlan plan = GenerateProtocolPlan(seed);
  const CaseResult result = Execute(plan, /*record_events=*/true);
  FailureReport report;
  report.failed = result.failed;
  report.seed = seed;
  report.what = result.what;
  if (result.failed) report.repro = FormatPlan(plan);
  return report;
}

FailureReport FuzzHarness::RunProtocolPlan(const FuzzPlan& plan) {
  const CaseResult result = Execute(plan, /*record_events=*/false);
  FailureReport report;
  report.failed = result.failed;
  report.seed = plan.seed;
  report.what = result.what;
  if (result.failed) report.repro = FormatPlan(plan);
  return report;
}

FuzzPlan FuzzHarness::MinimizeProtocolPlan(const FuzzPlan& plan,
                                           std::size_t budget) {
  FuzzPlan current = plan;
  auto still_fails = [&](const FuzzPlan& candidate) {
    if (budget == 0) return false;
    --budget;
    return Execute(candidate, /*record_events=*/false).failed;
  };
  // Drop whole connections, last first.
  for (std::size_t i = current.conns.size(); i-- > 0 && budget > 0;) {
    if (current.conns.size() == 1) break;
    FuzzPlan candidate = current;
    candidate.conns.erase(candidate.conns.begin() +
                          static_cast<std::ptrdiff_t>(i));
    if (still_fails(candidate)) current = std::move(candidate);
  }
  // Trim request tails.
  for (std::size_t c = 0; c < current.conns.size() && budget > 0; ++c) {
    while (current.conns[c].requests.size() > 1 && budget > 0) {
      FuzzPlan candidate = current;
      ConnPlan& conn = candidate.conns[c];
      conn.requests.pop_back();
      if (conn.fault_request >= conn.requests.size()) {
        conn.fault_request = conn.requests.size() - 1;
      }
      if (!still_fails(candidate)) break;
      current = std::move(candidate);
    }
  }
  return current;
}

FailureReport FuzzHarness::RunModelCase(std::uint64_t seed) {
  events_.clear();
  SplitMix64 rng(seed);
  std::uint64_t strategy = 0;
  const std::string mutated = MutateModelText(model_text_, &rng, &strategy);
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "model seed=0x%llx strategy=%s len=%zu h=%llu",
                  static_cast<unsigned long long>(seed),
                  ModelMutationName(strategy), mutated.size(),
                  static_cast<unsigned long long>(
                      HashBytes(kHashSeed, mutated)));
    events_.push_back(buf);
  }
  FailureReport report;
  report.seed = seed;
  std::istringstream in(mutated);
  try {
    const core::RpmClassifier clf = core::RpmClassifier::Load(in);
    // A benign mutation loaded: exercise the model the way the serving
    // path would. Exceptions here are fine (a loaded-but-degenerate
    // model may legitimately refuse to classify); crashes are not.
    try {
      core::ClassificationEngine engine(clf);
      std::vector<double> probe(64);
      for (std::size_t i = 0; i < probe.size(); ++i) {
        probe[i] = std::sin(0.1 * static_cast<double>(i));
      }
      (void)engine.Classify(ts::SeriesView(probe.data(), probe.size()));
      events_.push_back("model load=ok classify=ok");
    } catch (const std::exception&) {
      events_.push_back("model load=ok classify=rejected");
    }
  } catch (const std::exception&) {
    events_.push_back("model load=rejected");
  }
  return report;
}

// ---------------------------------------------------------------------
// Protocol-case execution
// ---------------------------------------------------------------------

namespace {

struct ConnState {
  std::size_t index = 0;
  const ConnPlan* plan = nullptr;
  int fd = -1;
  SplitMix64 burst_rng{0};
  SplitMix64 chunk_rng{0};
  SplitMix64 read_rng{0};

  // Send side.
  std::size_t next_req = 0;
  bool oversize_sent = false;
  bool script_done = false;  // everything (incl. fault bytes) enqueued
  std::deque<std::string> outbox;
  std::size_t out_pos = 0;
  bool want_halfclose = false;
  bool halfclosed = false;
  std::size_t planned_opens = 0;  // non-raw STREAM_OPENs in the script

  // Receive side.
  net::LineAssembler lines{std::size_t{1} << 24};
  net::FrameAssembler frames{std::size_t{1} << 24};
  std::deque<Expected> pending;
  std::size_t responses = 0;
  bool in_metrics_body = false;  // swallowing METRICS exposition lines
  bool swallow_blank = false;    // one ""-line after "# EOF"
  bool expect_eof = false;
  bool got_eof = false;
  bool dirty = false;
  bool done = false;
  std::string failure;  // first oracle violation on this connection

  std::vector<SlotInfo> slots;

  void Fail(const std::string& what) {
    if (failure.empty()) {
      failure = "conn " + std::to_string(index) + ": " + what;
    }
    done = true;
  }
};

std::string ResolveStreamId(const ConnState& c, int slot) {
  if (slot < 0 || static_cast<std::size_t>(slot) >= c.slots.size() ||
      !c.slots[slot].ok) {
    return kBogusStreamId;
  }
  return c.slots[slot].id;
}

}  // namespace

FuzzHarness::CaseResult FuzzHarness::Execute(const FuzzPlan& plan,
                                             bool record_events) {
  CaseResult result;
  auto fail = [&](const std::string& what) {
    if (!result.failed) {
      result.failed = true;
      result.what = what;
    }
  };

  if (record_events) {
    events_.clear();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "case seed=0x%llx shards=%zu conns=%zu plan_h=%llu",
                  static_cast<unsigned long long>(plan.seed), plan.shards,
                  plan.conns.size(),
                  static_cast<unsigned long long>(
                      HashBytes(kHashSeed, FormatPlan(plan))));
    events_.push_back(buf);
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      const ConnPlan& conn = plan.conns[c];
      events_.push_back("c" + std::to_string(c) + " codec=" +
                        (conn.binary ? "binary" : "text") +
                        " fault=" + FaultName(conn.fault) +
                        " nreq=" + std::to_string(conn.requests.size()));
      for (std::size_t r = 0; r < conn.requests.size(); ++r) {
        // Canonical encoding: stream slots render as a placeholder id so
        // the log does not depend on cross-connection id-minting races.
        const FuzzRequest& req = conn.requests[r];
        const std::string wire = conn.binary
                                     ? EncodeBinaryRequest(req, "s#")
                                     : EncodeTextRequest(req, "s#");
        std::string event = "c";
        event.append(std::to_string(c))
            .append(".r")
            .append(std::to_string(r))
            .append(" ")
            .append(req.verb)
            .append(" h=")
            .append(std::to_string(HashBytes(kHashSeed, wire)));
        events_.push_back(std::move(event));
      }
    }
  }

  // ---- Server stack for this case ----
  serve::ServerOptions server_options;
  server_options.num_shards = plan.shards;
  server_options.streaming.reap_interval = std::chrono::nanoseconds::zero();
  serve::InferenceServer server(server_options);
  server.AddModel("cbf", LoadFixture());
  serve::NetHandler handler(&server);
  net::FrontEndOptions net_options;
  net_options.tcp_port = 0;
  net_options.num_shards = plan.shards;
  net_options.max_line = plan.max_line;
  net_options.max_frame_payload = plan.max_frame_payload;
  net_options.metrics = &server.metrics();
  net::FrontEnd front_end(&handler, net_options);
  if (!front_end.Start()) {
    fail("front end failed to start");
    server.Shutdown();
    return result;
  }

  auto resolve_path = [&](const std::string& symbolic) {
    if (symbolic == "nonexistent" || temp_dir_.empty()) {
      return std::string("/tmp/rpm_fuzz_missing.model");
    }
    return temp_dir_ + "/" + symbolic + ".model";
  };

  // ---- Connection setup ----
  std::vector<ConnState> conns(plan.conns.size());
  SplitMix64 base(plan.seed);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    ConnState& c = conns[i];
    c.index = i;
    c.plan = &plan.conns[i];
    c.burst_rng = base.Fork(1000 + i);
    c.chunk_rng = base.Fork(2000 + i);
    c.read_rng = base.Fork(3000 + i);
    for (const FuzzRequest& req : c.plan->requests) {
      if (req.verb == "STREAM_OPEN" && !req.use_raw) ++c.planned_opens;
    }
    c.fd = ConnectLoopback(front_end.port());
    if (c.fd < 0) {
      c.Fail("connect failed");
      continue;
    }
    if (c.plan->binary) {
      c.outbox.emplace_back(net::kBinaryMagic, sizeof(net::kBinaryMagic));
    }
  }

  const ConnPlan* _unused = nullptr;
  (void)_unused;

  // Encodes the wire bytes of one scripted request on `c`, resolving
  // stream slots against the ids parsed so far.
  auto encode_wire = [&](ConnState& c, const FuzzRequest& req) {
    FuzzRequest resolved = req;
    if (!resolved.path.empty()) resolved.path = resolve_path(resolved.path);
    const std::string id = ResolveStreamId(c, req.stream_slot);
    if (c.plan->binary) return EncodeBinaryRequest(resolved, id);
    return EncodeTextRequest(resolved, id) + "\n";
  };

  auto oversize_filler = [&](const ConnState& c) {
    if (c.plan->binary) {
      const std::size_t len = plan.max_frame_payload + 1;
      std::string frame;
      frame.reserve(net::kFrameHeaderSize + len);
      frame.push_back(static_cast<char>(len & 0xFF));
      frame.push_back(static_cast<char>((len >> 8) & 0xFF));
      frame.push_back(static_cast<char>((len >> 16) & 0xFF));
      frame.push_back(static_cast<char>((len >> 24) & 0xFF));
      frame.push_back(0x03);  // MODELS: any known verb works
      frame.push_back(0x00);
      frame.push_back(0x00);
      frame.push_back(0x00);
      frame.append(len, '\0');
      return frame;
    }
    return std::string(plan.max_line + 1, 'x') + "\n";
  };

  // Builds and enqueues the next burst of wire bytes for `c`. Returns
  // without enqueuing when blocked on an unresolved stream slot.
  auto enqueue_more = [&](ConnState& c) {
    if (c.script_done || c.done || !c.outbox.empty()) return;
    const std::vector<FuzzRequest>& requests = c.plan->requests;
    std::string burst;
    bool terminal = false;
    const std::size_t burst_len = c.burst_rng.Range(1, 4);
    for (std::size_t k = 0; k < burst_len && !terminal; ++k) {
      // The injected oversized line/frame sits between scripted
      // requests at fault_request.
      if (c.plan->fault == WireFault::kOversize && !c.oversize_sent &&
          c.next_req == c.plan->fault_request) {
        burst += oversize_filler(c);
        c.oversize_sent = true;
        Expected exp;
        exp.kind = Expected::Kind::kOversize;
        c.pending.push_back(exp);
        continue;
      }
      if (c.next_req >= requests.size()) break;
      const FuzzRequest& req = requests[c.next_req];
      // Pipeline barrier: a stream request whose target slot has not
      // resolved yet must wait for the in-flight STREAM_OPEN response.
      if (req.stream_slot >= 0 &&
          static_cast<std::size_t>(req.stream_slot) < c.planned_opens) {
        if (static_cast<std::size_t>(req.stream_slot) >= c.slots.size() ||
            !c.slots[req.stream_slot].resolved) {
          break;  // wait; re-attempted once responses drain
        }
      }
      std::string wire = encode_wire(c, req);
      if (c.plan->fault == WireFault::kTruncate &&
          c.next_req == c.plan->fault_request) {
        // A strict prefix, never reaching the framing boundary: the
        // fragment must draw no response at all.
        const std::size_t cut =
            wire.size() > 1 ? c.chunk_rng.Range(1, wire.size() - 1) : 0;
        burst += wire.substr(0, cut);
        c.want_halfclose = true;
        c.script_done = true;
        ++c.next_req;
        terminal = true;
        break;
      }
      Expected exp;
      if (c.plan->fault == WireFault::kHeaderCorrupt &&
          c.next_req + 1 == requests.size()) {
        // Nonzero reserved bytes: the assembler reports kCorrupt, the
        // connection answers one ERR frame and closes.
        wire[6] = 0x5A;
        exp.kind = Expected::Kind::kCorrupt;
        terminal = true;
      } else {
        exp.req = &req;
      }
      if (req.verb == "STREAM_OPEN" && !req.use_raw &&
          exp.kind == Expected::Kind::kRequest) {
        SlotInfo slot;
        slot.differential = req.differential;
        slot.window = req.window;
        slot.hop = req.hop == 0 ? req.window : req.hop;
        exp.slot = static_cast<int>(c.slots.size());
        c.slots.push_back(slot);
      } else if ((req.verb == "STREAM_FEED" || req.verb == "STREAM_CLOSE") &&
                 !req.use_raw) {
        exp.slot = req.stream_slot;
        if (req.verb == "STREAM_FEED" && exp.slot >= 0 &&
            static_cast<std::size_t>(exp.slot) < c.slots.size() &&
            !AllFinite(req.values)) {
          c.slots[exp.slot].poisoned = true;
        }
      }
      c.pending.push_back(exp);
      burst += wire;
      ++c.next_req;
      if (req.closes || exp.kind == Expected::Kind::kCorrupt) {
        c.script_done = true;
        terminal = true;
      }
    }
    if (!c.script_done && c.next_req >= requests.size() &&
        (c.plan->fault != WireFault::kOversize || c.oversize_sent)) {
      c.script_done = true;
      if (c.plan->fault == WireFault::kHalfClose) c.want_halfclose = true;
    }
    if (!burst.empty()) {
      for (auto& segment :
           ChunkBytes(burst, c.plan->fault, &c.chunk_rng)) {
        c.outbox.push_back(std::move(segment));
      }
    }
  };

  // ---- Per-response validation ----

  auto compare_slot = [&](ConnState& c, const SlotInfo& slot) {
    if (!slot.differential || slot.poisoned || !slot.ok) return;
    stream::StreamOptions opts;
    opts.window = slot.window;
    opts.hop = slot.hop;
    const auto replay = stream::ReplayWindows(
        engine_->engine,
        ts::SeriesView(slot.accepted.data(), slot.accepted.size()), opts);
    if (replay.size() != slot.decisions.size()) {
      c.Fail("stream replay emitted " + std::to_string(replay.size()) +
             " decisions, wire carried " +
             std::to_string(slot.decisions.size()) + " (stream " + slot.id +
             ")");
      return;
    }
    for (std::size_t k = 0; k < replay.size(); ++k) {
      const auto& ref = replay[k];
      const auto& got = slot.decisions[k];
      if (ref.window_index != got.index || ref.label != got.label ||
          got.early) {
        c.Fail("stream decision " + std::to_string(k) + " mismatch on " +
               slot.id);
        return;
      }
      const bool margin_ok =
          c.plan->binary
              ? std::bit_cast<std::uint64_t>(ref.margin) ==
                    std::bit_cast<std::uint64_t>(got.margin)
              : MarginText(ref.margin) == got.margin_text;
      if (!margin_ok) {
        c.Fail("stream margin bits diverge at decision " +
               std::to_string(k) + " on " + slot.id);
        return;
      }
    }
  };

  auto expected_label = [&](const FuzzRequest& req) {
    return engine_->engine.Classify(
        ts::SeriesView(req.values.data(), req.values.size()));
  };

  auto validate_text = [&](ConnState& c, const Expected& exp,
                           const std::string& line) {
    const bool is_ok = line.rfind("OK", 0) == 0;
    const bool is_err = line.rfind("ERR", 0) == 0;
    if (!is_ok && !is_err) {
      c.Fail("malformed response line: '" + line.substr(0, 80) + "'");
      return;
    }
    if (exp.kind == Expected::Kind::kOversize) {
      if (!is_err) c.Fail("oversized line was not rejected: " + line);
      return;
    }
    const FuzzRequest& req = *exp.req;
    if (req.closes) {
      if (line != "OK bye") c.Fail("QUIT answered '" + line + "'");
      c.expect_eof = true;
      return;
    }
    // Slot resolution must happen for *every* tracked STREAM_OPEN —
    // corrupt ones included, or a later feed waits on the barrier
    // forever.
    if (req.verb == "STREAM_OPEN" && exp.slot >= 0) {
      SlotInfo& slot = c.slots[exp.slot];
      slot.resolved = true;
      const auto tokens = SplitWs(line);
      if (is_ok) {
        if (tokens.size() < 3 || tokens[1] != "stream") {
          c.Fail("bad STREAM_OPEN response: '" + line + "'");
          return;
        }
        slot.ok = true;
        slot.id = tokens[2];
      } else if (req.validity == Validity::kValid && req.model == "cbf") {
        c.Fail("valid STREAM_OPEN rejected: '" + line + "'");
      }
      return;
    }
    if (req.use_raw || req.validity == Validity::kCorrupt) return;
    const auto tokens = SplitWs(line);
    if (req.verb == "CLASSIFY" && req.differential) {
      if (is_ok) {
        if (tokens.size() < 2 ||
            std::to_string(expected_label(req)) != tokens[1]) {
          c.Fail("CLASSIFY label diverges from the engine: '" + line + "'");
        }
      } else if (line.find("TIMEOUT") == std::string::npos &&
                 line.find("OVERLOADED") == std::string::npos) {
        c.Fail("differential CLASSIFY failed unexpectedly: '" + line + "'");
      }
      return;
    }
    if (req.verb == "STREAM_FEED" && exp.slot >= 0 &&
        static_cast<std::size_t>(exp.slot) < c.slots.size() &&
        c.slots[exp.slot].ok) {
      SlotInfo& slot = c.slots[exp.slot];
      if (!is_ok) {
        if (!slot.closed && req.validity == Validity::kValid &&
            !req.values.empty() && AllFinite(req.values)) {
          c.Fail("valid STREAM_FEED rejected: '" + line + "'");
        }
        return;
      }
      if (slot.closed) {
        c.Fail("feed to closed stream " + slot.id + " answered OK");
        return;
      }
      // "OK fed <n> decisions=<d> [k:label:m.mmm[:early]]..."
      if (tokens.size() < 4 || tokens[1] != "fed" ||
          tokens[3].rfind("decisions=", 0) != 0) {
        c.Fail("bad STREAM_FEED response: '" + line + "'");
        return;
      }
      const std::size_t accepted = std::strtoull(tokens[2].c_str(), nullptr, 10);
      if (accepted > req.values.size()) {
        c.Fail("feed accepted more samples than offered: '" + line + "'");
        return;
      }
      slot.accepted.insert(slot.accepted.end(), req.values.begin(),
                           req.values.begin() +
                               static_cast<std::ptrdiff_t>(accepted));
      for (std::size_t t = 4; t < tokens.size(); ++t) {
        WireDecision d;
        const std::string& item = tokens[t];
        const std::size_t c1 = item.find(':');
        const std::size_t c2 =
            c1 == std::string::npos ? c1 : item.find(':', c1 + 1);
        if (c2 == std::string::npos) {
          c.Fail("bad decision item '" + item + "'");
          return;
        }
        d.index = std::strtoull(item.substr(0, c1).c_str(), nullptr, 10);
        d.label = std::atoi(item.substr(c1 + 1, c2 - c1 - 1).c_str());
        const std::size_t c3 = item.find(':', c2 + 1);
        d.margin_text = item.substr(
            c2 + 1, c3 == std::string::npos ? std::string::npos
                                            : c3 - c2 - 1);
        d.early = c3 != std::string::npos;
        slot.decisions.push_back(std::move(d));
      }
      return;
    }
    if (req.verb == "STREAM_CLOSE" && exp.slot >= 0 &&
        static_cast<std::size_t>(exp.slot) < c.slots.size() &&
        c.slots[exp.slot].ok) {
      SlotInfo& slot = c.slots[exp.slot];
      if (is_ok) {
        if (slot.closed) {
          c.Fail("double close of " + slot.id + " answered OK");
          return;
        }
        slot.closed = true;
        compare_slot(c, slot);
      }
      return;
    }
    if (req.validity == Validity::kValid &&
        (req.verb == "LOAD" || req.verb == "MODELS" ||
         req.verb == "STATS" || req.verb == "TRACE" ||
         req.verb == "STREAMS") &&
        !is_ok) {
      c.Fail("valid " + req.verb + " rejected: '" + line + "'");
    }
  };

  auto validate_frame = [&](ConnState& c, const Expected& exp,
                            const net::Frame& frame) {
    if (frame.status > std::uint8_t(net::WireStatus::kBadRequest)) {
      c.Fail("unknown response status " + std::to_string(frame.status));
      return;
    }
    const bool is_ok = frame.status == std::uint8_t(net::WireStatus::kOk);
    if (exp.kind == Expected::Kind::kOversize) {
      if (is_ok) c.Fail("oversized frame was not rejected");
      return;
    }
    if (exp.kind == Expected::Kind::kCorrupt) {
      if (is_ok) c.Fail("corrupt frame was not rejected");
      c.expect_eof = true;
      return;
    }
    const FuzzRequest& req = *exp.req;
    if (req.closes) {
      if (!is_ok) c.Fail("QUIT frame answered with an error");
      c.expect_eof = true;
      return;
    }
    // Corrupt STREAM_OPENs still resolve their slot (see validate_text).
    if (req.verb == "STREAM_OPEN" && exp.slot >= 0) {
      SlotInfo& slot = c.slots[exp.slot];
      slot.resolved = true;
      if (is_ok) {
        net::PayloadReader open_reader(frame.payload);
        std::string id;
        if (!open_reader.Str(&id)) {
          c.Fail("bad STREAM_OPEN response payload");
          return;
        }
        slot.ok = true;
        slot.id = id;
      } else if (req.validity == Validity::kValid && req.model == "cbf") {
        c.Fail("valid binary STREAM_OPEN rejected, status " +
               std::to_string(frame.status));
      }
      return;
    }
    if (req.use_raw || req.validity == Validity::kCorrupt) return;
    net::PayloadReader reader(frame.payload);
    if (req.verb == "CLASSIFY" && req.differential) {
      if (is_ok) {
        std::int32_t label = 0;
        if (!reader.I32(&label) || label != expected_label(req)) {
          c.Fail("binary CLASSIFY label diverges from the engine");
        }
      } else if (frame.status != std::uint8_t(net::WireStatus::kTimeout) &&
                 frame.status !=
                     std::uint8_t(net::WireStatus::kOverloaded)) {
        c.Fail("differential CLASSIFY failed with status " +
               std::to_string(frame.status));
      }
      return;
    }
    if (req.verb == "STREAM_FEED" && exp.slot >= 0 &&
        static_cast<std::size_t>(exp.slot) < c.slots.size() &&
        c.slots[exp.slot].ok) {
      SlotInfo& slot = c.slots[exp.slot];
      if (!is_ok) {
        if (!slot.closed && req.validity == Validity::kValid &&
            !req.values.empty() && AllFinite(req.values)) {
          c.Fail("valid binary STREAM_FEED rejected, status " +
                 std::to_string(frame.status));
        }
        return;
      }
      if (slot.closed) {
        c.Fail("feed to closed stream " + slot.id + " answered OK");
        return;
      }
      std::uint32_t accepted = 0;
      std::uint32_t count = 0;
      if (!reader.U32(&accepted) || !reader.U32(&count) ||
          accepted > req.values.size()) {
        c.Fail("bad binary STREAM_FEED response payload");
        return;
      }
      slot.accepted.insert(slot.accepted.end(), req.values.begin(),
                           req.values.begin() + accepted);
      for (std::uint32_t k = 0; k < count; ++k) {
        WireDecision d;
        std::uint8_t early = 0;
        if (!reader.U64(&d.index) || !reader.I32(&d.label) ||
            !reader.F64(&d.margin) || !reader.U8(&early)) {
          c.Fail("truncated binary STREAM_FEED decision payload");
          return;
        }
        d.early = early != 0;
        slot.decisions.push_back(std::move(d));
      }
      return;
    }
    if (req.verb == "STREAM_CLOSE" && exp.slot >= 0 &&
        static_cast<std::size_t>(exp.slot) < c.slots.size() &&
        c.slots[exp.slot].ok) {
      SlotInfo& slot = c.slots[exp.slot];
      if (is_ok) {
        if (slot.closed) {
          c.Fail("double close of " + slot.id + " answered OK");
          return;
        }
        slot.closed = true;
        std::uint64_t samples = 0, windows = 0, decisions = 0, early = 0;
        if (reader.U64(&samples) && reader.U64(&windows) &&
            reader.U64(&decisions) && reader.U64(&early) &&
            slot.differential && !slot.poisoned &&
            decisions != slot.decisions.size()) {
          c.Fail("close summary says " + std::to_string(decisions) +
                 " decisions, wire carried " +
                 std::to_string(slot.decisions.size()));
          return;
        }
        compare_slot(c, slot);
      }
      return;
    }
    if (req.validity == Validity::kValid &&
        (req.verb == "LOAD" || req.verb == "MODELS" ||
         req.verb == "STATS" || req.verb == "METRICS" ||
         req.verb == "TRACE" || req.verb == "STREAMS") &&
        !is_ok) {
      c.Fail("valid binary " + req.verb + " rejected, status " +
             std::to_string(frame.status));
    }
  };

  auto on_text_line = [&](ConnState& c, const std::string& line) {
    if (c.dirty) return;
    if (c.swallow_blank) {
      c.swallow_blank = false;
      if (line.empty()) return;
    }
    if (c.in_metrics_body) {
      if (line == "# EOF") {
        c.in_metrics_body = false;
        c.swallow_blank = true;
        ++c.responses;
        c.pending.pop_front();
      }
      return;
    }
    if (c.pending.empty()) {
      c.Fail("unsolicited response line: '" + line.substr(0, 80) + "'");
      return;
    }
    const Expected exp = c.pending.front();
    // METRICS bodies span many lines, terminated by "# EOF".
    if (exp.kind == Expected::Kind::kRequest && exp.req->verb == "METRICS" &&
        line == "OK metrics") {
      c.in_metrics_body = true;
      return;
    }
    validate_text(c, exp, line);
    if (c.done) return;
    ++c.responses;
    c.pending.pop_front();
  };

  auto on_frame = [&](ConnState& c, const net::Frame& frame) {
    if (c.dirty) return;
    if (c.pending.empty()) {
      c.Fail("unsolicited response frame, verb " +
             std::to_string(frame.verb));
      return;
    }
    const Expected exp = c.pending.front();
    validate_frame(c, exp, frame);
    if (c.done) return;
    ++c.responses;
    c.pending.pop_front();
  };

  // ---- Scheduler loop ----
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.case_deadline_ms);
  bool stopped_early = false;
  std::size_t iterations = 0;
  std::vector<char> read_buf(4096);

  auto finish_conn_if_done = [&](ConnState& c) {
    if (c.done) return;
    if (c.dirty) return;  // dirty conns finish via their fault path
    const bool responses_done = c.script_done && c.pending.empty() &&
                                !c.in_metrics_body;
    if (!responses_done || !c.outbox.empty()) return;
    if (c.expect_eof || c.want_halfclose) {
      if (!c.got_eof) return;
    }
    // Differential slots left open: replay what was accepted so far.
    for (const SlotInfo& slot : c.slots) {
      if (!slot.closed) compare_slot(c, slot);
    }
    c.done = true;
  };

  for (;;) {
    ++iterations;
    if (Clock::now() > deadline) {
      std::string detail;
      for (const ConnState& c : conns) {
        if (!c.done) {
          detail += " c" + std::to_string(c.index) + "(sent=" +
                    std::to_string(c.next_req) + " pending=" +
                    std::to_string(c.pending.size()) + ")";
        }
      }
      fail("case deadline exceeded (hang?):" + detail);
      break;
    }
    bool all_done = true;
    for (ConnState& c : conns) {
      if (!c.done) all_done = false;
    }
    if (all_done) break;

    if (plan.stop_during_pipeline && !stopped_early && iterations >= 4) {
      // Shutdown-during-pipeline fault: stop the front end while
      // requests are still in flight. Liveness + invariants only.
      front_end.Stop();
      stopped_early = true;
      for (ConnState& c : conns) {
        c.dirty = true;
        c.done = true;
      }
      break;
    }

    std::vector<pollfd> fds;
    std::vector<ConnState*> owners;
    for (ConnState& c : conns) {
      if (c.done || c.fd < 0) continue;
      enqueue_more(c);
      pollfd p{};
      p.fd = c.fd;
      p.events = POLLIN;
      if (!c.outbox.empty()) p.events |= POLLOUT;
      fds.push_back(p);
      owners.push_back(&c);
    }
    if (fds.empty()) break;
    ::poll(fds.data(), fds.size(), 20);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      ConnState& c = *owners[i];
      if (c.done) continue;
      if ((fds[i].revents & POLLOUT) && !c.outbox.empty()) {
        const std::string& segment = c.outbox.front();
        const ssize_t n =
            ::send(c.fd, segment.data() + c.out_pos,
                   segment.size() - c.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_pos += static_cast<std::size_t>(n);
          if (c.out_pos == segment.size()) {
            c.outbox.pop_front();
            c.out_pos = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          if (c.dirty || c.plan->fault == WireFault::kDisconnect ||
              stopped_early) {
            c.done = true;
          } else {
            c.Fail("send failed: " + std::string(std::strerror(errno)));
          }
          continue;
        }
        if (c.outbox.empty()) {
          // Abrupt-disconnect fault: drop the connection the moment the
          // faulted request's bytes are out, responses unread.
          if (c.plan->fault == WireFault::kDisconnect &&
              c.next_req > c.plan->fault_request) {
            ::close(c.fd);
            c.fd = -1;
            c.dirty = true;
            c.done = true;
            continue;
          }
          if (c.want_halfclose && c.script_done && !c.halfclosed) {
            ::shutdown(c.fd, SHUT_WR);
            c.halfclosed = true;
            c.expect_eof = true;
          }
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const std::size_t want = c.read_rng.Range(64, read_buf.size());
        const ssize_t n = ::recv(c.fd, read_buf.data(), want, 0);
        if (n > 0) {
          const std::string_view data(read_buf.data(),
                                      static_cast<std::size_t>(n));
          if (c.plan->binary) {
            c.frames.Append(data);
            net::Frame frame;
            while (!c.done) {
              const auto status = c.frames.Next(&frame);
              if (status == net::FrameAssembler::FrameStatus::kNone) break;
              if (status != net::FrameAssembler::FrameStatus::kFrame) {
                c.Fail("client assembler rejected a response frame");
                break;
              }
              on_frame(c, frame);
            }
          } else {
            c.lines.Append(data);
            std::string line;
            while (!c.done) {
              const auto status = c.lines.NextLine(&line);
              if (status == net::LineAssembler::LineStatus::kNone) break;
              if (status != net::LineAssembler::LineStatus::kLine) {
                c.Fail("oversized response line");
                break;
              }
              on_text_line(c, line);
            }
          }
        } else if (n == 0) {
          c.got_eof = true;
          if (!c.dirty && !c.expect_eof &&
              !(c.script_done && c.pending.empty() && c.outbox.empty())) {
            c.Fail("premature close: " + std::to_string(c.pending.size()) +
                   " responses outstanding");
          }
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          if (c.dirty || stopped_early) {
            c.done = true;
          } else {
            c.Fail("recv failed: " + std::string(std::strerror(errno)));
          }
        }
      }
      finish_conn_if_done(c);
    }
  }

  for (ConnState& c : conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (!c.failure.empty()) fail(c.failure);
  }

  // Liveness probe: after all the adversarial traffic, a fresh
  // connection must still get answers (skipped when the stop fault
  // already took the front end down).
  if (!stopped_early && !result.failed) {
    const int fd = ConnectLoopback(front_end.port());
    if (fd < 0) {
      fail("liveness probe could not connect");
    } else {
      timeval tv{};
      tv.tv_sec = 5;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      const char probe[] = "MODELS\n";
      if (::send(fd, probe, sizeof(probe) - 1, MSG_NOSIGNAL) !=
          static_cast<ssize_t>(sizeof(probe) - 1)) {
        fail("liveness probe send failed");
      } else {
        char buf[256];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 3 || std::string_view(buf, 2) != "OK") {
          fail("liveness probe got no answer");
        }
      }
      ::close(fd);
    }
  }

  front_end.Stop();
  server.Shutdown();

  // Post-drain metrics invariants.
  const serve::StatsSnapshot stats = server.Stats();
  if (stats.streams_opened !=
      stats.streams_closed + stats.streams_evicted) {
    fail("stream accounting broke: opened=" +
         std::to_string(stats.streams_opened) + " closed=" +
         std::to_string(stats.streams_closed) + " evicted=" +
         std::to_string(stats.streams_evicted));
  }
  if (stats.admitted != stats.ok + stats.timeout) {
    fail("classify accounting broke: admitted=" +
         std::to_string(stats.admitted) + " ok=" + std::to_string(stats.ok) +
         " timeout=" + std::to_string(stats.timeout));
  }

  if (record_events) {
    for (const ConnState& c : conns) {
      if (stopped_early) {
        events_.push_back("c" + std::to_string(c.index) + " end stopped");
      } else if (c.dirty) {
        events_.push_back("c" + std::to_string(c.index) + " end dirty");
      } else {
        events_.push_back("c" + std::to_string(c.index) + " end resps=" +
                          std::to_string(c.responses) +
                          " eof=" + (c.got_eof ? "1" : "0"));
      }
    }
  }
  return result;
}

}  // namespace rpm::fuzz
