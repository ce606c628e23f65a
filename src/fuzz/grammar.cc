#include "fuzz/grammar.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "net/frame.h"

namespace rpm::fuzz {
namespace {

// The model the harness trains and never unloads: differential requests
// target it so the in-process engine stays a valid reference. LOAD /
// UNLOAD productions only ever touch "aux".
constexpr const char* kFixedModel = "cbf";
constexpr const char* kAuxModel = "aux";

// Bogus session id for deliberate NOT_FOUND probes; the server mints
// ids sequentially from 1, so this never collides in a fuzz case.
constexpr const char* kBogusStreamId = "s999999";

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Csv(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += FormatDouble(values[i]);
  }
  return out;
}

std::vector<double> FiniteValues(SplitMix64* rng, std::size_t n) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->Signed(2.0);
  return values;
}

std::vector<double> HostileValues(SplitMix64* rng, std::size_t n) {
  std::vector<double> values = FiniteValues(rng, n);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e308, -1e308, 0.0};
  const std::size_t hits = 1 + rng->Below(3);
  for (std::size_t i = 0; i < hits && !values.empty(); ++i) {
    values[rng->Below(values.size())] = specials[rng->Below(6)];
  }
  return values;
}

// Tracks what earlier requests on this connection established, so later
// productions can reference (or deliberately mis-reference) it.
struct ConnContext {
  std::size_t slots = 0;  // STREAM_OPEN requests so far
  // Slots opened with early off on the fixed model: differential feeds
  // may target these.
  std::vector<int> diff_slots;
};

FuzzRequest MakeLoad(SplitMix64* rng, Validity validity) {
  FuzzRequest req;
  req.verb = "LOAD";
  req.validity = validity;
  req.model = kAuxModel;
  switch (validity) {
    case Validity::kValid:
      req.path = "good";
      break;
    case Validity::kBoundary:
      // Mutated model files: Load must reject them with an error (or
      // accept a benign mutation), never crash — either way one ERR/OK.
      req.path = "mut" + std::to_string(rng->Below(4));
      break;
    case Validity::kCorrupt:
      if (rng->Chance(1, 2)) {
        req.use_raw = true;
        req.raw = rng->Chance(1, 2) ? "LOAD" : "LOAD aux";
      } else {
        req.path = "nonexistent";
      }
      break;
  }
  return req;
}

FuzzRequest MakeUnload(SplitMix64* rng, Validity validity) {
  FuzzRequest req;
  req.verb = "UNLOAD";
  req.validity = validity;
  req.model = kAuxModel;
  if (validity == Validity::kCorrupt) {
    if (rng->Chance(1, 2)) {
      req.use_raw = true;
      req.raw = "UNLOAD";
    } else {
      req.model = "nosuch";
    }
  }
  return req;
}

FuzzRequest MakeClassify(SplitMix64* rng, Validity validity) {
  FuzzRequest req;
  req.verb = "CLASSIFY";
  req.validity = validity;
  req.model = kFixedModel;
  switch (validity) {
    case Validity::kValid:
      // Sized to fit the tightest front-end geometry the plan generator
      // picks (max_line 8 KiB / max_frame_payload 4 KiB) so a valid
      // production is never eaten by the assembler bound.
      req.values = FiniteValues(rng, rng->Range(48, 200));
      req.timeout_ms = rng->Chance(1, 3) ? 5000 : 0;
      req.differential = true;
      break;
    case Validity::kBoundary:
      switch (rng->Below(4)) {
        case 0:  // shorter than the model window
          req.values = FiniteValues(rng, rng->Range(1, 32));
          break;
        case 1:  // non-finite samples (text strtod accepts inf/nan)
          req.values = HostileValues(rng, rng->Range(8, 64));
          break;
        case 2:  // straddles the assembler bounds on the tight geometry
          req.values = FiniteValues(rng, rng->Range(400, 700));
          break;
        default:  // 1 ms deadline: TIMEOUT is a legal answer
          req.values = FiniteValues(rng, 64);
          req.timeout_ms = 1;
          break;
      }
      break;
    case Validity::kCorrupt:
      req.use_raw = true;
      switch (rng->Below(5)) {
        case 0: req.raw = "CLASSIFY"; break;
        case 1: req.raw = "CLASSIFY cbf"; break;
        case 2: req.raw = "CLASSIFY nosuch 1,2,3"; break;
        case 3: req.raw = "CLASSIFY cbf 1,,2"; break;
        default: req.raw = "CLASSIFY cbf abc,def"; break;
      }
      break;
  }
  return req;
}

FuzzRequest MakeStreamOpen(SplitMix64* rng, Validity validity,
                           ConnContext* ctx) {
  FuzzRequest req;
  req.verb = "STREAM_OPEN";
  req.validity = validity;
  req.model = kFixedModel;
  const std::uint32_t windows[] = {16, 32, 64};
  req.window = windows[rng->Below(3)];
  req.hop = rng->Chance(1, 3) ? 0
            : rng->Chance(1, 2) ? req.window
                                : req.window / 2;
  switch (validity) {
    case Validity::kValid:
      req.differential = true;
      break;
    case Validity::kBoundary:
      switch (rng->Below(4)) {
        case 0:  // early classification on: chunking-dependent, non-diff
          req.early_fraction = 0.5;
          req.early_margin = 0.3;
          break;
        case 1:
          req.window = 1;
          req.hop = 1;
          break;
        case 2:  // hop far beyond the window (sparse sampling)
          req.hop = req.window * 4;
          break;
        default:  // model that may or may not be loaded right now
          req.model = kAuxModel;
          break;
      }
      break;
    case Validity::kCorrupt:
      if (rng->Chance(1, 2)) {
        req.window = 0;  // rejected by ValidateStreamOptions
      } else {
        req.use_raw = true;
        req.raw = rng->Chance(1, 2) ? "STREAM_OPEN" : "STREAM_OPEN cbf abc";
      }
      break;
  }
  // Every STREAM_OPEN occupies the next slot whether or not it will
  // succeed; the harness resolves slots from responses.
  if (!req.use_raw) {
    const int slot = static_cast<int>(ctx->slots++);
    if (req.validity == Validity::kValid && req.model == kFixedModel &&
        req.early_fraction == 0.0) {
      ctx->diff_slots.push_back(slot);
    }
  }
  return req;
}

FuzzRequest MakeStreamFeed(SplitMix64* rng, Validity validity,
                           ConnContext* ctx) {
  FuzzRequest req;
  req.verb = "STREAM_FEED";
  req.validity = validity;
  switch (validity) {
    case Validity::kValid:
      if (!ctx->diff_slots.empty()) {
        req.stream_slot = ctx->diff_slots[rng->Below(ctx->diff_slots.size())];
        req.differential = true;
      } else if (ctx->slots > 0) {
        req.stream_slot = static_cast<int>(rng->Below(ctx->slots));
      }  // else: bogus id, NOT_FOUND probe
      req.values = FiniteValues(rng, rng->Range(1, 200));
      break;
    case Validity::kBoundary:
      // Hostile samples go to non-differential targets only (a NaN in
      // the ring would poison the accepted-prefix replay).
      req.stream_slot =
          ctx->slots > 0 && rng->Chance(1, 2)
              ? static_cast<int>(rng->Below(ctx->slots))
              : -1;
      if (req.stream_slot >= 0 &&
          !ctx->diff_slots.empty() &&
          req.stream_slot == ctx->diff_slots.front()) {
        // Keep the first differential slot clean; hostile feeds pick the
        // bogus id instead.
        req.stream_slot = -1;
      }
      req.values = rng->Chance(1, 2) ? HostileValues(rng, rng->Range(4, 64))
                                     : FiniteValues(rng, rng->Range(200, 400));
      break;
    case Validity::kCorrupt:
      req.use_raw = true;
      switch (rng->Below(3)) {
        case 0: req.raw = "STREAM_FEED"; break;
        case 1: req.raw = "STREAM_FEED s999999 1,2,3"; break;
        default: req.raw = "STREAM_FEED s1"; break;
      }
      break;
  }
  return req;
}

FuzzRequest MakeStreamClose(SplitMix64* rng, Validity validity,
                            ConnContext* ctx) {
  FuzzRequest req;
  req.verb = "STREAM_CLOSE";
  req.validity = validity;
  if (validity == Validity::kCorrupt) {
    req.use_raw = true;
    req.raw = rng->Chance(1, 2) ? "STREAM_CLOSE" : "STREAM_CLOSE s999999";
    return req;
  }
  if (ctx->slots > 0 && !rng->Chance(1, 5)) {
    req.stream_slot = static_cast<int>(rng->Below(ctx->slots));
  }
  return req;
}

FuzzRequest MakeTrace(SplitMix64* rng, Validity validity) {
  FuzzRequest req;
  req.verb = "TRACE";
  req.validity = validity;
  switch (validity) {
    case Validity::kValid:
      req.trace_n = rng->Chance(1, 2) ? 0 : std::uint32_t(rng->Range(1, 64));
      break;
    case Validity::kBoundary:
      req.trace_n = 99999;  // capped at 1024 server-side
      break;
    case Validity::kCorrupt:
      req.use_raw = true;
      req.raw = "TRACE abc";
      break;
  }
  return req;
}

FuzzRequest MakeNullary(const char* verb, SplitMix64* rng,
                        Validity validity) {
  FuzzRequest req;
  req.verb = verb;
  req.validity = validity == Validity::kCorrupt ? Validity::kBoundary
                                                : validity;
  if (req.validity == Validity::kBoundary && rng->Chance(1, 2)) {
    // Trailing garbage after a nullary verb: the server may ignore it or
    // reject it; either way exactly one response.
    req.use_raw = true;
    req.raw = std::string(verb) + " trailing garbage";
  }
  return req;
}

FuzzRequest GenerateRequest(SplitMix64* rng, ConnContext* ctx) {
  const Validity validity = [&] {
    const std::uint64_t roll = rng->Below(20);
    if (roll < 12) return Validity::kValid;
    if (roll < 17) return Validity::kBoundary;
    return Validity::kCorrupt;
  }();
  // Weighted verb pick: the data-plane verbs dominate.
  const std::uint64_t roll = rng->Below(22);
  if (roll < 6) return MakeClassify(rng, validity);
  if (roll < 11) return MakeStreamFeed(rng, validity, ctx);
  if (roll < 14) return MakeStreamOpen(rng, validity, ctx);
  if (roll < 16) return MakeStreamClose(rng, validity, ctx);
  if (roll < 17) return MakeLoad(rng, validity);
  if (roll < 18) return MakeUnload(rng, validity);
  if (roll < 19) return MakeTrace(rng, validity);
  if (roll < 20) return MakeNullary("MODELS", rng, validity);
  if (roll < 21) {
    return MakeNullary(rng->Chance(1, 2) ? "STATS" : "METRICS", rng,
                       validity);
  }
  return MakeNullary("STREAMS", rng, validity);
}

}  // namespace

bool FaultIsClean(WireFault fault) {
  return fault != WireFault::kDisconnect;
}

const char* FaultName(WireFault fault) {
  switch (fault) {
    case WireFault::kNone: return "none";
    case WireFault::kSplit: return "split";
    case WireFault::kCoalesce: return "coalesce";
    case WireFault::kTruncate: return "truncate";
    case WireFault::kHeaderCorrupt: return "header-corrupt";
    case WireFault::kOversize: return "oversize";
    case WireFault::kHalfClose: return "half-close";
    case WireFault::kDisconnect: return "disconnect";
  }
  return "?";
}

FuzzPlan GenerateProtocolPlan(std::uint64_t seed) {
  SplitMix64 rng(seed);
  FuzzPlan plan;
  plan.seed = seed;
  const std::size_t shard_choices[] = {1, 2, 4, 8};
  plan.shards = shard_choices[rng.Below(4)];
  plan.max_line = rng.Chance(1, 2) ? 8192 : (std::size_t{1} << 20);
  plan.max_frame_payload = rng.Chance(1, 2) ? 4096 : (std::size_t{1} << 20);
  plan.stop_during_pipeline = rng.Chance(1, 8);

  const std::size_t num_conns = rng.Range(1, 6);
  for (std::size_t c = 0; c < num_conns; ++c) {
    SplitMix64 conn_rng = rng.Fork(c);
    ConnPlan conn;
    conn.binary = conn_rng.Chance(1, 2);

    const std::uint64_t fault_roll = conn_rng.Below(19);
    if (fault_roll < 4) conn.fault = WireFault::kNone;
    else if (fault_roll < 7) conn.fault = WireFault::kSplit;
    else if (fault_roll < 9) conn.fault = WireFault::kCoalesce;
    else if (fault_roll < 11) conn.fault = WireFault::kTruncate;
    else if (fault_roll < 13) conn.fault = WireFault::kHeaderCorrupt;
    else if (fault_roll < 15) conn.fault = WireFault::kOversize;
    else if (fault_roll < 18) conn.fault = WireFault::kHalfClose;
    else conn.fault = WireFault::kDisconnect;
    if (conn.fault == WireFault::kHeaderCorrupt && !conn.binary) {
      conn.fault = WireFault::kOversize;  // reserved bytes are binary-only
    }

    const std::size_t num_requests = conn_rng.Range(1, 12);
    ConnContext ctx;
    for (std::size_t r = 0; r < num_requests; ++r) {
      conn.requests.push_back(GenerateRequest(&conn_rng, &ctx));
    }
    if (conn.fault == WireFault::kTruncate) {
      // The truncated request is the last one sent; everything after it
      // would never reach the wire.
      conn.fault_request = conn_rng.Below(conn.requests.size());
      conn.requests.resize(conn.fault_request + 1);
    } else if (conn.fault == WireFault::kOversize) {
      conn.fault_request = conn_rng.Below(conn.requests.size() + 1);
    } else if (conn.fault == WireFault::kDisconnect) {
      conn.fault_request = conn_rng.Below(conn.requests.size());
    }
    if ((conn.fault == WireFault::kNone || conn.fault == WireFault::kSplit ||
         conn.fault == WireFault::kCoalesce) &&
        conn_rng.Chance(1, 4)) {
      FuzzRequest quit;
      quit.verb = "QUIT";
      quit.closes = true;
      conn.requests.push_back(quit);
    }
    plan.conns.push_back(std::move(conn));
  }
  return plan;
}

std::string EncodeTextRequest(const FuzzRequest& req,
                              const std::string& stream_id) {
  if (req.use_raw) return req.raw;
  const std::string& verb = req.verb;
  if (verb == "LOAD") return "LOAD " + req.model + " " + req.path;
  if (verb == "UNLOAD") return "UNLOAD " + req.model;
  if (verb == "CLASSIFY") {
    std::string line = "CLASSIFY " + req.model + " " + Csv(req.values);
    if (req.timeout_ms != 0) {
      line.append(" ").append(std::to_string(req.timeout_ms));
    }
    return line;
  }
  if (verb == "STREAM_OPEN") {
    std::string line =
        "STREAM_OPEN " + req.model + " " + std::to_string(req.window);
    if (req.hop != 0 || req.early_fraction != 0.0) {
      line.append(" ").append(
          std::to_string(req.hop == 0 ? req.window : req.hop));
    }
    if (req.early_fraction != 0.0) {
      line.append(" ")
          .append(FormatDouble(req.early_fraction))
          .append(" ")
          .append(FormatDouble(req.early_margin));
    }
    return line;
  }
  if (verb == "STREAM_FEED") return "STREAM_FEED " + stream_id + " " + Csv(req.values);
  if (verb == "STREAM_CLOSE") return "STREAM_CLOSE " + stream_id;
  if (verb == "TRACE") {
    return req.trace_n == 0 ? "TRACE" : "TRACE " + std::to_string(req.trace_n);
  }
  return verb;  // MODELS / STATS / METRICS / STREAMS / QUIT
}

std::string EncodeBinaryRequest(const FuzzRequest& req,
                                const std::string& stream_id) {
  using net::BinaryVerb;
  using net::PayloadWriter;
  if (req.use_raw) {
    // Raw corrupt productions carry a text line. The binary translation
    // keeps the framing intact (a broken header would be kCorrupt and
    // close the connection — that is kHeaderCorrupt's job) and instead
    // ships the line's leftover bytes as a payload that fails to decode:
    // the same one-ERR-and-continue contract as the text form.
    const std::size_t space = req.raw.find(' ');
    const auto verb = net::VerbFromName(req.raw.substr(0, space));
    // An unknown verb draws one ERR and the connection continues.
    const std::uint8_t verb_byte =
        verb ? static_cast<std::uint8_t>(*verb) : 0x7F;
    const std::string payload =
        space == std::string::npos ? std::string() : req.raw.substr(space + 1);
    return net::EncodeFrame(verb_byte, 0, payload);
  }
  std::string payload;
  PayloadWriter writer(&payload);
  BinaryVerb verb;
  const std::string& v = req.verb;
  if (v == "LOAD") {
    verb = BinaryVerb::kLoad;
    writer.Str(req.model);
    writer.Str(req.path);
  } else if (v == "UNLOAD") {
    verb = BinaryVerb::kUnload;
    writer.Str(req.model);
  } else if (v == "MODELS") {
    verb = BinaryVerb::kModels;
  } else if (v == "CLASSIFY") {
    verb = BinaryVerb::kClassify;
    writer.Str(req.model);
    writer.U32(req.timeout_ms);
    writer.F64Array(req.values.data(), req.values.size());
  } else if (v == "STATS") {
    verb = BinaryVerb::kStats;
  } else if (v == "METRICS") {
    verb = BinaryVerb::kMetrics;
  } else if (v == "TRACE") {
    verb = BinaryVerb::kTrace;
    writer.U32(req.trace_n);
  } else if (v == "STREAM_OPEN") {
    verb = BinaryVerb::kStreamOpen;
    writer.Str(req.model);
    writer.U32(req.window);
    writer.U32(req.hop);
    writer.F64(req.early_fraction);
    writer.F64(req.early_margin);
  } else if (v == "STREAM_FEED") {
    verb = BinaryVerb::kStreamFeed;
    writer.Str(stream_id);
    writer.F64Array(req.values.data(), req.values.size());
  } else if (v == "STREAM_CLOSE") {
    verb = BinaryVerb::kStreamClose;
    writer.Str(stream_id);
  } else if (v == "STREAMS") {
    verb = BinaryVerb::kStreams;
  } else {
    verb = BinaryVerb::kQuit;
  }
  return net::EncodeFrame(verb, net::WireStatus::kOk, payload);
}

std::string FormatPlan(const FuzzPlan& plan) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "plan seed=0x%llx shards=%zu max_line=%zu max_frame=%zu "
                "stop_during_pipeline=%d\n",
                static_cast<unsigned long long>(plan.seed), plan.shards,
                plan.max_line, plan.max_frame_payload,
                plan.stop_during_pipeline ? 1 : 0);
  std::string out = buf;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    const ConnPlan& conn = plan.conns[c];
    out += "conn " + std::to_string(c) +
           " codec=" + (conn.binary ? "binary" : "text") +
           " fault=" + FaultName(conn.fault) +
           " fault_request=" + std::to_string(conn.fault_request) + "\n";
    for (std::size_t r = 0; r < conn.requests.size(); ++r) {
      const FuzzRequest& req = conn.requests[r];
      out += "  " + std::to_string(r) + " " + req.verb;
      switch (req.validity) {
        case Validity::kValid: out += " valid"; break;
        case Validity::kBoundary: out += " boundary"; break;
        case Validity::kCorrupt: out += " corrupt"; break;
      }
      if (req.use_raw) {
        out += " raw=\"" + req.raw + "\"";
      } else {
        if (!req.model.empty()) out += " model=" + req.model;
        if (!req.path.empty()) out += " path=" + req.path;
        if (!req.values.empty()) {
          out += " n=" + std::to_string(req.values.size()) +
                 " vh=" + std::to_string(HashBytes(
                     kHashSeed,
                     std::string_view(
                         reinterpret_cast<const char*>(req.values.data()),
                         req.values.size() * sizeof(double))));
        }
        if (req.timeout_ms) out += " timeout=" + std::to_string(req.timeout_ms);
        if (req.window) {
          out += " window=" + std::to_string(req.window) +
                 " hop=" + std::to_string(req.hop);
        }
        if (req.early_fraction != 0.0) {
          out += " early=" + FormatDouble(req.early_fraction) + "/" +
                 FormatDouble(req.early_margin);
        }
        if (req.trace_n) out += " trace_n=" + std::to_string(req.trace_n);
        if (req.stream_slot >= 0) {
          out += " slot=" + std::to_string(req.stream_slot);
        }
      }
      if (req.differential) out += " diff";
      if (req.closes) out += " closes";
      out += "\n";
    }
  }
  return out;
}

std::uint64_t HashBytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace rpm::fuzz
