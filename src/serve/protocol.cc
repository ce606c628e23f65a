#include "serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

namespace rpm::serve {

using net::BinaryVerb;
using net::WireStatus;

namespace {

constexpr bool SameByte(StatusCode status, WireStatus wire) {
  return static_cast<int>(status) == static_cast<int>(wire);
}
static_assert(SameByte(StatusCode::kOk, WireStatus::kOk) &&
                  SameByte(StatusCode::kTimeout, WireStatus::kTimeout) &&
                  SameByte(StatusCode::kOverloaded, WireStatus::kOverloaded) &&
                  SameByte(StatusCode::kNotFound, WireStatus::kNotFound) &&
                  SameByte(StatusCode::kShutdown, WireStatus::kShutdown) &&
                  SameByte(StatusCode::kBadRequest, WireStatus::kBadRequest),
              "StatusCode values are the binary protocol's status bytes");

constexpr std::size_t kDefaultTraceCount = 32;
constexpr std::size_t kMaxTraceCount = 1024;

// "1.5,2,-0.25" (or space-separated) -> Series; false on any non-number.
bool ParseValues(const std::string& text, ts::Series* out) {
  out->clear();
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ',', ' ');
  std::istringstream fields(normalized);
  std::string token;
  while (fields >> token) {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(v);
  }
  return !out->empty();
}

// An optional trailing number, present only as a token of its own: at
// the end of the line, or when the previous argument ran straight into
// more bytes ("64abc"), *out stays empty and the rest is ignored. A
// present token that does not start with a number fails.
template <typename T>
bool OptionalNumber(std::istringstream& in, std::optional<T>* out) {
  if (!std::isspace(in.peek()) || (in >> std::ws).eof()) return true;
  T value{};
  if (!(in >> value)) return false;
  *out = value;
  return true;
}

}  // namespace

Reply Failure(BinaryVerb verb, StatusCode status, std::string error) {
  Reply reply;
  reply.verb = verb;
  reply.status = status;
  reply.error = std::move(error);
  return reply;
}

// ---- Text codec ------------------------------------------------------

std::string ParseLine(const std::string& line, Request* request) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd)) return "empty line";
  const std::optional<BinaryVerb> verb = net::VerbFromName(cmd);
  if (!verb) return "unknown command '" + cmd + "'";
  request->verb = *verb;
  switch (*verb) {
    case BinaryVerb::kLoad:
      return in >> request->name >> request->path ? ""
                                                  : "usage: LOAD <name> <path>";
    case BinaryVerb::kUnload:
      return in >> request->name ? "" : "usage: UNLOAD <name>";
    case BinaryVerb::kClassify: {
      std::string csv;
      std::optional<long> timeout_ms;
      if (!(in >> request->name >> csv) || !OptionalNumber(in, &timeout_ms)) {
        return "usage: CLASSIFY <name> <v1,v2,...> [ms]";
      }
      if (timeout_ms && *timeout_ms <= 0) return "timeout must be positive";
      if (!ParseValues(csv, &request->values)) {
        return "malformed values '" + csv + "'";
      }
      request->timeout = std::chrono::milliseconds(timeout_ms.value_or(0));
      return "";
    }
    case BinaryVerb::kTrace: {
      std::optional<long> n;
      if (!OptionalNumber(in, &n)) return "usage: TRACE [n]";
      if (n && *n <= 0) return "span count must be positive";
      request->trace_count =
          n ? std::min(std::size_t(*n), kMaxTraceCount) : kDefaultTraceCount;
      return "";
    }
    case BinaryVerb::kStreamOpen: {
      const char* usage =
          "usage: STREAM_OPEN <model> <window> [hop] [early_frac] "
          "[early_margin]";
      long window = 0;
      std::optional<long> hop;
      std::optional<double> fraction;
      std::optional<double> margin;
      if (!(in >> request->name >> window) || window <= 0 ||
          !OptionalNumber(in, &hop)) {
        return usage;
      }
      if (hop && *hop < 0) return "hop must be non-negative";
      if (!OptionalNumber(in, &fraction) || !OptionalNumber(in, &margin)) {
        return usage;
      }
      stream::StreamOptions& opts = request->stream;
      opts.window = std::size_t(window);
      opts.hop = hop.value_or(0) == 0 ? opts.window : std::size_t(*hop);
      opts.early_fraction = fraction.value_or(opts.early_fraction);
      opts.early_margin = margin.value_or(opts.early_margin);
      return "";
    }
    case BinaryVerb::kStreamFeed: {
      std::string csv;
      if (!(in >> request->name >> csv)) {
        return "usage: STREAM_FEED <id> <v1,v2,...>";
      }
      if (!ParseValues(csv, &request->values)) {
        return "malformed values '" + csv + "'";
      }
      return "";
    }
    case BinaryVerb::kStreamClose:
      return in >> request->name ? "" : "usage: STREAM_CLOSE <id>";
    default:  // MODELS STATS METRICS STREAMS QUIT take no arguments
      return "";
  }
}

std::string FormatLine(const Reply& reply) {
  if (reply.status != StatusCode::kOk) {
    std::string out = "ERR ";
    out += StatusName(reply.status);
    if (!reply.error.empty()) out += ' ' + reply.error;
    return out;
  }
  switch (reply.verb) {
    case BinaryVerb::kLoad:
      return "OK loaded " + reply.name +
             " patterns=" + std::to_string(reply.count);
    case BinaryVerb::kUnload:
      return "OK unloaded " + reply.name;
    case BinaryVerb::kClassify:
      return "OK " + std::to_string(reply.label);
    case BinaryVerb::kStats:
    case BinaryVerb::kTrace:
      return "OK " + reply.body;
    case BinaryVerb::kMetrics: {
      // Response lines carry no trailing newline (the connection appends
      // one), so drop the exposition's final '\n'.
      std::string out = "OK metrics\n" + reply.body;
      if (out.back() == '\n') out.pop_back();
      return out;
    }
    case BinaryVerb::kStreamOpen:
      return "OK stream " + reply.name + " window=" +
             std::to_string(reply.window) + " hop=" + std::to_string(reply.hop);
    case BinaryVerb::kStreamFeed: {
      std::string out = "OK fed " + std::to_string(reply.count) +
                        " decisions=" + std::to_string(reply.decisions.size());
      char item[96];
      for (const auto& d : reply.decisions) {
        std::snprintf(item, sizeof(item), " %llu:%d:%.3f",
                      static_cast<unsigned long long>(d.window_index),
                      d.label, d.margin);
        out += item;
        if (d.early) out += ":early";
      }
      return out;
    }
    case BinaryVerb::kStreamClose: {
      const stream::StreamSummary& s = reply.summary;
      return "OK closed " + reply.name +
             " samples=" + std::to_string(s.samples) +
             " windows=" + std::to_string(s.windows_scored) +
             " decisions=" + std::to_string(s.decisions) +
             " early=" + std::to_string(s.early_decisions);
    }
    case BinaryVerb::kQuit:
      return "OK bye";
    default: {  // MODELS, STREAMS
      std::string out = "OK " + std::to_string(reply.names.size());
      for (const auto& name : reply.names) out += ' ' + name;
      return out;
    }
  }
}

// ---- Binary codec ----------------------------------------------------

std::string DecodeRequest(const net::Frame& frame, Request* request) {
  request->verb = static_cast<BinaryVerb>(frame.verb);
  if (!net::IsKnownVerb(frame.verb)) {
    return "unknown verb " + std::to_string(int(frame.verb));
  }
  net::PayloadReader in(frame.payload);
  switch (request->verb) {
    case BinaryVerb::kLoad:
      return in.Str(&request->name) && in.Str(&request->path)
                 ? ""
                 : "LOAD payload: str name, str path";
    case BinaryVerb::kUnload:
      return in.Str(&request->name) ? "" : "UNLOAD payload: str name";
    case BinaryVerb::kClassify: {
      std::uint32_t timeout_ms = 0;
      if (!in.Str(&request->name) || !in.U32(&timeout_ms) ||
          !in.F64Array(&request->values) || request->values.empty()) {
        return "CLASSIFY payload: str model, u32 timeout_ms, f64[] values";
      }
      request->timeout = std::chrono::milliseconds(timeout_ms);
      return "";
    }
    case BinaryVerb::kTrace: {
      std::uint32_t n = 0;
      if (!in.U32(&n)) return "TRACE payload: u32 span count";
      request->trace_count = n == 0 ? kDefaultTraceCount
                                    : std::min(std::size_t(n), kMaxTraceCount);
      return "";
    }
    case BinaryVerb::kStreamOpen: {
      std::uint32_t window = 0;
      std::uint32_t hop = 0;
      stream::StreamOptions& opts = request->stream;
      if (!in.Str(&request->name) || !in.U32(&window) || !in.U32(&hop) ||
          !in.F64(&opts.early_fraction) || !in.F64(&opts.early_margin) ||
          window == 0) {
        return "STREAM_OPEN payload: str model, u32 window, u32 hop, f64 "
               "early_fraction, f64 early_margin";
      }
      opts.window = window;
      opts.hop = hop == 0 ? window : hop;
      return "";
    }
    case BinaryVerb::kStreamFeed:
      return in.Str(&request->name) && in.F64Array(&request->values) &&
                     !request->values.empty()
                 ? ""
                 : "STREAM_FEED payload: str id, f64[] values";
    case BinaryVerb::kStreamClose:
      return in.Str(&request->name) ? "" : "STREAM_CLOSE payload: str id";
    default:  // MODELS STATS METRICS STREAMS QUIT carry no payload
      return "";
  }
}

std::string EncodeReply(const Reply& reply) {
  std::string payload;
  net::PayloadWriter out(&payload);
  if (reply.status != StatusCode::kOk) {
    // A status with no detail sends its code name.
    out.Str(reply.error.empty() ? StatusName(reply.status)
                                : std::string_view(reply.error));
  } else {
    switch (reply.verb) {
      case BinaryVerb::kLoad:
        out.Str(reply.name);
        out.U64(reply.count);
        break;
      case BinaryVerb::kUnload:
        out.Str(reply.name);
        break;
      case BinaryVerb::kModels:
      case BinaryVerb::kStreams:
        out.U32(std::uint32_t(reply.names.size()));
        for (const auto& name : reply.names) out.Str(name);
        break;
      case BinaryVerb::kClassify:
        out.I32(reply.label);
        break;
      case BinaryVerb::kStats:
      case BinaryVerb::kMetrics:
      case BinaryVerb::kTrace:
        // Bulk bodies ride as blobs (u32 length): multi-shard exposition
        // and span dumps routinely exceed the u16 `str` bound.
        out.Blob(reply.body);
        break;
      case BinaryVerb::kStreamOpen:
        out.Str(reply.name);
        out.U32(std::uint32_t(reply.window));
        out.U32(std::uint32_t(reply.hop));
        break;
      case BinaryVerb::kStreamFeed:
        out.U32(std::uint32_t(reply.count));
        out.U32(std::uint32_t(reply.decisions.size()));
        for (const auto& d : reply.decisions) {
          out.U64(d.window_index);
          out.I32(d.label);
          out.F64(d.margin);
          out.U8(d.early ? 1 : 0);
        }
        break;
      case BinaryVerb::kStreamClose:
        out.U64(reply.summary.samples);
        out.U64(reply.summary.windows_scored);
        out.U64(reply.summary.decisions);
        out.U64(reply.summary.early_decisions);
        break;
      case BinaryVerb::kQuit:
        break;
    }
  }
  return net::EncodeFrame(static_cast<std::uint8_t>(reply.verb),
                          static_cast<std::uint8_t>(reply.status), payload);
}

}  // namespace rpm::serve
