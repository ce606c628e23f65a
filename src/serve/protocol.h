// The serving protocol's one core: a typed Request (a verb plus its
// fields), a Reply (a status, an error detail, and the verb's result
// fields), and the two wire codecs that translate between them and the
// bytes. The text codec (ParseLine / FormatLine) speaks the newline
// protocol; the binary codec (DecodeRequest / EncodeReply) speaks the
// length-prefixed frames of net/frame.h. Both grammars are specified in
// docs/SERVING.md.
//
// Codecs only translate. Each decoder applies its own defaults and caps
// (hop 0 becomes the window, TRACE's count defaults to 32 and is capped
// at 1024), so InferenceServer::Dispatch receives the same Request
// whichever codec carried it and is the only place verb semantics live.

#ifndef RPM_SERVE_PROTOCOL_H_
#define RPM_SERVE_PROTOCOL_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "stream/session_manager.h"
#include "stream/stream_scorer.h"
#include "ts/series.h"

namespace rpm::serve {

/// Terminal status of one request. The values are the binary protocol's
/// WireStatus bytes (pinned in serve/protocol.cc).
enum class StatusCode {
  kOk,          ///< done; a CLASSIFY reply's `label` is valid
  kTimeout,     ///< CLASSIFY deadline passed before scoring began
  kOverloaded,  ///< STREAM_OPEN refused: the shard's session cap is full
  kNotFound,    ///< no model or session under the requested name
  kShutdown,    ///< submitted after Shutdown began
  kBadRequest,  ///< malformed or refused request
};

/// Protocol-stable name of a status ("OK", "TIMEOUT", ...).
std::string_view StatusName(StatusCode status);

struct Request {
  net::BinaryVerb verb = net::BinaryVerb::kQuit;
  /// Model (LOAD, UNLOAD, CLASSIFY, STREAM_OPEN) or session id
  /// (STREAM_FEED, STREAM_CLOSE).
  std::string name;
  std::string path;   ///< LOAD
  ts::Series values;  ///< CLASSIFY, STREAM_FEED; never empty
  /// CLASSIFY deadline; zero means the server default.
  std::chrono::milliseconds timeout{0};
  std::size_t trace_count = 0;  ///< TRACE, in [1, 1024]
  /// STREAM_OPEN: window, hop (nonzero), early_fraction, early_margin.
  stream::StreamOptions stream;
};

struct Reply {
  net::BinaryVerb verb = net::BinaryVerb::kQuit;
  StatusCode status = StatusCode::kOk;
  std::string error;  ///< failure detail; may be empty
  /// LOAD / UNLOAD model; STREAM_OPEN / STREAM_CLOSE session id.
  std::string name;
  std::string body;                ///< STATS / TRACE JSON, METRICS text
  std::vector<std::string> names;  ///< MODELS, STREAMS
  int label = 0;                   ///< CLASSIFY
  /// LOAD pattern count; STREAM_FEED accepted samples.
  std::size_t count = 0;
  std::size_t window = 0;  ///< STREAM_OPEN
  std::size_t hop = 0;     ///< STREAM_OPEN
  std::vector<stream::StreamDecision> decisions;  ///< STREAM_FEED
  stream::StreamSummary summary;                  ///< STREAM_CLOSE
};

/// A failed reply to `verb`.
Reply Failure(net::BinaryVerb verb, StatusCode status, std::string error);

/// Decoders fill *request and return "", or return the BAD_REQUEST
/// detail. DecodeRequest sets request->verb to the frame's verb byte
/// even on failure, so the error reply can echo it.
std::string ParseLine(const std::string& line, Request* request);
std::string DecodeRequest(const net::Frame& frame, Request* request);

/// The response line (no trailing newline) / the complete response frame.
std::string FormatLine(const Reply& reply);
std::string EncodeReply(const Reply& reply);

}  // namespace rpm::serve

#endif  // RPM_SERVE_PROTOCOL_H_
