// Grammar for serving-surface fuzz cases. A FuzzPlan is a pure function
// of its seed: a set of concurrent connections, each with a codec (text
// lines or binary frames), a request script drawn from per-verb
// productions (valid / boundary / corrupt), and one wire-level fault.
// The harness (harness.h) executes plans against a live net::FrontEnd;
// this file only *describes* traffic, so plans can be formatted as repro
// scripts, minimized, and compared across runs.
//
// Productions cover the full verb table (scripts/docs_lint.sh requires a
// production for every name in net's kVerbTable): LOAD UNLOAD MODELS
// CLASSIFY STATS METRICS TRACE STREAM_OPEN STREAM_FEED STREAM_CLOSE
// STREAMS QUIT.

#ifndef RPM_FUZZ_GRAMMAR_H_
#define RPM_FUZZ_GRAMMAR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/rng.h"

namespace rpm::fuzz {

/// How adversarial a production is. kValid requests must succeed (or
/// fail only for capacity reasons); kBoundary requests sit on protocol
/// edges and may be answered either way; kCorrupt requests must draw an
/// ERR without disturbing the connection (unless the fault says so).
enum class Validity : std::uint8_t { kValid, kBoundary, kCorrupt };

/// One wire-level fault per connection, applied by the harness.
enum class WireFault : std::uint8_t {
  kNone = 0,       ///< one write per burst
  kSplit,          ///< byte-dribble writes (1..7 bytes each)
  kCoalesce,       ///< whole bursts coalesced into single writes
  kTruncate,       ///< drain, then send a strict prefix of one request
                   ///< and half-close: no response for the fragment
  kHeaderCorrupt,  ///< binary only: nonzero reserved on the final frame
                   ///< (one ERR, connection closes — unrecoverable)
  kOversize,       ///< inject a line/frame exceeding the assembler bound
                   ///< (one ERR, connection recovers)
  kHalfClose,      ///< shutdown(WR) after the script, drain all responses
  kDisconnect,     ///< abrupt close() mid-script, responses abandoned
};

/// Faults under which the full response oracle applies (every request
/// answered, in order, with the expected shape). Dirty faults
/// (kDisconnect) only get the liveness + post-drain invariants.
bool FaultIsClean(WireFault fault);
const char* FaultName(WireFault fault);

/// One request production. `verb` is the text-protocol name; binary
/// connections encode the same request as a frame. Stream requests name
/// sessions by `stream_slot` — an index into the connection's earlier
/// STREAM_OPEN requests — resolved to a real session id at run time
/// (slot -1 is a deliberately bogus id).
struct FuzzRequest {
  std::string verb;
  Validity validity = Validity::kValid;

  std::string model;           // CLASSIFY / STREAM_OPEN / LOAD / UNLOAD name
  std::string path;            // LOAD
  std::vector<double> values;  // CLASSIFY / STREAM_FEED samples
  std::uint32_t timeout_ms = 0;  // CLASSIFY; 0 = server default
  std::uint32_t window = 0;      // STREAM_OPEN
  std::uint32_t hop = 0;
  double early_fraction = 0.0;
  double early_margin = 0.0;
  std::uint32_t trace_n = 0;  // TRACE; 0 = omit the argument
  int stream_slot = -1;

  /// The oracle must check this request's decision bits against the
  /// in-process engine (finite values, model "cbf", early off).
  bool differential = false;
  /// The server closes the connection after responding (QUIT).
  bool closes = false;
  /// Corrupt productions may carry raw wire bytes instead of fields:
  /// the full line (text) or the full frame (binary).
  bool use_raw = false;
  std::string raw;
};

struct ConnPlan {
  bool binary = false;
  WireFault fault = WireFault::kNone;
  /// Request index the fault anchors to (kTruncate: the request whose
  /// bytes are cut short; kOversize: where the oversized filler is
  /// injected).
  std::size_t fault_request = 0;
  std::vector<FuzzRequest> requests;
};

struct FuzzPlan {
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t max_line = 0;           // front-end LineAssembler bound
  std::size_t max_frame_payload = 0;  // front-end FrameAssembler bound
  /// Stop() the front end while requests are still in flight; the whole
  /// case downgrades to liveness + invariants.
  bool stop_during_pipeline = false;
  std::vector<ConnPlan> conns;
};

/// Expands a seed into a full plan (connection count, codecs, scripts,
/// faults, front-end geometry). Pure: same seed, same plan.
FuzzPlan GenerateProtocolPlan(std::uint64_t seed);

/// Encodes one request for the wire. `stream_id` is the resolved session
/// id for stream verbs (ignored by the rest). Text form has no trailing
/// newline; binary form is a complete frame.
std::string EncodeTextRequest(const FuzzRequest& req,
                              const std::string& stream_id);
std::string EncodeBinaryRequest(const FuzzRequest& req,
                                const std::string& stream_id);

/// Human-readable repro script for a plan (what failure reports embed).
std::string FormatPlan(const FuzzPlan& plan);

/// FNV-1a over `bytes`, chained from `h` (seed with kHashSeed). Used for
/// compact event-log entries.
inline constexpr std::uint64_t kHashSeed = 0xCBF29CE484222325ULL;
std::uint64_t HashBytes(std::uint64_t h, std::string_view bytes);

}  // namespace rpm::fuzz

#endif  // RPM_FUZZ_GRAMMAR_H_
