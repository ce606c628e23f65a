// Wire framing for the network front end: the length-prefixed binary
// frame codec and the bounded text-line reassembler, shared by server
// and clients.
//
// A connection speaks exactly one codec, negotiated by its first bytes:
// binary clients open with the 4-byte magic "RPMB" (no text verb starts
// with those bytes), everything else is the historical newline protocol.
//
// Binary frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     payload_len   bytes of payload following the header
//   4       1     verb          BinaryVerb (request & echoed in response)
//   5       1     status        0 in requests; WireStatus in responses
//   6       2     reserved      must be 0 (corruption tripwire)
//   8       n     payload       verb-specific, see docs/SERVING.md
//
// Strings inside payloads are u16 length + raw bytes; bulk bodies
// (METRICS/STATS/TRACE text) are blobs, u32 length + raw bytes; sample
// vectors are u32 count + count IEEE-754 doubles. A frame whose
// payload_len exceeds
// the assembler bound is skipped as it streams in and surfaced once as
// kOversized (the connection answers with an ERR frame and keeps going);
// a nonzero reserved field is unrecoverable (kCorrupt — the stream
// cannot be resynchronized, so the connection closes after one ERR
// frame). Truncation mid-frame is simply kNone: no frame is emitted and
// no state is corrupted, the bytes wait for the rest.

#ifndef RPM_NET_FRAME_H_
#define RPM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rpm::net {

/// Binary protocol verbs, one per text-protocol command. Values are the
/// wire bytes; docs/SERVING.md carries the authoritative table (pinned
/// by scripts/docs_lint.sh against kVerbTable in frame.cc).
enum class BinaryVerb : std::uint8_t {
  kLoad = 0x01,
  kUnload = 0x02,
  kModels = 0x03,
  kClassify = 0x04,
  kStats = 0x05,
  kMetrics = 0x06,
  kTrace = 0x07,
  kStreamOpen = 0x08,
  kStreamFeed = 0x09,
  kStreamClose = 0x0A,
  kStreams = 0x0B,
  kQuit = 0x0C,
};

/// Response status byte; 0 is success, everything else mirrors the text
/// protocol's ERR codes.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,
  kOverloaded = 2,
  kNotFound = 3,
  kShutdown = 4,
  kBadRequest = 5,
};

/// The 4-byte connection preamble selecting the binary codec.
inline constexpr char kBinaryMagic[4] = {'R', 'P', 'M', 'B'};
inline constexpr std::size_t kFrameHeaderSize = 8;

/// Protocol name of a verb ("LOAD", ...), empty for unknown bytes.
std::string_view VerbName(std::uint8_t verb);
bool IsKnownVerb(std::uint8_t verb);
/// The verb spelled `name` (the text protocol's command word), if any.
std::optional<BinaryVerb> VerbFromName(std::string_view name);

/// One decoded frame (request or response).
struct Frame {
  std::uint8_t verb = 0;
  std::uint8_t status = 0;
  std::string payload;
};

/// Serializes one frame (header + payload).
std::string EncodeFrame(std::uint8_t verb, std::uint8_t status,
                        std::string_view payload);
inline std::string EncodeFrame(BinaryVerb verb, WireStatus status,
                               std::string_view payload) {
  return EncodeFrame(static_cast<std::uint8_t>(verb),
                     static_cast<std::uint8_t>(status), payload);
}

/// Appends little-endian primitives to a payload under construction.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v);
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v);
  void F64(double v);
  /// u16 length + bytes; strings longer than 65535 are truncated.
  /// For short fields (names, ids, error messages) only — bulk bodies
  /// go through Blob.
  void Str(std::string_view s);
  /// u32 length + bytes, for bulk bodies (METRICS exposition, STATS/
  /// TRACE JSON) that can exceed the u16 `str` bound.
  void Blob(std::string_view s);
  /// u32 count + count doubles.
  void F64Array(const double* values, std::size_t n);

 private:
  std::string* out_;
};

/// Reads little-endian primitives out of a payload; every getter returns
/// false on underflow without advancing, so a truncated or malformed
/// payload decodes to an explicit error, never out-of-bounds reads.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool U8(std::uint8_t* v);
  bool U16(std::uint16_t* v);
  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  bool I32(std::int32_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  bool Blob(std::string* s);
  /// Rejects counts larger than the bytes actually present.
  bool F64Array(std::vector<double>* values);
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Take(std::size_t n, const char** p);
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Reassembles binary frames from arbitrary read() chunks with a hard
/// payload bound. See the file comment for the oversized/corrupt/
/// truncated contract.
class FrameAssembler {
 public:
  static constexpr std::size_t kDefaultMaxPayload = std::size_t{1} << 20;

  explicit FrameAssembler(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void Append(std::string_view data);

  enum class FrameStatus {
    kNone,       ///< no complete frame buffered yet
    kFrame,      ///< *frame holds the next frame
    kOversized,  ///< a frame exceeded max_payload and was skipped
    kCorrupt,    ///< unrecoverable framing error; close the connection
  };
  FrameStatus Next(Frame* frame);

  std::size_t max_payload() const { return max_payload_; }

 private:
  struct Item {
    FrameStatus status;
    Frame frame;
  };
  std::size_t max_payload_;
  std::deque<Item> ready_;
  std::string buffer_;        // header + partial payload of the next frame
  std::size_t skip_left_ = 0;  // oversized-frame payload bytes to discard
  bool corrupt_ = false;       // sticky: stop parsing after corruption
};

/// Reassembles protocol lines from arbitrary read() chunks, with a hard
/// bound on line length so a client that never sends '\n' (or sends one
/// gigantic line) cannot grow server memory without limit. Oversized
/// lines are discarded as they arrive and surface as kOversized exactly
/// once — at the point where the line would have completed — so the
/// connection can answer with an explicit error and keep going.
class LineAssembler {
 public:
  static constexpr std::size_t kDefaultMaxLine = std::size_t{1} << 20;

  explicit LineAssembler(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {}

  /// Buffers one received chunk (any framing: partial lines, many lines,
  /// split anywhere — including mid-CRLF).
  void Append(std::string_view data);

  enum class LineStatus {
    kNone,       ///< no complete line buffered yet
    kLine,       ///< *line holds the next line (no '\n', '\r' stripped)
    kOversized,  ///< a line exceeded max_line and was dropped
  };
  /// Pops the next complete line in arrival order.
  LineStatus NextLine(std::string* line);

  std::size_t max_line() const { return max_line_; }

 private:
  struct Item {
    bool oversized;
    std::string line;
  };
  std::size_t max_line_;
  std::deque<Item> ready_;
  std::string partial_;
  bool discarding_ = false;
};

}  // namespace rpm::net

#endif  // RPM_NET_FRAME_H_
