#include "net/frame.h"

#include <bit>
#include <cstring>

namespace rpm::net {

namespace {

// Verb byte <-> protocol spelling: the one verb table. The text codec
// looks command words up here, and scripts/docs_lint.sh extracts it to
// require every name in docs/SERVING.md and in the fuzz grammar.
struct VerbInfo {
  BinaryVerb verb;
  std::string_view name;
};
constexpr VerbInfo kVerbTable[] = {
    {BinaryVerb::kLoad, "LOAD"},
    {BinaryVerb::kUnload, "UNLOAD"},
    {BinaryVerb::kModels, "MODELS"},
    {BinaryVerb::kClassify, "CLASSIFY"},
    {BinaryVerb::kStats, "STATS"},
    {BinaryVerb::kMetrics, "METRICS"},
    {BinaryVerb::kTrace, "TRACE"},
    {BinaryVerb::kStreamOpen, "STREAM_OPEN"},
    {BinaryVerb::kStreamFeed, "STREAM_FEED"},
    {BinaryVerb::kStreamClose, "STREAM_CLOSE"},
    {BinaryVerb::kStreams, "STREAMS"},
    {BinaryVerb::kQuit, "QUIT"},
};

void AppendLe(std::string* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t ReadLe(const char* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string_view VerbName(std::uint8_t verb) {
  for (const VerbInfo& info : kVerbTable) {
    if (static_cast<std::uint8_t>(info.verb) == verb) return info.name;
  }
  return {};
}

bool IsKnownVerb(std::uint8_t verb) { return !VerbName(verb).empty(); }

std::optional<BinaryVerb> VerbFromName(std::string_view name) {
  for (const VerbInfo& info : kVerbTable) {
    if (info.name == name) return info.verb;
  }
  return std::nullopt;
}

std::string EncodeFrame(std::uint8_t verb, std::uint8_t status,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  AppendLe(&out, payload.size(), 4);
  out.push_back(static_cast<char>(verb));
  out.push_back(static_cast<char>(status));
  AppendLe(&out, 0, 2);  // reserved
  out.append(payload);
  return out;
}

// ---- PayloadWriter ---------------------------------------------------

void PayloadWriter::U8(std::uint8_t v) { AppendLe(out_, v, 1); }
void PayloadWriter::U16(std::uint16_t v) { AppendLe(out_, v, 2); }
void PayloadWriter::U32(std::uint32_t v) { AppendLe(out_, v, 4); }
void PayloadWriter::U64(std::uint64_t v) { AppendLe(out_, v, 8); }
void PayloadWriter::I32(std::int32_t v) {
  AppendLe(out_, static_cast<std::uint32_t>(v), 4);
}
void PayloadWriter::F64(double v) {
  AppendLe(out_, std::bit_cast<std::uint64_t>(v), 8);
}

void PayloadWriter::Str(std::string_view s) {
  const std::size_t n = s.size() > 0xFFFF ? 0xFFFF : s.size();
  U16(static_cast<std::uint16_t>(n));
  out_->append(s.data(), n);
}

void PayloadWriter::Blob(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void PayloadWriter::F64Array(const double* values, std::size_t n) {
  U32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) F64(values[i]);
}

// ---- PayloadReader ---------------------------------------------------

bool PayloadReader::Take(std::size_t n, const char** p) {
  if (data_.size() - pos_ < n) return false;
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool PayloadReader::U8(std::uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<std::uint8_t>(ReadLe(p, 1));
  return true;
}
bool PayloadReader::U16(std::uint16_t* v) {
  const char* p;
  if (!Take(2, &p)) return false;
  *v = static_cast<std::uint16_t>(ReadLe(p, 2));
  return true;
}
bool PayloadReader::U32(std::uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  *v = static_cast<std::uint32_t>(ReadLe(p, 4));
  return true;
}
bool PayloadReader::U64(std::uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  *v = ReadLe(p, 8);
  return true;
}
bool PayloadReader::I32(std::int32_t* v) {
  std::uint32_t u;
  if (!U32(&u)) return false;
  *v = static_cast<std::int32_t>(u);
  return true;
}
bool PayloadReader::F64(double* v) {
  std::uint64_t u;
  if (!U64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool PayloadReader::Str(std::string* s) {
  std::uint16_t n;
  if (!U16(&n)) {
    return false;
  }
  const char* p;
  if (!Take(n, &p)) {
    pos_ -= 2;  // undo the length read so the reader stays consistent
    return false;
  }
  s->assign(p, n);
  return true;
}

bool PayloadReader::Blob(std::string* s) {
  std::uint32_t n;
  if (!U32(&n)) return false;
  const char* p;
  if (!Take(n, &p)) {
    pos_ -= 4;  // undo the length read so the reader stays consistent
    return false;
  }
  s->assign(p, n);
  return true;
}

bool PayloadReader::F64Array(std::vector<double>* values) {
  std::uint32_t n;
  if (!U32(&n)) return false;
  if (std::size_t(n) * 8 > data_.size() - pos_) {
    pos_ -= 4;
    return false;
  }
  values->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) F64(&(*values)[i]);
  return true;
}

// ---- FrameAssembler --------------------------------------------------

void FrameAssembler::Append(std::string_view data) {
  // After corruption the byte stream has no trustworthy frame boundary
  // left; everything further is discarded (the connection is closing).
  if (corrupt_) return;
  while (!data.empty()) {
    if (skip_left_ > 0) {
      const std::size_t n = std::min(skip_left_, data.size());
      skip_left_ -= n;
      data.remove_prefix(n);
      if (skip_left_ == 0) ready_.push_back({FrameStatus::kOversized, {}});
      continue;
    }
    if (buffer_.size() < kFrameHeaderSize) {
      const std::size_t need = kFrameHeaderSize - buffer_.size();
      const std::size_t n = std::min(need, data.size());
      buffer_.append(data.data(), n);
      data.remove_prefix(n);
      if (buffer_.size() < kFrameHeaderSize) return;  // header incomplete
      const std::uint64_t reserved = ReadLe(buffer_.data() + 6, 2);
      if (reserved != 0) {
        ready_.push_back({FrameStatus::kCorrupt, {}});
        corrupt_ = true;
        buffer_.clear();
        return;
      }
      const std::uint64_t len = ReadLe(buffer_.data(), 4);
      if (len > max_payload_) {
        // Recoverable: the length is trusted (reserved checked), so the
        // payload can be skipped and the next frame parsed normally.
        skip_left_ = len;
        buffer_.clear();
        if (skip_left_ == 0) ready_.push_back({FrameStatus::kOversized, {}});
        continue;
      }
    }
    const std::uint64_t len = ReadLe(buffer_.data(), 4);
    const std::size_t want = kFrameHeaderSize + std::size_t(len);
    const std::size_t n = std::min(want - buffer_.size(), data.size());
    buffer_.append(data.data(), n);
    data.remove_prefix(n);
    if (buffer_.size() < want) return;  // payload incomplete
    Item item{FrameStatus::kFrame, {}};
    item.frame.verb = static_cast<std::uint8_t>(buffer_[4]);
    item.frame.status = static_cast<std::uint8_t>(buffer_[5]);
    item.frame.payload.assign(buffer_, kFrameHeaderSize, std::size_t(len));
    ready_.push_back(std::move(item));
    buffer_.clear();
  }
}

FrameAssembler::FrameStatus FrameAssembler::Next(Frame* frame) {
  if (ready_.empty()) return FrameStatus::kNone;
  Item item = std::move(ready_.front());
  ready_.pop_front();
  if (item.status == FrameStatus::kFrame) *frame = std::move(item.frame);
  return item.status;
}

// ---- LineAssembler ---------------------------------------------------

void LineAssembler::Append(std::string_view data) {
  while (!data.empty()) {
    const std::size_t nl = data.find('\n');
    const std::string_view segment = data.substr(0, nl);
    if (!discarding_) {
      if (partial_.size() + segment.size() > max_line_) {
        partial_.clear();
        partial_.shrink_to_fit();
        discarding_ = true;
      } else {
        partial_.append(segment);
      }
    }
    if (nl == std::string_view::npos) return;  // rest arrives later
    if (discarding_) {
      ready_.push_back(Item{true, std::string()});
      discarding_ = false;
    } else {
      if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
      ready_.push_back(Item{false, std::move(partial_)});
      partial_.clear();
    }
    data.remove_prefix(nl + 1);
  }
}

LineAssembler::LineStatus LineAssembler::NextLine(std::string* line) {
  if (ready_.empty()) return LineStatus::kNone;
  Item item = std::move(ready_.front());
  ready_.pop_front();
  if (item.oversized) return LineStatus::kOversized;
  *line = std::move(item.line);
  return LineStatus::kLine;
}

}  // namespace rpm::net
