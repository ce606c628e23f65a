#include "ts/dataset_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define RPM_CRC32_FOLD 1
#endif

namespace rpm::ts {

// The format stores integers and doubles in their native little-endian
// representation and the reader hands out zero-copy views into the
// mapping, so a big-endian host could neither write nor read portably.
static_assert(std::endian::native == std::endian::little,
              "RPMD dataset files are little-endian");

namespace {

constexpr char kMagic[4] = {'R', 'P', 'M', 'D'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kDirEntryBytes = 40;

// Caps applied while parsing: a corrupt header must produce a
// descriptive error, not a multi-gigabyte resize (same policy as the
// model loaders hardened in the fuzzing PR). Both are far above any
// real archive and still bounded by the file size checks below.
constexpr std::uint64_t kMaxChunks = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxSeriesPerChunk = std::uint64_t{1} << 28;

// Built at compile time, so concurrent first calls read a finished table.
constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

template <typename T>
void PutLe(std::vector<unsigned char>& buf, T value) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &value, sizeof(T));
}

template <typename T>
T GetLe(const unsigned char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

[[noreturn]] void Fail(const std::string& path, const std::string& what) {
  throw DatasetFormatError("dataset file '" + path + "': " + what);
}

#if defined(RPM_CRC32_FOLD)
// Inputs shorter than this stay on the table loop: the fold needs four
// 16-byte lanes to start.
constexpr std::size_t kFoldMinBytes = 64;

inline __m128i Load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Folds lane `x` forward onto `next`: its low half times k's low half,
// its high half times k's high half, both xored into `next`.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i Fold(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) over
// `bytes` bytes, a multiple of 16 and at least 64. `c` is the reflected
// CRC register (seed already inverted), and so is the result. Four
// 128-bit lanes fold 64 bytes per step, collapse into one lane, fold
// any 16-byte blocks left, then reduce 128 -> 64 -> 32 bits (Barrett).
// The constants are the paper's for P = 0x104C11DB7, bit-reflected to
// 33 bits: k1/k2 = x^(512+32) / x^(512-32) mod P (fold by 64 bytes),
// k3/k4 = x^(128+32) / x^(128-32) mod P (fold by 16 bytes), k5 = x^64
// mod P, then P itself and the Barrett quotient mu = x^64 div P.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Crc32Fold(
    const unsigned char* p, std::size_t bytes, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  const unsigned char* const end = p + bytes;
  for (p += 64; end - p >= 64; p += 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  __m128i x = Fold(Fold(Fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; p != end; p += 16) x = Fold(x, k3k4, Load(p));

  // 128 -> 64 bits, then 64 -> 32 bits with k5.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
}
#endif

}  // namespace

// The table loop is the definition: it runs every input on CPUs without
// PCLMULQDQ, every input under 64 bytes, and the under-16-byte tail the
// fold leaves. The fold gives the same value on the rest.
std::uint32_t Crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(RPM_CRC32_FOLD)
  static const bool has_fold = CpuHasFold();
  if (bytes >= kFoldMinBytes && has_fold) {
    const std::size_t body = bytes & ~std::size_t{15};
    c = Crc32Fold(p, body, c);
    p += body;
    bytes -= body;
  }
#endif
  for (std::size_t i = 0; i < bytes; ++i) {
    c = kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

DatasetWriter::DatasetWriter(const std::string& path,
                             DatasetWriterOptions options)
    : options_(options), path_(path) {
  if (options_.chunk_series == 0) options_.chunk_series = 1;
  if (options_.chunk_bytes == 0) options_.chunk_bytes = 1;
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) Fail(path_, "cannot open for writing");
  // Placeholder header; Finish() rewrites it with the real counts,
  // directory offset, and CRC. An abandoned (never-Finished) file keeps
  // the all-zero header and is rejected by the reader.
  const std::vector<unsigned char> zero(kHeaderBytes, 0);
  out_.write(reinterpret_cast<const char*>(zero.data()),
             static_cast<std::streamsize>(zero.size()));
  if (!out_) Fail(path_, "header write failed");
}

DatasetWriter::~DatasetWriter() {
  // Best-effort seal so `DatasetWriter w(path); ...; }` scopes produce a
  // readable file; errors surface on the explicit Finish() path only.
  if (!finished_) {
    try {
      Finish();
    } catch (const DatasetFormatError&) {
    }
  }
}

void DatasetWriter::Append(int label, SeriesView values) {
  if (finished_) Fail(path_, "Append after Finish");
  if (values.empty()) Fail(path_, "cannot append an empty series");
  if (options_.fixed_length != 0 && values.size() != options_.fixed_length) {
    Fail(path_, "fixed-length file (" + std::to_string(options_.fixed_length) +
                    ") rejects series of length " +
                    std::to_string(values.size()));
  }
  labels_.push_back(static_cast<std::int32_t>(label));
  lengths_.push_back(values.size());
  values_.insert(values_.end(), values.begin(), values.end());
  ++series_written_;
  if (labels_.size() >= options_.chunk_series ||
      values_.size() * sizeof(double) >= options_.chunk_bytes) {
    FlushChunk();
  }
}

void DatasetWriter::Append(const LabeledSeries& instance) {
  Append(instance.label, instance.values);
}

void DatasetWriter::FlushChunk() {
  if (labels_.empty()) return;
  DirEntry entry;
  entry.first_series = series_written_ - labels_.size();
  entry.count = static_cast<std::uint32_t>(labels_.size());

  // Metadata block: count, labels, lengths (variable-length files only),
  // zero padding up to the 8-byte boundary the values start on.
  std::vector<unsigned char> meta;
  PutLe<std::uint32_t>(meta, entry.count);
  PutLe<std::uint32_t>(meta, 0);  // reserved
  for (std::int32_t label : labels_) PutLe<std::int32_t>(meta, label);
  if (options_.fixed_length == 0) {
    for (std::uint64_t len : lengths_) PutLe<std::uint64_t>(meta, len);
  }
  while (meta.size() % 8 != 0) meta.push_back(0);

  const std::uint64_t offset = static_cast<std::uint64_t>(out_.tellp());
  entry.offset = offset;
  entry.bytes = meta.size() + values_.size() * sizeof(double);
  entry.meta_crc = Crc32(meta.data(), meta.size());
  entry.data_crc = Crc32(values_.data(), values_.size() * sizeof(double));

  out_.write(reinterpret_cast<const char*>(meta.data()),
             static_cast<std::streamsize>(meta.size()));
  out_.write(reinterpret_cast<const char*>(values_.data()),
             static_cast<std::streamsize>(values_.size() * sizeof(double)));
  if (!out_) Fail(path_, "chunk write failed");

  directory_.push_back(entry);
  ++chunks_written_;
  labels_.clear();
  lengths_.clear();
  values_.clear();
}

void DatasetWriter::Finish() {
  if (finished_) return;
  FlushChunk();

  const std::uint64_t dir_offset = static_cast<std::uint64_t>(out_.tellp());
  std::vector<unsigned char> dir;
  dir.reserve(directory_.size() * kDirEntryBytes + sizeof(std::uint32_t));
  for (const DirEntry& e : directory_) {
    PutLe<std::uint64_t>(dir, e.offset);
    PutLe<std::uint64_t>(dir, e.bytes);
    PutLe<std::uint64_t>(dir, e.first_series);
    PutLe<std::uint32_t>(dir, e.count);
    PutLe<std::uint32_t>(dir, e.meta_crc);
    PutLe<std::uint32_t>(dir, e.data_crc);
    PutLe<std::uint32_t>(dir, e.reserved);
  }
  const std::uint32_t dir_crc = Crc32(dir.data(), dir.size());
  PutLe<std::uint32_t>(dir, dir_crc);
  out_.write(reinterpret_cast<const char*>(dir.data()),
             static_cast<std::streamsize>(dir.size()));

  std::vector<unsigned char> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic, kMagic + 4);
  PutLe<std::uint32_t>(header, kVersion);
  PutLe<std::uint64_t>(header, series_written_);
  PutLe<std::uint64_t>(header, directory_.size());
  PutLe<std::uint64_t>(header, dir_offset);
  PutLe<std::uint32_t>(header,
                       static_cast<std::uint32_t>(options_.fixed_length));
  const std::uint32_t header_crc = Crc32(header.data(), header.size());
  PutLe<std::uint32_t>(header, header_crc);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_) Fail(path_, "finalize failed");
  out_.close();
  finished_ = true;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

DatasetReader::DatasetReader(const std::string& path,
                             DatasetReaderOptions options)
    : options_(options), path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) Fail(path_, "cannot open");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    Fail(path_, "fstat failed");
  }
  map_bytes_ = static_cast<std::size_t>(st.st_size);
  // Hold the fd until destruction alongside the mapping; mapping an
  // empty file is invalid, so reject short files before mmap.
  if (map_bytes_ < kHeaderBytes) {
    ::close(fd_);
    fd_ = -1;
    Fail(path_, "truncated: " + std::to_string(map_bytes_) +
                    " bytes is smaller than the header");
  }
  void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    Fail(path_, "mmap failed");
  }
  map_ = static_cast<const unsigned char*>(map);

  try {
    // --- header ---
    if (std::memcmp(map_, kMagic, 4) != 0) {
      Fail(path_, "bad magic (not an RPMD dataset file)");
    }
    const auto version = GetLe<std::uint32_t>(map_ + 4);
    if (version != kVersion) {
      Fail(path_, "unsupported format version " + std::to_string(version) +
                      " (this build reads v" + std::to_string(kVersion) + ")");
    }
    const auto num_series = GetLe<std::uint64_t>(map_ + 8);
    const auto num_chunks = GetLe<std::uint64_t>(map_ + 16);
    const auto dir_offset = GetLe<std::uint64_t>(map_ + 24);
    fixed_length_ = GetLe<std::uint32_t>(map_ + 32);
    const auto header_crc = GetLe<std::uint32_t>(map_ + 36);
    if (Crc32(map_, kHeaderBytes - 4) != header_crc) {
      Fail(path_, "header CRC mismatch");
    }
    if (num_chunks > kMaxChunks) {
      Fail(path_, "corrupt chunk count " + std::to_string(num_chunks));
    }
    // Every series costs at least one value plus its label entry, so a
    // declared count beyond the file size is a count bomb, not data.
    if (num_series > map_bytes_) {
      Fail(path_, "corrupt series count " + std::to_string(num_series));
    }
    const std::uint64_t dir_bytes =
        num_chunks * kDirEntryBytes + sizeof(std::uint32_t);
    if (dir_offset < kHeaderBytes || dir_offset % 8 != 0 ||
        dir_offset > map_bytes_ || map_bytes_ - dir_offset < dir_bytes) {
      Fail(path_, "directory out of bounds");
    }

    // --- directory ---
    const unsigned char* dir = map_ + dir_offset;
    const auto dir_crc =
        GetLe<std::uint32_t>(dir + num_chunks * kDirEntryBytes);
    if (Crc32(dir, num_chunks * kDirEntryBytes) != dir_crc) {
      Fail(path_, "directory CRC mismatch");
    }
    if (num_series > 0 && num_chunks == 0) {
      Fail(path_, "series without chunks");
    }

    labels_.reserve(num_series);
    value_offsets_.reserve(num_series);
    if (fixed_length_ == 0) lengths_.reserve(num_series);
    chunks_.reserve(num_chunks);
    chunk_of_.reserve(num_chunks);

    std::uint64_t expected_first = 0;
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
      const unsigned char* e = dir + c * kDirEntryBytes;
      ChunkRef ref;
      ref.offset = GetLe<std::uint64_t>(e);
      ref.bytes = GetLe<std::uint64_t>(e + 8);
      ref.first_series = GetLe<std::uint64_t>(e + 16);
      ref.count = GetLe<std::uint32_t>(e + 24);
      const auto meta_crc = GetLe<std::uint32_t>(e + 28);
      ref.data_crc = GetLe<std::uint32_t>(e + 32);
      const std::string at = "chunk " + std::to_string(c);
      if (ref.count == 0 || ref.count > kMaxSeriesPerChunk) {
        Fail(path_, at + ": corrupt series count " +
                        std::to_string(ref.count));
      }
      if (ref.first_series != expected_first) {
        Fail(path_, at + ": directory series index mismatch");
      }
      if (ref.offset < kHeaderBytes || ref.offset % 8 != 0 ||
          ref.offset > dir_offset || dir_offset - ref.offset < ref.bytes) {
        Fail(path_, at + ": chunk bounds out of range");
      }

      // Metadata block: count/reserved, label table, length table
      // (variable-length files), zero pad. Verified by CRC here at open
      // — sampling reads labels without ever touching value pages, so
      // table corruption must not wait for a value access to surface.
      std::uint64_t meta_bytes =
          8 + std::uint64_t{ref.count} * 4 +
          (fixed_length_ == 0 ? std::uint64_t{ref.count} * 8 : 0);
      meta_bytes += (8 - meta_bytes % 8) % 8;
      if (ref.bytes < meta_bytes) Fail(path_, at + ": truncated tables");
      const unsigned char* chunk = map_ + ref.offset;
      if (Crc32(chunk, meta_bytes) != meta_crc) {
        Fail(path_, at + ": table CRC mismatch");
      }
      if (GetLe<std::uint32_t>(chunk) != ref.count) {
        Fail(path_, at + ": chunk/directory series count mismatch");
      }

      ref.values_offset = ref.offset + meta_bytes;
      const std::uint64_t value_capacity = (ref.bytes - meta_bytes) / 8;
      std::uint64_t value_cursor = 0;
      const unsigned char* label_table = chunk + 8;
      const unsigned char* length_table = label_table + ref.count * 4;
      for (std::uint32_t i = 0; i < ref.count; ++i) {
        const std::uint64_t len =
            fixed_length_ != 0 ? fixed_length_
                               : GetLe<std::uint64_t>(length_table + i * 8);
        if (len == 0 || len > value_capacity - value_cursor) {
          Fail(path_, at + ": series length " + std::to_string(len) +
                          " overruns the chunk");
        }
        labels_.push_back(GetLe<std::int32_t>(label_table + i * 4));
        value_offsets_.push_back(ref.values_offset + value_cursor * 8);
        if (fixed_length_ == 0) lengths_.push_back(len);
        value_cursor += len;
      }
      if (value_cursor * 8 != ref.bytes - meta_bytes) {
        Fail(path_, at + ": value payload size mismatch");
      }
      chunk_of_.push_back(ref.first_series);
      chunks_.push_back(ref);
      expected_first += ref.count;
    }
    if (expected_first != num_series) {
      Fail(path_, "directory covers " + std::to_string(expected_first) +
                      " series, header declares " +
                      std::to_string(num_series));
    }

    chunk_verified_ =
        std::make_unique<std::atomic<std::uint8_t>[]>(chunks_.size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      chunk_verified_[c].store(0, std::memory_order_relaxed);
    }
    if (options_.eager_verify) {
      for (std::size_t c = 0; c < chunks_.size(); ++c) VerifyChunkData(c);
    }
  } catch (...) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
    ::close(fd_);
    map_ = nullptr;
    fd_ = -1;
    throw;
  }
}

DatasetReader::~DatasetReader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::size_t DatasetReader::length(std::size_t i) const {
  return fixed_length_ != 0 ? fixed_length_ : lengths_[i];
}

void DatasetReader::VerifyChunkData(std::size_t chunk) const {
  if (!options_.verify_data_crc) return;
  if (chunk_verified_[chunk].load(std::memory_order_acquire) != 0) return;
  const ChunkRef& ref = chunks_[chunk];
  const std::uint64_t value_bytes = ref.bytes - (ref.values_offset - ref.offset);
  const std::uint32_t crc = Crc32(map_ + ref.values_offset, value_bytes);
  if (crc != ref.data_crc) {
    Fail(path_, "chunk " + std::to_string(chunk) + ": value CRC mismatch");
  }
  chunk_verified_[chunk].store(1, std::memory_order_release);
}

SeriesView DatasetReader::values(std::size_t i) const {
  const auto it =
      std::upper_bound(chunk_of_.begin(), chunk_of_.end(), i);
  const auto chunk = static_cast<std::size_t>(it - chunk_of_.begin()) - 1;
  VerifyChunkData(chunk);
  return SeriesView(
      reinterpret_cast<const double*>(map_ + value_offsets_[i]), length(i));
}

LabeledSeries DatasetReader::Get(std::size_t i) const {
  LabeledSeries out;
  out.label = labels_[i];
  const SeriesView view = values(i);
  out.values.assign(view.begin(), view.end());
  return out;
}

std::map<int, std::size_t> DatasetReader::ClassHistogram() const {
  std::map<int, std::size_t> hist;
  for (int label : labels_) ++hist[label];
  return hist;
}

Dataset DatasetReader::ReadAll() const {
  Dataset out;
  for (std::size_t i = 0; i < size(); ++i) out.Add(Get(i));
  return out;
}

Dataset DatasetReader::ReadSubset(
    std::span<const std::size_t> indices) const {
  Dataset out;
  for (std::size_t i : indices) out.Add(Get(i));
  return out;
}

// ---------------------------------------------------------------------------
// Convenience round trips
// ---------------------------------------------------------------------------

void WriteDatasetFile(const Dataset& data, const std::string& path,
                      const DatasetWriterOptions& options) {
  DatasetWriter writer(path, options);
  for (const auto& inst : data) writer.Append(inst);
  writer.Finish();
}

Dataset ReadDatasetFile(const std::string& path) {
  DatasetReader reader(path);
  return reader.ReadAll();
}

}  // namespace rpm::ts
