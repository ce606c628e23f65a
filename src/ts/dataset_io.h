// Chunked binary dataset format ("RPMD") for archive-scale training:
// millions of labeled series written once and streamed back through an
// mmap-backed reader without ever materializing a std::vector<Series>.
// The full on-disk layout, CRC policy, and reader lifetime rules are
// specified in docs/DATASETS.md; ucr_convert (examples/ucr_convert.cc)
// converts between this format and the UCR text format of ts/ucr_io.h.
//
// Layout summary (all integers little-endian, offsets 8-byte aligned):
//   header    "RPMD" magic, format version, series/chunk counts,
//             directory offset, optional fixed length, header CRC
//   chunks    per-chunk label table (+ length table unless fixed-length)
//             followed by the raw float64 values, zero-padded to 8 bytes
//   directory per-chunk {offset, bytes, first_series, count, meta CRC,
//             data CRC} entries plus a directory CRC
//
// Values are stored 8-byte aligned so DatasetReader::values() returns a
// zero-copy SeriesView straight into the mapping. Table/structure
// integrity (meta CRC) is verified at open; value integrity (data CRC)
// is verified lazily, once per chunk, on first value access.

#ifndef RPM_TS_DATASET_IO_H_
#define RPM_TS_DATASET_IO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ts/series.h"

namespace rpm::ts {

/// Error raised on malformed, truncated, or corrupt binary dataset files
/// (and on writer IO failures).
class DatasetFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`;
/// `seed` chains partial computations (pass a previous result to extend).
std::uint32_t Crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

struct DatasetWriterOptions {
  /// A chunk is flushed once it holds this many series...
  std::size_t chunk_series = 4096;
  /// ...or once its buffered value payload reaches this many bytes,
  /// whichever comes first. Both bound the writer's resident memory.
  std::size_t chunk_bytes = std::size_t{4} << 20;
  /// Nonzero pins every series to this length (Append throws on any
  /// other) and drops the per-chunk length tables from the file.
  std::size_t fixed_length = 0;
};

/// Streaming writer: Append series one at a time, Finish() seals the
/// file (writes the directory and patches the header). Only a Finished
/// file is readable; an abandoned writer leaves a file DatasetReader
/// rejects. Not thread-safe; one writer per file.
class DatasetWriter {
 public:
  explicit DatasetWriter(const std::string& path,
                         DatasetWriterOptions options = {});
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  /// Appends one labeled series. Throws DatasetFormatError on IO error,
  /// an empty series, a fixed-length mismatch, or after Finish().
  void Append(int label, SeriesView values);
  void Append(const LabeledSeries& instance);

  /// Flushes the tail chunk, writes the directory, and patches the
  /// header so the file becomes readable. Idempotent.
  void Finish();

  std::size_t series_written() const { return series_written_; }
  std::size_t chunks_written() const { return chunks_written_; }
  bool finished() const { return finished_; }

 private:
  struct DirEntry {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    std::uint64_t first_series = 0;
    std::uint32_t count = 0;
    std::uint32_t meta_crc = 0;
    std::uint32_t data_crc = 0;
    std::uint32_t reserved = 0;
  };

  void FlushChunk();

  DatasetWriterOptions options_;
  std::string path_;
  std::ofstream out_;
  std::vector<std::int32_t> labels_;
  std::vector<std::uint64_t> lengths_;
  std::vector<double> values_;
  std::vector<DirEntry> directory_;
  std::size_t series_written_ = 0;
  std::size_t chunks_written_ = 0;
  bool finished_ = false;
};

struct DatasetReaderOptions {
  /// Verify every chunk's value (data) CRC eagerly at open instead of
  /// lazily on first access. Structural metadata (header, directory,
  /// label/length tables) is always verified at open.
  bool eager_verify = false;
  /// Disable the lazy per-chunk data-CRC check entirely (the scaling
  /// bench's repeat runs use this; corruption then goes undetected).
  bool verify_data_crc = true;
};

/// mmap-backed reader over a Finished RPMD file. Label and length
/// columns are decoded at open (they drive sampling without touching
/// value pages); values(i) returns a zero-copy SeriesView into the
/// mapping. Views are valid only while the reader is alive — see
/// docs/DATASETS.md for the lifetime rules. All accessors are const and
/// safe to call from multiple threads concurrently.
class DatasetReader {
 public:
  explicit DatasetReader(const std::string& path,
                         DatasetReaderOptions options = {});
  ~DatasetReader();

  DatasetReader(const DatasetReader&) = delete;
  DatasetReader& operator=(const DatasetReader&) = delete;

  /// Number of series in the file.
  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_chunks() const { return chunks_.size(); }

  /// Nonzero when the file was written fixed-length.
  std::size_t fixed_length() const { return fixed_length_; }

  /// Total bytes of the underlying file (mapping size).
  std::size_t file_bytes() const { return map_bytes_; }

  int label(std::size_t i) const { return labels_[i]; }
  std::size_t length(std::size_t i) const;

  /// Zero-copy view of series i's values. The first access to a chunk
  /// verifies its data CRC (unless disabled) and throws
  /// DatasetFormatError on mismatch.
  SeriesView values(std::size_t i) const;

  /// Copying convenience accessor.
  LabeledSeries Get(std::size_t i) const;

  /// The whole label column, in series order (what the sampling layer
  /// scans; reading it touches no value pages).
  const std::vector<int>& labels() const { return labels_; }

  /// Label -> count histogram over the label column.
  std::map<int, std::size_t> ClassHistogram() const;

  /// Materializes the entire file as an in-memory Dataset.
  Dataset ReadAll() const;

  /// Materializes the given series indices, in the given order.
  Dataset ReadSubset(std::span<const std::size_t> indices) const;

 private:
  void VerifyChunkData(std::size_t chunk) const;

  struct ChunkRef {
    std::uint64_t offset = 0;       ///< file offset of the chunk start
    std::uint64_t bytes = 0;        ///< total chunk bytes incl. padding
    std::uint64_t values_offset = 0;///< file offset of the f64 payload
    std::uint64_t first_series = 0;
    std::uint32_t count = 0;
    std::uint32_t data_crc = 0;
  };

  DatasetReaderOptions options_;
  std::string path_;
  const unsigned char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  int fd_ = -1;
  std::size_t fixed_length_ = 0;
  std::vector<int> labels_;
  std::vector<std::uint64_t> value_offsets_;  ///< per-series file offset
  std::vector<std::uint64_t> lengths_;        ///< empty when fixed-length
  std::vector<std::uint64_t> chunk_of_;       ///< first series per chunk
  std::vector<ChunkRef> chunks_;
  /// 0 = unverified, 1 = verified OK; stored with release after the
  /// CRC passes and read with acquire (double verification is benign:
  /// both computations agree).
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> chunk_verified_;
};

/// Writes `data` to `path` in RPMD format. Throws DatasetFormatError on
/// IO failure.
void WriteDatasetFile(const Dataset& data, const std::string& path,
                      const DatasetWriterOptions& options = {});

/// Reads an entire RPMD file into memory (opens, verifies, copies).
Dataset ReadDatasetFile(const std::string& path);

}  // namespace rpm::ts

#endif  // RPM_TS_DATASET_IO_H_
