// Cross-combo discretization cache for parameter selection (Section 4).
// DIRECT / grid search probe hundreds of SAX triples against the same
// per-split concatenated class series; without memoization every probe
// repays the full sliding-window discretization. The cache keeps the two
// stages of sax::DiscretizeSlidingWindow that combos share:
//
//   z-normalized window matrix   keyed (series, window)       —
//       shared by every (paa_size, alphabet) pair at that window
//   PAA row matrix               keyed (series, window, paa)  —
//       shared by every alphabet at that (window, paa)
//
// Records are rebuilt from the cached PAA rows on every call: a search
// almost never probes the same triple twice (the evaluator memoizes
// combos), so a records layer would hold memory that is not reused.
//
// Series are identified by content (length + FNV-1a over the raw bytes
// + boundary values), so callers need no bookkeeping and identical
// class series across calls share entries automatically. One mutex
// guards one map and its LRU list; stages are computed outside the lock,
// and entries are handed out as shared_ptr so eviction never invalidates
// a borrower.
//
// Every lookup reproduces sax::DiscretizeSlidingWindow bit for bit
// (asserted by training_cache_test).

#ifndef RPM_CORE_TRAINING_CACHE_H_
#define RPM_CORE_TRAINING_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sax/sax.h"
#include "ts/series.h"

namespace rpm::core {

class TrainingCache {
 public:
  /// `max_bytes` bounds the resident matrices; least-recently-used
  /// entries are dropped once it is exceeded. Parameter selection uses
  /// the default; tests pass a small budget to force eviction.
  explicit TrainingCache(std::size_t max_bytes = std::size_t{256} << 20);

  TrainingCache(const TrainingCache&) = delete;
  TrainingCache& operator=(const TrainingCache&) = delete;

  /// Same records as sax::DiscretizeSlidingWindow, built from the cached
  /// window and PAA matrices. Safe to call from several threads.
  std::vector<sax::SaxRecord> Discretize(ts::SeriesView series,
                                         const sax::SaxOptions& options);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Key {
    std::uint64_t series = 0;  ///< content fingerprint of the series
    std::uint32_t window = 0;
    std::uint32_t paa = 0;  ///< 0 for the window matrix
    bool paa_rows = false;  ///< PAA rows, else the window matrix
    bool znormalize = false;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru;
  };

  std::shared_ptr<const void> Find(const Key& key);
  void Insert(const Key& key, std::shared_ptr<const void> value,
              std::size_t bytes);

  const std::size_t max_bytes_;
  mutable std::mutex mu_;  ///< guards every member below
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  ///< front = most recent
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace rpm::core

#endif  // RPM_CORE_TRAINING_CACHE_H_
