#include "core/training_cache.h"

namespace rpm::core {
namespace {

// FNV-1a over the raw series bytes. Doubles are compared by value
// elsewhere in the pipeline, so fingerprinting their representations is
// exactly as discriminating; the length and endpoints are folded in to
// keep accidental collisions out of reach.
std::uint64_t Fingerprint(ts::SeriesView series) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const std::uint64_t len = series.size();
  mix(&len, sizeof(len));
  if (!series.empty()) {
    mix(series.data(), series.size() * sizeof(double));
    mix(&series.front(), sizeof(double));
    mix(&series.back(), sizeof(double));
  }
  return h;
}

}  // namespace

std::size_t TrainingCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.series;
  h ^= (std::uint64_t{k.window} << 32) | k.paa;
  h *= 0x9e3779b97f4a7c15ull;
  h ^= (k.paa_rows ? 2u : 0u) | (k.znormalize ? 1u : 0u);
  h *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

TrainingCache::TrainingCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::shared_ptr<const void> TrainingCache::Find(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.value;
}

void TrainingCache::Insert(const Key& key, std::shared_ptr<const void> value,
                           std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) > 0) return;  // Lost a compute race.
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), bytes, lru_.begin()});
  bytes_ += bytes;
  while (bytes_ > max_bytes_ && entries_.size() > 1) {
    // Never evict what was just inserted: the caller still needs it, and
    // an over-budget singleton would otherwise thrash forever.
    const Key victim = lru_.back();
    if (victim == key) break;
    auto vit = entries_.find(victim);
    bytes_ -= vit->second.bytes;
    entries_.erase(vit);
    lru_.pop_back();
    ++evictions_;
  }
}

std::vector<sax::SaxRecord> TrainingCache::Discretize(
    ts::SeriesView series, const sax::SaxOptions& options) {
  const std::uint64_t fp = Fingerprint(series);
  const auto window = static_cast<std::uint32_t>(options.window);
  const Key paa_key{fp, window, static_cast<std::uint32_t>(options.paa_size),
                    true, options.znormalize};
  auto paa_rows =
      std::static_pointer_cast<const sax::PaaMatrix>(Find(paa_key));
  if (paa_rows == nullptr) {
    const Key windows_key{fp, window, 0, false, options.znormalize};
    auto windows =
        std::static_pointer_cast<const sax::WindowMatrix>(Find(windows_key));
    if (windows == nullptr) {
      windows = std::make_shared<const sax::WindowMatrix>(
          sax::SlidingWindows(series, options.window, options.znormalize));
      Insert(windows_key, windows,
             windows->data.capacity() * sizeof(double));
    }
    paa_rows = std::make_shared<const sax::PaaMatrix>(
        sax::PaaRows(*windows, options.paa_size));
    Insert(paa_key, paa_rows, paa_rows->data.capacity() * sizeof(double));
  }
  return sax::RecordsFromPaa(*paa_rows, options.alphabet,
                             options.numerosity_reduction);
}

TrainingCache::Stats TrainingCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, evictions_, bytes_, entries_.size()};
}

}  // namespace rpm::core
