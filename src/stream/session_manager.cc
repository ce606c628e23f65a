#include "stream/session_manager.h"

#include <algorithm>
#include <utility>

namespace rpm::stream {

StreamSessionManager::StreamSessionManager(StreamManagerOptions options,
                                           StreamStatsSink* sink)
    : options_([&] {
        StreamManagerOptions o = options;
        if (o.id_start == 0) o.id_start = 1;
        if (o.id_stride == 0) o.id_stride = 1;
        return o;
      }()),
      sink_(sink),
      next_id_(options_.id_start) {
  if (options_.reap_interval > std::chrono::nanoseconds::zero() &&
      options_.idle_timeout > std::chrono::nanoseconds::zero()) {
    reaper_ = std::thread([this] { ReaperLoop(); });
  }
}

StreamSessionManager::~StreamSessionManager() { Shutdown(); }

std::int64_t StreamSessionManager::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StreamSummary StreamSessionManager::Summarize(const StreamScorer& scorer) {
  StreamSummary s;
  s.samples = scorer.samples();
  s.windows_scored = scorer.windows_scored();
  s.decisions = scorer.decisions();
  s.early_decisions = scorer.early_decisions();
  return s;
}

StreamSessionManager::OpenResult StreamSessionManager::Open(
    StreamModel model, StreamOptions options) {
  OpenResult result;
  if (model.engine == nullptr) {
    result.error = "no engine";
    return result;
  }
  const std::string error = ValidateStreamOptions(&options);
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  auto session = std::make_shared<Session>(std::move(model), options);
  session->last_activity_ns.store(NowNs(), std::memory_order_relaxed);
  {
    std::unique_lock lock(map_mu_);
    if (shutdown_) {
      result.status = OpenStatus::kShutdown;
      result.error = "shutting down";
      return result;
    }
    if (sessions_.size() >= options_.max_sessions) {
      result.status = OpenStatus::kOverloaded;
      result.error = "too many open streams";
      return result;
    }
    std::string id(1, 's');
    id.append(std::to_string(next_id_));
    result.id = std::move(id);
    next_id_ += options_.id_stride;
    sessions_.emplace(result.id, std::move(session));
  }
  result.ok = true;
  result.status = OpenStatus::kOk;
  if (sink_ != nullptr) sink_->OnOpen();
  return result;
}

StreamSessionManager::FeedResult StreamSessionManager::Feed(
    const std::string& id, ts::SeriesView values) {
  FeedResult result;
  std::shared_ptr<Session> session;
  {
    std::shared_lock lock(map_mu_);
    if (shutdown_) {
      result.status = FeedStatus::kShutdown;
      return result;
    }
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      result.status = FeedStatus::kNotFound;
      return result;
    }
    session = it->second;
  }
  {
    std::lock_guard lock(session->mu);
    result.accepted = session->scorer.Feed(values, &result.decisions);
  }
  session->last_activity_ns.store(NowNs(), std::memory_order_relaxed);
  if (sink_ != nullptr) {
    sink_->OnFeed(result.accepted, result.accepted < values.size());
    for (const StreamDecision& d : result.decisions) {
      sink_->OnDecision(d.score_us, d.early);
    }
  }
  return result;
}

StreamSessionManager::CloseResult StreamSessionManager::Close(
    const std::string& id) {
  CloseResult result;
  std::shared_ptr<Session> session;
  {
    std::unique_lock lock(map_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return result;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  {
    std::lock_guard lock(session->mu);
    result.summary = Summarize(session->scorer);
  }
  result.found = true;
  if (sink_ != nullptr) sink_->OnClose();
  return result;
}

std::vector<std::string> StreamSessionManager::Ids() const {
  std::vector<std::string> ids;
  {
    std::shared_lock lock(map_mu_);
    ids.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [](const std::string& a,
                                       const std::string& b) {
    // "s<N>" ids: numeric order, not lexicographic ("s9" < "s10").
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return ids;
}

std::size_t StreamSessionManager::size() const {
  std::shared_lock lock(map_mu_);
  return sessions_.size();
}

std::size_t StreamSessionManager::EvictIdle(
    std::chrono::nanoseconds idle_for) {
  const std::int64_t cutoff = NowNs() - idle_for.count();
  std::vector<std::shared_ptr<Session>> evicted;
  {
    std::unique_lock lock(map_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->last_activity_ns.load(std::memory_order_relaxed) <=
          cutoff) {
        evicted.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Destroy scorer state outside the map lock (rings can be large).
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < evicted.size(); ++i) sink_->OnEvict();
  }
  return evicted.size();
}

void StreamSessionManager::ReaperLoop() {
  std::unique_lock lock(reaper_mu_);
  while (!reaper_stop_) {
    reaper_cv_.wait_for(lock, options_.reap_interval,
                        [this] { return reaper_stop_; });
    if (reaper_stop_) break;
    lock.unlock();
    EvictIdle(options_.idle_timeout);
    lock.lock();
  }
}

void StreamSessionManager::Shutdown() {
  {
    std::lock_guard lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();

  std::vector<std::shared_ptr<Session>> doomed;
  {
    std::unique_lock lock(map_mu_);
    shutdown_ = true;
    doomed.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) doomed.push_back(std::move(session));
    sessions_.clear();
  }
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < doomed.size(); ++i) sink_->OnClose();
  }
}

}  // namespace rpm::stream
