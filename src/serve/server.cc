#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/exposition.h"
#include "obs/trace.h"

namespace rpm::serve {

using net::BinaryVerb;

namespace {

std::string NoModel(const std::string& name) {
  return "no model named '" + name + "'";
}

std::string NoStream(const std::string& id) {
  return "no stream named '" + id + "'";
}

}  // namespace

// One lock domain: a batching queue and a session manager that only
// this shard's traffic touches, plus the shard-labeled metric cells.
struct InferenceServer::Shard {
  /// Forwards stream events to the global ServerStats facade and the
  /// shard-labeled cells in the same registry, so STATS aggregates and
  /// METRICS still breaks the numbers down per shard.
  class Sink : public stream::StreamStatsSink {
   public:
    ServerStats* stats = nullptr;
    obs::Gauge* sessions = nullptr;
    obs::Counter* feeds = nullptr;
    obs::Counter* samples = nullptr;
    obs::Counter* decisions = nullptr;

    void OnOpen() override {
      stats->RecordStreamOpen();
      sessions->Add(1);
    }
    void OnClose() override {
      stats->RecordStreamClose();
      sessions->Add(-1);
    }
    void OnEvict() override {
      stats->RecordStreamEvict();
      sessions->Add(-1);
    }
    void OnFeed(std::size_t accepted, bool truncated) override {
      stats->RecordStreamFeed(accepted, truncated);
      feeds->Increment();
      samples->Increment(accepted);
    }
    void OnDecision(double score_us, bool early) override {
      stats->RecordStreamDecision(score_us, early);
      decisions->Increment();
    }
  };

  Sink sink;
  obs::Counter* requests = nullptr;
  std::unique_ptr<BatchingQueue> queue;
  std::unique_ptr<stream::StreamSessionManager> streams;
};

InferenceServer::InferenceServer(ServerOptions options)
    : options_(std::move(options)) {
  const std::size_t num_shards =
      options_.num_shards == 0 ? 1 : options_.num_shards;
  options_.num_shards = num_shards;
  obs::MetricRegistry& reg = stats_.registry();
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const obs::Labels labels{{"shard", std::to_string(i)}};
    shard->sink.stats = &stats_;
    shard->sink.sessions = reg.GetGauge(
        "rpm_stream_shard_sessions",
        "Open stream sessions homed on this shard", labels);
    shard->sink.feeds = reg.GetCounter(
        "rpm_stream_shard_feeds_total",
        "STREAM_FEED calls handled by this shard", labels);
    shard->sink.samples = reg.GetCounter(
        "rpm_stream_shard_samples_total",
        "Samples accepted into this shard's sessions", labels);
    shard->sink.decisions = reg.GetCounter(
        "rpm_stream_shard_decisions_total",
        "Window decisions emitted by this shard's sessions", labels);
    shard->requests = reg.GetCounter(
        "rpm_serve_shard_requests_total",
        "CLASSIFY requests submitted through this shard", labels);
    shard->queue = std::make_unique<BatchingQueue>(options_.batching, &stats_);
    stream::StreamManagerOptions stream_opts = options_.streaming;
    stream_opts.id_start = i + 1;
    stream_opts.id_stride = num_shards;
    shard->streams = std::make_unique<stream::StreamSessionManager>(
        stream_opts, &shard->sink);
    shards_.push_back(std::move(shard));
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

std::size_t InferenceServer::LoadModel(const std::string& name,
                                       const std::string& path) {
  return registry_.Load(name, path);
}

void InferenceServer::AddModel(const std::string& name,
                               core::RpmClassifier clf) {
  registry_.Put(name, std::move(clf));
}

bool InferenceServer::UnloadModel(const std::string& name) {
  return registry_.Unload(name);
}

void InferenceServer::ClassifyWithCallback(const std::string& model,
                                           ts::Series values,
                                           std::chrono::microseconds timeout,
                                           std::size_t shard,
                                           BatchingQueue::Callback done) {
  Shard& s = *shards_[shard % shards_.size()];
  s.requests->Increment();
  ModelHandle handle = registry_.Get(model);
  if (handle == nullptr) {
    stats_.RecordNotFound();
    done({StatusCode::kNotFound, 0, 0.0});
    return;
  }
  s.queue->SubmitWithCallback(std::move(handle), std::move(values),
                              BatchingQueue::Clock::now() + timeout,
                              std::move(done));
}

std::future<ClassifyResult> InferenceServer::ClassifyAsync(
    const std::string& model, ts::Series values,
    std::chrono::microseconds timeout, std::size_t shard) {
  auto promise = std::make_shared<std::promise<ClassifyResult>>();
  std::future<ClassifyResult> future = promise->get_future();
  ClassifyWithCallback(model, std::move(values), timeout, shard,
                       [promise](ClassifyResult result) {
                         promise->set_value(result);
                       });
  return future;
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::Series values,
                                         std::chrono::microseconds timeout) {
  return ClassifyAsync(model, std::move(values), timeout).get();
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::Series values) {
  return Classify(model, std::move(values), options_.default_timeout);
}

stream::StreamSessionManager::OpenResult InferenceServer::OpenStream(
    const std::string& model, stream::StreamOptions options,
    std::size_t shard) {
  ModelHandle handle = registry_.Get(model);
  if (handle == nullptr) {
    stats_.RecordNotFound();
    stream::StreamSessionManager::OpenResult result;
    result.status = stream::StreamSessionManager::OpenStatus::kNotFound;
    result.error = NoModel(model);
    return result;
  }
  stream::StreamModel pinned;
  pinned.engine = &handle->engine;
  pinned.owner = std::move(handle);
  return shards_[shard % shards_.size()]->streams->Open(std::move(pinned),
                                                        options);
}

std::size_t InferenceServer::ShardOfStreamId(std::string_view id) const {
  if (id.size() < 2 || id[0] != 's') return 0;
  std::uint64_t n = 0;
  for (const char c : id.substr(1)) {
    if (c < '0' || c > '9') return 0;
    n = n * 10 + std::uint64_t(c - '0');
  }
  if (n == 0) return 0;
  // Shard i mints ids i+1, i+1+S, i+1+2S, ... so the inverse is direct.
  return std::size_t((n - 1) % shards_.size());
}

stream::StreamSessionManager::FeedResult InferenceServer::FeedStream(
    const std::string& id, ts::SeriesView values) {
  return shards_[ShardOfStreamId(id)]->streams->Feed(id, values);
}

stream::StreamSessionManager::CloseResult InferenceServer::CloseStream(
    const std::string& id) {
  return shards_[ShardOfStreamId(id)]->streams->Close(id);
}

stream::StreamSessionManager& InferenceServer::streams(std::size_t shard) {
  return *shards_[shard % shards_.size()]->streams;
}

std::vector<std::string> InferenceServer::StreamIds() const {
  std::vector<std::string> ids;
  for (const auto& shard : shards_) {
    const std::vector<std::string> shard_ids = shard->streams->Ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end(),
            [](const std::string& a, const std::string& b) {
              // "s<N>" ids: numeric order, not lexicographic.
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return ids;
}

void InferenceServer::Shutdown() {
  // Sessions first (stops decisions flowing into stats mid-drain), then
  // queues; each shard's own pair, so nothing cross-shard is held.
  for (auto& shard : shards_) shard->streams->Shutdown();
  for (auto& shard : shards_) shard->queue->Shutdown();
}

std::string InferenceServer::MetricsText() const {
  // One snapshot per registry; the server registry also backs STATS, so
  // both views of a drained server render identical counts.
  const obs::RegistrySnapshot server_snap = stats_.registry().Snapshot();
  const obs::RegistrySnapshot process_snap = obs::DefaultRegistry().Snapshot();
  return obs::RenderPrometheus({&server_snap, &process_snap});
}

std::string InferenceServer::HandleLine(const std::string& line) {
  Request request;
  const std::string error = ParseLine(line, &request);
  if (!error.empty()) {
    return FormatLine(Failure(request.verb, StatusCode::kBadRequest, error));
  }
  // Shared, not on this stack: set_value can still be returning on the
  // dispatcher thread after get() has woken this one.
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  Dispatch(std::move(request), 0, [promise](const Reply& reply) {
    promise->set_value(FormatLine(reply));
  });
  return future.get();
}

void InferenceServer::Dispatch(Request request, std::size_t shard,
                               ReplyCallback done) {
  using OpenStatus = stream::StreamSessionManager::OpenStatus;
  using FeedStatus = stream::StreamSessionManager::FeedStatus;
  const BinaryVerb verb = request.verb;
  Reply reply;
  reply.verb = verb;
  switch (verb) {
    case BinaryVerb::kLoad:
      try {
        reply.count = LoadModel(request.name, request.path);
        reply.name = request.name;
      } catch (const std::exception& e) {
        reply = Failure(verb, StatusCode::kBadRequest, e.what());
      }
      break;
    case BinaryVerb::kUnload:
      if (!UnloadModel(request.name)) {
        reply = Failure(verb, StatusCode::kNotFound, NoModel(request.name));
      }
      reply.name = request.name;
      break;
    case BinaryVerb::kModels:
      reply.names = registry_.Names();
      break;
    case BinaryVerb::kClassify: {
      // The one asynchronous verb: the reply is produced when the
      // micro-batch dispatches, on the shard's dispatcher thread.
      const std::chrono::microseconds timeout =
          request.timeout.count() == 0 ? options_.default_timeout
                                       : request.timeout;
      ClassifyWithCallback(
          request.name, std::move(request.values), timeout, shard,
          [done = std::move(done), name = request.name](ClassifyResult result) {
            Reply reply;
            reply.verb = BinaryVerb::kClassify;
            reply.status = result.status;
            reply.label = result.label;
            if (result.status == StatusCode::kNotFound) {
              reply.error = NoModel(name);
            }
            done(reply);
          });
      return;
    }
    case BinaryVerb::kStats:
      reply.body = stats_.Snapshot().ToJson();
      break;
    case BinaryVerb::kMetrics:
      reply.body = MetricsText();
      break;
    case BinaryVerb::kTrace:
      reply.body = obs::RenderSpansJson(
          obs::Tracer::Default().Recent(request.trace_count));
      break;
    case BinaryVerb::kStreamOpen: {
      const auto result = OpenStream(request.name, request.stream, shard);
      if (result.ok) {
        reply.name = result.id;
        reply.window = request.stream.window;
        reply.hop = request.stream.hop;
        break;
      }
      const StatusCode status =
          result.status == OpenStatus::kNotFound     ? StatusCode::kNotFound
          : result.status == OpenStatus::kOverloaded ? StatusCode::kOverloaded
          : result.status == OpenStatus::kShutdown   ? StatusCode::kShutdown
                                                     : StatusCode::kBadRequest;
      reply = Failure(verb, status, result.error);
      break;
    }
    case BinaryVerb::kStreamFeed: {
      auto result = FeedStream(request.name, request.values);
      if (result.status == FeedStatus::kNotFound) {
        reply = Failure(verb, StatusCode::kNotFound, NoStream(request.name));
      } else if (result.status == FeedStatus::kShutdown) {
        reply = Failure(verb, StatusCode::kShutdown, "shutting down");
      } else {
        reply.count = result.accepted;
        reply.decisions = std::move(result.decisions);
      }
      break;
    }
    case BinaryVerb::kStreamClose: {
      const auto result = CloseStream(request.name);
      if (!result.found) {
        reply = Failure(verb, StatusCode::kNotFound, NoStream(request.name));
      }
      reply.name = request.name;
      reply.summary = result.summary;
      break;
    }
    case BinaryVerb::kStreams:
      reply.names = StreamIds();
      break;
    case BinaryVerb::kQuit:
      break;
  }
  done(reply);
}

}  // namespace rpm::serve
