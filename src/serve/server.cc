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

double MicrosSince(InferenceServer::Clock::time_point t0,
                   InferenceServer::Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

// One lock domain: a session manager that only this shard's traffic
// touches, plus the shard-labeled metric cells.
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
        "CLASSIFY requests run on this shard", labels);
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

ClassifyResult InferenceServer::RunClassify(const std::string& model,
                                            ts::SeriesView values,
                                            Clock::time_point received,
                                            std::chrono::microseconds timeout,
                                            std::size_t shard) {
  shards_[shard % shards_.size()]->requests->Increment();
  const ModelHandle handle = registry_.Get(model);
  if (handle == nullptr) {
    stats_.RecordNotFound();
    return {StatusCode::kNotFound, 0, 0.0};
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    stats_.RecordRejectedShutdown();
    return {StatusCode::kShutdown, 0, 0.0};
  }
  stats_.RecordAdmitted();
  // The deadline is checked once, before scoring: a request that waited
  // out its timeout behind earlier ones is answered without the engine.
  const Clock::time_point start = Clock::now();
  if (start - received >= timeout) {
    const double latency = MicrosSince(received, start);
    stats_.RecordTimeout(latency);
    return {StatusCode::kTimeout, 0, latency};
  }
  const int label = handle->engine.Classify(values);
  const Clock::time_point done = Clock::now();
  // Span over the scoring, reusing the timestamps taken for the latency
  // (no extra clock reads; sampled inside). "serve.batch" is a batch of
  // one: dashboards and the benchmark read spans by that name.
  obs::Tracer::Default().MaybeRecord("serve.batch", start, done);
  const double latency = MicrosSince(received, done);
  stats_.RecordOk(latency);
  return {StatusCode::kOk, label, latency};
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::SeriesView values,
                                         std::chrono::microseconds timeout) {
  return RunClassify(model, values, Clock::now(), timeout, 0);
}

ClassifyResult InferenceServer::Classify(const std::string& model,
                                         ts::SeriesView values) {
  return Classify(model, values, options_.default_timeout);
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
  shutdown_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->streams->Shutdown();
}

std::string InferenceServer::MetricsText() const {
  // One snapshot per registry; the server registry also backs STATS, so
  // both views of a drained server render identical counts.
  const obs::RegistrySnapshot server_snap = stats_.registry().Snapshot();
  const obs::RegistrySnapshot process_snap = obs::DefaultRegistry().Snapshot();
  return obs::RenderPrometheus({&server_snap, &process_snap});
}

std::string InferenceServer::HandleLine(const std::string& line) {
  const Clock::time_point received = Clock::now();
  Request request;
  const std::string error = ParseLine(line, &request);
  if (!error.empty()) {
    return FormatLine(Failure(request.verb, StatusCode::kBadRequest, error));
  }
  return FormatLine(Dispatch(request, 0, received));
}

Reply InferenceServer::Dispatch(const Request& request, std::size_t shard,
                                Clock::time_point received) {
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
      const std::chrono::microseconds timeout =
          request.timeout.count() == 0 ? options_.default_timeout
                                       : request.timeout;
      const ClassifyResult result =
          RunClassify(request.name, request.values, received, timeout, shard);
      reply.status = result.status;
      reply.label = result.label;
      if (result.status == StatusCode::kNotFound) {
        reply.error = NoModel(request.name);
      }
      break;
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
  return reply;
}

}  // namespace rpm::serve
