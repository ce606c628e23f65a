// Tests for the network front end (src/net) and its serve-layer bridge:
// payload codec round trips, the frame assembler's adversarial surface
// (split/coalesced/oversized/corrupt/truncated frames), consistent-hash
// ring properties, the event loop's cross-thread post contract, the
// sharded server (id pinning, by-id routing, shard-local reaping,
// shutdown accounting), and socket end-to-end runs over both codecs —
// including codec negotiation, pipelined response ordering, deadlines
// of pipelined requests, half-close draining, and graceful stop.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/front_end.h"
#include "net/hash_ring.h"
#include "serve/net_handler.h"
#include "serve/server.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"

namespace rpm {
namespace {

using net::BinaryVerb;
using net::Frame;
using net::FrameAssembler;
using net::PayloadReader;
using net::PayloadWriter;
using net::WireStatus;

// One small trained model per test binary run (training dominates).
struct TrainedFixture {
  ts::DatasetSplit split;
  core::RpmClassifier classifier;
};

const TrainedFixture& Fixture() {
  static const TrainedFixture* fixture = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 32;
    options.fixed_sax.paa_size = 5;
    options.fixed_sax.alphabet = 4;
    auto* f = new TrainedFixture{ts::MakeCbf(10, 6, 128, 778),
                                 core::RpmClassifier(options)};
    f->classifier.Train(f->split.train);
    return f;
  }();
  return *fixture;
}

core::RpmClassifier TrainedCopy() {
  std::stringstream buffer;
  Fixture().classifier.Save(buffer);
  return core::RpmClassifier::Load(buffer);
}

std::vector<double> MakeFeed(std::size_t instances, std::uint64_t seed) {
  const ts::DatasetSplit split =
      ts::MakeCbf(1, (instances + 2) / 3, 128, seed);
  std::vector<double> feed;
  for (const auto& inst : split.test.instances()) {
    if (feed.size() >= instances * 128) break;
    feed.insert(feed.end(), inst.values.begin(), inst.values.end());
  }
  return feed;
}

// ---------------- Payload codec ----------------

TEST(PayloadCodec, RoundTripsEveryPrimitive) {
  std::string payload;
  PayloadWriter writer(&payload);
  writer.U8(0xAB);
  writer.U16(0xBEEF);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFULL);
  writer.I32(-42);
  writer.F64(-0.75);
  writer.Str("hello");
  const double values[] = {1.5, -2.25, 1e300};
  writer.F64Array(values, 3);

  PayloadReader reader(payload);
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  double f64 = 0.0;
  std::string str;
  std::vector<double> array;
  ASSERT_TRUE(reader.U8(&u8));
  ASSERT_TRUE(reader.U16(&u16));
  ASSERT_TRUE(reader.U32(&u32));
  ASSERT_TRUE(reader.U64(&u64));
  ASSERT_TRUE(reader.I32(&i32));
  ASSERT_TRUE(reader.F64(&f64));
  ASSERT_TRUE(reader.Str(&str));
  ASSERT_TRUE(reader.F64Array(&array));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(f64, -0.75);
  EXPECT_EQ(str, "hello");
  ASSERT_EQ(array.size(), 3u);
  EXPECT_EQ(array[0], 1.5);
  EXPECT_EQ(array[1], -2.25);
  EXPECT_EQ(array[2], 1e300);  // doubles survive bit-exactly
}

TEST(PayloadCodec, TruncatedReadsFailWithoutAdvancing) {
  // A declared string longer than the remaining bytes must not read
  // out of bounds or consume the partial length prefix.
  std::string payload;
  PayloadWriter writer(&payload);
  writer.U16(100);  // claims 100 bytes follow
  payload += "short";
  PayloadReader reader(payload);
  std::string str;
  EXPECT_FALSE(reader.Str(&str));
  // The reader did not advance: the u16 is still readable.
  std::uint16_t len = 0;
  EXPECT_TRUE(reader.U16(&len));
  EXPECT_EQ(len, 100);
}

TEST(PayloadCodec, F64ArrayRejectsCountLargerThanPayload) {
  std::string payload;
  PayloadWriter writer(&payload);
  writer.U32(1000000);  // claims 8 MB of doubles
  writer.F64(1.0);      // only one present
  PayloadReader reader(payload);
  std::vector<double> values;
  EXPECT_FALSE(reader.F64Array(&values));
  std::uint32_t count = 0;
  EXPECT_TRUE(reader.U32(&count));  // did not advance
  EXPECT_EQ(count, 1000000u);
}

TEST(PayloadCodec, BlobRoundTripsBeyondTheStrBound) {
  // `str` caps at 65535 bytes (and truncates); bulk bodies (METRICS,
  // STATS/TRACE JSON) ride as u32-length blobs and must round-trip
  // exactly at any size.
  const std::string big(100 * 1024, 'm');
  std::string payload;
  PayloadWriter writer(&payload);
  writer.Blob(big);
  PayloadReader reader(payload);
  std::string back;
  ASSERT_TRUE(reader.Blob(&back));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(back, big) << "blob must not truncate at 64 KiB";

  std::string empty_payload;
  PayloadWriter empty_writer(&empty_payload);
  empty_writer.Blob("");
  PayloadReader empty_reader(empty_payload);
  ASSERT_TRUE(empty_reader.Blob(&back));
  EXPECT_TRUE(back.empty());
}

TEST(PayloadCodec, TruncatedBlobFailsWithoutAdvancing) {
  std::string payload;
  PayloadWriter writer(&payload);
  writer.U32(1000);  // claims 1000 bytes follow
  payload += "short";
  PayloadReader reader(payload);
  std::string blob;
  EXPECT_FALSE(reader.Blob(&blob));
  std::uint32_t len = 0;
  EXPECT_TRUE(reader.U32(&len));  // did not advance
  EXPECT_EQ(len, 1000u);
}

TEST(PayloadCodec, EmptyPayloadReadsFail) {
  PayloadReader reader("");
  std::uint8_t u8 = 0;
  double f64 = 0.0;
  std::string str;
  EXPECT_FALSE(reader.U8(&u8));
  EXPECT_FALSE(reader.F64(&f64));
  EXPECT_FALSE(reader.Str(&str));
  EXPECT_TRUE(reader.AtEnd());
}

// ---------------- Frame assembler ----------------

std::string Req(BinaryVerb verb, const std::string& payload = "") {
  return net::EncodeFrame(verb, WireStatus::kOk, payload);
}

TEST(FrameAssemblerTest, SplitDeliveryByteByByte) {
  const std::string wire = Req(BinaryVerb::kClassify, "payload-bytes");
  FrameAssembler assembler;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    assembler.Append(std::string_view(&wire[i], 1));
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone)
        << "frame emitted before its last byte (offset " << i << ")";
  }
  assembler.Append(std::string_view(&wire[wire.size() - 1], 1));
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kClassify));
  EXPECT_EQ(frame.status, 0);
  EXPECT_EQ(frame.payload, "payload-bytes");
}

TEST(FrameAssemblerTest, CoalescedFramesAllEmergeInOrder) {
  std::string wire = Req(BinaryVerb::kStats) +
                     Req(BinaryVerb::kModels, "x") +
                     Req(BinaryVerb::kQuit, "zz");
  FrameAssembler assembler;
  assembler.Append(wire);
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kStats));
  EXPECT_TRUE(frame.payload.empty());  // zero-length payloads are legal
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kModels));
  EXPECT_EQ(frame.payload, "x");
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kQuit));
  EXPECT_EQ(frame.payload, "zz");
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone);
}

TEST(FrameAssemblerTest, OversizedFrameSkippedOnceThenRecovers) {
  FrameAssembler assembler(16);  // tiny payload bound
  const std::string big = Req(BinaryVerb::kClassify, std::string(100, 'x'));
  // Stream the oversized frame in two chunks, then a good frame.
  assembler.Append(std::string_view(big).substr(0, 30));
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone);
  assembler.Append(std::string_view(big).substr(30));
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kOversized);
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone);
  assembler.Append(Req(BinaryVerb::kStats, "ok"));
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.payload, "ok");
}

TEST(FrameAssemblerTest, NonzeroReservedIsCorrupt_Sticky) {
  std::string wire = Req(BinaryVerb::kStats);
  wire[6] = 0x01;  // reserved bytes must be zero
  FrameAssembler assembler;
  assembler.Append(wire);
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kCorrupt);
  // Sticky: even well-formed frames after corruption are not parsed
  // (the stream cannot be trusted to be in sync).
  assembler.Append(Req(BinaryVerb::kModels));
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone);
}

TEST(FrameAssemblerTest, TruncationMidFrameEmitsNothing) {
  const std::string wire = Req(BinaryVerb::kClassify, "abcdef");
  FrameAssembler assembler;
  assembler.Append(std::string_view(wire).substr(0, 5));  // partial header
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kNone);
  FrameAssembler assembler2;
  assembler2.Append(std::string_view(wire).substr(0, 11));  // mid-payload
  EXPECT_EQ(assembler2.Next(&frame), FrameAssembler::FrameStatus::kNone);
}

TEST(FrameAssemblerTest, ExactMaxPayloadBoundary) {
  // A payload of exactly max_payload is legal; one byte more is the
  // oversized path. Both sides of the boundary, same assembler.
  FrameAssembler assembler(32);
  assembler.Append(Req(BinaryVerb::kClassify, std::string(32, 'a')));
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.payload.size(), 32u);
  assembler.Append(Req(BinaryVerb::kClassify, std::string(33, 'b')));
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kOversized);
  // Recovery: the very next frame parses.
  assembler.Append(Req(BinaryVerb::kStats, "ok"));
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::FrameStatus::kFrame);
  EXPECT_EQ(frame.payload, "ok");
}

TEST(LineAssemblerTest, ExactMaxLineBoundary) {
  net::LineAssembler assembler(8);
  assembler.Append(std::string(8, 'x') + "\n");
  std::string line;
  ASSERT_EQ(assembler.NextLine(&line), net::LineAssembler::LineStatus::kLine);
  EXPECT_EQ(line.size(), 8u);
  // One byte over: surfaced as oversized exactly once, then the stream
  // resynchronizes on the next newline.
  assembler.Append(std::string(9, 'y') + "\nok\n");
  ASSERT_EQ(assembler.NextLine(&line),
            net::LineAssembler::LineStatus::kOversized);
  ASSERT_EQ(assembler.NextLine(&line), net::LineAssembler::LineStatus::kLine);
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(assembler.NextLine(&line), net::LineAssembler::LineStatus::kNone);
}

TEST(LineAssemblerTest, OversizedLineSplitAcrossAppendsSurfacesOnce) {
  // The discard happens as the bytes stream in; the kOversized marker
  // must appear exactly once, at the point the line would have ended.
  net::LineAssembler assembler(4);
  assembler.Append("abc");
  assembler.Append("defgh");  // crosses the bound mid-append
  std::string line;
  EXPECT_EQ(assembler.NextLine(&line), net::LineAssembler::LineStatus::kNone);
  assembler.Append("ij\nz\n");
  ASSERT_EQ(assembler.NextLine(&line),
            net::LineAssembler::LineStatus::kOversized);
  ASSERT_EQ(assembler.NextLine(&line), net::LineAssembler::LineStatus::kLine);
  EXPECT_EQ(line, "z");
}

// ---------------- Consistent hash ring ----------------

TEST(HashRing, DeterministicAndCoversAllShards) {
  const net::ConsistentHashRing ring(4);
  EXPECT_EQ(ring.num_points(), 4 * net::ConsistentHashRing::kVirtualNodes);
  std::set<std::size_t> hit;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "conn-" + std::to_string(i);
    const std::size_t shard = ring.Pick(key);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(ring.Pick(key), shard);  // stable
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);  // every shard receives traffic
}

TEST(HashRing, ResizeRemapsOnlyAFractionOfKeys) {
  const net::ConsistentHashRing four(4);
  const net::ConsistentHashRing five(5);
  int moved = 0;
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "conn-" + std::to_string(i);
    if (four.Pick(key) != five.Pick(key)) ++moved;
  }
  // Consistent hashing: ~1/5 of keys move when going 4 -> 5 shards.
  // Plain modulo would move ~80%. Allow generous slack for vnode
  // placement variance.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys * 45 / 100);
}

// ---------------- Event loop ----------------

TEST(EventLoopTest, PostsRunOnLoopThreadAndStopDrains) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<int> ran{0};
  std::atomic<bool> on_loop_thread{false};
  std::thread runner([&] { loop.Run(); });
  loop.Post([&] {
    on_loop_thread = loop.InLoopThread();
    ran.fetch_add(1);
  });
  for (int i = 0; i < 500 && ran.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(on_loop_thread.load());
  // Posts enqueued before Stop still run (the shutdown path's contract).
  loop.Post([&] { ran.fetch_add(1); });
  loop.Stop();
  runner.join();
  EXPECT_EQ(ran.load(), 2);
}

// ---------------- Sharded server ----------------

serve::ServerOptions ShardedOptions(std::size_t shards) {
  serve::ServerOptions options;
  options.num_shards = shards;
  options.streaming.reap_interval = std::chrono::nanoseconds::zero();
  return options;
}

TEST(ShardedServer, SessionIdsUniqueAndEncodeHomeShard) {
  serve::InferenceServer server(ShardedOptions(4));
  server.AddModel("cbf", TrainedCopy());
  stream::StreamOptions opts;
  opts.window = 64;
  opts.hop = 64;
  std::set<std::string> ids;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (int k = 0; k < 3; ++k) {
      const auto open = server.OpenStream("cbf", opts, shard);
      ASSERT_TRUE(open.ok) << open.error;
      EXPECT_TRUE(ids.insert(open.id).second)
          << "duplicate id " << open.id << " across shards";
      EXPECT_EQ(server.ShardOfStreamId(open.id), shard)
          << open.id << " does not route home";
      EXPECT_EQ(server.streams(shard).size(), std::size_t(k + 1));
    }
  }
  EXPECT_EQ(server.StreamIds().size(), 12u);
  // Unparseable ids route to shard 0 and miss there.
  EXPECT_EQ(server.ShardOfStreamId("bogus"), 0u);
  EXPECT_EQ(server.FeedStream("bogus", ts::SeriesView{}).status,
            stream::StreamSessionManager::FeedStatus::kNotFound);
}

TEST(ShardedServer, FeedsRouteByIdWithBitIdenticalDecisions) {
  serve::InferenceServer server(ShardedOptions(4));
  server.AddModel("cbf", TrainedCopy());
  const std::vector<double> feed = MakeFeed(6, 9001);
  stream::StreamOptions opts;
  opts.window = 96;
  opts.hop = 17;

  // Reference: the one-shot replay of the same feed and geometry.
  const core::ClassificationEngine engine(Fixture().classifier);
  stream::StreamOptions replay_opts = opts;
  const auto reference = stream::ReplayWindows(
      engine, ts::SeriesView(feed.data(), feed.size()), replay_opts);
  ASSERT_FALSE(reference.empty());

  for (std::size_t shard = 0; shard < 4; ++shard) {
    const auto open = server.OpenStream("cbf", opts, shard);
    ASSERT_TRUE(open.ok) << open.error;
    const auto result = server.FeedStream(
        open.id, ts::SeriesView(feed.data(), feed.size()));
    ASSERT_EQ(result.status,
              stream::StreamSessionManager::FeedStatus::kOk);
    ASSERT_EQ(result.decisions.size(), reference.size())
        << "shard " << shard;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(result.decisions[k].window_index,
                reference[k].window_index);
      EXPECT_EQ(result.decisions[k].start, reference[k].start);
      EXPECT_EQ(result.decisions[k].label, reference[k].label);
      EXPECT_EQ(result.decisions[k].margin, reference[k].margin)
          << "shard " << shard << " window " << k
          << ": decisions must be bit-identical across shards";
    }
  }
}

TEST(ShardedServer, ReapingIsShardLocalAndPinnedSessionsSurviveReload) {
  serve::InferenceServer server(ShardedOptions(2));
  server.AddModel("cbf", TrainedCopy());
  stream::StreamOptions opts;
  opts.window = 64;
  opts.hop = 64;
  const auto keeper = server.OpenStream("cbf", opts, 0);
  const auto victim = server.OpenStream("cbf", opts, 1);
  ASSERT_TRUE(keeper.ok);
  ASSERT_TRUE(victim.ok);

  // Hot-reload the model: the open sessions pinned the old version.
  server.AddModel("cbf", TrainedCopy());

  // Reap shard 1 only (idle_for=0 evicts everything it owns).
  EXPECT_EQ(server.streams(1).EvictIdle(std::chrono::nanoseconds::zero()),
            1u);
  EXPECT_EQ(server.streams(1).size(), 0u);
  EXPECT_EQ(server.streams(0).size(), 1u)
      << "reaping shard 1 must not touch shard 0's sessions";

  // The surviving pinned session still scores against its old version.
  const std::vector<double> feed = MakeFeed(2, 123);
  const auto fed = server.FeedStream(
      keeper.id, ts::SeriesView(feed.data(), std::size_t(64)));
  EXPECT_EQ(fed.status, stream::StreamSessionManager::FeedStatus::kOk);
  EXPECT_EQ(fed.accepted, 64u);

  const auto stats = server.Stats();
  EXPECT_EQ(stats.streams_opened, 2u);
  EXPECT_EQ(stats.streams_evicted, 1u);
  EXPECT_EQ(stats.streams_closed, 0u);
}

TEST(ShardedServer, ShutdownClosesEverySessionExactlyOnce) {
  serve::ServerOptions options = ShardedOptions(4);
  serve::InferenceServer server(options);
  server.AddModel("cbf", TrainedCopy());
  stream::StreamOptions opts;
  opts.window = 64;
  opts.hop = 64;
  std::vector<std::string> ids;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (int k = 0; k < 2; ++k) {
      const auto open = server.OpenStream("cbf", opts, shard);
      ASSERT_TRUE(open.ok);
      ids.push_back(open.id);
    }
  }
  // Close one explicitly; Shutdown must close the rest exactly once.
  ASSERT_TRUE(server.CloseStream(ids[0]).found);
  server.Shutdown();
  server.Shutdown();  // idempotent: no double accounting

  const auto stats = server.Stats();
  EXPECT_EQ(stats.streams_opened, 8u);
  EXPECT_EQ(stats.streams_evicted, 0u);
  EXPECT_EQ(stats.streams_closed, 8u)
      << "every opened session closed exactly once "
      << "(opened == closed + evicted)";

  // Stream verbs after shutdown: both codecs give the same detail.
  EXPECT_EQ(server.HandleLine("STREAM_FEED " + ids[1] + " 1,2,3"),
            "ERR SHUTDOWN shutting down");
  EXPECT_EQ(server.HandleLine("STREAM_OPEN cbf 64"),
            "ERR SHUTDOWN shutting down");
  serve::NetHandler handler(&server);
  std::string feed;
  PayloadWriter feed_writer(&feed);
  feed_writer.Str(ids[1]);
  const double sample = 1.0;
  feed_writer.F64Array(&sample, 1);
  const net::Response response =
      handler.OnFrame(0, Frame{std::uint8_t(BinaryVerb::kStreamFeed), 0, feed},
                      net::RequestHandler::Clock::now());
  std::string detail;
  PayloadWriter(&detail).Str("shutting down");
  EXPECT_EQ(response.bytes, net::EncodeFrame(BinaryVerb::kStreamFeed,
                                             WireStatus::kShutdown, detail));
}

// ---------------- Socket end-to-end ----------------

int ConnectTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{10, 0};  // reads fail loudly instead of hanging the suite
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += std::size_t(n);
  }
  return true;
}

/// Blocking read of one '\n'-terminated line (newline stripped);
/// empty string on EOF/timeout.
std::string RecvLine(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return "";
}

bool RecvExact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t got = ::recv(fd, p + off, n - off, 0);
    if (got <= 0) return false;
    off += std::size_t(got);
  }
  return true;
}

bool RecvFrame(int fd, Frame* frame) {
  unsigned char header[net::kFrameHeaderSize];
  if (!RecvExact(fd, header, sizeof(header))) return false;
  const std::uint32_t len = std::uint32_t(header[0]) |
                            (std::uint32_t(header[1]) << 8) |
                            (std::uint32_t(header[2]) << 16) |
                            (std::uint32_t(header[3]) << 24);
  frame->verb = header[4];
  frame->status = header[5];
  frame->payload.resize(len);
  return len == 0 || RecvExact(fd, frame->payload.data(), len);
}

std::string Csv(const std::vector<double>& values, std::size_t n) {
  std::string csv;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) csv += ',';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", values[i]);
    csv += buf;
  }
  return csv;
}

/// Server + handler + front end with ephemeral port, torn down in order.
struct Harness {
  explicit Harness(std::size_t shards, net::FrontEndOptions net_options = {})
      : server(ShardedOptions(shards)), handler(&server) {
    server.AddModel("cbf", TrainedCopy());
    net_options.tcp_port = 0;
    net_options.num_shards = shards;
    net_options.metrics = &server.metrics();
    front_end = std::make_unique<net::FrontEnd>(&handler, net_options);
  }
  ~Harness() {
    front_end->Stop();
    server.Shutdown();
  }
  bool Start() { return front_end->Start(); }
  int port() const { return front_end->port(); }

  serve::InferenceServer server;
  serve::NetHandler handler;
  std::unique_ptr<net::FrontEnd> front_end;
};

TEST(FrontEndE2E, TextProtocolOverSocket) {
  Harness harness(2);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(SendAll(fd, "MODELS\n"));
  EXPECT_EQ(RecvLine(fd), "OK 1 cbf");

  const auto& instance = Fixture().split.test.instances()[0];
  const int expected =
      harness.server.Classify("cbf", ts::Series(instance.values)).label;
  ASSERT_TRUE(SendAll(fd, "CLASSIFY cbf " +
                              Csv(instance.values, instance.values.size()) +
                              "\n"));
  EXPECT_EQ(RecvLine(fd), "OK " + std::to_string(expected));

  ASSERT_TRUE(SendAll(fd, "QUIT\n"));
  EXPECT_EQ(RecvLine(fd), "OK bye");
  char extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0) << "connection must close on QUIT";
  ::close(fd);
}

TEST(FrontEndE2E, PipelinedTextResponsesKeepRequestOrder) {
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  // Interleaved CLASSIFY, MODELS and STREAMS: the wire order must match
  // the request order.
  const auto& instance = Fixture().split.test.instances()[0];
  const std::string csv = Csv(instance.values, instance.values.size());
  ASSERT_TRUE(SendAll(fd, "CLASSIFY cbf " + csv + "\nMODELS\nCLASSIFY cbf " +
                              csv + "\nSTREAMS\n"));
  const std::string r1 = RecvLine(fd);
  const std::string r2 = RecvLine(fd);
  const std::string r3 = RecvLine(fd);
  const std::string r4 = RecvLine(fd);
  EXPECT_EQ(r1.rfind("OK ", 0), 0u) << r1;
  EXPECT_NE(r1, "OK 1 cbf");  // a label, not the MODELS response
  EXPECT_EQ(r2, "OK 1 cbf");
  EXPECT_EQ(r3, r1);  // same input, same label
  EXPECT_EQ(r4, "OK 0");
  ::close(fd);
}

// The unsigned value after `"key":` in a STATS JSON body.
std::uint64_t StatsField(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag);
  return at == std::string::npos
             ? ~std::uint64_t{0}
             : std::strtoull(json.c_str() + at + tag.size(), nullptr, 10);
}

TEST(FrontEndE2E, PipelinedShortDeadlinesAnswerLabelOrTimeout) {
  // CLASSIFYs with a 1 ms deadline, pipelined in one burst: the reactor
  // scores them in turn, and each deadline counts from the read that
  // brought the request in, so requests late in the burst may time out.
  // Every reply is the right label or TIMEOUT, and STATS counts exactly
  // those replies.
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  const auto& instances = Fixture().split.test.instances();
  constexpr std::size_t kRequests = 200;
  std::string burst;
  std::vector<int> expected;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto& values = instances[i % instances.size()].values;
    const std::string line =
        "CLASSIFY cbf " + Csv(values, values.size()) + " 1";
    serve::Request request;
    ASSERT_EQ(serve::ParseLine(line, &request), "");
    expected.push_back(Fixture().classifier.Classify(request.values));
    burst += line + "\n";
  }
  ASSERT_TRUE(SendAll(fd, burst));

  std::uint64_t ok = 0;
  std::uint64_t timeout = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::string reply = RecvLine(fd);
    if (reply == "ERR TIMEOUT") {
      ++timeout;
    } else {
      ASSERT_EQ(reply, "OK " + std::to_string(expected[i])) << "request " << i;
      ++ok;
    }
  }
  ASSERT_TRUE(SendAll(fd, "STATS\n"));
  const std::string stats = RecvLine(fd);
  ASSERT_EQ(stats.rfind("OK {", 0), 0u) << stats;
  EXPECT_EQ(StatsField(stats, "ok"), ok);
  EXPECT_EQ(StatsField(stats, "timeout"), timeout);
  EXPECT_EQ(StatsField(stats, "admitted"), ok + timeout);
  ::close(fd);
}

TEST(FrontEndE2E, HalfCloseStillAnswersPipelinedText) {
  // The documented quickstart shape: pipeline requests, then shut down
  // the write side (printf ... | nc -N). Read-EOF is a half-close, not
  // an abort — every buffered request is answered (CLASSIFY included)
  // before the server closes.
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  const auto& instance = Fixture().split.test.instances()[0];
  const int expected =
      harness.server.Classify("cbf", ts::Series(instance.values)).label;
  ASSERT_TRUE(SendAll(fd, "CLASSIFY cbf " +
                              Csv(instance.values, instance.values.size()) +
                              "\nMODELS\nSTREAMS\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  EXPECT_EQ(RecvLine(fd), "OK " + std::to_string(expected));
  EXPECT_EQ(RecvLine(fd), "OK 1 cbf");
  EXPECT_EQ(RecvLine(fd), "OK 0");
  char extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0)
      << "connection must close after the last response";
  ::close(fd);
}

TEST(FrontEndE2E, HalfCloseStillAnswersPipelinedBinary) {
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(fd, hello + Req(BinaryVerb::kModels) +
                              Req(BinaryVerb::kStats)));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kModels));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kStats));
  ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  // STATS bodies are blobs (u32 length): decode and sanity-check.
  PayloadReader reader(frame.payload);
  std::string json;
  ASSERT_TRUE(reader.Blob(&json));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(json.rfind("{", 0), 0u) << json;
  char extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0)
      << "connection must close after the last response";
  ::close(fd);
}

TEST(FrontEndE2E, BinaryMetricsBodySurvivesTheStrBound) {
  // METRICS exposition grows with shard count and can exceed 64 KiB;
  // the blob encoding must carry it intact (one frame, length == body).
  Harness harness(4);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(fd, hello + Req(BinaryVerb::kMetrics)));
  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  PayloadReader reader(frame.payload);
  std::string text;
  ASSERT_TRUE(reader.Blob(&text));
  EXPECT_TRUE(reader.AtEnd()) << "payload is exactly one blob";
  EXPECT_NE(text.find("# EOF"), std::string::npos)
      << "exposition must arrive complete, terminator included";
  ::close(fd);
}

TEST(FrontEndE2E, BinaryProtocolFullStreamLifecycle) {
  Harness harness(2);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  // Codec negotiation: the 4-byte magic selects binary framing.
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(fd, hello));

  // MODELS
  ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kModels)));
  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.verb, std::uint8_t(BinaryVerb::kModels));
  ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  {
    PayloadReader reader(frame.payload);
    std::uint32_t count = 0;
    std::string name;
    ASSERT_TRUE(reader.U32(&count));
    ASSERT_EQ(count, 1u);
    ASSERT_TRUE(reader.Str(&name));
    EXPECT_EQ(name, "cbf");
  }

  // CLASSIFY
  const auto& instance = Fixture().split.test.instances()[0];
  const int expected =
      harness.server.Classify("cbf", ts::Series(instance.values)).label;
  {
    std::string payload;
    PayloadWriter writer(&payload);
    writer.Str("cbf");
    writer.U32(5000);  // timeout ms
    writer.F64Array(instance.values.data(), instance.values.size());
    ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kClassify, payload)));
    ASSERT_TRUE(RecvFrame(fd, &frame));
    ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
    PayloadReader reader(frame.payload);
    std::int32_t label = 0;
    ASSERT_TRUE(reader.I32(&label));
    EXPECT_EQ(label, expected);
  }

  // STREAM_OPEN -> STREAM_FEED -> STREAM_CLOSE
  std::string stream_id;
  {
    std::string payload;
    PayloadWriter writer(&payload);
    writer.Str("cbf");
    writer.U32(96);  // window
    writer.U32(17);  // hop
    writer.F64(0.0);
    writer.F64(0.0);
    ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kStreamOpen, payload)));
    ASSERT_TRUE(RecvFrame(fd, &frame));
    ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
    PayloadReader reader(frame.payload);
    std::uint32_t window = 0;
    std::uint32_t hop = 0;
    ASSERT_TRUE(reader.Str(&stream_id));
    ASSERT_TRUE(reader.U32(&window));
    ASSERT_TRUE(reader.U32(&hop));
    EXPECT_EQ(window, 96u);
    EXPECT_EQ(hop, 17u);
  }
  const std::vector<double> feed = MakeFeed(3, 2024);
  std::uint64_t decisions_seen = 0;
  {
    std::string payload;
    PayloadWriter writer(&payload);
    writer.Str(stream_id);
    writer.F64Array(feed.data(), feed.size());
    ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kStreamFeed, payload)));
    ASSERT_TRUE(RecvFrame(fd, &frame));
    ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
    PayloadReader reader(frame.payload);
    std::uint32_t accepted = 0;
    std::uint32_t count = 0;
    ASSERT_TRUE(reader.U32(&accepted));
    ASSERT_TRUE(reader.U32(&count));
    EXPECT_GT(accepted, 0u);
    decisions_seen = count;
    for (std::uint32_t k = 0; k < count; ++k) {
      std::uint64_t index = 0;
      std::int32_t label = 0;
      double margin = 0.0;
      std::uint8_t early = 0;
      ASSERT_TRUE(reader.U64(&index));
      ASSERT_TRUE(reader.I32(&label));
      ASSERT_TRUE(reader.F64(&margin));
      ASSERT_TRUE(reader.U8(&early));
      EXPECT_EQ(index, k);
    }
    EXPECT_TRUE(reader.AtEnd());
  }
  {
    std::string payload;
    PayloadWriter writer(&payload);
    writer.Str(stream_id);
    ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kStreamClose, payload)));
    ASSERT_TRUE(RecvFrame(fd, &frame));
    ASSERT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
    PayloadReader reader(frame.payload);
    std::uint64_t samples = 0;
    std::uint64_t windows = 0;
    std::uint64_t decisions = 0;
    std::uint64_t early = 0;
    ASSERT_TRUE(reader.U64(&samples));
    ASSERT_TRUE(reader.U64(&windows));
    ASSERT_TRUE(reader.U64(&decisions));
    ASSERT_TRUE(reader.U64(&early));
    EXPECT_EQ(decisions, decisions_seen);
  }

  // QUIT closes after the response frame.
  ASSERT_TRUE(SendAll(fd, Req(BinaryVerb::kQuit)));
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  char extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0);
  ::close(fd);
}

TEST(FrontEndE2E, MixedCodecsOnConcurrentConnections) {
  Harness harness(2);
  ASSERT_TRUE(harness.Start());
  const int text_fd = ConnectTcp(harness.port());
  const int bin_fd = ConnectTcp(harness.port());
  ASSERT_GE(text_fd, 0);
  ASSERT_GE(bin_fd, 0);

  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(bin_fd, hello + Req(BinaryVerb::kModels)));
  ASSERT_TRUE(SendAll(text_fd, "MODELS\n"));

  EXPECT_EQ(RecvLine(text_fd), "OK 1 cbf");
  Frame frame;
  ASSERT_TRUE(RecvFrame(bin_fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  ::close(text_fd);
  ::close(bin_fd);
}

TEST(FrontEndE2E, OversizedLineAnswersErrorAndRecovers) {
  net::FrontEndOptions net_options;
  net_options.max_line = 64;
  Harness harness(1, net_options);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string(200, 'a') + "\nMODELS\n"));
  EXPECT_EQ(RecvLine(fd), "ERR BAD_REQUEST line exceeds 64 bytes");
  EXPECT_EQ(RecvLine(fd), "OK 1 cbf") << "connection must stay usable";
  ::close(fd);
}

TEST(FrontEndE2E, OversizedFrameAnswersErrorAndRecovers) {
  net::FrontEndOptions net_options;
  net_options.max_frame_payload = 64;
  Harness harness(1, net_options);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(
      fd, hello + Req(BinaryVerb::kClassify, std::string(1000, 'x')) +
              Req(BinaryVerb::kModels)));
  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kBadRequest));
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kOk))
      << "connection must stay usable after an oversized frame";
  ::close(fd);
}

TEST(FrontEndE2E, CorruptFrameAnswersErrorThenCloses) {
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  std::string bad = Req(BinaryVerb::kStats);
  bad[7] = 0x55;  // nonzero reserved byte: unrecoverable
  ASSERT_TRUE(SendAll(fd, hello + bad));
  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kBadRequest));
  char extra = 0;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0)
      << "corrupt framing must close the connection";
  ::close(fd);
}

TEST(FrontEndE2E, UnknownBinaryVerbAnswersBadRequest) {
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(fd, hello + net::EncodeFrame(0x7F, 0, "") +
                              Req(BinaryVerb::kModels)));
  Frame frame;
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kBadRequest));
  ASSERT_TRUE(RecvFrame(fd, &frame));
  EXPECT_EQ(frame.status, std::uint8_t(WireStatus::kOk));
  ::close(fd);
}

TEST(FrontEndE2E, TruncatedFrameNeverHangsTheShard) {
  Harness harness(1);
  ASSERT_TRUE(harness.Start());
  // A client that sends half a header and disappears...
  const int fd1 = ConnectTcp(harness.port());
  ASSERT_GE(fd1, 0);
  std::string hello(net::kBinaryMagic, sizeof(net::kBinaryMagic));
  ASSERT_TRUE(SendAll(fd1, hello + std::string("\x20\x00", 2)));
  ::close(fd1);
  // ...must not wedge the shard for the next client.
  const int fd2 = ConnectTcp(harness.port());
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(SendAll(fd2, "MODELS\n"));
  EXPECT_EQ(RecvLine(fd2), "OK 1 cbf");
  ::close(fd2);
}

TEST(FrontEndE2E, GracefulStopDrainsSessionsAndAccountsExactly) {
  auto harness = std::make_unique<Harness>(4);
  ASSERT_TRUE(harness->Start());
  // Open a session over the wire on each of several connections.
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    const int fd = ConnectTcp(harness->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "STREAM_OPEN cbf 64 64\n"));
    const std::string resp = RecvLine(fd);
    ASSERT_EQ(resp.rfind("OK stream ", 0), 0u) << resp;
    fds.push_back(fd);
  }
  ASSERT_EQ(harness->server.Stats().streams_opened, 4u);

  harness->front_end->Stop();
  harness->server.Shutdown();
  // Every connection sees EOF; no response is lost mid-write.
  for (const int fd : fds) {
    char extra = 0;
    EXPECT_LE(::recv(fd, &extra, 1, 0), 0);
    ::close(fd);
  }
  const auto stats = harness->server.Stats();
  EXPECT_EQ(stats.streams_opened,
            stats.streams_closed + stats.streams_evicted)
      << "graceful stop must close every session exactly once";
  EXPECT_EQ(harness->front_end->connections(), 0u);
}

TEST(FrontEndE2E, ConnectionsSpreadAcrossShards) {
  Harness harness(4);
  ASSERT_TRUE(harness.Start());
  // Many connections from distinct source ports: the ring should light
  // up more than one shard (statistically certain with 64 conns).
  std::vector<int> fds;
  for (int i = 0; i < 64; ++i) {
    const int fd = ConnectTcp(harness.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  // Prove liveness on every connection, then count shard gauges.
  for (const int fd : fds) {
    ASSERT_TRUE(SendAll(fd, "STREAMS\n"));
    ASSERT_EQ(RecvLine(fd), "OK 0");
  }
  const auto snapshot = harness.server.metrics().Snapshot();
  int shards_used = 0;
  for (int s = 0; s < 4; ++s) {
    if (snapshot.Count("rpm_net_accepted_total",
                       {{"shard", std::to_string(s)}}) > 0) {
      ++shards_used;
    }
  }
  EXPECT_GT(shards_used, 1) << "all 64 connections landed on one shard";
  EXPECT_EQ(harness.front_end->connections(), 64u);
  for (const int fd : fds) ::close(fd);
}

TEST(FrontEndE2E, BackpressureDrainsAllPipelinedResponses) {
  // Shrink the outbound buffer so a burst of pipelined METRICS bodies
  // (several KiB each) trips the backpressure threshold: the shard must
  // pause reads, flush, resume below the low-water mark, and still
  // deliver every response in request order — no drops, no reorders.
  net::FrontEndOptions net_options;
  net_options.max_out_buffer = 1024;
  Harness harness(1, net_options);
  ASSERT_TRUE(harness.Start());
  const int fd = ConnectTcp(harness.port());
  ASSERT_GE(fd, 0);

  constexpr int kBursts = 50;
  std::string burst;
  for (int i = 0; i < kBursts; ++i) burst += "METRICS\nSTREAMS\n";
  ASSERT_TRUE(SendAll(fd, burst));

  for (int i = 0; i < kBursts; ++i) {
    // Each METRICS response is "OK metrics", an OpenMetrics body, and a
    // closing "# EOF" line; the pipelined STREAMS reply follows it.
    ASSERT_EQ(RecvLine(fd), "OK metrics") << "burst " << i;
    std::string line = RecvLine(fd);
    int body_lines = 0;
    while (line != "# EOF") {
      ++body_lines;
      ASSERT_LT(body_lines, 10000) << "burst " << i << ": runaway body";
      line = RecvLine(fd);
    }
    EXPECT_GT(body_lines, 0) << "burst " << i << ": empty METRICS body";
    EXPECT_EQ(RecvLine(fd), "OK 0") << "burst " << i;  // the STREAMS reply
  }
  ::close(fd);
}

}  // namespace
}  // namespace rpm
