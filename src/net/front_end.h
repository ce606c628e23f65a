// Sharded event-driven network front end.
//
// N worker shards, each one EventLoop on its own thread. A nonblocking
// listener (loopback TCP or Unix socket) lives on shard 0's loop;
// accepted connections are pinned to a shard by consistent hash of
// their peer identity (hash_ring.h) and handed to that shard's loop,
// where ALL of the connection's I/O and request dispatch happen — a
// connection never migrates, so everything reachable from it (notably
// the stream sessions it opens) stays shard-local.
//
// Each connection speaks either the newline text protocol or the
// length-prefixed binary framing (net/frame.h), chosen once by the
// first bytes it sends ("RPMB" magic selects binary). Each request is
// passed to a RequestHandler, which answers it on the shard's thread
// before returning, so responses are produced in request order and the
// wire order always matches it.
//
// Write path: the responses to everything one read brought in are
// appended to a per-connection buffer, which is then flushed once;
// EPOLLOUT interest is enabled only while the buffer is non-empty.
// Backpressure: past max_out_buffer the connection stops reading
// (EPOLLIN dropped) until the buffer drains below half — a slow reader
// throttles itself, never the shard.
//
// The front end is protocol-policy-free: serve::NetHandler supplies the
// actual verb semantics, keeping net below serve in the layering.

#ifndef RPM_NET_FRONT_END_H_
#define RPM_NET_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/hash_ring.h"
#include "obs/metrics.h"

namespace rpm::net {

/// One response's wire bytes. For text connections `bytes` is the bare
/// response line (the connection appends '\n'); for binary connections
/// it is a fully encoded frame. `close` closes the connection after the
/// response has been flushed (QUIT / unrecoverable protocol errors).
struct Response {
  std::string bytes;
  bool close = false;
};

/// Protocol semantics, supplied by the serving layer. Both hooks run on
/// the connection's shard loop thread and return the request's response.
/// `read_at` is when the front end read the request's bytes.
class RequestHandler {
 public:
  using Clock = std::chrono::steady_clock;
  virtual ~RequestHandler() = default;
  virtual Response OnTextLine(std::size_t shard, const std::string& line,
                              Clock::time_point read_at) = 0;
  virtual Response OnFrame(std::size_t shard, const Frame& frame,
                           Clock::time_point read_at) = 0;
};

struct FrontEndOptions {
  /// >= 0 listens on loopback TCP (0 picks an ephemeral port, see
  /// FrontEnd::port()); takes effect only when unix_path is empty.
  int tcp_port = 7070;
  std::string unix_path;
  std::size_t num_shards = 1;
  /// Pending response bytes beyond which a connection stops reading.
  std::size_t max_out_buffer = std::size_t{4} << 20;
  std::size_t max_line = LineAssembler::kDefaultMaxLine;
  std::size_t max_frame_payload = FrameAssembler::kDefaultMaxPayload;
  int listen_backlog = 128;
  /// When set, per-shard net metrics are registered here (connection
  /// gauges, request/error counters, loop histograms).
  obs::MetricRegistry* metrics = nullptr;
};

class FrontEnd {
 public:
  FrontEnd(RequestHandler* handler, FrontEndOptions options);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the listener and starts the shard threads. False on bind or
  /// loop-creation failure (errno-style detail on stderr).
  bool Start();

  /// Graceful stop, idempotent: closes the listener, flushes and closes
  /// every connection on its own shard loop, joins the shard threads.
  /// Every request read before the stop has been answered by then. The
  /// handler (and its server) outlive this call; shut the server down
  /// afterwards.
  void Stop();

  /// Actual listening port (resolves tcp_port == 0); -1 for Unix.
  int port() const { return port_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// Currently open connections across all shards.
  std::size_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;
  struct Conn;

  void AcceptReady();
  void AdoptConnection(int fd, std::uint64_t key);
  static bool SetNonBlocking(int fd);

  RequestHandler* const handler_;
  const FrontEndOptions options_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<std::uint64_t> next_conn_key_{1};
  std::atomic<std::size_t> connections_{0};
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace rpm::net

#endif  // RPM_NET_FRONT_END_H_
