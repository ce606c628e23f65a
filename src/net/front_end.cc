#include "net/front_end.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unordered_map>
#include <utility>

namespace rpm::net {

// ---- shard state -----------------------------------------------------

struct FrontEnd::Shard {
  std::size_t index = 0;
  EventLoop loop;
  std::thread thread;
  // Touched only on this shard's loop thread.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  obs::Gauge* connections = nullptr;
  obs::Counter* accepted = nullptr;
  obs::Counter* text_requests = nullptr;
  obs::Counter* binary_requests = nullptr;
  obs::Counter* protocol_errors = nullptr;
};

// ---- connection ------------------------------------------------------

struct FrontEnd::Conn : std::enable_shared_from_this<FrontEnd::Conn> {
  Conn(FrontEnd* fe, Shard* shard, int fd)
      : fe(fe),
        shard(shard),
        fd(fd),
        lines(fe->options_.max_line),
        frames(fe->options_.max_frame_payload) {}
  ~Conn() {
    if (open) ::close(fd);
  }

  FrontEnd* fe;
  Shard* shard;
  int fd;
  enum class Codec { kSniff, kText, kBinary };
  Codec codec = Codec::kSniff;
  std::string sniff;
  LineAssembler lines;
  FrameAssembler frames;
  std::string out;
  bool want_write = false;
  bool paused_read = false;
  bool read_eof = false;  // peer half-closed; no more requests can arrive
  bool closing = false;   // close once `out` has flushed
  bool open = true;

  void HandleEvents(std::uint32_t events) {
    if (events & (EPOLLERR | EPOLLHUP)) {
      CloseNow();
      return;
    }
    if (events & EPOLLOUT) Flush();
    if (!open) return;
    if (events & (EPOLLIN | EPOLLRDHUP)) DoRead();
  }

  void DoRead() {
    if (!open || read_eof) return;
    const RequestHandler::Clock::time_point read_at =
        RequestHandler::Clock::now();
    char buf[16384];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        Ingest(std::string_view(buf, std::size_t(n)));
        continue;
      }
      if (n == 0) {
        // EOF is a half-close, not an abort: clients pipeline requests
        // and shut down their write side (printf ... | nc -N). Requests
        // already received still get answered below; the connection
        // closes once the last response has flushed.
        read_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseNow();
      return;
    }
    Pump(read_at);
    if (read_eof) closing = true;
    Flush();
    if (open && !paused_read && out.size() > fe->options_.max_out_buffer) {
      paused_read = true;
      UpdateInterest();
    }
  }

  // Codec negotiation: binary clients lead with "RPMB"; anything else
  // (including a newline before 4 bytes arrive) is the text protocol.
  void Ingest(std::string_view data) {
    switch (codec) {
      case Codec::kSniff: {
        sniff.append(data);
        const bool line_first =
            sniff.find('\n') != std::string::npos && sniff.size() < 4;
        if (sniff[0] != kBinaryMagic[0] || line_first) {
          codec = Codec::kText;
          lines.Append(sniff);
          sniff.clear();
          sniff.shrink_to_fit();
          return;
        }
        if (sniff.size() < sizeof(kBinaryMagic)) return;  // wait for magic
        if (std::memcmp(sniff.data(), kBinaryMagic, sizeof(kBinaryMagic)) ==
            0) {
          codec = Codec::kBinary;
          frames.Append(
              std::string_view(sniff).substr(sizeof(kBinaryMagic)));
        } else {
          codec = Codec::kText;
          lines.Append(sniff);
        }
        sniff.clear();
        sniff.shrink_to_fit();
        return;
      }
      case Codec::kText:
        lines.Append(data);
        return;
      case Codec::kBinary:
        frames.Append(data);
        return;
    }
  }

  // Answers every complete request the assembler holds, in order, up to
  // a response that closes the connection. Sniff state: nothing to pump
  // until the codec is decided.
  void Pump(RequestHandler::Clock::time_point read_at) {
    if (codec == Codec::kText) {
      std::string line;
      while (!closing) {
        const auto status = lines.NextLine(&line);
        if (status == LineAssembler::LineStatus::kNone) break;
        if (status == LineAssembler::LineStatus::kOversized) {
          shard->protocol_errors->Increment();
          Append({"ERR BAD_REQUEST line exceeds " +
                      std::to_string(lines.max_line()) + " bytes",
                  false});
        } else {
          shard->text_requests->Increment();
          Append(fe->handler_->OnTextLine(shard->index, line, read_at));
        }
      }
    } else if (codec == Codec::kBinary) {
      const auto error = [&](std::uint8_t verb, const std::string& detail,
                             bool close) {
        shard->protocol_errors->Increment();
        Append({EncodeFrame(verb, std::uint8_t(WireStatus::kBadRequest),
                            detail),
                close});
      };
      Frame frame;
      while (!closing) {
        const auto status = frames.Next(&frame);
        if (status == FrameAssembler::FrameStatus::kNone) break;
        if (status == FrameAssembler::FrameStatus::kOversized) {
          error(0,
                "frame exceeds " + std::to_string(frames.max_payload()) +
                    " payload bytes",
                false);
        } else if (status == FrameAssembler::FrameStatus::kCorrupt) {
          error(0, "corrupt frame: cannot resynchronize", true);
        } else if (frame.status != 0) {
          error(frame.verb, "nonzero status in request", true);
        } else {
          shard->binary_requests->Increment();
          Append(fe->handler_->OnFrame(shard->index, frame, read_at));
        }
      }
    }
  }

  // Responses are produced in request order on this thread, so queueing
  // one is an append; DoRead flushes once the read's requests are done.
  void Append(const Response& r) {
    out += r.bytes;
    if (codec != Codec::kBinary) out += '\n';
    if (r.close) closing = true;
  }

  void Flush() {
    while (!out.empty()) {
      // MSG_NOSIGNAL: a peer that disconnects with responses still
      // pending must surface as EPIPE here, not kill the process with
      // SIGPIPE (found by the fuzz harness's abrupt-disconnect fault).
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(0, std::size_t(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseNow();
      return;
    }
    if (out.empty()) {
      if (closing) {
        CloseNow();
        return;
      }
      if (want_write) {
        want_write = false;
        UpdateInterest();
      }
    } else if (!want_write) {
      want_write = true;
      UpdateInterest();
    }
    // Backpressure hysteresis: reads resume once the buffer has drained
    // below half of max_out_buffer, not only once it is empty.
    if (paused_read && !read_eof &&
        out.size() < fe->options_.max_out_buffer / 2) {
      paused_read = false;
      UpdateInterest();
      // Edge-triggered: bytes may have queued in the kernel while
      // reads were paused; poke the read path explicitly.
      auto self = shared_from_this();
      shard->loop.Post([self] { self->DoRead(); });
    }
  }

  void UpdateInterest() {
    std::uint32_t events = EPOLLET | EPOLLRDHUP;
    if (!paused_read) events |= EPOLLIN;
    if (want_write) events |= EPOLLOUT;
    shard->loop.Modify(fd, events);
  }

  void CloseNow() {
    if (!open) return;
    auto self = shared_from_this();  // outlive conns.erase below
    open = false;
    shard->loop.Remove(fd);
    ::close(fd);
    shard->connections->Add(-1);
    fe->connections_.fetch_sub(1, std::memory_order_relaxed);
    shard->conns.erase(fd);
  }
};

// ---- front end -------------------------------------------------------

namespace {

int ListenTcp(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int ListenUnix(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  ::unlink(path.c_str());
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool FrontEnd::SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

FrontEnd::FrontEnd(RequestHandler* handler, FrontEndOptions options)
    : handler_(handler),
      options_(std::move(options)),
      ring_(options_.num_shards == 0 ? 1 : options_.num_shards) {}

FrontEnd::~FrontEnd() { Stop(); }

bool FrontEnd::Start() {
  if (started_) return true;
  const std::size_t num_shards =
      options_.num_shards == 0 ? 1 : options_.num_shards;

  static obs::MetricRegistry fallback_registry;
  obs::MetricRegistry* reg =
      options_.metrics != nullptr ? options_.metrics : &fallback_registry;

  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    if (!shard->loop.ok()) {
      std::fprintf(stderr, "[net] cannot create event loop (shard %zu)\n", i);
      shards_.clear();
      return false;
    }
    const obs::Labels labels{{"shard", std::to_string(i)}};
    shard->connections = reg->GetGauge(
        "rpm_net_connections", "Open connections pinned to this shard",
        labels);
    shard->accepted = reg->GetCounter(
        "rpm_net_accepted_total", "Connections accepted onto this shard",
        labels);
    shard->text_requests =
        reg->GetCounter("rpm_net_requests_total", "Requests parsed",
                        {{"shard", std::to_string(i)}, {"codec", "text"}});
    shard->binary_requests =
        reg->GetCounter("rpm_net_requests_total", "Requests parsed",
                        {{"shard", std::to_string(i)}, {"codec", "binary"}});
    shard->protocol_errors = reg->GetCounter(
        "rpm_net_protocol_errors_total",
        "Oversized/corrupt/malformed requests answered with an error",
        labels);
    EventLoop::LoopMetrics lm;
    lm.wakeups = reg->GetCounter("rpm_net_loop_wakeups_total",
                                 "Event-loop wakeups", labels);
    lm.events_per_wake = reg->GetHistogram(
        "rpm_net_loop_events_per_wake", "Fd events dispatched per wakeup",
        obs::Histogram::LinearBounds(1.0, 64), labels);
    lm.iteration_us = reg->GetHistogram(
        "rpm_net_loop_iteration_microseconds",
        "Time handling one event-loop iteration (wait excluded)",
        obs::Histogram::GeometricBounds(1.0, 1.6, 40), labels);
    shard->loop.set_metrics(lm);
    shards_.push_back(std::move(shard));
  }

  listen_fd_ = options_.unix_path.empty()
                   ? ListenTcp(options_.tcp_port, options_.listen_backlog)
                   : ListenUnix(options_.unix_path, options_.listen_backlog);
  if (listen_fd_ < 0 || !SetNonBlocking(listen_fd_)) {
    std::fprintf(stderr, "[net] cannot listen on %s\n",
                 options_.unix_path.empty()
                     ? std::to_string(options_.tcp_port).c_str()
                     : options_.unix_path.c_str());
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    shards_.clear();
    return false;
  }
  if (options_.unix_path.empty()) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }

  // Registered before the shard threads start, so no cross-thread Add.
  shards_[0]->loop.Add(listen_fd_, EPOLLIN | EPOLLET,
                       [this](std::uint32_t) { AcceptReady(); });

  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([s] { s->loop.Run(); });
  }
  started_ = true;
  return true;
}

void FrontEnd::AcceptReady() {
  for (;;) {
    sockaddr_storage ss{};
    socklen_t slen = sizeof(ss);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&ss), &slen);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    std::uint64_t key;
    if (ss.ss_family == AF_INET) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Peer ip:port is a stable connection identity for the ring.
      const auto* in = reinterpret_cast<const sockaddr_in*>(&ss);
      char peer[32];
      std::snprintf(peer, sizeof(peer), "%08x:%04x",
                    ntohl(in->sin_addr.s_addr), ntohs(in->sin_port));
      key = Fnv1a(peer);
    } else {
      // Unix sockets carry no peer address: spread by arrival order.
      key = next_conn_key_.fetch_add(1, std::memory_order_relaxed);
    }
    AdoptConnection(fd, key);
  }
}

void FrontEnd::AdoptConnection(int fd, std::uint64_t key) {
  Shard* shard = shards_[ring_.PickHash(key)].get();
  shard->loop.PostOrRun([this, shard, fd] {
    auto conn = std::make_shared<Conn>(this, shard, fd);
    const bool added =
        shard->loop.Add(fd, EPOLLIN | EPOLLET | EPOLLRDHUP,
                        [conn](std::uint32_t events) {
                          conn->HandleEvents(events);
                        });
    if (!added) {
      ::close(fd);
      conn->open = false;
      return;
    }
    shard->conns[fd] = conn;
    shard->accepted->Increment();
    shard->connections->Add(1);
    connections_.fetch_add(1, std::memory_order_relaxed);
    // The client may have sent bytes before registration (ET would not
    // signal them); drain once explicitly.
    conn->DoRead();
  });
}

void FrontEnd::Stop() {
  if (!started_ || stopped_.exchange(true)) return;
  for (auto& owned : shards_) {
    Shard* shard = owned.get();
    shard->loop.Post([this, shard] {
      if (shard->index == 0 && listen_fd_ >= 0) {
        shard->loop.Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
        if (!options_.unix_path.empty()) {
          ::unlink(options_.unix_path.c_str());
        }
      }
      // Flush what can be flushed without blocking, then close; the
      // snapshot avoids iterating `conns` while CloseNow erases.
      std::vector<std::shared_ptr<Conn>> snapshot;
      snapshot.reserve(shard->conns.size());
      for (auto& [fd, conn] : shard->conns) snapshot.push_back(conn);
      for (auto& conn : snapshot) {
        if (conn->open) conn->Flush();
        if (conn->open) conn->CloseNow();
      }
    });
    shard->loop.Stop();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

}  // namespace rpm::net
