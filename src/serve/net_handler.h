// Bridge between the sharded network front end (src/net) and the
// inference server: implements net::RequestHandler for both codecs.
//
// Each text line or binary frame is decoded by its codec
// (serve/protocol.h), run by InferenceServer::Dispatch on the
// connection's shard, and the reply encoded by the same codec, all on
// the shard's reactor thread before the hook returns. QUIT is
// connection-scoped: the server answers it like any verb, and the
// handler closes the connection after the reply.
//
// The handler is stateless per request apart from the server pointer,
// so one instance serves every shard concurrently.

#ifndef RPM_SERVE_NET_HANDLER_H_
#define RPM_SERVE_NET_HANDLER_H_

#include <string>

#include "net/front_end.h"
#include "serve/server.h"

namespace rpm::serve {

class NetHandler : public net::RequestHandler {
 public:
  /// `server` must outlive the handler (and the front end using it).
  explicit NetHandler(InferenceServer* server) : server_(server) {}

  net::Response OnTextLine(std::size_t shard, const std::string& line,
                           Clock::time_point read_at) override;
  net::Response OnFrame(std::size_t shard, const net::Frame& frame,
                        Clock::time_point read_at) override;

 private:
  InferenceServer* const server_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_NET_HANDLER_H_
