#include "serve/net_handler.h"

#include <string>
#include <utility>

namespace rpm::serve {

namespace {

// Answers one decoded request in its connection's codec: a decode
// failure directly, anything else through Dispatch.
void Serve(InferenceServer* server, std::size_t shard,
           const std::string& error, Request request,
           std::string (*encode)(const Reply&),
           net::RequestHandler::Respond respond) {
  if (!error.empty()) {
    respond({encode(Failure(request.verb, StatusCode::kBadRequest, error)),
             false});
    return;
  }
  const bool close = request.verb == net::BinaryVerb::kQuit;
  server->Dispatch(
      std::move(request), shard,
      [encode, close, respond = std::move(respond)](const Reply& reply) {
        respond({encode(reply), close});
      });
}

}  // namespace

void NetHandler::OnTextLine(std::size_t shard, const std::string& line,
                            Respond respond) {
  Request request;
  const std::string error = ParseLine(line, &request);
  Serve(server_, shard, error, std::move(request), FormatLine,
        std::move(respond));
}

void NetHandler::OnFrame(std::size_t shard, const net::Frame& frame,
                         Respond respond) {
  Request request;
  const std::string error = DecodeRequest(frame, &request);
  Serve(server_, shard, error, std::move(request), EncodeReply,
        std::move(respond));
}

}  // namespace rpm::serve
