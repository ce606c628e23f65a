#include "serve/net_handler.h"

#include <string>

namespace rpm::serve {

namespace {

// Answers one decoded request in its connection's codec: a decode
// failure directly, anything else through Dispatch.
net::Response Serve(InferenceServer* server, std::size_t shard,
                    net::RequestHandler::Clock::time_point read_at,
                    const std::string& error, const Request& request,
                    std::string (*encode)(const Reply&)) {
  if (!error.empty()) {
    return {encode(Failure(request.verb, StatusCode::kBadRequest, error)),
            false};
  }
  return {encode(server->Dispatch(request, shard, read_at)),
          request.verb == net::BinaryVerb::kQuit};
}

}  // namespace

net::Response NetHandler::OnTextLine(std::size_t shard,
                                     const std::string& line,
                                     Clock::time_point read_at) {
  Request request;
  const std::string error = ParseLine(line, &request);
  return Serve(server_, shard, read_at, error, request, FormatLine);
}

net::Response NetHandler::OnFrame(std::size_t shard, const net::Frame& frame,
                                  Clock::time_point read_at) {
  Request request;
  const std::string error = DecodeRequest(frame, &request);
  return Serve(server_, shard, read_at, error, request, EncodeReply);
}

}  // namespace rpm::serve
