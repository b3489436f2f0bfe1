// A minimal loopback HTTP/1.1 client for the serve workload: one
// connection per request (the server has no keep-alive).
#ifndef PERFBENCH_HTTP_CLIENT_H
#define PERFBENCH_HTTP_CLIENT_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// POSTs `body` to 127.0.0.1:`port``target` and reads the whole reply.
[[nodiscard]] HttpReply http_post(std::uint16_t port, const std::string& target,
                                  const std::string& body);

/// The request body the service expects: {"document": ..., "model": ...}.
[[nodiscard]] std::string request_body(const std::string& document,
                                       const std::string& model);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H
