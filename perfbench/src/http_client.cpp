#include "http_client.h"

#include <cstdlib>

#include "safeopt/support/json.h"
#include "safeopt/support/net.h"
#include "safeopt/support/strings.h"

namespace perfbench {

HttpReply http_post(std::uint16_t port, const std::string& target,
                    const std::string& body) {
  safeopt::TcpSocket socket = safeopt::TcpSocket::connect_loopback(port);
  socket.write_all(safeopt::concat("POST ", target,
                                   " HTTP/1.1\r\nContent-Length: ",
                                   std::to_string(body.size()), "\r\n\r\n",
                                   body));
  std::string raw;
  char chunk[16384];
  while (true) {
    const std::size_t n = socket.read_some(chunk, sizeof(chunk));
    if (n == 0) break;
    raw.append(chunk, n);
  }
  HttpReply reply;
  const std::size_t space = raw.find(' ');
  if (space != std::string::npos) {
    reply.status = std::atoi(raw.c_str() + space + 1);
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) reply.body = raw.substr(header_end + 4);
  return reply;
}

std::string request_body(const std::string& document,
                         const std::string& model) {
  safeopt::JsonValue body = safeopt::JsonValue::object();
  body.set("document", safeopt::JsonValue::string(document));
  body.set("model", safeopt::JsonValue::string(model));
  return body.dump();
}

}  // namespace perfbench
