// kbctl: a minimal command-line client for kbserver (docs/SERVER.md).
//
//   kbctl --port=7341 create t1
//   kbctl --port=7341 mutate t1 add_rule animals "fly(X) :- bird(X)."
//   kbctl --port=7341 query t1 animals "fly(tweety)"
//
// Speaks one HTTP/1.0 request per invocation over the loopback interface
// and prints the response body (the JSON wire format) to stdout.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>

#include "base/build_info.h"
#include "base/strings.h"
#include "trace/json.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port=N <command>\n"
      "commands:\n"
      "  create <tenant>\n"
      "  drop <tenant>\n"
      "  list\n"
      "  query <tenant> <module> <literal> [mode]\n"
      "  explain <tenant> <module> <literal>\n"
      "  mutate <tenant> <op> <module> [text]\n"
      "    ops: add_fact, retract_fact, add_rule, add_module, add_isa\n"
      "    (add_module takes no text; add_isa's text is the parent)\n"
      "  facts <tenant> <module>\n"
      "  status <tenant>\n"
      "  usage <tenant>\n"
      "(--version prints the build identity and exits)\n",
      argv0);
  return 2;
}

// Sends one request, prints the response body, returns 0 on HTTP 2xx.
int Send(int port, const std::string& method, const std::string& target,
         const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }
  std::ostringstream request;
  request << method << ' ' << target << " HTTP/1.0\r\n"
          << "Host: 127.0.0.1\r\n"
          << "Content-Length: " << body.size() << "\r\n"
          << "Connection: close\r\n\r\n"
          << body;
  const std::string wire = request.str();
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) {
      std::perror("send");
      ::close(fd);
      return 1;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      std::perror("recv");
      ::close(fd);
      return 1;
    }
    if (n == 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  // Status line: "HTTP/1.0 200 OK".
  int code = 0;
  const size_t space = response.find(' ');
  if (space != std::string::npos) {
    code = ordlog::ParseNumber<int>(
               std::string_view(response).substr(space + 1, 3))
               .value_or(0);
  }
  const size_t blank = response.find("\r\n\r\n");
  const std::string payload =
      blank == std::string::npos ? response : response.substr(blank + 4);
  std::printf("%s\n", payload.c_str());
  return code >= 200 && code < 300 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int arg = 1;
  for (; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--version") == 0) {
      std::printf("%s\n", ordlog::BuildInfoString().c_str());
      return 0;
    }
    if (std::strncmp(argv[arg], "--port=", 7) == 0) {
      const std::optional<int> parsed = ordlog::ParseNumber<int>(argv[arg] + 7);
      if (!parsed.has_value() || *parsed < 1 || *parsed > 65535) {
        std::fprintf(stderr, "kbctl: invalid value in %s\n", argv[arg]);
        return Usage(argv[0]);
      }
      port = *parsed;
    } else {
      break;
    }
  }
  if (port <= 0 || arg >= argc) return Usage(argv[0]);
  const std::string command = argv[arg++];
  const int remaining = argc - arg;

  using ordlog::JsonQuote;
  if (command == "list" && remaining == 0) {
    return Send(port, "GET", "/v1/admin/list", "");
  }
  if ((command == "create" || command == "drop") && remaining == 1) {
    return Send(port, "POST", std::string("/v1/admin/") + command,
                "{\"tenant\":" + JsonQuote(argv[arg]) + "}");
  }
  if (command == "query" && (remaining == 3 || remaining == 4)) {
    std::string body = "{\"module\":" + JsonQuote(argv[arg + 1]) +
                       ",\"literal\":" + JsonQuote(argv[arg + 2]);
    if (remaining == 4) body += ",\"mode\":" + JsonQuote(argv[arg + 3]);
    body += "}";
    return Send(port, "POST", std::string("/v1/") + argv[arg] + "/query",
                body);
  }
  if (command == "explain" && remaining == 3) {
    return Send(port, "POST", std::string("/v1/") + argv[arg] + "/explain",
                "{\"module\":" + JsonQuote(argv[arg + 1]) +
                    ",\"literal\":" + JsonQuote(argv[arg + 2]) + "}");
  }
  if (command == "mutate" && (remaining == 3 || remaining == 4)) {
    const char* text = remaining == 4 ? argv[arg + 3] : "";
    return Send(port, "POST", std::string("/v1/") + argv[arg] + "/mutate",
                "{\"ops\":[{\"op\":" + JsonQuote(argv[arg + 1]) +
                    ",\"module\":" + JsonQuote(argv[arg + 2]) +
                    ",\"text\":" + JsonQuote(text) + "}]}");
  }
  if (command == "facts" && remaining == 2) {
    return Send(port, "GET",
                std::string("/v1/") + argv[arg] + "/facts?module=" +
                    argv[arg + 1],
                "");
  }
  if (command == "status" && remaining == 1) {
    return Send(port, "GET", std::string("/v1/") + argv[arg] + "/status", "");
  }
  if (command == "usage" && remaining == 1) {
    return Send(port, "GET", std::string("/v1/") + argv[arg] + "/usagez", "");
  }
  return Usage(argv[0]);
}
