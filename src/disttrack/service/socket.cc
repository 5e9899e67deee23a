#include "disttrack/service/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace disttrack {
namespace service {

namespace {

void SleepMs(int ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    *error = "unix socket path too long: " + path;
    return false;
  }
  memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

int DialOnce(const Endpoint& ep, std::string* error) {
  if (ep.is_unix) {
    sockaddr_un addr;
    if (!FillUnixAddr(ep.path, &addr, error)) return -1;
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + strerror(errno);
      return -1;
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect ") + ep.path + ": " + strerror(errno);
      close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const char* host = ep.path.empty() ? "127.0.0.1" : ep.path.c_str();
  if (inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    *error = std::string("tcp host must be a dotted IPv4 address: ") + host;
    return -1;
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + strerror(errno);
    return -1;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect ") + ep.ToString() + ": " + strerror(errno);
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

bool Endpoint::Parse(const std::string& text, Endpoint* out,
                     std::string* error) {
  if (text.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->path = text.substr(5);
    out->port = 0;
    if (out->path.empty()) {
      *error = "unix endpoint needs a path: " + text;
      return false;
    }
    return true;
  }
  if (text.rfind("tcp:", 0) == 0) {
    std::string rest = text.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      *error = "tcp endpoint needs HOST:PORT: " + text;
      return false;
    }
    out->is_unix = false;
    out->path = rest.substr(0, colon);
    long port = strtol(rest.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) {
      *error = "bad tcp port in: " + text;
      return false;
    }
    out->port = static_cast<uint16_t>(port);
    return true;
  }
  *error = "endpoint must start with unix: or tcp: — got " + text;
  return false;
}

std::string Endpoint::ToString() const {
  if (is_unix) return "unix:" + path;
  return "tcp:" + (path.empty() ? std::string("127.0.0.1") : path) + ":" +
         std::to_string(port);
}

int Listen(const Endpoint& ep, std::string* error) {
  int fd = -1;
  if (ep.is_unix) {
    sockaddr_un addr;
    if (!FillUnixAddr(ep.path, &addr, error)) return -1;
    unlink(ep.path.c_str());
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + strerror(errno);
      return -1;
    }
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("bind ") + ep.path + ": " + strerror(errno);
      close(fd);
      return -1;
    }
  } else {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + strerror(errno);
      return -1;
    }
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(ep.port);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("bind port ") + std::to_string(ep.port) + ": " +
               strerror(errno);
      close(fd);
      return -1;
    }
  }
  if (listen(fd, 128) != 0) {
    *error = std::string("listen: ") + strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

int Dial(const Endpoint& ep, int timeout_ms, std::string* error) {
  int waited = 0;
  for (;;) {
    std::string attempt_error;
    int fd = DialOnce(ep, &attempt_error);
    if (fd >= 0) return fd;
    if (waited >= timeout_ms) {
      *error = attempt_error + " (gave up after " + std::to_string(waited) +
               "ms)";
      return -1;
    }
    SleepMs(50);
    waited += 50;
  }
}

bool SetNonBlocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if (nonblocking) flags |= O_NONBLOCK;
  else flags &= ~O_NONBLOCK;
  return fcntl(fd, F_SETFL, flags) == 0;
}

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that has died is an EPIPE, not a SIGPIPE
    // that kills this process.
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

long ReadSome(int fd, uint8_t* buf, size_t cap) {
  for (;;) {
    ssize_t n = read(fd, buf, cap);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

}  // namespace service
}  // namespace disttrack
