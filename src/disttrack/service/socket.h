// Thin POSIX socket helpers for the coordinator daemon and site
// processes: TCP for the cross-host path, Unix-domain stream sockets as
// the same-host fast path. Everything returns plain fds so the
// coordinator's poll loop and the sites' blocking loops share one
// vocabulary; error reporting is errno-based via the *error out-param.

#ifndef DISTTRACK_SERVICE_SOCKET_H_
#define DISTTRACK_SERVICE_SOCKET_H_

#include <cstdint>
#include <string>

namespace disttrack {
namespace service {

/// A listen/dial address. Text forms:
///   unix:/path/to/socket     Unix-domain stream socket
///   tcp:HOST:PORT            TCP (HOST ignored for Listen: binds 0.0.0.0)
struct Endpoint {
  bool is_unix = true;
  std::string path;  ///< socket path (unix) or host (tcp)
  uint16_t port = 0;

  static bool Parse(const std::string& text, Endpoint* out,
                    std::string* error);
  std::string ToString() const;
};

/// Creates a listening socket (backlog 128). Unix paths are unlinked
/// first so a stale socket file never blocks a restart. Returns -1 and
/// fills *error on failure.
int Listen(const Endpoint& ep, std::string* error);

/// Connects to `ep`, retrying with 50ms sleeps for up to `timeout_ms`
/// while the coordinator is still coming up. Returns -1 on timeout.
int Dial(const Endpoint& ep, int timeout_ms, std::string* error);

/// O_NONBLOCK toggle; true on success.
bool SetNonBlocking(int fd, bool nonblocking);

/// Blocking write of the whole buffer to a socket (EINTR-safe; a closed
/// peer is an error, never a SIGPIPE). False on error.
bool WriteAll(int fd, const uint8_t* data, size_t size);

/// One read() of at most `cap` bytes (EINTR-safe). Returns bytes read,
/// 0 on orderly EOF, -1 on error, -2 on EAGAIN (nonblocking fd only).
long ReadSome(int fd, uint8_t* buf, size_t cap);

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SOCKET_H_
