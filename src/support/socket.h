// Unix-domain stream sockets, wrapped for the service layer.
//
// The dynbcast service speaks a newline-delimited text protocol over a
// local socket (see src/service/protocol.h). These wrappers own exactly
// the POSIX surface that needs: an owning file descriptor, a listener
// bound to a filesystem path, a connect call, and a buffered line
// channel. Everything reports failure by throwing std::runtime_error
// with the errno text — service code never sees a raw -1.
//
// Scope is deliberately local-machine: AF_UNIX only. A TCP transport
// would slot in behind the same LineChannel surface, but the protocol's
// trust model (filesystem permissions on the socket path) is part of the
// design — the service is infrastructure behind a front door, not the
// front door.
#pragma once

#include <string>
#include <utility>

namespace dynbcast {

/// Owning POSIX file descriptor: closes on destruction, move-only.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// A listening unix-domain socket bound to `path`. The constructor
/// unlinks a stale socket file at the path first (the server owns its
/// state directory), binds, and listens; the destructor unlinks again so
/// a clean shutdown leaves no socket litter.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path, int backlog = 16);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocks until a client connects; returns the connection fd.
  [[nodiscard]] OwnedFd accept();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  OwnedFd fd_;
};

/// Connects to the unix-domain socket at `path`.
[[nodiscard]] OwnedFd connectUnix(const std::string& path);

/// Writes all of `data` to the socket `fd`, retrying short writes and
/// EINTR. A disconnected peer throws std::runtime_error (EPIPE); it
/// never raises SIGPIPE.
void writeAll(int fd, const std::string& data);

/// Buffered newline-delimited reads/writes over one connection fd.
/// readLine() strips the trailing '\n'; a cleanly closed peer yields
/// false. writeLine() appends the '\n' and flushes immediately — the
/// protocol streams progress, so lines must not sit in a buffer.
class LineChannel {
 public:
  explicit LineChannel(OwnedFd fd) : fd_(std::move(fd)) {}

  /// Reads the next line into *line (without '\n'). Returns false on
  /// orderly EOF with no buffered partial line; throws on read errors.
  [[nodiscard]] bool readLine(std::string* line);

  void writeLine(const std::string& line);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

 private:
  OwnedFd fd_;
  std::string buffer_;
  bool eof_ = false;
};

}  // namespace dynbcast
