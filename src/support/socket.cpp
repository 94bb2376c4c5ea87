#include "src/support/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace dynbcast {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void fillAddress(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof addr->sun_path) {
    throw std::runtime_error("socket path '" + path +
                             "' is empty or longer than sun_path allows");
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
}

}  // namespace

void OwnedFd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path, int backlog)
    : path_(path) {
  sockaddr_un addr;
  fillAddress(path, &addr);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throwErrno("socket(AF_UNIX)");
  // A stale socket file from a killed server would make bind fail with
  // EADDRINUSE; the server owns its socket path, so reclaim it.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throwErrno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) throwErrno("listen(" + path + ")");
  fd_ = std::move(fd);
}

UnixListener::~UnixListener() { ::unlink(path_.c_str()); }

OwnedFd UnixListener::accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) return OwnedFd(client);
    if (errno == EINTR) continue;
    throwErrno("accept(" + path_ + ")");
  }
}

OwnedFd connectUnix(const std::string& path) {
  sockaddr_un addr;
  fillAddress(path, &addr);
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throwErrno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throwErrno("connect(" + path + ")");
  }
  return fd;
}

void writeAll(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE, not as a
    // SIGPIPE that would kill the whole process (a server outliving its
    // clients is the point).
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("send");
    }
    written += static_cast<std::size_t>(n);
  }
}

bool LineChannel::readLine(std::string* line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (eof_) {
      // A peer that died mid-line leaves a partial tail; surface it so
      // the caller's parse fails loudly instead of silently dropping it.
      if (buffer_.empty()) return false;
      *line = std::move(buffer_);
      buffer_.clear();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_.get(), chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("read");
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineChannel::writeLine(const std::string& line) {
  writeAll(fd_.get(), line + "\n");
}

}  // namespace dynbcast
