#include "serve/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace xp::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw util::Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_fail("fcntl(O_NONBLOCK)");
}

std::atomic<Server*> g_signal_server{nullptr};

void stop_signal_handler(int) {
  if (Server* s = g_signal_server.load()) s->stop();
}

}  // namespace

struct Server::Conn {
  std::uint64_t id = 0;
  int fd = -1;
  std::string rbuf;
  /// Reply slots in request order; a slot is filled when its request
  /// completes and flushes only after every earlier slot has flushed.
  std::deque<std::optional<std::string>> slots;
  std::uint64_t base_seq = 0;  ///< seq of slots.front()
  std::uint64_t next_seq = 0;  ///< seq of the next request to arrive
  std::string wbuf;
  std::size_t woff = 0;
  bool peer_eof = false;
  bool broken = false;

  bool idle() const { return slots.empty() && woff == wbuf.size(); }
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), service_(opt_.service) {
  XP_REQUIRE(!opt_.unix_path.empty() || opt_.tcp_port >= 0,
             "server needs a unix path or a tcp port");
  int pipefd[2];
  if (pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) < 0) sys_fail("pipe2");
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  try {
    open_listeners();
  } catch (...) {
    close(wake_r_);
    close(wake_w_);
    throw;
  }
  service_.set_shutdown_handler([this] { stop(); });
}

Server::~Server() {
  stop();
  join();
  for (const auto& c : conns_)
    if (c->fd >= 0) close(c->fd);
  if (unix_fd_ >= 0) close(unix_fd_);
  if (tcp_fd_ >= 0) close(tcp_fd_);
  if (!opt_.unix_path.empty()) unlink(opt_.unix_path.c_str());
  Server* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  close(wake_r_);
  close(wake_w_);
}

void Server::open_listeners() {
  if (!opt_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    XP_REQUIRE(opt_.unix_path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + opt_.unix_path);
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unix_fd_ < 0) sys_fail("socket(AF_UNIX)");
    unlink(opt_.unix_path.c_str());
    if (bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
      sys_fail("bind(" + opt_.unix_path + ")");
    if (listen(unix_fd_, opt_.backlog) < 0) sys_fail("listen(unix)");
  }
  if (opt_.tcp_port >= 0) {
    tcp_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) sys_fail("socket(AF_INET)");
    const int one = 1;
    setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
      sys_fail("bind(tcp port " + std::to_string(opt_.tcp_port) + ")");
    if (listen(tcp_fd_, opt_.backlog) < 0) sys_fail("listen(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0)
      sys_fail("getsockname");
    tcp_port_ = ntohs(bound.sin_port);
  }
}

void Server::stop() {
  stopping_.store(true);
  // Async-signal-safe wakeup; a full pipe already guarantees a wakeup.
  const char b = 's';
  [[maybe_unused]] const auto n = write(wake_w_, &b, 1);
}

void Server::stop_on_signals(Server& s) {
  g_signal_server.store(&s);
  struct sigaction sa{};
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

void Server::start() {
  XP_REQUIRE(!thread_.joinable(), "server already started");
  thread_ = std::thread([this] { run(); });
}

void Server::join() {
  if (thread_.joinable()) thread_.join();
}

void Server::push_completion(std::uint64_t conn_id, std::uint64_t seq,
                             std::string frame) {
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(Done{conn_id, seq, std::move(frame)});
  }
  const char b = 'c';
  [[maybe_unused]] const auto n = write(wake_w_, &b, 1);
}

void Server::drain_completions() {
  std::vector<Done> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  for (Done& d : done) {
    for (const auto& c : conns_) {
      if (c->id != d.conn_id) continue;
      const std::uint64_t idx = d.seq - c->base_seq;
      if (idx < c->slots.size()) c->slots[idx] = std::move(d.frame);
      break;
    }
    // Connections that closed while their request was in flight simply
    // drop the reply.
  }
}

void Server::accept_ready(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept errors (ECONNABORTED, EMFILE): keep serving
    }
    set_nonblocking(fd);
    const int one = 1;
    // Harmless on unix sockets (ENOPROTOOPT), a latency win on TCP.
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_unique<Conn>();
    c->id = next_conn_id_++;
    c->fd = fd;
    conns_.push_back(std::move(c));
    service_.record_connection(+1, true);
  }
}

void Server::read_ready(Conn& c) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(c.fd, buf, sizeof buf);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      if (c.rbuf.size() > 2 * static_cast<std::size_t>(kMaxFrameBytes)) {
        c.broken = true;  // framing cannot be trusted past the cap
        return;
      }
      continue;
    }
    if (n == 0) {
      c.peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.broken = true;
    return;
  }

  // Extract every complete frame; a framing-level error (forged length)
  // poisons the byte stream, so the connection is dropped rather than
  // answered.
  std::size_t pos = 0;
  while (c.rbuf.size() - pos >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(c.rbuf[pos + i]))
             << (8 * i);
    if (len < kHeaderBytes || len > kMaxFrameBytes) {
      c.broken = true;
      return;
    }
    if (c.rbuf.size() - pos < 4u + len) break;
    std::string payload = c.rbuf.substr(pos + 4, len);
    pos += 4u + len;

    c.slots.emplace_back(std::nullopt);
    const std::uint64_t seq = c.next_seq++;
    const std::uint64_t conn_id = c.id;
    service_.handle_async(
        std::move(payload), [this, conn_id, seq](std::string frame) {
          push_completion(conn_id, seq, std::move(frame));
        });
  }
  if (pos > 0) c.rbuf.erase(0, pos);
}

void Server::flush(Conn& c) {
  // Promote the completed head run into the write buffer (request order).
  while (!c.slots.empty() && c.slots.front().has_value()) {
    c.wbuf += *c.slots.front();
    c.slots.pop_front();
    ++c.base_seq;
  }
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = send(c.fd, c.wbuf.data() + c.woff,
                           c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n > 0) {
      c.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c.broken = true;
    return;
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  }
}

bool Server::conns_idle() const {
  for (const auto& c : conns_)
    if (!c->idle()) return false;
  return true;
}

void Server::run() {
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> grace_deadline;

  for (;;) {
    drain_completions();

    // Flush, then reap connections that are finished or broken.  A peer
    // that half-closed still gets its in-flight replies.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = **it;
      if (!c.broken) flush(c);
      const bool done_conn =
          c.broken || ((c.peer_eof || stopping_.load()) && c.idle());
      if (done_conn) {
        close(c.fd);
        service_.record_connection(-1, false);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }

    if (stopping_.load()) {
      if (!grace_deadline)
        grace_deadline = Clock::now() + std::chrono::duration_cast<
                                            Clock::duration>(
                             std::chrono::duration<double>(opt_.grace_seconds));
      if (conns_.empty() || Clock::now() >= *grace_deadline) break;
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    if (!stopping_.load()) {
      if (unix_fd_ >= 0) fds.push_back(pollfd{unix_fd_, POLLIN, 0});
      if (tcp_fd_ >= 0) fds.push_back(pollfd{tcp_fd_, POLLIN, 0});
    }
    const std::size_t conn0 = fds.size();
    for (const auto& c : conns_) {
      short events = 0;
      const bool backpressured =
          c->slots.size() >=
          static_cast<std::size_t>(std::max(1, opt_.max_pipelined));
      if (!c->peer_eof && !backpressured) events |= POLLIN;
      if (c->woff < c->wbuf.size() ||
          (!c->slots.empty() && c->slots.front().has_value()))
        events |= POLLOUT;
      fds.push_back(pollfd{c->fd, events, 0});
    }

    const int timeout_ms = stopping_.load() ? 50 : 500;
    const int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    for (std::size_t i = 1; i < conn0; ++i)
      if (fds[i].revents & POLLIN) accept_ready(fds[i].fd);
    for (std::size_t i = conn0; i < fds.size(); ++i) {
      const std::size_t ci = i - conn0;
      if (ci >= conns_.size() || conns_[ci]->fd != fds[i].fd) break;
      Conn& c = *conns_[ci];
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_ready(c);
    }
    // Writes happen at the top of the next iteration's flush pass.
  }

  // Drain: close the listeners so the OS refuses new clients immediately.
  if (unix_fd_ >= 0) {
    close(unix_fd_);
    unix_fd_ = -1;
    unlink(opt_.unix_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (const auto& c : conns_) {
    close(c->fd);
    service_.record_connection(-1, false);
  }
  conns_.clear();
}

}  // namespace xp::serve
