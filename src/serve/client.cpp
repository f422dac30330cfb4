#include "serve/client.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <utility>

#include "trace/trace_io.hpp"

namespace xp::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw util::Error(what + ": " + std::strerror(errno));
}

}  // namespace

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  XP_REQUIRE(path.size() < sizeof(addr.sun_path),
             "unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_UNIX)");
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    close(fd);
    errno = err;
    sys_fail("connect(" + path + ")");
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_INET)");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    close(fd);
    errno = err;
    sys_fail("connect(localhost:" + std::to_string(port) + ")");
  }
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Client::Client(Client&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      next_id_(o.next_id_),
      rbuf_(std::move(o.rbuf_)),
      stashed_(std::move(o.stashed_)) {}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    next_id_ = o.next_id_;
    rbuf_ = std::move(o.rbuf_);
    stashed_ = std::move(o.stashed_);
  }
  return *this;
}

void Client::send_all(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    sys_fail("send to server");
  }
}

Client::Ticket Client::send_request(MsgType type, std::string_view body) {
  const Ticket id = next_id_++;
  send_all(encode_frame(type, false, id, body));
  return id;
}

Frame Client::read_frame_for(Ticket id) {
  const auto stashed = stashed_.find(id);
  if (stashed != stashed_.end()) {
    Frame f = std::move(stashed->second);
    stashed_.erase(stashed);
    return f;
  }
  char buf[1 << 16];
  for (;;) {
    if (auto parsed = try_parse_frame(rbuf_)) {
      rbuf_.erase(0, parsed->second);
      Frame f = std::move(parsed->first);
      if (!f.is_reply)
        throw ProtocolError("server sent a non-reply frame");
      if (f.request_id == id) return f;
      stashed_.emplace(f.request_id, std::move(f));
      continue;
    }
    const ssize_t n = read(fd_, buf, sizeof buf);
    if (n > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0)
      throw util::Error("server closed the connection mid-reply");
    sys_fail("read from server");
  }
}

std::string Client::wait_ok(Ticket id) {
  Frame f = read_frame_for(id);
  WireReader r(f.body);
  const std::uint8_t status = r.u8();
  if (status != 0) throw ServeError("server: " + r.str());
  return std::string(r.rest());
}

std::uint64_t Client::load_trace(const trace::Trace& measured) {
  std::ostringstream os;
  trace::write_binary(measured, os);
  return load_trace_bytes(os.str());
}

std::uint64_t Client::load_trace_bytes(const std::string& xptb_bytes) {
  const Ticket id = send_request(MsgType::LoadTrace, xptb_bytes);
  const std::string body = wait_ok(id);
  WireReader r(body);
  const std::uint64_t session = r.u64();
  (void)r.i32();  // n_threads, informational
  r.expect_end();
  return session;
}

std::uint64_t Client::open_bench(const std::string& name) {
  WireWriter w;
  w.str(name);
  const Ticket id = send_request(MsgType::OpenBench, w.data());
  const std::string body = wait_ok(id);
  WireReader r(body);
  const std::uint64_t session = r.u64();
  (void)r.i32();
  r.expect_end();
  return session;
}

void Client::close_session(std::uint64_t session) {
  WireWriter w;
  w.u64(session);
  wait_ok(send_request(MsgType::CloseSession, w.data()));
}

QueryResult Client::query(std::uint64_t session, const Query& q) {
  auto results = query_batch(session, {q});
  return std::move(results.at(0));
}

std::vector<QueryResult> Client::query_batch(
    std::uint64_t session, const std::vector<Query>& queries) {
  return wait_batch(submit_batch(session, queries));
}

Client::Ticket Client::submit_batch(std::uint64_t session,
                                    const std::vector<Query>& queries) {
  WireWriter w;
  w.u64(session);
  w.u32(static_cast<std::uint32_t>(queries.size()));
  for (const Query& q : queries) encode_query(w, q);
  return send_request(MsgType::QueryBatch, w.data());
}

PatternModelResult Client::pattern_model(std::uint64_t session,
                                         const PatternQuery& q) {
  WireWriter w;
  w.u64(session);
  encode_pattern_query(w, q);
  const std::string body = wait_ok(send_request(MsgType::PatternModel,
                                                w.data()));
  WireReader r(body);
  PatternModelResult res = decode_pattern_result(r);
  r.expect_end();
  return res;
}

std::vector<QueryResult> Client::wait_batch(Ticket t) {
  const std::string body = wait_ok(t);
  WireReader r(body);
  const std::uint32_t count = r.u32();
  std::vector<QueryResult> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(decode_query_result(r));
  r.expect_end();
  return out;
}

ServerStats Client::stats() {
  const std::string body = wait_ok(send_request(MsgType::Stats, {}));
  WireReader r(body);
  ServerStats s = decode_stats(r);
  r.expect_end();
  return s;
}

void Client::shutdown_server() {
  wait_ok(send_request(MsgType::Shutdown, {}));
}

}  // namespace xp::serve
