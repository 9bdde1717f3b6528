#include "service/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/failpoints.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/numbers.h"

namespace rav::service {

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitCancelled = 5;

using Clock = std::chrono::steady_clock;

}  // namespace

// --- shutdown arbitration -------------------------------------------------

ShutdownArbiter& ShutdownArbiter::Process() {
  static ShutdownArbiter arbiter;
  return arbiter;
}

namespace {

extern "C" void ArbiterDrainSignalHandler(int) {
  // First signal of either kind: request a cooperative drain (one relaxed
  // store — async-signal-safe) and restore the default dispositions so a
  // second SIGINT/SIGTERM kills the process.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  ShutdownArbiter::Process().RequestDrain();
}

}  // namespace

void ShutdownArbiter::InstallSignalHandlers() {
  Process();  // construct before a signal can observe it
  std::signal(SIGINT, ArbiterDrainSignalHandler);
  std::signal(SIGTERM, ArbiterDrainSignalHandler);
}

// --- listen-address parsing -----------------------------------------------

Status ParseListenAddress(const std::string& text, TransportOptions* options) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return Status::InvalidArgument("--listen: expected <addr:port>, e.g. "
                                   "127.0.0.1:7411 (port 0 = ephemeral)");
  }
  const std::string host = text.substr(0, colon);
  in_addr parsed_addr{};
  if (inet_pton(AF_INET, host.c_str(), &parsed_addr) != 1) {
    return Status::InvalidArgument(
        "--listen: '" + host + "' is not a dotted IPv4 address");
  }
  Result<int> port = ParseInt32(text.substr(colon + 1));
  if (!port.ok() || *port < 0 || *port > 65535) {
    return Status::InvalidArgument(
        "--listen: port must be an integer in 0..65535");
  }
  options->host = host;
  options->port = *port;
  return Status::OK();
}

// --- the socket transport -------------------------------------------------

class SocketTransport::Impl {
 public:
  Impl(Service* service, ShutdownArbiter* arbiter, TransportOptions options)
      : service_(service), arbiter_(arbiter), options_(std::move(options)) {}

  ~Impl() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  }

  Status Listen();
  void AddStream(int in_fd, int out_fd);
  int Serve();
  int bound_port() const { return bound_port_; }
  ResponseCounts response_counts() const { return responses_; }

 private:
  // One admitted-but-unfinished request handed to the worker pool.
  struct Pending {
    QueryRequest request;
    uint64_t conn_id = 0;
  };
  // One finished response travelling back to the poll loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string request_id;
    std::string line;
    bool ok = false;
  };

  struct Connection {
    int in_fd = -1;  // an accepted socket reads and writes one fd
    int out_fd = -1;
    // A caller's byte stream (AddStream), not an accepted socket: its fds
    // may block and are not ours to close.
    bool stream = false;
    uint64_t id = 0;
    std::string read_buf;   // partial request line (bounded)
    bool discarding = false;  // inside an oversized line: skip to '\n'
    bool read_closed = false;  // client half-closed; finish + flush + close
    std::string out;        // pending response bytes
    size_t out_pos = 0;
    bool paused = false;    // backpressure: POLLIN disabled
    // Request ids admitted from this connection and not yet answered —
    // cancelled cooperatively if the connection dies first.
    std::unordered_multiset<std::string> pending_ids;
    Clock::time_point last_activity;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };

  void WorkerLoop();
  void Wake();
  Connection& AddConnection(int in_fd, int out_fd);
  void AcceptReady();
  void ReadReady(Connection* conn);
  void WriteReady(Connection* conn);
  void ProcessLine(Connection* conn, const std::string& line);
  void RejectOversizedLine(Connection* conn);
  void AppendResponse(Connection* conn, const std::string& line, bool ok);
  void QueueResponse(Connection* conn, const QueryResponse& response);
  void ApplyCompletions();
  bool AdmissionQueueFull();
  void CloseConnection(uint64_t conn_id, bool cancel_in_flight);
  void BeginDrain();
  bool DrainComplete() const;
  void EnforceDeadlines(Clock::time_point now);

  static void SetNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  Service* service_;
  ShutdownArbiter* arbiter_;
  TransportOptions options_;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Connection> conns_;
  ResponseCounts responses_;
  bool draining_ = false;
  // A stream ended before it finished (its output failed), or poll()
  // itself failed: Serve() returns kExitError unless it drained.
  bool failed_ = false;
  Clock::time_point drain_deadline_;
  // Until this instant the listen fd is left out of the poll set — set on
  // persistent accept() failures (EMFILE/ENFILE) that would otherwise
  // busy-spin the loop.
  Clock::time_point accept_backoff_until_{};
  bool accept_error_logged_ = false;

  // Admission queue (poll thread pushes, workers pop) + the live-conn
  // set workers consult to skip work for connections that died while
  // their request was still queued.
  std::mutex queue_mu_;
  std::condition_variable queue_ready_;
  std::deque<Pending> queue_;
  bool queue_closed_ = false;
  std::unordered_set<uint64_t> live_conns_;

  // Ids actually dispatched to a worker, keyed by connection. A dying
  // connection may only Cancel these: request ids are client-chosen, so
  // cancelling every pending_ids entry could trip another connection's
  // in-flight request that happens to share an id with one of ours still
  // sitting in the queue (duplicates are only rejected at execution
  // time). Queued-but-unstarted work needs no cancel — workers skip it
  // via live_conns_.
  std::mutex executing_mu_;
  std::unordered_map<uint64_t, std::unordered_multiset<std::string>>
      executing_;

  // Completion channel (workers push, poll thread drains on wake).
  std::mutex completion_mu_;
  std::vector<Completion> completions_;
};

Status SocketTransport::Impl::Listen() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("listen address '" + options_.host +
                                   "' is not a dotted IPv4 address");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal("bind(" + options_.host + ":" +
                            std::to_string(options_.port) +
                            "): " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen(): ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  SetNonBlocking(listen_fd_);
  return Status::OK();
}

void SocketTransport::Impl::AddStream(int in_fd, int out_fd) {
  AddConnection(in_fd, out_fd).stream = true;
}

void SocketTransport::Impl::Wake() {
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly what we want.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void SocketTransport::Impl::WorkerLoop() {
  for (;;) {
    Pending item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock,
                        [&] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      RAV_METRIC_SET("serve/queue_depth", queue_.size());
      // A request whose connection died while queued is not worth
      // executing — nobody can receive the answer.
      if (live_conns_.find(item.conn_id) == live_conns_.end()) continue;
      // Register as executing while still holding queue_mu_:
      // CloseConnection erases live_conns_ under the same lock, so it
      // either observes this entry or the check above sees the
      // connection already dead — never neither.
      std::lock_guard<std::mutex> exec_lock(executing_mu_);
      executing_[item.conn_id].insert(item.request.id);
    }
    QueryResponse response = service_->Handle(item.request);
    {
      std::lock_guard<std::mutex> lock(executing_mu_);
      if (auto exec = executing_.find(item.conn_id);
          exec != executing_.end()) {
        if (auto entry = exec->second.find(item.request.id);
            entry != exec->second.end()) {
          exec->second.erase(entry);
        }
        if (exec->second.empty()) executing_.erase(exec);
      }
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(
          {item.conn_id, response.id, response.ToJsonLine(), response.ok});
    }
    Wake();
  }
}

void SocketTransport::Impl::AppendResponse(Connection* conn,
                                           const std::string& line, bool ok) {
  conn->out += line;
  conn->out += '\n';
  ++responses_.total;
  if (!ok) ++responses_.failed;
  // Buffering a response restarts the idle clock: the peer was waiting,
  // not idling, and must get a chance to read the answer before the
  // reaper may close the connection.
  conn->last_activity = Clock::now();
}

void SocketTransport::Impl::QueueResponse(Connection* conn,
                                          const QueryResponse& response) {
  AppendResponse(conn, response.ToJsonLine(), response.ok);
}

void SocketTransport::Impl::ApplyCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) {
      // The connection died while its request ran — the governor was
      // cancelled, the result has nowhere to go.
      RAV_METRIC_COUNT("serve/dropped_responses", 1);
      continue;
    }
    Connection& conn = it->second;
    if (auto pending = conn.pending_ids.find(done.request_id);
        pending != conn.pending_ids.end()) {
      conn.pending_ids.erase(pending);
    }
    AppendResponse(&conn, done.line, done.ok);
  }
}

SocketTransport::Impl::Connection& SocketTransport::Impl::AddConnection(
    int in_fd, int out_fd) {
  const uint64_t id = next_conn_id_++;
  Connection& conn = conns_[id];
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  conn.id = id;
  conn.last_activity = Clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    live_conns_.insert(id);
  }
  RAV_METRIC_COUNT("serve/connections_total", 1);
  RAV_METRIC_SET("serve/connections", conns_.size());
  return conn;
}

void SocketTransport::Impl::AcceptReady() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      if (errno == ECONNABORTED) continue;  // peer gone between poll/accept
      // Persistent failures (EMFILE/ENFILE: fds exhausted) leave the
      // listen fd readable forever, so returning here would make every
      // poll() wake immediately — a 100% CPU spin. Log once and stop
      // polling the listener briefly before retrying.
      if (!accept_error_logged_) {
        std::fprintf(stderr, "rav_serve: accept(): %s — pausing accepts\n",
                     std::strerror(errno));
        accept_error_logged_ = true;
      }
      RAV_METRIC_COUNT("serve/accept_errors", 1);
      accept_backoff_until_ = Clock::now() + std::chrono::milliseconds(100);
      return;
    }
    accept_error_logged_ = false;
    if (RAV_FAILPOINT("service/transport/accept") ||
        conns_.size() >= options_.max_connections) {
      // Admission at the connection level: over capacity (or the injected
      // accept fault) drops the connection outright — never a wedge.
      ::close(fd);
      RAV_METRIC_COUNT("serve/accept_rejected", 1);
      continue;
    }
    SetNonBlocking(fd);
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    AddConnection(fd, fd);
  }
}

void SocketTransport::Impl::ProcessLine(Connection* conn,
                                        const std::string& line) {
  if (line.empty()) return;
  Result<QueryRequest> request = ParseRequest(line);
  if (!request.ok()) {
    QueueResponse(conn, MakeParseError(line, request.status()));
    return;
  }
  // Control ops answer inline on the poll thread — a cancel must reach a
  // stuck request even when every worker is busy.
  if (request->op == Op::kCancel || request->op == Op::kStats) {
    QueueResponse(conn, service_->Handle(*request));
    return;
  }
  // Admission control: a full queue sheds a socket's request immediately
  // with a structured hint instead of queueing without bound. A stream's
  // request is never shed, as nobody could retry it: the stream's reads
  // pause while the queue is full instead, so it overshoots the depth by
  // at most one read chunk.
  bool admitted = false;
  if (!RAV_FAILPOINT("service/transport/admit")) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if ((conn->stream || queue_.size() < options_.queue_depth) &&
        !queue_closed_) {
      queue_.push_back({*std::move(request), conn->id});
      conn->pending_ids.insert(queue_.back().request.id);
      RAV_METRIC_SET("serve/queue_depth", queue_.size());
      admitted = true;
    }
  }
  if (admitted) {
    queue_ready_.notify_one();
    return;
  }
  RAV_METRIC_COUNT("serve/shed_total", 1);
  QueueResponse(conn,
                MakeRejection({.id = request->id,
                               .op = OpName(request->op),
                               .error_kind = "overloaded",
                               .resource = "queue",
                               .message = "admission queue is full (depth " +
                                          std::to_string(options_.queue_depth) +
                                          ") — retry after the hinted backoff",
                               .exit_equivalent = 4,
                               .retry_after_ms = options_.retry_after_ms}));
}

void SocketTransport::Impl::ReadReady(Connection* conn) {
  if (RAV_FAILPOINT("service/transport/read")) {
    // Injected read fault: indistinguishable from a torn connection.
    CloseConnection(conn->id, /*cancel_in_flight=*/true);
    return;
  }
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(conn->in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(conn->id, /*cancel_in_flight=*/true);
      return;
    }
    if (n == 0) {
      // Half-close (or a stream's EOF): no more requests, but the client
      // still reads — finish what was admitted, flush, then close. A final
      // line without a newline is still a request, unless it is the tail
      // of an oversized line being discarded.
      conn->read_closed = true;
      if (!conn->discarding && !conn->read_buf.empty()) {
        std::string line;
        line.swap(conn->read_buf);
        ProcessLine(conn, line);
      }
      return;
    }
    conn->last_activity = Clock::now();
    conn->bytes_in += static_cast<uint64_t>(n);
    RAV_METRIC_COUNT("serve/bytes_read", static_cast<uint64_t>(n));
    size_t start = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      if (chunk[i] != '\n') continue;
      if (conn->discarding) {
        conn->discarding = false;  // oversized line fully skipped
      } else if (conn->read_buf.size() + (i - start) >
                 options_.max_line_bytes) {
        // Complete but oversized: the newline landed in the same chunk
        // as the overflow, so the tail check below never saw it.
        RejectOversizedLine(conn);
      } else {
        conn->read_buf.append(chunk + start, i - start);
        std::string line;
        line.swap(conn->read_buf);
        ProcessLine(conn, line);
      }
      start = i + 1;
    }
    if (!conn->discarding) {
      conn->read_buf.append(chunk + start, static_cast<size_t>(n) - start);
      if (conn->read_buf.size() > options_.max_line_bytes) {
        RejectOversizedLine(conn);
        conn->discarding = true;  // skip to the next newline unbuffered
      }
    }
    // A socket is read until EAGAIN; a stream's fd may block, so it gets
    // one read per POLLIN.
    if (conn->stream) return;
  }
}

void SocketTransport::Impl::RejectOversizedLine(Connection* conn) {
  // The request id is unrecoverable from an oversized line (it may sit
  // past the cap); reject with an empty id and drop the buffered bytes.
  RAV_METRIC_COUNT("serve/too_large_total", 1);
  QueueResponse(
      conn,
      MakeRejection({.error_kind = "request_too_large",
                     .resource = "request_line",
                     .message = "request line exceeds --max-line (" +
                                std::to_string(options_.max_line_bytes) +
                                " bytes); it was discarded",
                     .exit_equivalent = 1}));
  conn->read_buf.clear();
  conn->read_buf.shrink_to_fit();
}

void SocketTransport::Impl::WriteReady(Connection* conn) {
  if (RAV_FAILPOINT("service/transport/write")) {
    // Injected write fault: as if the peer vanished mid-response.
    CloseConnection(conn->id, /*cancel_in_flight=*/true);
    return;
  }
  while (conn->out_pos < conn->out.size()) {
    size_t length = conn->out.size() - conn->out_pos;
    // A socket is written until EAGAIN. A stream's fd may block, so it is
    // written while it polls ready, PIPE_BUF bytes at a time: that much
    // fits a pipe that polls writable, and a pipe without a reader polls
    // as an error that the write then reports.
    if (conn->stream) {
      pollfd ready{conn->out_fd, POLLOUT, 0};
      if (::poll(&ready, 1, 0) != 1) break;
      length = std::min<size_t>(length, PIPE_BUF);
    }
    const ssize_t n =
        ::write(conn->out_fd, conn->out.data() + conn->out_pos, length);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn->id, /*cancel_in_flight=*/true);
      return;
    }
    conn->out_pos += static_cast<size_t>(n);
    conn->bytes_out += static_cast<uint64_t>(n);
    conn->last_activity = Clock::now();
    RAV_METRIC_COUNT("serve/bytes_written", static_cast<uint64_t>(n));
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  } else if (conn->out_pos > (size_t{64} << 10)) {
    conn->out.erase(0, conn->out_pos);
    conn->out_pos = 0;
  }
}

bool SocketTransport::Impl::AdmissionQueueFull() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size() >= options_.queue_depth;
}

void SocketTransport::Impl::CloseConnection(uint64_t conn_id,
                                            bool cancel_in_flight) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  // A stream is only cut off when its output (or input) failed; one that
  // finished closes without a cancel.
  if (conn.stream && cancel_in_flight) failed_ = true;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    live_conns_.erase(conn_id);
  }
  if (cancel_in_flight) {
    // Mid-request disconnect: trip the governors of everything a worker
    // is actually executing for this connection so nobody keeps computing
    // an answer that can't be read. Only worker-dispatched ids are safe
    // to Cancel — ids are client-chosen, and a queued duplicate of
    // another connection's in-flight id must not cancel that request.
    // Queued-but-unstarted work is skipped by the workers via
    // live_conns_.
    std::unordered_multiset<std::string> executing;
    {
      std::lock_guard<std::mutex> lock(executing_mu_);
      if (auto exec = executing_.find(conn_id); exec != executing_.end()) {
        executing = std::move(exec->second);
        executing_.erase(exec);
      }
    }
    for (const std::string& id : executing) service_->Cancel(id);
  }
  RAV_METRIC_RECORD("serve/conn_bytes_in", conn.bytes_in);
  RAV_METRIC_RECORD("serve/conn_bytes_out", conn.bytes_out);
  if (!conn.stream) ::close(conn.in_fd);
  conns_.erase(it);
  RAV_METRIC_SET("serve/connections", conns_.size());
}

void SocketTransport::Impl::BeginDrain() {
  draining_ = true;
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Queued-but-unstarted requests are answered truthfully instead of
  // silently vanishing; in-flight ones trip their governors and answer
  // truncated through the normal completion path.
  std::vector<Pending> dropped;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    while (!queue_.empty()) {
      dropped.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    RAV_METRIC_SET("serve/queue_depth", 0);
  }
  for (Pending& item : dropped) {
    auto it = conns_.find(item.conn_id);
    if (it == conns_.end()) continue;
    if (auto pending = it->second.pending_ids.find(item.request.id);
        pending != it->second.pending_ids.end()) {
      it->second.pending_ids.erase(pending);
    }
    QueueResponse(&it->second,
                  MakeRejection({.id = item.request.id,
                                 .op = OpName(item.request.op),
                                 .error_kind = "shutting_down",
                                 .message = "server is draining — request was "
                                            "not started",
                                 .exit_equivalent = 5}));
  }
  service_->CancelAll();
}

bool SocketTransport::Impl::DrainComplete() const {
  for (const auto& [id, conn] : conns_) {
    if (!conn.pending_ids.empty()) return false;
    if (conn.out_pos < conn.out.size()) return false;
  }
  return true;
}

void SocketTransport::Impl::EnforceDeadlines(Clock::time_point now) {
  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    // A connection with admitted-but-unanswered requests is not idle —
    // the client is legitimately waiting on a long query (its runtime is
    // bounded by the request's own governor, not by this reaper). The
    // idle timeout covers keep-alives, half-written request lines, and
    // readers too slow to drain their responses. A stream is never
    // reaped: nobody could reconnect to it.
    if (conn.stream || !conn.pending_ids.empty()) continue;
    if (now - conn.last_activity > idle_limit) expired.push_back(id);
  }
  for (uint64_t id : expired) {
    RAV_METRIC_COUNT("serve/idle_closed", 1);
    CloseConnection(id, /*cancel_in_flight=*/true);
  }
}

int SocketTransport::Impl::Serve() {
  RAV_CHECK(listen_fd_ >= 0 || !conns_.empty());  // Listen()/AddStream()
  std::signal(SIGPIPE, SIG_IGN);
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    std::fprintf(stderr, "rav_serve: pipe(): %s\n", std::strerror(errno));
    return kExitError;
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers.emplace_back([this] { WorkerLoop(); });
  }

  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per fds entry (0 = not a conn)
  for (;;) {
    if (!draining_ && arbiter_->drain_requested()) BeginDrain();
    // With no listener (none, or closed by the drain), the transport ends
    // with its last connection.
    if (listen_fd_ < 0 && conns_.empty()) break;
    if (draining_ &&
        (DrainComplete() || Clock::now() >= drain_deadline_)) {
      break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (listen_fd_ >= 0 && Clock::now() >= accept_backoff_until_) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      const size_t backlog = conn.out.size() - conn.out_pos;
      // Backpressure with hysteresis: pause reading above the limit and
      // resume only once the backlog drains below half of it, so a peer
      // hovering at the boundary doesn't flap every poll tick.
      if (conn.paused) {
        conn.paused = backlog >= options_.write_buffer_limit / 2;
      } else {
        conn.paused = backlog > options_.write_buffer_limit;
      }
      const bool reading = !conn.read_closed && !conn.paused && !draining_;
      if (conn.stream) {
        // Each side of a stream is polled only while it has work: a pipe
        // whose writer closed reports POLLHUP on every poll. Reads also
        // pause while the admission queue is full.
        if (reading && !AdmissionQueueFull()) {
          fds.push_back({conn.in_fd, POLLIN, 0});
          fd_conn.push_back(id);
        }
        if (backlog > 0) {
          fds.push_back({conn.out_fd, POLLOUT, 0});
          fd_conn.push_back(id);
        }
        continue;
      }
      short events = 0;
      if (reading) events |= POLLIN;
      if (backlog > 0) events |= POLLOUT;
      fds.push_back({conn.in_fd, events, 0});
      fd_conn.push_back(id);
    }

    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR) {
      failed_ = true;
      break;
    }

    // Wake pipe: drain it, then fold in finished responses.
    if ((fds[0].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    ApplyCompletions();

    for (size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const uint64_t id = fd_conn[i];
      if (id == 0) {
        AcceptReady();  // the listener
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      if (it->second.stream) {
        // Data, EOF and errors all show in the read or the write: a pipe
        // with no reader left fails the write with EPIPE.
        if (fds[i].events == POLLIN) {
          ReadReady(&it->second);
        } else {
          WriteReady(&it->second);
        }
        continue;
      }
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        CloseConnection(id, /*cancel_in_flight=*/true);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        ReadReady(&conns_[id]);
        if (conns_.find(id) == conns_.end()) continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        WriteReady(&conns_[id]);
        if (conns_.find(id) == conns_.end()) continue;
      }
      if ((fds[i].revents & POLLHUP) != 0 &&
          conns_[id].out_pos >= conns_[id].out.size()) {
        // Peer is gone and nothing is left to flush toward it.
        CloseConnection(id, /*cancel_in_flight=*/true);
        continue;
      }
    }

    // A connection that half-closed and has nothing pending or buffered
    // is complete; deadlines reap the rest.
    std::vector<uint64_t> finished;
    for (const auto& [id, conn] : conns_) {
      if (conn.read_closed && conn.pending_ids.empty() &&
          conn.out_pos >= conn.out.size()) {
        finished.push_back(id);
      }
    }
    for (uint64_t id : finished) {
      CloseConnection(id, /*cancel_in_flight=*/false);
    }
    EnforceDeadlines(Clock::now());
  }

  // Wind-down: no new work, workers drain what is already executing
  // (their governors are tripped on the drain path), then exit.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
    queue_.clear();
  }
  queue_ready_.notify_all();
  for (std::thread& worker : workers) worker.join();
  ApplyCompletions();
  // Best-effort final flush of already-buffered responses, as far as it
  // goes without blocking. A write can close (and erase) a dead peer's
  // connection, so walk a snapshot of ids, not conns_ itself.
  std::vector<uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) remaining.push_back(id);
  for (uint64_t id : remaining) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (it->second.out_pos < it->second.out.size()) WriteReady(&it->second);
  }
  for (uint64_t id : remaining) {
    CloseConnection(id, /*cancel_in_flight=*/false);
  }
  if (draining_) return kExitCancelled;
  return failed_ ? kExitError : kExitOk;
}

SocketTransport::SocketTransport(Service* service, ShutdownArbiter* arbiter,
                                 TransportOptions options)
    : impl_(std::make_unique<Impl>(service, arbiter, std::move(options))) {}

SocketTransport::~SocketTransport() = default;

Status SocketTransport::Listen() { return impl_->Listen(); }

void SocketTransport::AddStream(int in_fd, int out_fd) {
  impl_->AddStream(in_fd, out_fd);
}

int SocketTransport::bound_port() const { return impl_->bound_port(); }

int SocketTransport::Serve() { return impl_->Serve(); }

SocketTransport::ResponseCounts SocketTransport::response_counts() const {
  return impl_->response_counts();
}

}  // namespace rav::service
