#ifndef RAV_SERVICE_TRANSPORT_H_
#define RAV_SERVICE_TRANSPORT_H_

// The serving transport in front of service::Service (docs/serving.md):
//
//   * ShutdownArbiter — the drain flag behind the signal contract (first
//     SIGINT/SIGTERM drains cooperatively, the second kills);
//   * SocketTransport — one poll loop with per-connection state machines
//     speaking JSON lines over accepted TCP connections and over byte
//     streams (stdin/stdout for `rav_serve`, a batch file for
//     `rav_cli batch`): bounded request lines (`request_too_large`), an
//     admission controller (bounded request queue; a socket's overflow is
//     answered immediately with a structured `overloaded` rejection
//     carrying a `retry_after_ms` hint, a stream's reads pause instead),
//     per-connection backpressure (bounded write buffers; a slow reader
//     stalls only its own connection, never a worker thread), idle
//     deadlines for sockets, and graceful drain (stop accepting,
//     truthfully finish or truncate in-flight requests via their
//     ExecutionGovernors, flush, exit 5).
//
// Failpoint sites (docs/robustness.md): service/transport/accept,
// service/transport/read, service/transport/write,
// service/transport/admit. Metrics: serve/queue_depth, serve/shed_total,
// serve/connections, serve/bytes_{read,written}, and per-connection
// byte histograms serve/conn_bytes_{in,out} recorded at close.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "base/status.h"
#include "service/request.h"
#include "service/service.h"

namespace rav::service {

// Cap on one buffered JSON-lines request (1 MiB), on sockets and streams
// alike.
inline constexpr size_t kDefaultMaxRequestLineBytes = size_t{1} << 20;

// The drain flag the signal handlers set and the transport polls. The
// process-wide instance backs the signal wiring; tests construct their
// own and call RequestDrain() programmatically.
class ShutdownArbiter {
 public:
  // Cooperative drain requested (signal-handler safe: one relaxed store).
  void RequestDrain() { drain_.store(true, std::memory_order_relaxed); }
  bool drain_requested() const {
    return drain_.load(std::memory_order_relaxed);
  }

  // The instance the installed signal handlers drain.
  static ShutdownArbiter& Process();

  // Installs the shared signal contract on SIGINT and SIGTERM: the
  // first signal of either kind requests a drain on Process() and
  // restores SIG_DFL on both, so a second signal kills the process
  // (exit 128+sig). Call once from a frontend's main.
  static void InstallSignalHandlers();

 private:
  std::atomic<bool> drain_{false};
};

struct TransportOptions {
  std::string host = "127.0.0.1";  // dotted IPv4 listen address
  int port = 0;                    // 0 = ephemeral (bound_port() tells)
  int threads = kDefaultServeThreads;  // worker threads executing requests
  // Admission control: at most this many parsed requests queued for the
  // workers; a socket's overflow is shed immediately with `overloaded` +
  // retry_after_ms instead of queueing without bound.
  size_t queue_depth = 256;
  long long retry_after_ms = 50;  // hint stamped on shed rejections
  size_t max_line_bytes = kDefaultMaxRequestLineBytes;
  // A socket with no activity (no bytes in or out) for this long is
  // closed — covers idle keep-alives, half-written request lines (slow
  // loris), and readers too slow to drain their responses.
  long long idle_timeout_ms = 30000;
  // Per-connection write-buffer high-water mark: above it the transport
  // stops READING that connection (its own requests stall) until the
  // buffer drains below half; other connections and the workers never
  // block on it.
  size_t write_buffer_limit = size_t{4} << 20;
  // Graceful drain gives in-flight requests and response flushing this
  // long after the drain signal before the transport closes anyway.
  long long drain_timeout_ms = 5000;
  size_t max_connections = 256;
};

// Parses "addr:port" (dotted IPv4, port 0..65535) into options->host /
// options->port.
Status ParseListenAddress(const std::string& text, TransportOptions* options);

// The poll-driven frontend. Single-threaded I/O (one poll loop owns every
// socket and stream) over a bounded worker pool calling Service::Handle;
// workers hand finished responses back to the poll loop, so a dead or
// slow connection can only ever cost the loop a closed fd, never a
// blocked worker.
class SocketTransport {
 public:
  SocketTransport(Service* service, ShutdownArbiter* arbiter,
                  TransportOptions options);
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Binds and listens. After OK, bound_port() is the real port (useful
  // with port 0).
  Status Listen();
  int bound_port() const;

  // Adds a byte stream: requests are read from `in_fd` and answered on
  // `out_fd` (stdin and stdout, or an opened batch file and stdout). The
  // fds stay the caller's: the transport neither closes them nor changes
  // their flags, so it reads a stream once per POLLIN and writes it
  // PIPE_BUF bytes at a time while it polls ready. Nobody can retry or
  // reconnect on a stream, so it is never shed (its reads pause while
  // the admission queue is full, and the pipe pushes back on the writer)
  // and never reaped as idle. Call before Serve().
  void AddStream(int in_fd, int out_fd);

  // Serves until the arbiter requests a drain, then winds down: stops
  // accepting, rejects queued-but-unstarted requests (`shutting_down`),
  // cooperatively cancels in-flight ones (their governors trip and they
  // answer truthfully truncated), flushes every connection's responses
  // (bounded by drain_timeout_ms), and returns the documented exit code
  // 5. Without a listener it also returns when its last stream ends: 0
  // once every stream reached EOF and flushed its answers, 1 when a
  // stream's output failed (its reader went away; that stream's
  // in-flight work is cancelled and its queued work dropped). Call
  // Listen() or AddStream() first.
  int Serve();

  // Responses queued so far, and how many of them were ok:false — read
  // after Serve() returns.
  struct ResponseCounts {
    size_t total = 0;
    size_t failed = 0;
  };
  ResponseCounts response_counts() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rav::service

#endif  // RAV_SERVICE_TRANSPORT_H_
