// rav_serve — long-lived decision service over stdio or TCP
// (docs/serving.md).
//
// Usage:
//   rav_serve [--threads N] [--cache N] [--max-line BYTES]
//             [--listen <addr:port>] [--queue-depth N]
//             [--idle-timeout DUR]
//
// Protocol: JSON lines. Each request line is one request (schema of
// service/request.h), each response line one response — responses appear
// in COMPLETION order, matched to requests by their "id". A spec is
// compiled once (parse → lint → strip → complete) and cached by content
// hash, so a stream of queries against one spec pays the compile once
// (bench/bench_service.cc measures the amortization).
//
//   --threads N     worker threads executing query ops concurrently
//                   (default service::kDefaultServeThreads = 4; 0 = all
//                   hardware threads). `cancel` and `stats` are answered
//                   inline by the reader/poll thread, so a cancel
//                   reaches a stuck request even when every worker is
//                   busy.
//   --cache N       compiled-spec cache capacity (default 64).
//   --max-line B    cap on one buffered request line (default 1m); an
//                   oversized line is rejected with a structured
//                   `request_too_large` error instead of buffering
//                   without bound.
//
// Socket mode (--listen, docs/serving.md "Socket transport"):
//   --listen A:P    serve TCP on dotted-IPv4 A, port P (0 = ephemeral;
//                   the bound address is printed to stderr). Adds an
//                   admission controller (--queue-depth, default 256;
//                   overflow answers `overloaded` + retry_after_ms),
//                   per-connection backpressure and idle/read deadlines
//                   (--idle-timeout, default 30s).
//
// Isolation: each request runs under its own ExecutionGovernor armed
// from the request's "timeout"/"memory_limit"; a request tripping its
// deadline or budget yields exit_equivalent 4 for THAT response and
// leaves concurrent requests untouched (tests/service_test.cc proves
// this; tools/run_ci.sh smokes it end to end).
//
// Shutdown (one ShutdownArbiter shared by both transports, so the
// signal semantics cannot drift):
//   * stdio: stdin EOF — drain every accepted request, flush, exit 0;
//   * first SIGINT/SIGTERM — stop accepting, cancel in-flight requests
//     cooperatively (they answer truthfully truncated), reject queued
//     ones, flush, exit 5;
//   * second SIGINT/SIGTERM — default disposition (kill).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/numbers.h"
#include "service/request.h"
#include "service/service.h"
#include "service/transport.h"

namespace rav {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCancelled = 5;

// Stdout is shared by every worker: one line per response, atomically.
std::mutex g_stdout_mu;

void EmitResponse(const service::QueryResponse& response) {
  const std::string line = response.ToJsonLine();
  std::lock_guard<std::mutex> lock(g_stdout_mu);
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);  // each line is a complete message; don't batch
}

struct RequestQueue {
  std::mutex mu;
  std::condition_variable ready;
  std::deque<service::QueryRequest> items;
  bool closed = false;

  void Push(service::QueryRequest request) {
    {
      std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(request));
    }
    ready.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    ready.notify_all();
  }
  // Drops everything not yet started (shutdown path); returns the count.
  size_t Clear() {
    std::lock_guard<std::mutex> lock(mu);
    size_t dropped = items.size();
    items.clear();
    return dropped;
  }
  bool Pop(service::QueryRequest* request) {
    std::unique_lock<std::mutex> lock(mu);
    ready.wait(lock, [&] { return closed || !items.empty(); });
    if (items.empty()) return false;
    *request = std::move(items.front());
    items.pop_front();
    return true;
  }
};

// The original byte-compatible stdio transport, now sharing the
// ShutdownArbiter and the bounded line reader with the socket path.
int ServeStdio(service::Service& service, int threads,
               size_t max_line_bytes) {
  service::ShutdownArbiter& arbiter = service::ShutdownArbiter::Process();
  RequestQueue queue;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&] {
      service::QueryRequest request;
      while (queue.Pop(&request)) EmitResponse(service.Handle(request));
    });
  }

  // The watchdog turns the drain signal into cooperative cancellation:
  // in-flight governors trip, workers finish fast, queued requests are
  // dropped. Polling is the only option — the reader may be blocked in
  // a line read and must not be required to notice. Exactly one side
  // (EOF drain or interrupt path) joins the workers: the arbiter's
  // Claim() arbitrates.
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (arbiter.drain_requested()) {
        const size_t dropped = queue.Clear();
        queue.Close();
        const size_t cancelled = service.CancelAll();
        std::fprintf(stderr,
                     "rav_serve: interrupted — cancelled %zu in-flight, "
                     "dropped %zu queued request(s)\n",
                     cancelled, dropped);
        if (!arbiter.Claim()) return;  // EOF drain owns the wind-down
        for (std::thread& w : workers) w.join();
        {
          std::lock_guard<std::mutex> lock(g_stdout_mu);
          std::fflush(stdout);
        }
        // The reader thread may be parked in a blocking read on an open
        // stdin; _Exit skips waiting on it (everything is flushed above).
        std::_Exit(kExitCancelled);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::string line;
  for (;;) {
    const service::ReadLineStatus status =
        service::ReadBoundedLine(std::cin, &line, max_line_bytes);
    if (status == service::ReadLineStatus::kEof) break;
    if (status == service::ReadLineStatus::kTooLarge) {
      EmitResponse(service::MakeRejection(
          {.error_kind = "request_too_large",
           .resource = "request_line",
           .message = "request line exceeds --max-line (" +
                      std::to_string(max_line_bytes) +
                      " bytes); it was discarded",
           .exit_equivalent = kExitError}));
      continue;
    }
    if (line.empty()) continue;
    Result<service::QueryRequest> request = service::ParseRequest(line);
    if (!request.ok()) {
      EmitResponse(service::MakeParseError(line, request.status()));
      continue;
    }
    // Control ops answer inline so they cannot starve behind busy
    // workers; query ops go to the pool.
    if (request->op == service::Op::kCancel ||
        request->op == service::Op::kStats) {
      EmitResponse(service.Handle(*request));
    } else {
      queue.Push(*std::move(request));
    }
  }

  queue.Close();
  if (!arbiter.Claim()) {
    // The interrupt path got there first and will join + _Exit; just
    // wait for it.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_relaxed);
  watchdog.join();
  std::fflush(stdout);
  return arbiter.drain_requested() ? kExitCancelled : kExitOk;
}

int Main(int argc, char** argv) {
  int threads = service::kDefaultServeThreads;
  size_t cache_capacity = 64;
  size_t max_line_bytes = service::kDefaultMaxRequestLineBytes;
  bool socket_mode = false;
  service::TransportOptions transport;
  auto usage = [] {
    std::fprintf(
        stderr,
        "usage: rav_serve [--threads N] [--cache N] [--max-line BYTES]\n"
        "                 [--listen <addr:port>] [--queue-depth N]\n"
        "                 [--idle-timeout DUR]\n"
        "  JSON-lines requests on stdin (or the socket), responses on "
        "stdout (docs/serving.md)\n");
    return kExitUsage;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      Result<int> parsed = ParseInt32(argv[++i]);
      if (!parsed.ok() || *parsed < 0) {
        std::fprintf(stderr,
                     "rav_serve: --threads must be a non-negative integer\n");
        return kExitUsage;
      }
      threads = *parsed;
    } else if (arg == "--cache" && i + 1 < argc) {
      Result<int> parsed = ParseInt32(argv[++i]);
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr, "rav_serve: --cache must be a positive integer\n");
        return kExitUsage;
      }
      cache_capacity = static_cast<size_t>(*parsed);
    } else if (arg == "--max-line" && i + 1 < argc) {
      Result<long long> parsed = ParseByteSize(argv[++i]);
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr,
                     "rav_serve: --max-line must be a positive byte size "
                     "(e.g. 1m, 64k)\n");
        return kExitUsage;
      }
      max_line_bytes = static_cast<size_t>(*parsed);
    } else if (arg == "--listen" && i + 1 < argc) {
      if (Status parsed = service::ParseListenAddress(argv[++i], &transport);
          !parsed.ok()) {
        std::fprintf(stderr, "rav_serve: %s\n", parsed.ToString().c_str());
        return kExitUsage;
      }
      socket_mode = true;
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      Result<int> parsed = ParseInt32(argv[++i]);
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr,
                     "rav_serve: --queue-depth must be a positive integer\n");
        return kExitUsage;
      }
      transport.queue_depth = static_cast<size_t>(*parsed);
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      Result<long long> parsed = ParseDurationMs(argv[++i]);
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr,
                     "rav_serve: --idle-timeout must be a positive duration "
                     "(e.g. 30s)\n");
        return kExitUsage;
      }
      transport.idle_timeout_ms = *parsed;
    } else {
      return usage();
    }
  }
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads == 0) threads = 1;
  }

  service::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  service::Service service(options);

  service::ShutdownArbiter::InstallSignalHandlers();

  if (!socket_mode) return ServeStdio(service, threads, max_line_bytes);

  transport.threads = threads;
  transport.max_line_bytes = max_line_bytes;
  service::SocketTransport server(&service,
                                  &service::ShutdownArbiter::Process(),
                                  transport);
  if (Status listening = server.Listen(); !listening.ok()) {
    std::fprintf(stderr, "rav_serve: %s\n", listening.ToString().c_str());
    return kExitError;
  }
  std::fprintf(stderr, "rav_serve: listening on %s:%d\n",
               transport.host.c_str(), server.bound_port());
  const int code = server.Serve();
  std::fprintf(stderr, "rav_serve: drained, exiting %d\n", code);
  return code;
}

}  // namespace
}  // namespace rav

int main(int argc, char** argv) { return rav::Main(argc, argv); }
