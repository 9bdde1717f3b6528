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
//                   hardware threads; at most kMaxRequestThreads = 64).
//                   `cancel` and `stats` are answered inline by the poll
//                   thread, so a cancel reaches a stuck request even when
//                   every worker is busy.
//   --cache N       compiled-spec cache capacity (default 64).
//   --max-line B    cap on one buffered request line (default 1m); an
//                   oversized line is rejected with a structured
//                   `request_too_large` error instead of buffering
//                   without bound.
//   --queue-depth N admission bound (default 256): a socket's overflow
//                   answers `overloaded` + retry_after_ms; stdin is never
//                   shed, its reads pause instead.
//
// Socket mode (--listen, docs/serving.md "Socket transport"):
//   --listen A:P    serve TCP on dotted-IPv4 A, port P (0 = ephemeral;
//                   the bound address is printed to stderr), with
//                   per-connection backpressure and idle deadlines
//                   (--idle-timeout, default 30s).
//
// Without --listen, stdin/stdout is one stream of the same poll
// transport (service::SocketTransport::AddStream): same framing,
// admission, backpressure and drain as a socket.
//
// Isolation: each request runs under its own ExecutionGovernor armed
// from the request's "timeout"/"memory_limit"; a request tripping its
// deadline or budget yields exit_equivalent 4 for THAT response and
// leaves concurrent requests untouched (tests/service_test.cc proves
// this; tools/run_ci.sh smokes it end to end).
//
// Shutdown (the signal contract of service::ShutdownArbiter):
//   * stdio: stdin EOF — answer every accepted request, flush, exit 0;
//     a closed stdout cancels in-flight requests and exits 1;
//   * first SIGINT/SIGTERM — stop reading and accepting, cancel in-flight
//     requests cooperatively (they answer truthfully truncated), answer
//     queued ones `shutting_down`, flush, exit 5;
//   * second SIGINT/SIGTERM — default disposition (kill).

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

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

int Main(int argc, char** argv) {
  size_t cache_capacity = 64;
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
      if (*parsed > service::kMaxRequestThreads) {
        std::fprintf(stderr,
                     "rav_serve: --threads must be <= %d "
                     "(kMaxRequestThreads)\n",
                     service::kMaxRequestThreads);
        return kExitUsage;
      }
      transport.threads = *parsed;
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
      transport.max_line_bytes = static_cast<size_t>(*parsed);
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
  if (transport.threads == 0) {
    transport.threads = static_cast<int>(std::thread::hardware_concurrency());
    if (transport.threads == 0) transport.threads = 1;
  }

  service::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  service::Service service(options);

  service::ShutdownArbiter::InstallSignalHandlers();
  service::SocketTransport server(&service,
                                  &service::ShutdownArbiter::Process(),
                                  transport);
  if (socket_mode) {
    if (Status listening = server.Listen(); !listening.ok()) {
      std::fprintf(stderr, "rav_serve: %s\n", listening.ToString().c_str());
      return kExitError;
    }
    std::fprintf(stderr, "rav_serve: listening on %s:%d\n",
                 transport.host.c_str(), server.bound_port());
  } else {
    server.AddStream(STDIN_FILENO, STDOUT_FILENO);
  }
  const int code = server.Serve();
  if (code == kExitCancelled) {
    std::fprintf(stderr, "rav_serve: drained, exiting %d\n", code);
  } else if (code != kExitOk) {
    std::fprintf(stderr, "rav_serve: %s, exiting %d\n",
                 socket_mode ? "poll failed"
                             : "reading stdin or writing stdout failed; "
                               "in-flight requests cancelled",
                 code);
  }
  return code;
}

}  // namespace
}  // namespace rav

int main(int argc, char** argv) { return rav::Main(argc, argv); }
