// Tests for the serving transport (service/transport.h): the reference
// line reader its framing is checked against, listen-address parsing,
// and the poll-driven frontend itself — concurrent clients over
// loopback, queue-overflow shedding with a retry hint, slow-reader
// backpressure isolation, mid-request disconnect cancellation, the
// graceful-drain contract, and byte streams over pipes (never shed,
// never reaped, ended by EOF or a closed output) (docs/serving.md).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/report.h"
#include "service/request.h"
#include "service/service.h"
#include "service/transport.h"
#include "test_util.h"

namespace rav::service {
namespace {

using namespace std::chrono_literals;
using testing::ReadBoundedLine;
using testing::ReadLineStatus;

// The ping-pong fixture (same inline spec service_test.cc uses).
const char kPingPong[] = R"(automaton {
  registers 1
  state ping initial final
  state pong
  transition ping -> pong { x1 = y1 }
  transition pong -> ping { }
  constraint eq 1 1 "ping pong ping"
})";

// JSON-escapes a spec for embedding in a request line.
std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string EmptyRequest(const std::string& id, const std::string& spec,
                         const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"op\": \"empty\", \"spec\": \"" +
         JsonEscape(spec) + "\"" + extra + "}";
}

// --- ReadBoundedLine, the framing oracle ----------------------------------

TEST(ReadBoundedLineTest, ReadsLinesAndSignalsEof) {
  std::istringstream in("first\nsecond\n");
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line, 64), ReadLineStatus::kOk);
  EXPECT_EQ(line, "first");
  EXPECT_EQ(ReadBoundedLine(in, &line, 64), ReadLineStatus::kOk);
  EXPECT_EQ(line, "second");
  EXPECT_EQ(ReadBoundedLine(in, &line, 64), ReadLineStatus::kEof);
}

TEST(ReadBoundedLineTest, FinalUnterminatedLineStillReads) {
  std::istringstream in("no newline at end");
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line, 64), ReadLineStatus::kOk);
  EXPECT_EQ(line, "no newline at end");
  EXPECT_EQ(ReadBoundedLine(in, &line, 64), ReadLineStatus::kEof);
}

TEST(ReadBoundedLineTest, OversizedLineIsDiscardedAndStreamStaysUsable) {
  std::istringstream in(std::string(100, 'x') + "\nnext\n");
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line, 8), ReadLineStatus::kTooLarge);
  EXPECT_TRUE(line.empty());  // the buffered prefix is not leaked back
  EXPECT_EQ(ReadBoundedLine(in, &line, 8), ReadLineStatus::kOk);
  EXPECT_EQ(line, "next");
  EXPECT_EQ(ReadBoundedLine(in, &line, 8), ReadLineStatus::kEof);
}

TEST(ReadBoundedLineTest, LineExactlyAtTheCapIsAccepted) {
  std::istringstream in("12345678\n");
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line, 8), ReadLineStatus::kOk);
  EXPECT_EQ(line, "12345678");
}

// --- ParseListenAddress -----------------------------------------------------

TEST(ParseListenAddressTest, AcceptsDottedIPv4WithPort) {
  TransportOptions options;
  ASSERT_TRUE(ParseListenAddress("127.0.0.1:7411", &options).ok());
  EXPECT_EQ(options.host, "127.0.0.1");
  EXPECT_EQ(options.port, 7411);
  ASSERT_TRUE(ParseListenAddress("0.0.0.0:0", &options).ok());
  EXPECT_EQ(options.port, 0);
}

TEST(ParseListenAddressTest, RejectsMalformedAddresses) {
  TransportOptions options;
  EXPECT_FALSE(ParseListenAddress("7411", &options).ok());
  EXPECT_FALSE(ParseListenAddress("localhost:7411", &options).ok());
  EXPECT_FALSE(ParseListenAddress("127.0.0.1:", &options).ok());
  EXPECT_FALSE(ParseListenAddress("127.0.0.1:66000", &options).ok());
  EXPECT_FALSE(ParseListenAddress("127.0.0.1:-1", &options).ok());
}

// --- SocketTransport --------------------------------------------------------

// Null-safe response field access: a missing key (e.g. a response that
// never arrived before the read deadline under a slow sanitizer run)
// becomes a clean test failure instead of a nullptr dereference.
const Json& Field(const Json& doc, std::string_view key) {
  static const Json kMissing;
  const Json* field = doc.Find(key);
  if (field != nullptr) return *field;
  ADD_FAILURE() << "response field missing: " << key;
  return kMissing;
}

// Reads one line from `fd` (a socket or a pipe), keeping the bytes after
// it in `buffer`, waiting up to `timeout`. Empty on timeout or EOF.
std::string ReadLineFrom(int fd, std::string* buffer,
                         std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return line;
    }
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= 0ms) return "";
    pollfd poller{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
            .count());
    if (::poll(&poller, 1, std::max(wait_ms, 1)) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";  // EOF or error
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

// Parses one response line into the report-JSON DOM.
Json ParseJsonLine(const std::string& line) {
  auto parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: '" << line << "'";
  return parsed.ok() ? *parsed : Json::Object();
}

// A blocking loopback JSON-lines client for the tests.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& line) { SendBytes(line + "\n"); }

  // Sends `bytes` as they are, with no newline added.
  void SendBytes(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  // Half-close: the server reads EOF but can still answer.
  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  // Reads one response line, waiting up to `timeout`. Empty on timeout
  // or EOF.
  std::string ReadLine(std::chrono::milliseconds timeout = 30000ms) {
    return ReadLineFrom(fd_, &buffer_, timeout);
  }

  Json ReadJson(std::chrono::milliseconds timeout = 30000ms) {
    return ParseJsonLine(ReadLine(timeout));
  }

  // Abortive close: RST instead of FIN, so the server sees a torn
  // connection (POLLERR) rather than a polite half-close.
  void Abort() {
    linger hard{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

  void ShrinkReceiveBuffer() {
    const int tiny = 1;  // the kernel clamps to its minimum
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

enum class Serving { kSocket, kStream };

// Runs a SocketTransport with its own arbiter (never the process-wide one
// — tests must not install signal state) and serves on a background
// thread: on an ephemeral loopback port, or on one byte stream over two
// pipes, as rav_serve serves stdin and stdout.
class TransportFixture {
 public:
  explicit TransportFixture(TransportOptions options,
                            Serving serving = Serving::kSocket) {
    options.host = "127.0.0.1";
    options.port = 0;
    service_ = std::make_unique<Service>(ServiceOptions{});
    transport_ =
        std::make_unique<SocketTransport>(service_.get(), &arbiter_, options);
    if (serving == Serving::kStream) {
      EXPECT_EQ(::pipe(requests_), 0);
      EXPECT_EQ(::pipe(responses_), 0);
      transport_->AddStream(requests_[0], responses_[1]);
    } else {
      Status listening = transport_->Listen();
      EXPECT_TRUE(listening.ok()) << listening.ToString();
    }
    serve_thread_ = std::thread([this] { exit_code_ = transport_->Serve(); });
  }

  ~TransportFixture() {
    CloseInput();
    Drain();
    for (int fd : {requests_[0], responses_[0], responses_[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }

  int port() const { return transport_->bound_port(); }
  Service& service() { return *service_; }
  ShutdownArbiter& arbiter() { return arbiter_; }
  SocketTransport& transport() { return *transport_; }

  // Requests the drain and returns Serve()'s exit code.
  int Drain() {
    arbiter_.RequestDrain();
    return Join();
  }

  // Waits for Serve() to return on its own and returns its exit code.
  int Join() {
    if (serve_thread_.joinable()) serve_thread_.join();
    return exit_code_;
  }

  // The client side of the stream: its request pipe's write end and its
  // response pipe's read end.
  void Send(const std::string& line) {
    const std::string bytes = line + "\n";
    for (size_t sent = 0; sent < bytes.size();) {
      const ssize_t n =
          ::write(requests_[1], bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }
  void CloseInput() { CloseFd(&requests_[1]); }   // EOF for the transport
  void CloseOutput() { CloseFd(&responses_[0]); }  // the reader goes away
  Json ReadJson(std::chrono::milliseconds timeout = 30000ms) {
    return ParseJsonLine(ReadLineFrom(responses_[0], &buffer_, timeout));
  }

  // Blocks until the service reports `count` in-flight requests — the
  // deterministic "the worker picked it up" sync point.
  [[nodiscard]] bool WaitForInFlight(size_t count,
                                     std::chrono::milliseconds timeout = 30s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      QueryRequest stats;
      stats.id = "fixture-stats";
      stats.op = Op::kStats;
      QueryResponse response = service_->Handle(stats);
      const Json* in_flight = response.details.Find("in_flight");
      if (in_flight != nullptr &&
          static_cast<size_t>(in_flight->number_value()) == count) {
        return true;
      }
      std::this_thread::sleep_for(5ms);
    }
    return false;
  }

 private:
  static void CloseFd(int* fd) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }

  ShutdownArbiter arbiter_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<SocketTransport> transport_;
  std::thread serve_thread_;
  int exit_code_ = -1;
  int requests_[2] = {-1, -1};
  int responses_[2] = {-1, -1};
  std::string buffer_;
};

TEST(SocketTransportTest, AnswersRequestsAndEchoesIds) {
  TransportFixture server{TransportOptions{}};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(EmptyRequest("q1", kPingPong));
  Json response = client.ReadJson();
  EXPECT_EQ(Field(response, "id").string_value(), "q1");
  EXPECT_TRUE(Field(response, "ok").bool_value());
  EXPECT_EQ(Field(response, "op").string_value(), "empty");
}

TEST(SocketTransportTest, ConcurrentClientsEachGetTheirOwnAnswers) {
  TransportOptions options;
  options.threads = 4;
  TransportFixture server{options};
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        client.Send(EmptyRequest("c" + std::to_string(c) + "-r" +
                                     std::to_string(r),
                                 kPingPong));
      }
      // Responses come in completion order, but every id must be ours
      // and every request must be answered ok.
      std::set<std::string> seen;
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Json response = client.ReadJson();
        const Json* id = response.Find("id");
        const Json* ok = response.Find("ok");
        if (id == nullptr || ok == nullptr || !ok->bool_value() ||
            id->string_value().rfind("c" + std::to_string(c) + "-", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
        seen.insert(id->string_value());
      }
      if (seen.size() != static_cast<size_t>(kRequestsPerClient)) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SocketTransportTest, ControlOpsAnswerInlineWhileWorkersAreBusy) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(EmptyRequest("blocker", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  // The single worker is stuck in `blocker`, yet stats and the cancel
  // that unblocks it are answered from the poll thread.
  client.Send(R"({"id": "s1", "op": "stats"})");
  Json stats = client.ReadJson();
  EXPECT_EQ(Field(stats, "id").string_value(), "s1");
  EXPECT_EQ(Field(Field(stats, "details"), "in_flight").number_value(), 1);
  client.Send(R"({"id": "k1", "op": "cancel", "target": "blocker"})");
  Json cancelled = client.ReadJson();
  EXPECT_EQ(Field(cancelled, "id").string_value(), "k1");
  EXPECT_TRUE(Field(Field(cancelled, "details"), "cancelled").bool_value());
  // The blocker now answers truthfully truncated (partial results are
  // still ok=true) stamped with the uniform rejection surface: governor
  // trip, cancel resource, retry hint, documented exit code.
  Json blocker = client.ReadJson();
  EXPECT_EQ(Field(blocker, "id").string_value(), "blocker");
  EXPECT_EQ(Field(blocker, "exit_equivalent").number_value(), 5);
  EXPECT_EQ(Field(blocker, "error_kind").string_value(), "governor_trip");
  EXPECT_EQ(Field(blocker, "resource").string_value(), "cancel");
  EXPECT_GE(Field(blocker, "retry_after_ms").number_value(), 0);
}

TEST(SocketTransportTest, QueueOverflowShedsWithRetryHint) {
  TransportOptions options;
  options.threads = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 7;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // Fill the pipeline deterministically: `blocker` occupies the single
  // worker (sync on in_flight), `queued` occupies the whole depth-1
  // queue, so `shed` must be rejected at admission.
  client.Send(EmptyRequest("blocker", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  client.Send(EmptyRequest("queued", kPingPong, R"(, "timeout": "10s")"));
  client.Send(EmptyRequest("shed", kPingPong));

  Json shed = client.ReadJson();
  EXPECT_EQ(Field(shed, "id").string_value(), "shed");
  EXPECT_FALSE(Field(shed, "ok").bool_value());
  EXPECT_EQ(Field(shed, "error_kind").string_value(), "overloaded");
  EXPECT_EQ(Field(shed, "resource").string_value(), "queue");
  EXPECT_EQ(Field(shed, "retry_after_ms").number_value(), 7);
  EXPECT_EQ(Field(shed, "exit_equivalent").number_value(), 4);

  // Unblock; the admitted requests complete correctly.
  client.Send(R"({"id": "k1", "op": "cancel", "target": "blocker"})");
  std::set<std::string> rest;
  for (int i = 0; i < 3; ++i) rest.insert(Field(client.ReadJson(), "id").string_value());
  EXPECT_EQ(rest, (std::set<std::string>{"k1", "blocker", "queued"}));
}

TEST(SocketTransportTest, OversizedRequestLineIsRejectedNotBuffered) {
  TransportOptions options;
  options.max_line_bytes = 256;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string(4096, 'x'));
  Json rejected = client.ReadJson();
  EXPECT_FALSE(Field(rejected, "ok").bool_value());
  EXPECT_EQ(Field(rejected, "error_kind").string_value(), "request_too_large");
  EXPECT_EQ(Field(rejected, "resource").string_value(), "request_line");
  // The connection survives: the next (valid) request is answered.
  client.Send(EmptyRequest("after", kPingPong));
  Json after = client.ReadJson();
  EXPECT_EQ(Field(after, "id").string_value(), "after");
  EXPECT_TRUE(Field(after, "ok").bool_value());
}

TEST(SocketTransportTest, OversizedLineCompletingInOneChunkIsStillRejected) {
  // Regression: a line over the cap whose newline arrives in the same
  // recv chunk as the overflow used to be assembled and answered
  // normally — the bound was only enforced on unterminated tails. A
  // *valid* padded request distinguishes the two outcomes: enforcement
  // yields request_too_large, the bug yields a real verdict.
  TransportOptions options;
  options.max_line_bytes = 256;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(EmptyRequest("padded", kPingPong) + std::string(300, ' '));
  Json rejected = client.ReadJson();
  EXPECT_FALSE(Field(rejected, "ok").bool_value());
  EXPECT_EQ(Field(rejected, "error_kind").string_value(), "request_too_large");
  EXPECT_EQ(Field(rejected, "resource").string_value(), "request_line");
  client.Send(EmptyRequest("after", kPingPong));
  Json after = client.ReadJson();
  EXPECT_EQ(Field(after, "id").string_value(), "after");
  EXPECT_TRUE(Field(after, "ok").bool_value());
}

TEST(SocketTransportTest, FinalLineWithoutNewlineIsAnswered) {
  // Regression: a half-close after an unterminated last line closed the
  // connection with nothing sent, though stdin and `rav_cli batch` answer
  // that line (ReadBoundedLine reads it as kOk).
  TransportOptions options;
  options.max_line_bytes = 256;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.SendBytes(R"({"id":"b","op":"stats"})");
  client.CloseWrite();
  Json response = client.ReadJson();
  EXPECT_EQ(Field(response, "id").string_value(), "b");
  EXPECT_TRUE(Field(response, "ok").bool_value());
  EXPECT_EQ(client.ReadLine(), "");  // then the server closes
  // The unterminated tail of an oversized line is rejected once, not
  // answered again at EOF.
  Client oversized(server.port());
  ASSERT_TRUE(oversized.connected());
  oversized.SendBytes(std::string(300, 'x'));
  oversized.CloseWrite();
  EXPECT_EQ(Field(oversized.ReadJson(), "error_kind").string_value(),
            "request_too_large");
  EXPECT_EQ(oversized.ReadLine(), "");
}

TEST(SocketTransportTest, ParseErrorRecoversTheRequestId) {
  TransportFixture server{TransportOptions{}};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(R"({"id": "px", "op": "no-such-op"})");
  Json rejected = client.ReadJson();
  EXPECT_EQ(Field(rejected, "id").string_value(), "px");
  EXPECT_FALSE(Field(rejected, "ok").bool_value());
  EXPECT_EQ(Field(rejected, "error_kind").string_value(), "parse_error");
  EXPECT_EQ(Field(rejected, "exit_equivalent").number_value(), 1);
}

TEST(SocketTransportTest, DeeplyNestedLineIsAParseErrorNotACrash) {
  // Regression: Json::Parse recursed once per '[' with no depth limit, so
  // this line — well under the default --max-line — overflowed the stack
  // and took the whole server (every other connection too) down.
  TransportFixture server{TransportOptions{}};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string(200000, '['));
  Json rejected = client.ReadJson();
  EXPECT_FALSE(Field(rejected, "ok").bool_value());
  EXPECT_EQ(Field(rejected, "error_kind").string_value(), "parse_error");
  client.Send(EmptyRequest("after", kPingPong));
  Json after = client.ReadJson();
  EXPECT_EQ(Field(after, "id").string_value(), "after");
  EXPECT_TRUE(Field(after, "ok").bool_value());
}

TEST(SocketTransportTest, MidRequestDisconnectCancelsItsInFlightWork) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture server{options};
  auto victim = std::make_unique<Client>(server.port());
  ASSERT_TRUE(victim->connected());
  victim->Send(EmptyRequest("doomed", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  // Tear the connection (RST). The transport must cancel `doomed`'s
  // governor — the single worker frees up without anyone asking nicely.
  victim->Abort();
  ASSERT_TRUE(server.WaitForInFlight(0));
  // And an unrelated client gets that worker immediately.
  Client bystander(server.port());
  ASSERT_TRUE(bystander.connected());
  bystander.Send(EmptyRequest("healthy", kPingPong));
  Json response = bystander.ReadJson();
  EXPECT_EQ(Field(response, "id").string_value(), "healthy");
  EXPECT_TRUE(Field(response, "ok").bool_value());
}

TEST(SocketTransportTest, DisconnectDoesNotCancelAnotherConnectionsSameId) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture server{options};
  // Connection A's request is executing on the only worker.
  Client owner(server.port());
  ASSERT_TRUE(owner.connected());
  owner.Send(EmptyRequest("shared", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  // Connection B queues a request with the SAME client-chosen id (ids
  // are only deduped at execution time), then tears its connection.
  // Closing B must not cancel A's in-flight "shared": only ids actually
  // dispatched to a worker *for B* may be cancelled on B's death.
  Client dupe(server.port());
  ASSERT_TRUE(dupe.connected());
  dupe.Send(EmptyRequest("shared", testing::PumpOnlyEmptySpecText()));
  dupe.Abort();
  // A's query runs to its natural (budget-truncated) completion. If B's
  // close had cancelled by id, this answer would instead be a governor
  // cancel trip.
  Json answer = owner.ReadJson();
  EXPECT_EQ(Field(answer, "id").string_value(), "shared");
  EXPECT_TRUE(Field(answer, "ok").bool_value());
  EXPECT_EQ(answer.Find("error_kind"), nullptr);
}

TEST(SocketTransportTest, IdleReaperExemptsConnectionsWithWorkInFlight) {
  TransportOptions options;
  options.threads = 1;
  options.idle_timeout_ms = 100;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(EmptyRequest("long", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  // Multiple idle periods pass with no socket traffic while the query
  // runs. The reaper must leave the connection alone — the client is
  // legitimately waiting — so the answer arrives on a live connection
  // instead of the connection being closed with its work cancelled.
  std::this_thread::sleep_for(250ms);
  Json answer = client.ReadJson();
  EXPECT_EQ(Field(answer, "id").string_value(), "long");
  EXPECT_TRUE(Field(answer, "ok").bool_value());
  EXPECT_EQ(answer.Find("error_kind"), nullptr);
}

TEST(SocketTransportTest, SlowReaderOnlyStallsItself) {
  TransportOptions options;
  options.threads = 2;
  options.write_buffer_limit = 1024;  // force the pause path early
  TransportFixture server{options};
  Client slow(server.port());
  ASSERT_TRUE(slow.connected());
  slow.ShrinkReceiveBuffer();
  // Stats answers inline on the poll thread: hundreds of responses pile
  // into the slow reader's write buffer while it reads nothing.
  constexpr int kBurst = 500;
  for (int i = 0; i < kBurst; ++i) {
    slow.Send(R"({"id": "slow-)" + std::to_string(i) + R"(", "op": "stats"})");
  }
  // A well-behaved client is not affected by the slow reader's backlog:
  // its answer arrives while the slow connection still has hundreds of
  // unread responses. (No tight latency bound — sanitizer runs on a
  // loaded machine are slow; the contract is progress, not speed.)
  Client healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  healthy.Send(EmptyRequest("healthy", kPingPong));
  Json response = healthy.ReadJson();
  EXPECT_EQ(Field(response, "id").string_value(), "healthy");
  EXPECT_TRUE(Field(response, "ok").bool_value());
  // Once the slow reader drains, every one of its responses is there —
  // backpressure stalls, it never drops.
  int received = 0;
  for (int i = 0; i < kBurst; ++i) {
    if (slow.ReadLine().empty()) break;
    ++received;
  }
  EXPECT_EQ(received, kBurst);
}

TEST(SocketTransportTest, DrainFinishesInFlightRejectsQueuedAndExits5) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture server{options};
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(EmptyRequest("inflight", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(server.WaitForInFlight(1));
  client.Send(EmptyRequest("queued", testing::PumpOnlyEmptySpecText()));

  server.arbiter().RequestDrain();

  // Both responses are flushed before the server closes: the queued one
  // truthfully rejected, the in-flight one truthfully truncated by its
  // tripped governor.
  Json first = client.ReadJson();
  Json second = client.ReadJson();
  Json& queued = Field(first, "id").string_value() == "queued" ? first : second;
  Json& inflight = &queued == &first ? second : first;
  EXPECT_EQ(Field(queued, "id").string_value(), "queued");
  EXPECT_EQ(Field(queued, "error_kind").string_value(), "shutting_down");
  EXPECT_EQ(Field(queued, "exit_equivalent").number_value(), 5);
  EXPECT_EQ(Field(inflight, "id").string_value(), "inflight");
  EXPECT_EQ(Field(inflight, "exit_equivalent").number_value(), 5);
  EXPECT_EQ(Field(inflight, "error_kind").string_value(), "governor_trip");
  EXPECT_EQ(Field(inflight, "resource").string_value(), "cancel");
  // The documented drain exit code.
  EXPECT_EQ(server.Drain(), 5);
  // After the drain the connection is closed: EOF.
  EXPECT_EQ(client.ReadLine(2000ms), "");
}

TEST(SocketTransportTest, DrainWithIdleConnectionsExitsPromptly) {
  TransportFixture server{TransportOptions{}};
  Client idle(server.port());
  ASSERT_TRUE(idle.connected());
  EXPECT_EQ(server.Drain(), 5);
}

TEST(SocketTransportTest, IdleConnectionsAreReaped) {
  TransportOptions options;
  options.idle_timeout_ms = 100;
  TransportFixture server{options};
  Client idle(server.port());
  ASSERT_TRUE(idle.connected());
  // The server closes the idle connection; the client sees EOF.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(idle.ReadLine(5000ms), "");
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
}

// --- Streams -----------------------------------------------------------------

TEST(StreamTransportTest, DrainAnswersQueuedRequestsShuttingDown) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture stream{options, Serving::kStream};
  stream.Send(EmptyRequest("inflight", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(stream.WaitForInFlight(1));
  constexpr int kQueued = 4;
  for (int i = 0; i < kQueued; ++i) {
    stream.Send(EmptyRequest(NumberedName("queued", i),
                             testing::PumpOnlyEmptySpecText()));
  }
  // `stats` answers inline once the lines before it were read and queued.
  stream.Send(R"({"id": "sync", "op": "stats"})");
  EXPECT_EQ(Field(stream.ReadJson(), "id").string_value(), "sync");

  // The input stays open: the drain, not EOF, ends the stream. Every
  // request behind the busy worker is answered `shutting_down`, the one
  // in flight truthfully truncated.
  stream.arbiter().RequestDrain();
  std::set<std::string> shutting_down;
  for (int i = 0; i <= kQueued; ++i) {
    Json answer = stream.ReadJson();
    EXPECT_EQ(Field(answer, "exit_equivalent").number_value(), 5);
    const std::string id = Field(answer, "id").string_value();
    if (id == "inflight") {
      EXPECT_EQ(Field(answer, "error_kind").string_value(), "governor_trip");
    } else {
      EXPECT_EQ(Field(answer, "error_kind").string_value(), "shutting_down");
      shutting_down.insert(id);
    }
  }
  EXPECT_EQ(shutting_down.size(), static_cast<size_t>(kQueued));
  EXPECT_EQ(stream.Join(), 5);
}

TEST(StreamTransportTest, MoreRequestsThanTheQueueHoldsAreAllAnswered) {
  // A socket would shed most of these `overloaded`; a stream's reads
  // pause instead, so every request is answered.
  TransportOptions options;
  options.threads = 1;
  options.queue_depth = 2;
  TransportFixture stream{options, Serving::kStream};
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    stream.Send(EmptyRequest(NumberedName("q", i), kPingPong));
  }
  stream.CloseInput();
  std::set<std::string> answered;
  for (int i = 0; i < kRequests; ++i) {
    Json answer = stream.ReadJson();
    EXPECT_TRUE(Field(answer, "ok").bool_value());
    EXPECT_EQ(answer.Find("error_kind"), nullptr);
    answered.insert(Field(answer, "id").string_value());
  }
  EXPECT_EQ(answered.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(stream.Join(), 0);
  EXPECT_EQ(stream.transport().response_counts().total,
            static_cast<size_t>(kRequests));
  EXPECT_EQ(stream.transport().response_counts().failed, 0u);
}

TEST(StreamTransportTest, IdleStreamStaysOpen) {
  TransportOptions options;
  options.idle_timeout_ms = 50;
  TransportFixture stream{options, Serving::kStream};
  // Several idle periods pass with no traffic; nobody could reconnect to
  // a stream, so the reaper leaves it alone.
  std::this_thread::sleep_for(300ms);
  stream.Send(R"({"id": "late", "op": "stats"})");
  EXPECT_EQ(Field(stream.ReadJson(5000ms), "id").string_value(), "late");
  stream.CloseInput();
  EXPECT_EQ(stream.Join(), 0);
}

TEST(StreamTransportTest, EofWithNothingPendingReturnsZero) {
  TransportFixture stream{TransportOptions{}, Serving::kStream};
  stream.CloseInput();
  EXPECT_EQ(stream.Join(), 0);
  EXPECT_EQ(stream.transport().response_counts().total, 0u);
}

TEST(StreamTransportTest, ResponseCountsTallyEveryAnswerAndFailure) {
  TransportOptions options;
  options.max_line_bytes = 256;
  TransportFixture stream{options, Serving::kStream};
  stream.Send(R"({"id": "good", "op": "stats"})");
  stream.Send(R"({"id": "bad", "op": "no-such-op"})");
  stream.Send(std::string(300, 'x'));
  stream.Send(EmptyRequest("query", kPingPong));
  stream.CloseInput();
  EXPECT_EQ(stream.Join(), 0);
  EXPECT_EQ(stream.transport().response_counts().total, 4u);
  EXPECT_EQ(stream.transport().response_counts().failed, 2u);
}

TEST(StreamTransportTest, ClosedOutputCancelsInFlightWorkAndReturnsOne) {
  TransportOptions options;
  options.threads = 1;
  TransportFixture stream{options, Serving::kStream};
  stream.Send(EmptyRequest("doomed", testing::PumpOnlyEmptySpecText()));
  ASSERT_TRUE(stream.WaitForInFlight(1));
  // The reader goes away; the next answer's write fails, which ends the
  // stream with exit 1 and cancels what it still had running.
  stream.CloseOutput();
  stream.Send(R"({"id": "s", "op": "stats"})");
  EXPECT_EQ(stream.Join(), 1);
  QueryRequest stats;
  stats.id = "after";
  stats.op = Op::kStats;
  const QueryResponse after = stream.service().Handle(stats);
  EXPECT_EQ(Field(after.details, "governor_trips").number_value(), 1);
}

// --- Socket framing differential -------------------------------------------

// `request` padded with spaces to exactly `cap` bytes, or `cap` bytes of
// filler when the request alone is longer.
std::string AtTheCap(const std::string& request, size_t cap) {
  if (request.size() > cap) return std::string(cap, 'x');
  return request + std::string(cap - request.size(), ' ');
}

// One line of a framing stream, of a kind the poll thread answers inline:
// a cancel request (half of them with printable bytes or newlines flipped
// in, which may split the line or make it a parse error), random garbage,
// an empty line, a line exactly `max_line_bytes` long, or a longer one.
std::string FramingLine(std::mt19937& rng, size_t max_line_bytes, int n) {
  const std::string id = std::to_string(n);
  const std::string cancel =
      "{\"id\":\"c" + id + "\",\"op\":\"cancel\",\"target\":\"t" + id + "\"}";
  switch (rng() % 6) {
    case 0:
      return "";
    case 1: {
      std::string garbage(1 + rng() % 64, ' ');
      for (char& c : garbage) c = static_cast<char>(rng() % 256);
      return garbage;
    }
    case 2:
      return AtTheCap(cancel, max_line_bytes);
    case 3:
      return std::string(max_line_bytes + 1 + rng() % 300, 'y');
    default: {
      std::string line = cancel;
      for (int flips = rng() % 2 == 0 ? 0 : 1 + static_cast<int>(rng() % 3);
           flips > 0; --flips) {
        const unsigned byte = rng() % 96;  // printable ASCII or a newline
        line[rng() % line.size()] =
            byte == 95 ? '\n' : static_cast<char>(' ' + byte);
      }
      return line;
    }
  }
}

// The reference reading of a stream, as "id|kind" per answer in order:
// ReadBoundedLine frames it, an empty line gets no answer, and
// ParseRequest decides the rest (kind is the error_kind, or an answered
// cancel's verdict). False if a line would go to a worker, whose answer
// may overtake the inline ones.
bool StdioAnswers(const std::string& stream, size_t max_line_bytes,
                  std::vector<std::string>* answers) {
  answers->clear();
  std::istringstream in(stream);
  std::string line;
  for (;;) {
    const ReadLineStatus status = ReadBoundedLine(in, &line, max_line_bytes);
    if (status == ReadLineStatus::kEof) return true;
    if (status == ReadLineStatus::kTooLarge) {
      answers->push_back("|request_too_large");
      continue;
    }
    if (line.empty()) continue;
    Result<QueryRequest> request = ParseRequest(line);
    if (!request.ok()) {
      answers->push_back(MakeParseError(line, request.status()).id +
                         "|parse_error");
    } else if (request->op == Op::kCancel) {
      answers->push_back(request->id + "|not in flight");
    } else {
      return false;
    }
  }
}

// The socket's answers to one connection, as "id|kind", read until the
// server closes it.
std::vector<std::string> SocketAnswers(Client& client) {
  std::vector<std::string> answers;
  for (std::string line = client.ReadLine(); !line.empty();
       line = client.ReadLine()) {
    Result<Json> parsed = Json::Parse(line);
    if (!parsed.ok()) {
      answers.push_back("unparseable: " + line);
      continue;
    }
    const Json* kind = parsed->Find("error_kind");
    if (kind == nullptr) kind = &Field(*parsed, "verdict");
    answers.push_back(Field(*parsed, "id").string_value() + "|" +
                      kind->string_value());
  }
  return answers;
}

// The socket transport frames a request stream exactly as the reference
// reader does: the same lines, at any max_line_bytes in [1, 8192], however
// the stream is cut into send() pieces, with lines straddling the 4 KiB
// recv chunk, with or without a final newline. The last stream of each
// server ends in an unterminated line exactly at the cap.
TEST(SocketTransportTest, FramingMatchesTheStdioReader) {
  std::mt19937 rng(20261020);
  int next_id = 0;
  int unterminated_answered = 0;
  int at_cap_terminated = 0;
  int straddling = 0;
  for (int server_index = 0; server_index < 10; ++server_index) {
    TransportOptions options;
    options.threads = 1;
    options.max_line_bytes = 1 + rng() % 8192;
    const size_t cap = options.max_line_bytes;
    TransportFixture server{options};
    for (int stream_index = 0; stream_index < 4; ++stream_index) {
      std::string stream;
      std::vector<std::string> want;
      do {
        stream.clear();
        for (int lines = 1 + static_cast<int>(rng() % 8); lines > 0; --lines) {
          stream += FramingLine(rng, cap, next_id++) + "\n";
        }
        if (stream_index == 3) {
          stream += AtTheCap("{\"id\":\"last\",\"op\":\"cancel\"}", cap);
        } else if (rng() % 2 == 0) {
          stream.pop_back();
        }
      } while (!StdioAnswers(stream, cap, &want));

      // Non-vacuity: count the framing cases the stream exercises.
      size_t start = 0;
      while (start < stream.size()) {
        const size_t end = std::min(stream.find('\n', start), stream.size());
        const size_t length = end - start;
        straddling += length > 4096;
        if (end == stream.size()) {
          unterminated_answered += length <= cap;
        } else {
          at_cap_terminated += length == cap;
        }
        start = end + 1;
      }

      Client client(server.port());
      ASSERT_TRUE(client.connected());
      for (size_t sent = 0; sent < stream.size();) {
        const size_t piece =
            std::min(stream.size() - sent, size_t{1} + rng() % 6000);
        client.SendBytes(stream.substr(sent, piece));
        sent += piece;
        if (rng() % 4 == 0) std::this_thread::sleep_for(100us);
      }
      client.CloseWrite();
      EXPECT_EQ(SocketAnswers(client), want)
          << "max_line_bytes " << cap << ", stream of " << stream.size()
          << " bytes";
    }
  }
  EXPECT_GT(unterminated_answered, 10);
  EXPECT_GT(at_cap_terminated, 0);
  EXPECT_GT(straddling, 0);
}

}  // namespace
}  // namespace rav::service
