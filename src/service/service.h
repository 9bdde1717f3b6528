#ifndef RAV_SERVICE_SERVICE_H_
#define RAV_SERVICE_SERVICE_H_

// The decision service: compiled-spec cache + request execution. One
// Service instance answers many requests concurrently — Handle is
// thread-safe and blocking, so callers (tools/rav_serve's worker
// threads, `rav_cli batch`) provide the concurrency and the service
// provides the isolation:
//
//   * each request runs under its OWN ExecutionGovernor, armed from the
//     request's timeout/memory_limit — one request tripping its deadline
//     or budget cannot disturb any concurrent request;
//   * compiled specs are shared immutably (shared_ptr<const
//     CompiledSpec>), so concurrent queries against one spec race only
//     on their own search state, exactly like the parallel lasso
//     workers — and on the first use of a subject's SControl NBA, which
//     std::call_once settles;
//   * every response embeds a per-request run report (base/report.h
//     schema), so a service batch is observable with the same tooling
//     as rav_cli --report files.
//
// See docs/serving.md for the wire format and lifecycle.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/governor.h"
#include "base/report.h"
#include "service/compiled_spec.h"
#include "service/request.h"

namespace rav::service {

struct ServiceOptions {
  size_t cache_capacity = 64;
  // The retry hint stamped on governor-tripped responses (the same field
  // overload shedding uses, so clients have ONE backoff contract for
  // "this service is resource-bound right now" — docs/serving.md).
  long long retry_after_ms_hint = 100;
};

// One answered request. `exit_equivalent` maps the outcome onto the
// rav_cli exit-code contract (docs/robustness.md): 0 ok, 1 error,
// 3 property-false, 4 governor trip, 5 cancelled — so a batch driver
// can reuse the CLI's scripting conventions per request.
struct QueryResponse {
  std::string id;
  std::string op;
  bool ok = false;          // false iff the request itself failed
  std::string error;        // set iff !ok
  // Machine-readable rejection classes (docs/serving.md), uniform across
  // batch/stdio/socket: every rejection and every governor-tripped
  // response carries `error_kind` ("parse_error", "duplicate_id",
  // "bad_request", "governor_trip", "overloaded", "request_too_large",
  // "shutting_down") plus the tripped `resource` ("deadline", "memory",
  // "cancel", "queue", "request_line"). `retry_after_ms` >= 0 is a
  // backoff hint: governor trips and load shedding share it, so one
  // client retry loop covers both.
  std::string error_kind;
  std::string resource;
  long long retry_after_ms = -1;
  std::string verdict;      // domain verdict ("EMPTY", "HOLDS", ...)
  int exit_equivalent = 0;
  std::string spec_hash;    // content hash of the spec answered against
  bool cache_hit = false;   // compilation skipped
  Json details = Json::Object();  // op-specific payload
  Json report = Json::Object();   // per-request RunReport document
  double wall_ms = 0;

  // The wire form: one compact JSON object (single line, ready for the
  // JSON-lines stream).
  Json ToJson() const;
  std::string ToJsonLine() const;
};

// A transport-level rejection (parse failure, oversized line, queue
// overflow, drain) in the same wire shape every service response uses,
// so every frontend emits byte-uniform errors. `retry_after_ms` < 0
// omits the hint.
struct Rejection {
  std::string id;          // echoed when recoverable, else ""
  std::string op = "?";
  std::string error_kind;
  std::string resource;    // tripped resource, "" when none applies
  std::string message;
  int exit_equivalent = 1;
  long long retry_after_ms = -1;
};
QueryResponse MakeRejection(Rejection rejection);

// The `parse_error` rejection of a request line ParseRequest refused with
// `status`. Echoes the line's "id" when the line is a JSON object with a
// string id, so the client can still match the error to its request.
// Every frontend (rav_serve's stdio and socket loops, rav_cli batch)
// answers unparseable lines through it.
QueryResponse MakeParseError(const std::string& line, const Status& status);

class Service {
 public:
  explicit Service(ServiceOptions options = ServiceOptions());

  // Answers one request; never throws, never exits. Failures come back
  // as ok=false responses. Thread-safe.
  QueryResponse Handle(const QueryRequest& request);

  // Requests cooperative cancellation of the in-flight request with this
  // id. Returns false when no such request is running (already finished,
  // or never existed). Thread-safe.
  bool Cancel(const std::string& request_id);

  // Cancels every in-flight request (shutdown path). Returns how many
  // were signalled.
  size_t CancelAll();

  // Service counters as a JSON object (the `stats` op's payload).
  Json StatsJson() const;

 private:
  class InFlightGuard;

  QueryResponse Execute(const QueryRequest& request);

  ServiceOptions options_;
  SpecCache cache_;
  mutable std::mutex mu_;
  // id -> governor of the running request. The governor lives in a
  // shared_ptr so Cancel can signal it after Handle already unregistered
  // (RequestCancel on a governor whose request finished is harmless).
  std::unordered_map<std::string, std::shared_ptr<ExecutionGovernor>>
      in_flight_;
  uint64_t requests_ = 0;
  uint64_t failures_ = 0;
  uint64_t governor_trips_ = 0;
  // SControl NBAs built for cached specs; a spec builds at most one per
  // subject while it stays cached.
  std::atomic<uint64_t> scontrol_builds_{0};
};

}  // namespace rav::service

#endif  // RAV_SERVICE_SERVICE_H_
