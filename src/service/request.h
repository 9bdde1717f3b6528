#ifndef RAV_SERVICE_REQUEST_H_
#define RAV_SERVICE_REQUEST_H_

// One decision-service request, parsed from a JSON-lines wire line
// (docs/serving.md). The wire format reuses the base/report.h JSON DOM —
// the same document model the run reports already speak, so a client
// that can read reports can write requests.
//
//   {"id": "r1", "op": "empty", "spec": "<spec text>",
//    "timeout": "250ms", "memory_limit": "64k", "threads": 2}
//
// `spec` carries the full spec text; `spec_hash` instead refers to a
// spec already compiled by an earlier request in the same process
// (content hash, as reported in every response). Exactly one of the two
// is required for the query ops.

#include <string>
#include <vector>

#include "base/status.h"
#include "era/parallel_search.h"

namespace rav::service {

// Worker threads of the rav_serve frontend's request executor (not of a
// single search — that default is kDefaultSearchWorkers). One constant so
// the frontend, its --help text, and docs/serving.md cannot drift apart.
inline constexpr int kDefaultServeThreads = 4;

// The largest `threads` one request may ask for. A request's search
// workers are OS threads, so without a cap a single request line could
// ask the server for thousands of them. 0 (all hardware threads) stays
// valid; docs/serving.md states the same bound.
inline constexpr int kMaxRequestThreads = 64;

// The ops a request may name. kStats and kCancel are control ops that
// need no spec.
enum class Op {
  kEmpty,    // emptiness over finite databases
  kVerify,   // LTL-FO verification (needs ltl + propositions)
  kLrBound,  // LR-boundedness estimation
  kLint,     // static-analysis diagnostics (answered from the cache)
  kInfo,     // spec summary + compile accounting
  kCancel,   // cooperatively cancel the in-flight request named `target`
  kStats,    // service counters (cache hits, requests served, ...)
};

const char* OpName(Op op);

struct QueryRequest {
  std::string id;           // required; echoed in the response
  Op op = Op::kStats;
  std::string spec_text;    // exactly one of spec_text / spec_hash
  std::string spec_hash;    //   for the query ops
  std::string ltl;          // op=verify
  std::vector<std::string> propositions;  // op=verify
  std::string target;       // op=cancel: id of the request to cancel
  long long timeout_ms = -1;     // -1 = unlimited; 0 arms an already-
  long long memory_bytes = -1;   //   expired budget (as rav_cli
                                 //   --timeout 0ms does)
  // Lasso-check workers (as rav_cli --threads), at most
  // kMaxRequestThreads.
  int threads = kDefaultSearchWorkers;
};

// Parses and validates one wire line. Every rejection is an
// InvalidArgument naming the offending field; limits use the rav_cli
// grammars (ParseDurationMs / ParseByteSize), so "250ms" and "64k" mean
// the same thing on the wire as on the command line. Carries the
// `service/parse_request` failpoint (docs/robustness.md).
Result<QueryRequest> ParseRequest(const std::string& line);

}  // namespace rav::service

#endif  // RAV_SERVICE_REQUEST_H_
