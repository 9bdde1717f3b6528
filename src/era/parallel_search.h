#ifndef RAV_ERA_PARALLEL_SEARCH_H_
#define RAV_ERA_PARALLEL_SEARCH_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "automata/nba.h"
#include "base/governor.h"
#include "compile/guard_tables.h"
#include "era/constraint_graph.h"

namespace rav {

// The default worker count of every search-backed procedure (emptiness,
// LTL-FO verification, LR-boundedness) and of the CLI/service `threads`
// knobs in front of them. One thread: parallelism is strictly opt-in.
inline constexpr int kDefaultSearchWorkers = 1;

// Why a lasso search (the shared core of ERA emptiness, LTL-FO
// verification, and LR-boundedness sampling) stopped. Only kExhausted
// makes a negative verdict definitive; the budget reasons (enumeration
// bounds and governor trips alike) make it bound-relative, and
// procedures must report it as such.
enum class SearchStopReason {
  kWitnessFound = 0,  // the search accepted a lasso and stopped
  kExhausted = 1,     // every candidate within the bounds was examined
  kLengthBound = 2,   // enumeration clipped paths at max_lasso_length
  kLassoBudget = 3,   // enumeration stopped after max_lassos candidates
  kStepBudget = 4,    // enumeration stopped by max_search_steps
  kDeadline = 5,      // the governor's wall-clock deadline passed
  kMemoryBudget = 6,  // the governor's memory budget was exceeded
  kCancelled = 7,     // cooperative cancellation was requested
  kVisitBound = 8,    // enumeration cut paths at a state's third visit
};

// The search-level stop reason of a governor trip (kExhausted for
// kNone — callers only map actual trips).
SearchStopReason StopReasonOfTrip(GovernorTrip trip);

// Stable human-readable name ("witness-found", "exhausted", ...).
const char* SearchStopReasonName(SearchStopReason reason);

// Instrumentation of one lasso search, threaded through every decision
// procedure result and printed by the benchmarks and rav_cli.
struct SearchStats {
  size_t lassos_enumerated = 0;    // candidates the enumerator produced
  size_t lassos_checked = 0;       // candidates a worker evaluated
  size_t closures_built = 0;       // ConstraintClosure constructions
  size_t closures_extended = 0;    // closures grown via ExtendedBy
  size_t inconsistent_closures = 0;  // candidates rejected as inconsistent
  size_t enumeration_steps = 0;    // DFS node expansions spent
  int workers = 1;                 // worker threads that evaluated lassos
  double wall_seconds = 0.0;
  SearchStopReason stop_reason = SearchStopReason::kExhausted;
  // Compiled-guard instrumentation (era/guard/* metrics).
  size_t guard_evals = 0;       // valuations decided through compiled tables
  size_t guard_batches = 0;     // SoA EvalBatch passes
  size_t guard_table_bytes = 0;  // bytes of the alphabet's compiled tables

  // True iff a negative verdict is relative to a search bound rather than
  // definitive: the search stopped because a budget ran out — an
  // enumeration bound (length, lasso count, steps, visits per state) or a
  // governor limit (deadline, memory, cancellation).
  bool truncated() const {
    return stop_reason == SearchStopReason::kLengthBound ||
           stop_reason == SearchStopReason::kVisitBound ||
           stop_reason == SearchStopReason::kLassoBudget ||
           stop_reason == SearchStopReason::kStepBudget ||
           stop_reason == SearchStopReason::kDeadline ||
           stop_reason == SearchStopReason::kMemoryBudget ||
           stop_reason == SearchStopReason::kCancelled;
  }

  // One line: "stop=exhausted enumerated=12 checked=12 ...".
  std::string ToString() const;
};

// A candidate produced by the enumerator: the lasso plus its enumeration
// rank. Ranks are the deterministic tie-breaker — when several workers
// find witnesses, the lowest rank wins, so the result is identical for
// any worker count.
struct LassoCandidate {
  size_t index = 0;
  LassoWord word;
};

// What a worker concluded about one candidate.
enum class LassoVerdict {
  kWitness,       // accept: first (lowest-rank) witness ends the search
  kInconsistent,  // rejected because its constraint closure is inconsistent
  kReject,        // rejected for any other reason
};

struct LassoSearchOptions {
  size_t max_lasso_length = 12;
  size_t max_lassos = 5000;
  size_t max_search_steps = 500000;
  // Worker threads evaluating candidates. <= 1 runs inline on the calling
  // thread (no thread is spawned); 0 means "all hardware threads".
  int num_workers = kDefaultSearchWorkers;
  // Resource governor (nullptr = unlimited). Polled at the engine's safe
  // points — once per candidate on the inline path, per batch on the
  // producer, per candidate on every worker — so a trip stops the search
  // within one candidate's evaluation. A witness found before the trip
  // still wins; otherwise the trip becomes the stop reason and the
  // negative verdict is truncated (never silently definitive).
  const ExecutionGovernor* governor = nullptr;
};

struct LassoSearchOutcome {
  // The accepted candidate of lowest enumeration rank, if any. Identical
  // to what the serial search returns, for every worker count.
  std::optional<LassoCandidate> witness;
  SearchStats stats;
};

// Per-worker counters an evaluator reports into; each worker owns one, so
// evaluators update them without synchronization. Merged into SearchStats.
// Carries the worker's closure scratch buffer, so every closure an
// evaluator builds on this worker reuses the same temporaries.
struct LassoWorkerCounters {
  size_t closures_built = 0;
  size_t closures_extended = 0;
  compile::GuardStats guard;  // compiled guard evaluations (witness checks)
  ClosureScratch scratch;
  // The shortest word prefix this worker has proven contradictory, empty
  // until the first refutation (the emptiness evaluator's memo; see
  // SearchConsistentLasso). Lives for one search on one worker.
  std::vector<int> refuted_prefix;
};

// Evaluates one candidate. Must be safe to call concurrently from several
// threads: it may only read shared state, plus update `counters` (worker-
// owned) and any aggregation state the evaluator itself synchronizes.
using LassoEvaluator =
    std::function<LassoVerdict(const LassoCandidate&, LassoWorkerCounters&)>;

// The lasso-search engine behind Corollary 10 emptiness, Theorem 12
// verification, and the Theorem 18 LR-boundedness sampler: enumerates the
// accepting lassos of `nba` (single-threaded, deterministic order) and
// feeds them, in rank-ordered batches, to `evaluate` on a pool of
// `num_workers` threads. The first
// witness wins, with deterministic tie-breaking: after any witness is
// found, candidates of higher rank are cancelled, candidates of lower rank
// still complete, and the lowest-rank witness is returned — so verdict and
// witness are byte-identical to the serial search regardless of thread
// count or scheduling. Stats are exact for the run that happened (checked
// counts can exceed the serial run's, since in-flight candidates past the
// witness may still be evaluated before cancellation).
LassoSearchOutcome SearchLassos(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate);

}  // namespace rav

#endif  // RAV_ERA_PARALLEL_SEARCH_H_
