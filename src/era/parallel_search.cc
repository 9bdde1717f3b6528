#include "era/parallel_search.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "base/failpoints.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace rav {

namespace {

constexpr size_t kNoWitness = static_cast<size_t>(-1);

// Candidates the producer hands to the queue per push, and a worker pops
// per lock round-trip.
constexpr size_t kBatchSize = 16;

SearchStopReason FromEnumStop(LassoEnumStop stop) {
  switch (stop) {
    case LassoEnumStop::kExhausted:
      return SearchStopReason::kExhausted;
    case LassoEnumStop::kLengthClipped:
      return SearchStopReason::kLengthBound;
    case LassoEnumStop::kMaxCount:
      return SearchStopReason::kLassoBudget;
    case LassoEnumStop::kMaxSteps:
      return SearchStopReason::kStepBudget;
    case LassoEnumStop::kVisitBound:
      return SearchStopReason::kVisitBound;
  }
  return SearchStopReason::kExhausted;
}

// Per-worker tallies, one slot per thread — no synchronization needed
// while the worker runs; merged after the join.
struct WorkerTally {
  size_t checked = 0;
  size_t inconsistent = 0;
  size_t cancelled = 0;
  uint64_t busy_ns = 0;  // time spent inside the evaluator
  LassoWorkerCounters counters;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Evaluates candidates inline on the calling thread, in enumeration
// order — the serial reference path (num_workers <= 1).
LassoSearchOutcome SearchInline(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate) {
  LassoSearchOutcome outcome;
  LassoEnumerator enumerator(nba, options.max_lasso_length,
                             options.max_lassos, options.max_search_steps);
  WorkerTally tally;
  LassoCandidate candidate;
  GovernorTrip trip = GovernorTrip::kNone;
  while (enumerator.Next(&candidate.word, &candidate.index)) {
    trip = GovernorCheck(options.governor);
    if (trip != GovernorTrip::kNone) break;
    ++tally.checked;
    LassoVerdict verdict = evaluate(candidate, tally.counters);
    if (verdict == LassoVerdict::kInconsistent) ++tally.inconsistent;
    if (verdict == LassoVerdict::kWitness) {
      outcome.witness = std::move(candidate);
      break;
    }
  }
  outcome.stats.lassos_enumerated = enumerator.delivered();
  outcome.stats.lassos_checked = tally.checked;
  outcome.stats.inconsistent_closures = tally.inconsistent;
  outcome.stats.closures_built = tally.counters.closures_built;
  outcome.stats.closures_extended = tally.counters.closures_extended;
  outcome.stats.guard_evals = tally.counters.guard.evals;
  outcome.stats.guard_batches = tally.counters.guard.batches;
  outcome.stats.enumeration_steps = enumerator.steps();
  outcome.stats.workers = 1;
  // Precedence: a witness found before the trip is still a witness; an
  // ungoverned stop falls through to the enumerator's reason.
  outcome.stats.stop_reason = outcome.witness.has_value()
                                  ? SearchStopReason::kWitnessFound
                              : trip != GovernorTrip::kNone
                                  ? StopReasonOfTrip(trip)
                                  : FromEnumStop(enumerator.stop());
  return outcome;
}

// The producer/worker state shared across threads. All fields except
// `best_hint` are guarded by `mu`; candidates are heavy enough (a
// constraint closure each) that one lock round-trip per *batch* is noise.
struct SharedState {
  std::mutex mu;
  std::condition_variable work_ready;
  std::condition_variable space_ready;
  std::deque<LassoCandidate> queue;
  bool producer_done = false;
  size_t best_index = kNoWitness;
  LassoWord best_word;
  // Mirror of best_index for lock-free cancellation checks between the
  // candidates of a popped batch. Updated under `mu` whenever best_index
  // improves; read relaxed — a stale read only means one moot candidate
  // gets evaluated, never that a lower-rank candidate is skipped.
  std::atomic<size_t> best_hint{kNoWitness};
};

void WorkerLoop(SharedState& shared, const LassoEvaluator& evaluate,
                const ExecutionGovernor* governor, WorkerTally& tally) {
  std::vector<LassoCandidate> local;
  local.reserve(kBatchSize);
  for (;;) {
    local.clear();
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      shared.work_ready.wait(lock, [&] {
        return !shared.queue.empty() || shared.producer_done;
      });
      if (shared.queue.empty()) return;
      // Pop up to a whole batch per lock round-trip; the candidates are
      // then evaluated without touching the mutex (cancellation reads the
      // atomic hint instead).
      while (local.size() < kBatchSize && !shared.queue.empty()) {
        local.push_back(std::move(shared.queue.front()));
        shared.queue.pop_front();
      }
      shared.space_ready.notify_one();
    }
    for (LassoCandidate& candidate : local) {
      // A witness of lower rank already won; ranks above it are moot.
      bool cancelled = candidate.index >
                       shared.best_hint.load(std::memory_order_relaxed);
      // After a governor trip the queue is drained without evaluating, so
      // the pool winds down within one candidate's evaluation per worker.
      if (!cancelled && GovernorCheck(governor) != GovernorTrip::kNone) {
        cancelled = true;
      }
      if (cancelled) {
        ++tally.cancelled;
        continue;
      }
      ++tally.checked;
      const uint64_t eval_start = NowNs();
      LassoVerdict verdict = evaluate(candidate, tally.counters);
      tally.busy_ns += NowNs() - eval_start;
      if (verdict == LassoVerdict::kInconsistent) ++tally.inconsistent;
      if (verdict == LassoVerdict::kWitness) {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (candidate.index < shared.best_index) {
          shared.best_index = candidate.index;
          shared.best_hint.store(candidate.index, std::memory_order_relaxed);
          shared.best_word = std::move(candidate.word);
        }
        // Wake the producer (to stop enumerating) and any waiting workers.
        shared.space_ready.notify_all();
      }
    }
  }
}

LassoSearchOutcome SearchParallel(const Nba& nba,
                                  const LassoSearchOptions& options,
                                  const LassoEvaluator& evaluate,
                                  int num_workers) {
  const uint64_t pool_start_ns = NowNs();
  SharedState shared;
  const size_t capacity = kBatchSize * static_cast<size_t>(num_workers) * 2;

  std::vector<WorkerTally> tallies(num_workers);
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    try {
      if (RAV_FAILPOINT("era/search/worker_spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected worker-spawn failure");
      }
      workers.emplace_back(
          [&shared, &evaluate, &tallies, governor = options.governor, w] {
            WorkerLoop(shared, evaluate, governor, tallies[w]);
          });
    } catch (const std::system_error&) {
      // Thread creation failed (resource exhaustion or the injected
      // fault): degrade to however many workers exist rather than
      // crashing; with none, fall back to the serial path.
      RAV_METRIC_COUNT("era/search/worker_spawn_failures", 1);
      break;
    }
  }
  if (workers.empty()) return SearchInline(nba, options, evaluate);
  num_workers = static_cast<int>(workers.size());

  // The calling thread is the producer: it drains the enumerator in
  // batches and stops as soon as any witness exists (all candidates it
  // would still produce have higher ranks and cannot win).
  LassoEnumerator enumerator(nba, options.max_lasso_length,
                             options.max_lassos, options.max_search_steps);
  std::vector<LassoCandidate> staged;
  staged.reserve(kBatchSize);
  bool witness_seen = false;
  while (!witness_seen) {
    // One governor poll per batch: a trip stops production, and the
    // workers drain whatever is queued without evaluating it.
    if (GovernorCheck(options.governor) != GovernorTrip::kNone) break;
    staged.clear();
    LassoCandidate candidate;
    while (staged.size() < kBatchSize &&
           enumerator.Next(&candidate.word, &candidate.index)) {
      staged.push_back(std::move(candidate));
    }
    if (staged.empty()) break;
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.space_ready.wait(lock, [&] {
      return shared.queue.size() < capacity ||
             shared.best_index != kNoWitness;
    });
    if (shared.best_index != kNoWitness) {
      witness_seen = true;
      break;
    }
    for (LassoCandidate& c : staged) shared.queue.push_back(std::move(c));
    RAV_METRIC_RECORD("era/search/queue_depth", shared.queue.size());
    // One batch needs one worker, and a worker drains the queue before it
    // waits again. Waking them all would make the idle ones contend for
    // `mu` on every push once candidates are cheaper than producing them.
    shared.work_ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.producer_done = true;
  }
  shared.work_ready.notify_all();
  for (std::thread& t : workers) t.join();

  LassoSearchOutcome outcome;
  if (shared.best_index != kNoWitness) {
    outcome.witness =
        LassoCandidate{shared.best_index, std::move(shared.best_word)};
  }
  const uint64_t pool_ns = NowNs() - pool_start_ns;
  for (const WorkerTally& tally : tallies) {
    outcome.stats.lassos_checked += tally.checked;
    outcome.stats.inconsistent_closures += tally.inconsistent;
    outcome.stats.closures_built += tally.counters.closures_built;
    outcome.stats.closures_extended += tally.counters.closures_extended;
    outcome.stats.guard_evals += tally.counters.guard.evals;
    outcome.stats.guard_batches += tally.counters.guard.batches;
    RAV_METRIC_COUNT("era/search/candidates_cancelled", tally.cancelled);
    RAV_METRIC_COUNT("era/search/worker_busy_ns", tally.busy_ns);
    // Fraction of the pool's lifetime each worker spent evaluating.
    if (pool_ns > 0) {
      RAV_METRIC_RECORD("era/search/worker_utilization_pct",
                        tally.busy_ns * 100 / pool_ns);
    }
  }
  outcome.stats.lassos_enumerated = enumerator.delivered();
  outcome.stats.enumeration_steps = enumerator.steps();
  outcome.stats.workers = num_workers;
  const GovernorTrip trip = options.governor != nullptr
                                ? options.governor->trip()
                                : GovernorTrip::kNone;
  outcome.stats.stop_reason = outcome.witness.has_value()
                                  ? SearchStopReason::kWitnessFound
                              : trip != GovernorTrip::kNone
                                  ? StopReasonOfTrip(trip)
                                  : FromEnumStop(enumerator.stop());
  return outcome;
}

}  // namespace

SearchStopReason StopReasonOfTrip(GovernorTrip trip) {
  switch (trip) {
    case GovernorTrip::kDeadline:
      return SearchStopReason::kDeadline;
    case GovernorTrip::kMemoryBudget:
      return SearchStopReason::kMemoryBudget;
    case GovernorTrip::kCancelled:
      return SearchStopReason::kCancelled;
    case GovernorTrip::kNone:
      break;
  }
  return SearchStopReason::kExhausted;
}

const char* SearchStopReasonName(SearchStopReason reason) {
  switch (reason) {
    case SearchStopReason::kWitnessFound:
      return "witness-found";
    case SearchStopReason::kExhausted:
      return "exhausted";
    case SearchStopReason::kLengthBound:
      return "length-bound";
    case SearchStopReason::kLassoBudget:
      return "lasso-budget";
    case SearchStopReason::kStepBudget:
      return "step-budget";
    case SearchStopReason::kDeadline:
      return "deadline";
    case SearchStopReason::kMemoryBudget:
      return "memory-budget";
    case SearchStopReason::kCancelled:
      return "cancelled";
    case SearchStopReason::kVisitBound:
      return "visit-bound";
  }
  return "unknown";
}

std::string SearchStats::ToString() const {
  std::ostringstream out;
  out << "stop=" << SearchStopReasonName(stop_reason)
      << " enumerated=" << lassos_enumerated << " checked=" << lassos_checked
      << " closures=" << closures_built
      << " extended=" << closures_extended
      << " inconsistent=" << inconsistent_closures
      << " steps=" << enumeration_steps << " workers=" << workers
      << " wall_ms=" << wall_seconds * 1e3;
  // The compiled-guard fields are absent when the search carried no guard
  // tables (a bare SearchLassos over an NBA).
  if (guard_evals > 0 || guard_table_bytes > 0) {
    out << " guard_evals=" << guard_evals
        << " guard_batches=" << guard_batches
        << " guard_table_bytes=" << guard_table_bytes;
  }
  return out.str();
}

LassoSearchOutcome SearchLassos(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate) {
  RAV_TRACE_SPAN("era/search");
  const auto start = std::chrono::steady_clock::now();
  int num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  LassoSearchOutcome outcome =
      num_workers <= 1 ? SearchInline(nba, options, evaluate)
                       : SearchParallel(nba, options, evaluate, num_workers);
  outcome.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RAV_METRIC_COUNT("era/search/searches", 1);
  RAV_METRIC_COUNT("era/search/lassos_enumerated",
                   outcome.stats.lassos_enumerated);
  RAV_METRIC_COUNT("era/search/lassos_checked", outcome.stats.lassos_checked);
  RAV_METRIC_COUNT("era/search/enumeration_steps",
                   outcome.stats.enumeration_steps);
  RAV_METRIC_COUNT("era/search/inconsistent_closures",
                   outcome.stats.inconsistent_closures);
  if (outcome.stats.guard_evals > 0) {
    RAV_METRIC_COUNT("era/guard/evals", outcome.stats.guard_evals);
    RAV_METRIC_COUNT("era/guard/batches", outcome.stats.guard_batches);
  }
  if (outcome.witness.has_value()) {
    RAV_METRIC_COUNT("era/search/witnesses_found", 1);
  }
  RAV_METRIC_SET("era/search/last_workers", outcome.stats.workers);
  return outcome;
}

}  // namespace rav
