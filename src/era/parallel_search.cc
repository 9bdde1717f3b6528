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

#include "base/concurrent_set.h"
#include "base/failpoints.h"
#include "base/metrics.h"
#include "base/state_pool.h"
#include "base/trace.h"

namespace rav {

namespace {

constexpr size_t kNoWitness = static_cast<size_t>(-1);

// The shared-visited state of one search: canonical ω-word encodings
// interned in `set` (backed by `pool`), with each record's payload word
// publishing the evaluated verdict — 0 while pending, verdict + 1 once
// known, released/acquired so a reader sees a fully evaluated entry.
struct SharedVisitedContext {
  StatePool pool;
  ConcurrentSet set;

  explicit SharedVisitedContext(const ExecutionGovernor* governor)
      : pool(governor), set(&pool, governor) {}
};

// LEB128 with zigzag for the symbols, so any int alphabet round-trips.
void AppendVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

// The interning key: lengths then symbols of the canonical decomposition.
// Self-delimiting, so equal byte strings mean equal ω-words.
void EncodeLasso(const LassoWord& word, std::vector<uint8_t>& out) {
  out.clear();
  AppendVarint(out, word.prefix.size());
  AppendVarint(out, word.cycle.size());
  for (int s : word.prefix) AppendVarint(out, Zigzag(s));
  for (int s : word.cycle) AppendVarint(out, Zigzag(s));
}

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
  size_t visited_hits = 0;  // candidates answered from the visited set
  uint64_t busy_ns = 0;     // time spent inside the evaluator
  LassoWorkerCounters counters;
  // Shared-visited working state, owned by this worker's thread.
  StatePool::ThreadCache cache;
  std::vector<uint8_t> encode_buf;
};

// Evaluates one candidate, through the visited set when one is active.
// In shared mode the candidate's word is first replaced by its canonical
// decomposition (the evaluator's verdict is a function of the ω-word, so
// this changes nothing but the witness's spelling) and the verdict is
// published into the interned record's payload word; a candidate whose
// canonical form was already decided is answered without evaluating. Two
// workers racing on a fresh entry both evaluate — the pure-function
// contract makes the double publish idempotent, and not waiting keeps
// workers off each other's critical paths.
LassoVerdict EvaluateCandidate(SharedVisitedContext* ctx,
                               const LassoEvaluator& evaluate,
                               LassoCandidate& candidate, WorkerTally& tally) {
  if (ctx == nullptr) return evaluate(candidate, tally.counters);
  candidate.word = candidate.word.Canonicalized();
  EncodeLasso(candidate.word, tally.encode_buf);
  const ConcurrentSet::InternResult interned =
      ctx->set.Intern(tally.cache, tally.encode_buf.data(),
                      static_cast<uint32_t>(tally.encode_buf.size()));
  std::atomic<uint32_t>& payload = ctx->pool.Payload(interned.handle);
  if (!interned.inserted) {
    const uint32_t published = payload.load(std::memory_order_acquire);
    if (published != 0) {
      ++tally.visited_hits;
      return static_cast<LassoVerdict>(published - 1);
    }
  }
  const LassoVerdict verdict = evaluate(candidate, tally.counters);
  payload.store(static_cast<uint32_t>(verdict) + 1,
                std::memory_order_release);
  return verdict;
}

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
                                const LassoEvaluator& evaluate,
                                SharedVisitedContext* ctx) {
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
    LassoVerdict verdict = EvaluateCandidate(ctx, evaluate, candidate, tally);
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
  outcome.stats.visited_hits = tally.visited_hits;
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
                const ExecutionGovernor* governor, SharedVisitedContext* ctx,
                size_t batch, WorkerTally& tally) {
  std::vector<LassoCandidate> local;
  local.reserve(batch);
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
      while (local.size() < batch && !shared.queue.empty()) {
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
      LassoVerdict verdict =
          EvaluateCandidate(ctx, evaluate, candidate, tally);
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
                                  SharedVisitedContext* ctx, int num_workers) {
  const uint64_t pool_start_ns = NowNs();
  SharedState shared;
  const size_t batch = options.batch_size > 0 ? options.batch_size : 16;
  const size_t capacity = batch * static_cast<size_t>(num_workers) * 2;

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
      workers.emplace_back([&shared, &evaluate, &tallies, ctx, batch,
                            governor = options.governor, w] {
        WorkerLoop(shared, evaluate, governor, ctx, batch, tallies[w]);
      });
    } catch (const std::system_error&) {
      // Thread creation failed (resource exhaustion or the injected
      // fault): degrade to however many workers exist rather than
      // crashing; with none, fall back to the serial path.
      RAV_METRIC_COUNT("era/search/worker_spawn_failures", 1);
      break;
    }
  }
  if (workers.empty()) return SearchInline(nba, options, evaluate, ctx);
  num_workers = static_cast<int>(workers.size());

  // The calling thread is the producer: it drains the enumerator in
  // batches and stops as soon as any witness exists (all candidates it
  // would still produce have higher ranks and cannot win).
  LassoEnumerator enumerator(nba, options.max_lasso_length,
                             options.max_lassos, options.max_search_steps);
  std::vector<LassoCandidate> staged;
  staged.reserve(batch);
  bool witness_seen = false;
  while (!witness_seen) {
    // One governor poll per batch: a trip stops production, and the
    // workers drain whatever is queued without evaluating it.
    if (GovernorCheck(options.governor) != GovernorTrip::kNone) break;
    staged.clear();
    LassoCandidate candidate;
    while (staged.size() < batch &&
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
    outcome.stats.visited_hits += tally.visited_hits;
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

const char* SearchModeName(SearchMode mode) {
  switch (mode) {
    case SearchMode::kPartitioned:
      return "partitioned";
    case SearchMode::kSharedVisited:
      return "shared";
  }
  return "unknown";
}

std::optional<SearchMode> ParseSearchMode(std::string_view name) {
  if (name == "partitioned") return SearchMode::kPartitioned;
  if (name == "shared" || name == "shared-visited") {
    return SearchMode::kSharedVisited;
  }
  return std::nullopt;
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
  // Partitioned output is unchanged; the shared-mode fields only appear
  // when they can be nonzero.
  if (mode == SearchMode::kSharedVisited) {
    out << " mode=" << SearchModeName(mode) << " visited_hits=" << visited_hits
        << " visited_entries=" << visited_entries
        << " pool_bytes=" << pool_bytes;
  }
  // Likewise the compiled-guard fields: absent when the search carried no
  // guard tables (a bare SearchLassos over an NBA).
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
  // The visited set lives for exactly one search: the governor is charged
  // for its pool and table while the search runs and released here, so a
  // memory budget bounds the search's own high-water mark.
  std::optional<SharedVisitedContext> visited;
  if (options.mode == SearchMode::kSharedVisited) {
    visited.emplace(options.governor);
  }
  SharedVisitedContext* ctx = visited.has_value() ? &*visited : nullptr;
  LassoSearchOutcome outcome =
      num_workers <= 1
          ? SearchInline(nba, options, evaluate, ctx)
          : SearchParallel(nba, options, evaluate, ctx, num_workers);
  outcome.stats.mode = options.mode;
  if (ctx != nullptr) {
    outcome.stats.visited_entries = ctx->set.size();
    outcome.stats.pool_bytes = ctx->pool.bytes_reserved() +
                               ctx->set.bytes_reserved();
    RAV_METRIC_COUNT("era/search/visited_hits", outcome.stats.visited_hits);
    RAV_METRIC_SET("era/search/visited_entries",
                   outcome.stats.visited_entries);
    RAV_METRIC_SET("era/search/pool_bytes", outcome.stats.pool_bytes);
  }
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
