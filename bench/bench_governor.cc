// E19/E20 — Resource-governed execution (docs/robustness.md).
// Claim: threading an armed-but-untripped ExecutionGovernor through the
// emptiness search costs ≤3% over the ungoverned run (the safe-point
// polls are per-candidate, not per-node), and a tripped deadline stops
// the search within one candidate's evaluation of the requested instant.
// Counters: governed (0/1), stop_reason, enumerated; the BM_TimeToTrip
// rows additionally report deadline_ms (the requested budget) and
// overshoot_ms (wall time past the deadline when the search returned —
// the E20 accuracy measure).

#include <benchmark/benchmark.h>

#include <chrono>

#include "base/governor.h"
#include "bench_common.h"
#include "era/emptiness.h"

RAV_BENCH_EXPERIMENT(
    "E19",
    "Governed execution is ~free until it trips: an unlimited governor "
    "adds <=3% to the emptiness search, and a deadline stops the search "
    "within one candidate of the requested instant (E20).")

namespace rav {
namespace {

EraEmptinessOptions SearchOptions(const ExecutionGovernor* governor) {
  // The all-reject workload of bench_emptiness: every candidate is
  // rejected (on the lasso as written), so the search runs its whole
  // budget and the per-candidate governor poll is exercised on every
  // single candidate.
  EraEmptinessOptions options;
  options.max_lasso_length = 10;
  options.max_lassos = 2000;
  options.governor = governor;
  return options;
}

// E19 baseline: the search with no governor (the nullptr fast path).
void BM_GovernedSearchOverhead_Off(benchmark::State& state) {
  ExtendedAutomaton era = bench::CompletedEra(
      bench::MakeShiftRingSearchEra(2, 4, /*contradictory=*/true));
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, SearchOptions(nullptr));
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["governed"] = 0;
  state.counters["stop_reason"] = static_cast<double>(last.stats.stop_reason);
  state.counters["enumerated"] =
      static_cast<double>(last.stats.lassos_enumerated);
}
BENCHMARK(BM_GovernedSearchOverhead_Off);

// E19 measurement: identical search under an unlimited governor — every
// safe point polls, nothing ever trips. The ratio of this row to the
// _Off row is the governed overhead the ≤3% claim is about.
void BM_GovernedSearchOverhead_On(benchmark::State& state) {
  ExtendedAutomaton era = bench::CompletedEra(
      bench::MakeShiftRingSearchEra(2, 4, /*contradictory=*/true));
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result =
        CheckEraEmptiness(era, alphabet, SearchOptions(&governor));
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  RAV_CHECK(governor.trip() == GovernorTrip::kNone);
  state.counters["governed"] = 1;
  state.counters["stop_reason"] = static_cast<double>(last.stats.stop_reason);
  state.counters["enumerated"] =
      static_cast<double>(last.stats.lassos_enumerated);
}
BENCHMARK(BM_GovernedSearchOverhead_On);

// E20: arm a deadline of range(0) milliseconds against a search whose
// ungoverned run is much longer, and measure the overshoot — how far
// past the deadline the truncated result actually returned. The claim is
// that overshoot stays within one candidate's evaluation (well under a
// millisecond here), independent of the deadline's magnitude.
void BM_TimeToTrip(benchmark::State& state) {
  const auto deadline_ms = std::chrono::milliseconds(state.range(0));
  ExtendedAutomaton era = bench::CompletedEra(
      bench::MakeShiftRingSearchEra(2, 6, /*contradictory=*/true));
  ControlAlphabet alphabet(era.automaton());
  double worst_overshoot_ms = 0.0;
  for (auto _ : state) {
    ExecutionGovernor governor;
    governor.set_deadline_after(deadline_ms);
    EraEmptinessOptions options = SearchOptions(&governor);
    options.max_lassos = 1000000;
    options.max_search_steps = 100000000;
    const auto start = std::chrono::steady_clock::now();
    auto result = CheckEraEmptiness(era, alphabet, options);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    RAV_CHECK(result.ok());
    RAV_CHECK(result->stats.stop_reason == SearchStopReason::kDeadline);
    worst_overshoot_ms = std::max(
        worst_overshoot_ms,
        wall_ms - static_cast<double>(deadline_ms.count()));
    benchmark::DoNotOptimize(result);
  }
  state.counters["deadline_ms"] = static_cast<double>(deadline_ms.count());
  state.counters["overshoot_ms"] = worst_overshoot_ms;
}
BENCHMARK(BM_TimeToTrip)->Arg(2)->Arg(10)->Arg(25);

}  // namespace
}  // namespace rav
