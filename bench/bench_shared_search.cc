// E22 — Worker scaling of the lasso-search engine on full drains.
// Claim: the engine's answer does not depend on its worker count, and on
// drains whose candidates the refuted-prefix memo answers, extra workers
// do not pay: the producer's enumeration and per-batch hand-off set the
// time. The ring rungs drain a contradictory shift ring's whole bounded
// lasso space; the LTL-FO rungs drain the ¬φ-NBA × SControl product of a
// HOLDS verification. A one-time RAV_CHECK over every ring rung requires
// the 1-worker and 4-worker drains to agree on verdict, stop reason,
// candidates enumerated and DFS steps, so a determinism drift fails the
// bench run (and CI). Counters: closures, checked, peak_kb.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "ra/control.h"

namespace rav {
namespace {

void AddSearchCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["checked"] = static_cast<double>(stats.lassos_checked);
}

// The all-reject big-product rung (bench_emptiness's E17-style family):
// a contradictory shift ring whose skip transitions make the accepting-
// lasso space exponential in the length bound, so the search drains its
// whole bounded space.
EraEmptinessResult RunRing(int n, size_t max_length, int workers,
                           const ExecutionGovernor* governor) {
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(/*k=*/3, n, /*contradictory=*/true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = max_length;
  options.max_lassos = 100000;
  options.max_search_steps = 10000000;
  options.num_workers = workers;
  options.governor = governor;
  return SearchConsistentLasso(era, alphabet, scontrol, options);
}

// One-time determinism check of every ring rung: a drain has no witness,
// so the 4-worker search must reproduce the serial one's verdict, stop
// reason and enumeration exactly. RAV_CHECK so a drift fails the bench
// run (and CI).
void CheckRings() {
  for (int n : {4, 6}) {
    for (size_t max_length : {size_t{10}, size_t{12}}) {
      EraEmptinessResult serial = RunRing(n, max_length, 1, nullptr);
      EraEmptinessResult parallel = RunRing(n, max_length, 4, nullptr);
      RAV_CHECK(serial.nonempty == parallel.nonempty);
      RAV_CHECK(serial.stats.stop_reason == parallel.stats.stop_reason);
      RAV_CHECK_EQ(serial.stats.lassos_enumerated,
                   parallel.stats.lassos_enumerated);
      RAV_CHECK_EQ(serial.stats.enumeration_steps,
                   parallel.stats.enumeration_steps);
    }
  }
}

void BM_RingPartitioned(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t max_length = static_cast<size_t>(state.range(1));
  const int workers = static_cast<int>(state.range(2));
  static bool checked = (CheckRings(), true);
  (void)checked;
  EraEmptinessResult last;
  size_t peak_bytes = 0;
  for (auto _ : state) {
    // A fresh unlimited governor per run records the search's own
    // high-water mark (its closures) in peak_bytes().
    ExecutionGovernor governor;
    last = RunRing(n, max_length, workers, &governor);
    peak_bytes = governor.peak_bytes();
    benchmark::DoNotOptimize(last);
  }
  state.counters["ring"] = static_cast<double>(n);
  state.counters["max_len"] = static_cast<double>(max_length);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["peak_kb"] = static_cast<double>(peak_bytes) / 1024.0;
  AddSearchCounters(state, last.stats);
}
// MinTime keeps the 1-vs-4-worker ratios stable: these rungs feed the
// E22 scaling claim.
BENCHMARK(BM_RingPartitioned)
    ->ArgsProduct({{4, 6}, {10, 12}, {1, 4}})
    ->MinTime(0.3);

// The LTL-FO rung: a HOLDS verification drains the ¬φ-NBA × SControl
// product's entire bounded lasso space.
void BM_LtlProductPartitioned(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(/*k=*/3, /*n=*/4, /*contradictory=*/true);
  LtlFoProperty prop;
  prop.propositions = {Formula::Eq(Term::Var(0), Term::Var(3))};  // x1 = y2
  LtlFormula f = LtlFormula::Ap(0);
  for (int i = 0; i < depth; ++i) {
    f = LtlFormula::Globally(LtlFormula::Eventually(std::move(f)));
  }
  prop.formula = std::move(f);
  VerificationOptions options;
  options.emptiness.max_lasso_length = 10;
  VerificationResult last;
  for (auto _ : state) {
    auto result = VerifyLtlFo(era, prop, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["product_states"] =
      static_cast<double>(last.product_states);
  state.counters["holds"] = last.holds;
  AddSearchCounters(state, last.search_stats);
}
BENCHMARK(BM_LtlProductPartitioned)->DenseRange(1, 2)->MinTime(0.3);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT(
    "E22",
    "Worker scaling of the lasso-search engine on full drains: the 1- and "
    "4-worker drains of each ring rung agree on verdict, stop reason, "
    "candidates enumerated and DFS steps (checked in-bench), and since "
    "the refuted-prefix memo answers most candidates without a closure, "
    "extra workers no longer speed these drains up: the producer's "
    "enumeration and per-batch hand-off set their time.")
