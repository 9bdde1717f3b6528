// E11 — LR-boundedness (Definition 15 / Theorem 18, Examples 16 and 17).
// Claim: LR-bounded automata have a stable max vertex cover across window
// pumps (Example 16: cover 1); the all-distinct automaton's cover grows
// with the window (Example 17: not LR-bounded, hence not a projection of
// any register automaton by Theorem 19).
// Counters: max_cover, growth (1 = unbounded evidence), lassos,
// stop_reason (SearchStopReason enum value: 1 exhausted, 2 length-bound,
// 3 lasso-budget, 4 step-budget, 8 visit-bound), workers.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "projection/lr_bounded.h"
#include "ra/transform.h"

namespace rav {
namespace {

void AddSearchCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["stop_reason"] = static_cast<double>(stats.stop_reason);
  state.counters["enumerated"] = static_cast<double>(stats.lassos_enumerated);
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["extended"] = static_cast<double>(stats.closures_extended);
  state.counters["workers"] = static_cast<double>(stats.workers);
}

ExtendedAutomaton MakeDistinctWithin(int window) {
  // Values within distance `window` pairwise distinct: LR-bounded with
  // cover ~ window.
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  ExtendedAutomaton era(std::move(a));
  std::string expr = "q";
  for (int i = 0; i < window; ++i) expr += " q?";
  // q q?^w but at least length 2: approximate with union of fixed gaps.
  // Simpler: exact-gap constraints for each gap in [1, window].
  (void)expr;
  for (int gapped = 1; gapped <= window; ++gapped) {
    std::string e = "q";
    for (int i = 0; i < gapped; ++i) e += " q";
    RAV_CHECK(era.AddConstraintFromText(
        RegisterPair{RegisterId(0), RegisterId(0)}, false, e).ok());
  }
  return era;
}

void BM_LrBoundWindowFamily(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  ExtendedAutomaton era = MakeDistinctWithin(window);
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.max_lassos = 16;
  int cover = 0;
  bool growth = true;
  for (auto _ : state) {
    auto bound = EstimateLrBound(era, alphabet, options);
    RAV_CHECK(bound.ok());
    cover = bound->max_cover;
    growth = bound->growth_detected;
    benchmark::DoNotOptimize(bound);
  }
  state.counters["window"] = window;
  state.counters["max_cover"] = cover;
  state.counters["growth"] = growth;
}
BENCHMARK(BM_LrBoundWindowFamily)->DenseRange(1, 4);

void BM_LrBoundShiftRingParallel(benchmark::State& state) {
  // Cover sampling over the skip-edge shift ring with cross-position
  // inequality constraints — enough per-lasso matching work for the
  // worker pool to matter. Arg = worker count; the fold (max over
  // covers, or over growth flags) is order-independent, and the result
  // is checked identical to the serial reference on every run.
  const int workers = static_cast<int>(state.range(0));
  ExtendedAutomaton era = bench::MakeShiftRingSearchEra(4, 6, false);
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "s0 .* s3").ok());
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "s1 .* s4").ok());
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "s2 .* s5").ok());
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.max_lassos = 64;
  options.max_lasso_length = 10;
  options.num_workers = workers;
  LrBoundOptions serial = options;
  serial.num_workers = 1;
  auto reference = EstimateLrBound(era, alphabet, serial);
  RAV_CHECK(reference.ok());
  LrBoundResult last;
  for (auto _ : state) {
    auto bound = EstimateLrBound(era, alphabet, options);
    RAV_CHECK(bound.ok());
    last = *bound;
    benchmark::DoNotOptimize(bound);
  }
  RAV_CHECK(last.max_cover == reference->max_cover);
  RAV_CHECK(last.growth_detected == reference->growth_detected);
  RAV_CHECK(last.stats.stop_reason == reference->stats.stop_reason);
  state.counters["max_cover"] = last.max_cover;
  state.counters["growth"] = last.growth_detected;
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_LrBoundShiftRingParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LrBoundAllDistinct(benchmark::State& state) {
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  ExtendedAutomaton era(std::move(a));
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+").ok());
  ControlAlphabet alphabet(era.automaton());
  LrBoundResult last;
  for (auto _ : state) {
    auto bound = EstimateLrBound(era, alphabet);
    RAV_CHECK(bound.ok());
    last = *bound;
    benchmark::DoNotOptimize(bound);
  }
  state.counters["growth"] = last.growth_detected;  // expected 1
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_LrBoundAllDistinct);

void BM_MaxCutVertexCoverScaling(benchmark::State& state) {
  // Direct G^w_h cover computation as the window grows (all-distinct).
  const size_t window = static_cast<size_t>(state.range(0));
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  ExtendedAutomaton era(std::move(a));
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+").ok());
  ControlAlphabet alphabet(era.automaton());
  LassoWord lasso{{}, {0}};
  int cover = 0;
  for (auto _ : state) {
    cover = MaxCutVertexCover(era, alphabet, lasso, window);
    benchmark::DoNotOptimize(cover);
  }
  state.counters["window"] = static_cast<double>(window);
  state.counters["cover"] = cover;
}
BENCHMARK(BM_MaxCutVertexCoverScaling)->RangeMultiplier(2)->Range(4, 32);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E11", "Definition 15 / Theorem 18: LR-boundedness is detectable via max vertex covers of G^w_h; the all-distinct Example 17 shows unbounded growth.")
