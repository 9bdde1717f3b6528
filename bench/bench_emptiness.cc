// E6 — Extended-automaton emptiness (Theorem 9 / Corollary 10).
// Claim: emptiness over finite databases is decidable; the lasso search
// with constraint-closure checking decides the paper's examples, and the
// closure checks parallelize across worker threads with verdicts and
// witnesses identical to the serial search.
// Counters: nonempty, lassos_tried, stop_reason (SearchStopReason enum
// value: 0 witness-found, 1 exhausted, 2 length-bound, 3 lasso-budget,
// 4 step-budget, 8 visit-bound), closures, workers; the drain rungs also
// report closure_nodes, the constraint-graph nodes built per search.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string_view>

#include "base/metrics.h"
#include "bench_common.h"
#include "era/emptiness.h"
#include "ra/transform.h"

namespace rav {
namespace {

void AddSearchCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["stop_reason"] = static_cast<double>(stats.stop_reason);
  state.counters["enumerated"] = static_cast<double>(stats.lassos_enumerated);
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["extended"] = static_cast<double>(stats.closures_extended);
  state.counters["inconsistent"] =
      static_cast<double>(stats.inconsistent_closures);
  state.counters["workers"] = static_cast<double>(stats.workers);
}

uint64_t HistogramSum(std::string_view name) {
  for (const metrics::MetricSnapshot& m : metrics::Snapshot()) {
    if (m.name == name) return m.histogram.sum;
  }
  return 0;
}

// Constraint-graph nodes built so far in this process: every closure
// built from scratch plus the k nodes per position an ExtendedBy
// appends. A count that does not depend on the machine; 0 when metrics
// are compiled out.
uint64_t ClosureNodesBuilt(int num_registers) {
  return HistogramSum("era/closure/nodes") +
         static_cast<uint64_t>(num_registers) *
             HistogramSum("era/closure/extended_positions");
}

// Searches `era` with default options over a prebuilt SControl NBA, as
// the service answers a cached spec's `empty`, and reports the search
// counters plus the closure nodes each search built.
void RunDrain(benchmark::State& state, const ExtendedAutomaton& era) {
  ControlAlphabet alphabet(era.automaton());
  const Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  const EraEmptinessOptions options;
  EraEmptinessResult last;
  const uint64_t nodes_before =
      ClosureNodesBuilt(era.automaton().num_registers());
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, scontrol, options);
    RAV_CHECK(result.ok());
    last = *std::move(result);
    benchmark::DoNotOptimize(last);
  }
  const uint64_t nodes =
      ClosureNodesBuilt(era.automaton().num_registers()) - nodes_before;
  RAV_CHECK(!last.nonempty);
  state.counters["nonempty"] = last.nonempty;  // expected 0
  state.counters["closure_nodes"] =
      static_cast<double>(nodes) / static_cast<double>(state.iterations());
  AddSearchCounters(state, last.stats);
}

void BM_EmptinessExample5(benchmark::State& state) {
  ExtendedAutomaton era = bench::CompletedEra(bench::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = static_cast<size_t>(state.range(0));
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["max_lasso_length"] =
      static_cast<double>(options.max_lasso_length);
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessExample5)->DenseRange(4, 10, 2);

void BM_EmptinessContradictory(benchmark::State& state) {
  // Equality + inequality on the same factor: every lasso inconsistent.
  ExtendedAutomaton era = bench::MakeExample5();
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "p1 p2* p1").ok());
  ExtendedAutomaton complete = bench::CompletedEra(era);
  ControlAlphabet alphabet(complete.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = static_cast<size_t>(state.range(0));
  options.max_lassos = 2000;
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(complete, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessContradictory)->DenseRange(4, 8, 2);

void BM_EmptinessExample8(benchmark::State& state) {
  // Example 8: all-distinct values that must stay in a unary relation —
  // nonempty over infinite databases but EMPTY over finite ones; the
  // clique-growth guard must reject every lasso.
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  RegisterAutomaton a(1, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.X(0)}, true).AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);
  RegisterAutomaton completed = Completed(a).value();
  ExtendedAutomaton era(std::move(completed));
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+").ok());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = 500;
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;  // expected 0
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessExample8);

void BM_EmptinessShiftRingParallel(benchmark::State& state) {
  // The parallel-engine workload: a 4-register shift ring with skip
  // transitions (exponential lasso space) under contradictory global
  // constraints, so every candidate is rejected — on the lasso as
  // written, before any pumping, since the contradiction spans one pass
  // of the s0 ... s0 cycle. Arg = worker count; verdicts and witnesses
  // are checked byte-identical to the serial reference on every run.
  const int workers = static_cast<int>(state.range(0));
  ExtendedAutomaton era = bench::MakeShiftRingSearchEra(4, 6, true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 12;
  options.max_lassos = 256;
  options.num_workers = workers;
  EraEmptinessOptions serial = options;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  EraEmptinessResult last;
  for (auto _ : state) {
    last = SearchConsistentLasso(era, alphabet, scontrol, options);
    benchmark::DoNotOptimize(last);
  }
  RAV_CHECK(last.nonempty == reference.nonempty);
  RAV_CHECK(last.control_word.prefix == reference.control_word.prefix);
  RAV_CHECK(last.control_word.cycle == reference.control_word.cycle);
  RAV_CHECK(last.stats.stop_reason == reference.stats.stop_reason);
  state.counters["nonempty"] = last.nonempty;  // expected 0
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessShiftRingParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EmptinessShiftRingWitnessParallel(benchmark::State& state) {
  // Same family without the contradiction: the ERA is nonempty, and the
  // engine must return the serial search's first witness (lowest
  // enumeration rank) at every worker count.
  const int workers = static_cast<int>(state.range(0));
  ExtendedAutomaton era = bench::MakeShiftRingSearchEra(4, 6, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 12;
  options.max_lassos = 256;
  options.num_workers = workers;
  EraEmptinessOptions serial = options;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  RAV_CHECK(reference.nonempty);
  EraEmptinessResult last;
  for (auto _ : state) {
    last = SearchConsistentLasso(era, alphabet, scontrol, options);
    benchmark::DoNotOptimize(last);
  }
  RAV_CHECK(last.nonempty);
  RAV_CHECK(last.control_word.prefix == reference.control_word.prefix);
  RAV_CHECK(last.control_word.cycle == reference.control_word.cycle);
  state.counters["nonempty"] = last.nonempty;  // expected 1
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessShiftRingWitnessParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EmptinessShiftRingDrain(benchmark::State& state) {
  // The search_mix drain: the contradictory k=3, n=8 ring, its 5,000
  // default candidates each refuted on the lasso as written, so no
  // pumped window is built (extended = 0).
  RunDrain(state,
           bench::CompletedEra(bench::MakeShiftRingSearchEra(3, 8, true)));
}
BENCHMARK(BM_EmptinessShiftRingDrain)->Unit(benchmark::kMillisecond);

void BM_EmptinessPumpOnlyContradiction(benchmark::State& state) {
  // The probe's worst case: every candidate passes the probe and is
  // refuted only after growing to its pumped window (extended = closures).
  RunDrain(state, bench::CompletedEra(bench::MakePumpOnlyContradiction()));
}
BENCHMARK(BM_EmptinessPumpOnlyContradiction)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E6", "Theorem 9 / Corollary 10: emptiness of extended automata over finite databases is decidable; the closure checks parallelize with verdicts identical to the serial search.")
