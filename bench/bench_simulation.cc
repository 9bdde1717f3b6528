// E14 — Simulator throughput (substrate sanity baseline).
// Counters: positions/s for randomized run generation and the region
// abstraction size of the fixed-database emptiness decision.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
#include "ra/emptiness.h"
#include "ra/control.h"
#include "ra/simulate.h"

namespace rav {
namespace {

void BM_SampleRunThroughput(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  RegisterAutomaton a = bench::MakeShiftRing(k, 4);
  Database db{Schema()};
  std::mt19937 rng(1234);
  // Lower the guards once for the whole loop, as a loop caller should.
  const ControlAlphabet alphabet(a);
  SimulateOptions options;
  options.guards = alphabet.transition_guard_view();
  size_t positions = 0;
  for (auto _ : state) {
    auto run = SampleRun(a, db, 64, rng, options);
    if (run.has_value()) positions += run->length();
    benchmark::DoNotOptimize(run);
  }
  state.counters["k"] = k;
  state.counters["positions_per_s"] = benchmark::Counter(
      static_cast<double>(positions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleRunThroughput)->DenseRange(1, 4);

void BM_FixedDbEmptiness(benchmark::State& state) {
  // Region-abstraction size vs. database size.
  const int adom = static_cast<int>(state.range(0));
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  RegisterAutomaton a(2, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);
  Database db(s);
  for (int v = 0; v < adom; ++v) db.Insert(p, {v});

  bool has_run = false;
  FixedDbStats stats;
  for (auto _ : state) {
    has_run = HasRunOverDatabase(a, db, &stats);
    benchmark::DoNotOptimize(has_run);
  }
  state.counters["adom"] = adom;
  state.counters["has_run"] = has_run;
  state.counters["configurations"] =
      static_cast<double>(stats.num_configurations);
  state.counters["edges"] = static_cast<double>(stats.num_edges);
}
BENCHMARK(BM_FixedDbEmptiness)->DenseRange(1, 7, 2);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E14", "Substrate throughput sanity baseline: randomized run generation and the fixed-database region abstraction match their analytical sizes.")
