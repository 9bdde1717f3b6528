// E8 — LTL-FO verification (Theorem 12).
// Claim: verification is decidable via ¬φ-NBA × SControl product plus
// constraint-consistent lasso search; the LTL tableau is exponential in
// the closure.
// Counters: closure, ltl_nba_states, product_states, lassos, holds,
// stop_reason (SearchStopReason enum value: 0 witness-found, 1 exhausted,
// 2 length-bound, 3 lasso-budget, 4 step-budget, 8 visit-bound).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "era/ltlfo.h"

namespace rav {
namespace {

void AddSearchCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["stop_reason"] = static_cast<double>(stats.stop_reason);
  state.counters["enumerated"] = static_cast<double>(stats.lassos_enumerated);
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["extended"] = static_cast<double>(stats.closures_extended);
  state.counters["truncated"] = stats.truncated();
}

RegisterAutomaton MakeOrderWorkflow() {
  RegisterAutomaton a(2, Schema());
  StateId created = a.AddState("created");
  StateId paid = a.AddState("paid");
  StateId shipped = a.AddState("shipped");
  a.SetInitial(created);
  a.SetFinal(shipped);
  TypeBuilder pay = a.NewGuardBuilder();
  pay.AddEq(pay.X(0), pay.Y(0)).AddEq(pay.X(1), pay.Y(1));
  a.AddTransition(created, pay.Build().value(), paid);
  TypeBuilder ship = a.NewGuardBuilder();
  ship.AddEq(ship.X(0), ship.Y(0)).AddEq(ship.X(1), ship.Y(1));
  a.AddTransition(paid, ship.Build().value(), shipped);
  TypeBuilder next = a.NewGuardBuilder();
  next.AddNeq(next.X(0), next.Y(0));
  next.AddEq(next.X(1), next.Y(1));
  a.AddTransition(shipped, next.Build().value(), created);
  return a;
}

LtlFormula NestedGf(int depth) {
  // G F G F ... (p): formula size scales with depth.
  LtlFormula f = LtlFormula::Ap(0);
  for (int i = 0; i < depth; ++i) {
    f = LtlFormula::Globally(LtlFormula::Eventually(std::move(f)));
  }
  return f;
}

void BM_VerifyNestedGf(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  ExtendedAutomaton era(MakeOrderWorkflow());
  LtlFoProperty prop;
  prop.propositions = {Formula::Eq(Term::Var(1), Term::Var(3))};  // x2 = y2
  prop.formula = NestedGf(depth);
  VerificationResult last;
  for (auto _ : state) {
    auto result = VerifyLtlFo(era, prop);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["depth"] = depth;
  state.counters["closure"] = last.ltl_closure_size;
  state.counters["ltl_nba_states"] = last.ltl_nba_states;
  state.counters["product_states"] = last.product_states;
  state.counters["lassos"] = static_cast<double>(last.lassos_tried);
  state.counters["holds"] = last.holds;
  AddSearchCounters(state, last.search_stats);
}
BENCHMARK(BM_VerifyNestedGf)->DenseRange(1, 3);

void BM_VerifyWithConstraints(benchmark::State& state) {
  // The counterexample search must reject constraint-inconsistent lassos.
  ExtendedAutomaton era(MakeOrderWorkflow());
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "created . * created")
                .ok());
  LtlFoProperty prop;
  // G !(x1 = y1 at the created->... loop closing) — shaped so the global
  // freshness constraint matters.
  prop.propositions = {Formula::Eq(Term::Var(0), Term::Var(2))};  // x1 = y1
  prop.formula = LtlFormula::Globally(LtlFormula::Eventually(
      LtlFormula::Not(LtlFormula::Ap(0))));
  VerificationResult last;
  for (auto _ : state) {
    auto result = VerifyLtlFo(era, prop);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["holds"] = last.holds;
  state.counters["lassos"] = static_cast<double>(last.lassos_tried);
  state.counters["product_states"] = last.product_states;
  AddSearchCounters(state, last.search_stats);
}
BENCHMARK(BM_VerifyWithConstraints);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E8", "Theorem 12: LTL-FO verification is decidable; the tableau is exponential in the formula while the product stays proportional to the refined automaton.")
