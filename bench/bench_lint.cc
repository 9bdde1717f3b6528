// E18 — Static analysis: lint cost and analyze-and-strip speedup.
// Claim: the analysis/ passes are cheap relative to the decision
// procedures they guard (lint is microseconds even with dead structure),
// and AnalyzeAndStrip pays for itself: on specs carrying dead states,
// dead transitions, and vacuous constraints, emptiness with stripping
// (the default) beats the unstripped search by removing control symbols
// and constraint sweeps the search would otherwise pay for on every
// closure, at an identical bounded verdict.
// Counters: diagnostics, states_removed, transitions_removed,
// constraints_removed, nonempty, lassos_tried.
//
// The BM_FlowStripClean / BM_EmptinessFlowStrip families below are the
// E24 rungs (flow-sensitive tier, analysis/dataflow.h): on clean specs
// the kFlow fixpoint stays microseconds — a single-digit multiple of
// the structural kFast floor and cheaper than the kFull local guard
// passes it out-prunes — and on specs whose dead structure only the
// flow passes can see, the kFlow strip removes what the unstripped
// search would otherwise explore, with the gap widening in the amount
// of dead structure.

#include <benchmark/benchmark.h>

#include <string>

#include "analysis/lint.h"
#include "base/numbers.h"
#include "bench_common.h"
#include "era/emptiness.h"
#include "types/completion.h"

RAV_BENCH_EXPERIMENT(
    "E18",
    "lint passes cost microseconds and AnalyzeAndStrip speeds up "
    "emptiness on specs with dead structure at an identical verdict")

namespace rav {
namespace {

// Example 5's completed core plus `dead` units of removable structure:
// each unit is a reachable dead-end state, an unreachable feeder state
// (both with guards reused from the complete core, so the automaton
// stays complete), and a vacuous constraint anchored at the feeder.
ExtendedAutomaton SeededEra(int dead) {
  ExtendedAutomaton core = bench::CompletedEra(bench::MakeExample5());
  RegisterAutomaton a = core.automaton();
  const RaTransition seed = a.transition(0);
  for (int d = 0; d < dead; ++d) {
    StateId sink = a.AddState("sink" + std::to_string(d));
    StateId orphan = a.AddState("orphan" + std::to_string(d));
    a.AddTransition(seed.from, seed.guard, sink);
    a.AddTransition(orphan, seed.guard, seed.from);
  }
  ExtendedAutomaton era(std::move(a));
  // The core constraints must be recompiled from their regex text: their
  // DFAs were built over the smaller state alphabet.
  for (const GlobalConstraint& c : core.constraints()) {
    RAV_CHECK(
        era.AddConstraintFromText(RegisterPair{c.i, c.j}, c.is_equality,
                                  c.description)
            .ok());
  }
  for (int d = 0; d < dead; ++d) {
    const std::string orphan = "orphan" + std::to_string(d);
    RAV_CHECK(era.AddConstraintFromText(
        RegisterPair{RegisterId(0), RegisterId(0)}, /*is_equality=*/true, 
                                        orphan + " " + orphan)
                  .ok());
  }
  return era;
}

void BM_Lint(benchmark::State& state) {
  ExtendedAutomaton era = SeededEra(static_cast<int>(state.range(0)));
  size_t diagnostics = 0;
  for (auto _ : state) {
    auto result = analysis::Lint(era);
    diagnostics = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["diagnostics"] = static_cast<double>(diagnostics);
}
BENCHMARK(BM_Lint)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_AnalyzeAndStrip(benchmark::State& state) {
  ExtendedAutomaton era = SeededEra(static_cast<int>(state.range(0)));
  analysis::StripResult last;
  for (auto _ : state) {
    auto result = analysis::AnalyzeAndStrip(era);
    benchmark::DoNotOptimize(result);
    last = std::move(result);
  }
  state.counters["states_removed"] = static_cast<double>(last.states_removed);
  state.counters["transitions_removed"] =
      static_cast<double>(last.transitions_removed);
  state.counters["constraints_removed"] =
      static_cast<double>(last.constraints_removed);
}
BENCHMARK(BM_AnalyzeAndStrip)->Arg(4)->Arg(16)->Arg(64);

// Emptiness with and without stripping, same bounds: the gap is what the
// dead structure costs the search. `pump` is pinned so both sides use
// identical closure windows (the procedures pin it the same way
// internally; see era/emptiness.cc).
void EmptinessWithStrip(benchmark::State& state, bool strip) {
  ExtendedAutomaton era = SeededEra(static_cast<int>(state.range(0)));
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.analyze_and_strip = strip;
  options.max_lasso_length = 6;
  options.pump = SuggestedPumpCount(era);
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
}

void BM_EmptinessStripOn(benchmark::State& state) {
  EmptinessWithStrip(state, true);
}
BENCHMARK(BM_EmptinessStripOn)->Arg(4)->Arg(16)->Arg(64);

void BM_EmptinessStripOff(benchmark::State& state) {
  EmptinessWithStrip(state, false);
}
BENCHMARK(BM_EmptinessStripOff)->Arg(4)->Arg(16)->Arg(64);

// ---- E24: the flow-sensitive tier (analysis/dataflow.h) ----------------

// The emptiness engines demand complete guards, so each partial guard
// goes in as the set of its complete extensions.
void AddCompletedTransitions(RegisterAutomaton& a, StateId from,
                             const Type& partial, StateId to) {
  for (const Type& guard : EqualityCompletions(partial)) {
    a.AddTransition(from, guard, to);
  }
}

// A clean accepting ring of n live states over one register and a
// constant; every transition carries all completions of the free guard,
// so every frontier is compatible and every state sits on the accepting
// cycle. The flow passes run their full fixpoint and prove nothing is
// removable — this family measures their pure analysis cost.
ExtendedAutomaton CleanRingEra(int n) {
  Schema schema;
  schema.AddConstant("c");
  RegisterAutomaton a(1, schema);
  for (int s = 0; s < n; ++s) a.AddState(NumberedName("r", s));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int s = 0; s < n; ++s) {
    Type free = a.NewGuardBuilder().Build().value();
    AddCompletedTransitions(a, StateId(s), free, StateId((s + 1) % n));
  }
  return ExtendedAutomaton(std::move(a));
}

// The clean one-state core plus `knots` copies of the self-justifying
// dead cluster of tests/data/flow_dead.rav: a feeder pinning r1 = c into
// a knot whose loop and exit both demand x1 != c. Each cluster is
// locally clean — the loop's frontier justifies itself and the exit, so
// RAV003 keeps everything — and removed whole by the flow tier.
ExtendedAutomaton FlowDeadEra(int knots) {
  Schema schema;
  const ConstantId c = schema.AddConstant("c");
  RegisterAutomaton a(1, schema);
  const StateId core = a.AddState("core");
  a.SetInitial(core);
  a.SetFinal(core);
  Type free = a.NewGuardBuilder().Build().value();
  AddCompletedTransitions(a, core, free, core);
  for (int d = 0; d < knots; ++d) {
    const StateId knot = a.AddState("knot" + std::to_string(d));
    TypeBuilder feeder = a.NewGuardBuilder();
    feeder.AddEq(feeder.Y(0), feeder.Const(c));
    AddCompletedTransitions(a, core, feeder.Build().value(), knot);
    TypeBuilder loop = a.NewGuardBuilder();
    loop.AddNeq(loop.X(0), loop.Const(c)).AddNeq(loop.Y(0), loop.Const(c));
    AddCompletedTransitions(a, knot, loop.Build().value(), knot);
    TypeBuilder leave = a.NewGuardBuilder();
    leave.AddNeq(leave.X(0), leave.Const(c));
    AddCompletedTransitions(a, knot, leave.Build().value(), core);
  }
  return ExtendedAutomaton(std::move(a));
}

// Strip cost on a clean spec at a given tier. The kFlow/kFast gap is the
// price of the dataflow fixpoint (guard compilation included); the
// kFull/kFlow gap is what skipping the quadratic local guard passes
// saves.
void FlowStripClean(benchmark::State& state, analysis::StripEffort effort) {
  ExtendedAutomaton era = CleanRingEra(static_cast<int>(state.range(0)));
  analysis::StripResult last;
  for (auto _ : state) {
    auto result = analysis::AnalyzeAndStrip(era, effort);
    benchmark::DoNotOptimize(result);
    last = std::move(result);
  }
  state.counters["states_removed"] = static_cast<double>(last.states_removed);
  state.counters["transitions_removed"] =
      static_cast<double>(last.transitions_removed);
}

void BM_FlowStripCleanFast(benchmark::State& state) {
  FlowStripClean(state, analysis::StripEffort::kFast);
}
BENCHMARK(BM_FlowStripCleanFast)->Arg(8)->Arg(32)->Arg(128);

void BM_FlowStripCleanFlow(benchmark::State& state) {
  FlowStripClean(state, analysis::StripEffort::kFlow);
}
BENCHMARK(BM_FlowStripCleanFlow)->Arg(8)->Arg(32)->Arg(128);

void BM_FlowStripCleanFull(benchmark::State& state) {
  FlowStripClean(state, analysis::StripEffort::kFull);
}
BENCHMARK(BM_FlowStripCleanFull)->Arg(8)->Arg(32)->Arg(128);

// Emptiness on the flow-dead-heavy rungs: with the strip (the decision
// procedures' kFlow default) the search sees only the one-state core;
// without it, every knot's control symbols survive into the search.
// RAV012/013 are invisible to kFast, so the gap here is purely the flow
// passes' doing — the structure is locally clean.
void EmptinessFlowStrip(benchmark::State& state, bool strip) {
  ExtendedAutomaton era = FlowDeadEra(static_cast<int>(state.range(0)));
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.analyze_and_strip = strip;
  // Force the kFlow tier at every rung: the small rungs chart the loss
  // region the default transition floor exists to avoid.
  options.min_flow_strip_transitions = 0;
  options.max_lasso_length = 6;
  options.pump = SuggestedPumpCount(era);
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
}

void BM_EmptinessFlowStripOn(benchmark::State& state) {
  EmptinessFlowStrip(state, true);
}
BENCHMARK(BM_EmptinessFlowStripOn)->Arg(4)->Arg(16)->Arg(64);

void BM_EmptinessFlowStripOff(benchmark::State& state) {
  EmptinessFlowStrip(state, false);
}
BENCHMARK(BM_EmptinessFlowStripOff)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace rav
