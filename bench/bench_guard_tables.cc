// E23 — Compiled guard tables (docs/compilation.md). Claim: lowering each
// distinct guard once into a flat table program and evaluating candidate
// valuations against it — batched SoA for run validation, precompiled
// closure ops for the window sweep — keeps the guard-dominated hot loops
// (run validation, witness realization, run sampling, closure
// construction) free of per-evaluation class-vector allocations and
// per-position type recompilation. Every rung cross-checks the compiled
// path against a reference oracle in its setup — the Type::HoldsIn walk
// behind the view-less validators, or ReferenceConstraintClosure — and
// hard-fails on any semantic drift.
//
// Rung families (arg 0 = size; arg 1 is always 1, the compiled engine's
// id from when an interpreted engine existed, kept so rung names stay
// comparable with recorded baselines):
//   BM_GuardTablesValidate/{len}/1   ValidateEraRunPrefix
//   BM_GuardTablesRealize/{pump}/1   RealizeEraWitness
//   BM_GuardTablesSample/{len}/1     SampleEraRun
//   BM_GuardTablesClosure/{window}/1 ConstraintClosure (E17 ladder)

#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
#include "era/constraint_graph.h"
#include "era/emptiness.h"
#include "era/run_check.h"
#include "era/simulate_era.h"
#include "ra/control.h"

namespace rav {
namespace {

// A valid length-`len` run of the k-register shift ring: the guards
// x_i = y_{i+1} chain values diagonally, so values[n+1][i+1] = values[n][i]
// and the head value is fresh per position.
FiniteRun MakeShiftRingRun(const RegisterAutomaton& a, size_t len) {
  const int k = a.num_registers();
  const int n_states = a.num_states();
  FiniteRun run;
  run.values.resize(len);
  run.states.resize(len);
  for (size_t n = 0; n < len; ++n) {
    run.states[n] = static_cast<StateId>(n % n_states);
    run.values[n].resize(k);
    run.values[n][0] = static_cast<DataValue>(1000 + n);
    for (int i = 1; i < k; ++i) {
      run.values[n][i] =
          n == 0 ? static_cast<DataValue>(i) : run.values[n - 1][i - 1];
    }
  }
  // Ring transitions were added first, one per state, in state order.
  for (size_t n = 0; n + 1 < len; ++n) {
    run.transition_indices.push_back(run.states[n].value());
  }
  return run;
}

// Validation: a long valid run of a 4-register shift ring, plus (at
// setup) a corrupted copy, checked through the tables and through the
// view-less HoldsIn reference — identical status on both paths,
// including the error message of the failure.
void BM_GuardTablesValidate(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  RegisterAutomaton a = bench::MakeShiftRing(4, 4);
  ExtendedAutomaton era(std::move(a));
  ControlAlphabet alphabet(era.automaton());
  Database db(era.automaton().schema());
  FiniteRun run = MakeShiftRingRun(era.automaton(), len);
  const compile::TransitionGuardView view = alphabet.transition_guard_view();

  {
    Status compiled_ok = ValidateEraRunPrefix(era, db, run,
                                              /*require_initial=*/true, view);
    Status reference_ok = ValidateEraRunPrefix(era, db, run,
                                               /*require_initial=*/true);
    RAV_CHECK(compiled_ok.ok() && reference_ok.ok());
    FiniteRun broken = run;
    broken.values[len / 2][1] = 999999;  // breaks a shift equality
    Status c = ValidateEraRunPrefix(era, db, broken,
                                    /*require_initial=*/true, view);
    Status r = ValidateEraRunPrefix(era, db, broken,
                                    /*require_initial=*/true);
    RAV_CHECK(!c.ok() && !r.ok());
    RAV_CHECK(c.ToString() == r.ToString());
  }

  compile::GuardStats guard;
  for (auto _ : state) {
    Status s = ValidateEraRunPrefix(era, db, run, /*require_initial=*/true,
                                    view, &guard);
    RAV_CHECK(s.ok());
    benchmark::DoNotOptimize(s);
  }
  state.counters["len"] = static_cast<double>(len);
  state.counters["guard_evals"] = static_cast<double>(guard.evals);
  state.counters["table_bytes"] =
      static_cast<double>(alphabet.guard_table_bytes());
}
BENCHMARK(BM_GuardTablesValidate)
    ->ArgsProduct({{256, 1024, 4096}, {1}})
    ->MinTime(0.5);

// Witness realization: the E22-style shift-ring search ERA is nonempty;
// realizing its ring lasso over a pumped window pays closure + database
// assembly + a full validation pass — the guard-dominated tail of every
// positive emptiness verdict.
void BM_GuardTablesRealize(benchmark::State& state) {
  const size_t pump = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(4, 4, /*contradictory=*/false);
  ControlAlphabet alphabet(era.automaton());
  const RegisterAutomaton& a = era.automaton();
  // The ring lasso s0 -> s1 -> ... -> s0, as control symbols (ring
  // transitions were added first, one per state, in state order).
  LassoWord word;
  for (int s = 0; s < a.num_states(); ++s) {
    const SymbolId symbol = alphabet.SymbolOf(
        StateId(s), a.transition(s).guard);
    RAV_CHECK(symbol.valid());
    word.cycle.push_back(symbol.value());
  }
  const size_t window = word.cycle.size() * pump;

  {
    // Cross-check: realizing off the reference closure yields the same
    // witness run, and the HoldsIn reference accepts it.
    auto w1 = RealizeEraWitness(
        era, alphabet, word,
        ReferenceConstraintClosure(era, alphabet, word, window));
    auto w2 = RealizeEraWitness(era, alphabet, word, window);
    RAV_CHECK(w1.ok() && w2.ok());
    RAV_CHECK(w1->run.values == w2->run.values);
    RAV_CHECK(w1->run.states == w2->run.states);
    RAV_CHECK(ValidateEraRunPrefix(era, w2->db, w2->run,
                                   /*require_initial=*/false)
                  .ok());
  }

  for (auto _ : state) {
    auto witness = RealizeEraWitness(era, alphabet, word, window);
    RAV_CHECK(witness.ok());
    benchmark::DoNotOptimize(witness);
  }
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_GuardTablesRealize)
    ->ArgsProduct({{8, 32, 128}, {1}})
    ->MinTime(0.5);

// Run sampling: the per-attempt guard checks dominate SampleEraRun, which
// lowers the guards once per call.
void BM_GuardTablesSample(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era(bench::MakeShiftRing(3, 3));
  Database db(era.automaton().schema());

  {
    // Cross-check: the HoldsIn reference accepts the sampled run, and a
    // caller-supplied alphabet view consumes the rng identically to the
    // sampler's own lowering.
    const ControlAlphabet alphabet(era.automaton());
    SimulateOptions with_view;
    with_view.guards = alphabet.transition_guard_view();
    std::mt19937 rng_a(7), rng_b(7);
    auto run_a = SampleEraRun(era, db, len, rng_a);
    auto run_b = SampleEraRun(era, db, len, rng_b, with_view);
    RAV_CHECK(run_a.has_value() && run_b.has_value());
    RAV_CHECK(ValidateEraRunPrefix(era, db, *run_a).ok());
    RAV_CHECK(run_a->values == run_b->values);
    RAV_CHECK(run_a->states == run_b->states);
  }

  std::mt19937 rng(42);
  for (auto _ : state) {
    auto run = SampleEraRun(era, db, len, rng);
    RAV_CHECK(run.has_value());
    benchmark::DoNotOptimize(run);
  }
  state.counters["len"] = static_cast<double>(len);
}
BENCHMARK(BM_GuardTablesSample)
    ->ArgsProduct({{64, 256}, {1}})
    ->MinTime(0.5);

// Closure construction (the E17 ladder): ApplyTypes replays each symbol's
// precompiled closure ops instead of re-walking its type per position. The shift-ring search ERA's guards
// carry k-1 equalities each, and the contradictory constraints make every
// candidate build a full window — the E22 drain shape.
void BM_GuardTablesClosure(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(6, 4, /*contradictory=*/true);
  ControlAlphabet alphabet(era.automaton());
  const RegisterAutomaton& a = era.automaton();
  LassoWord word;
  for (int s = 0; s < a.num_states(); ++s) {
    const SymbolId symbol = alphabet.SymbolOf(
        StateId(s), a.transition(s).guard);
    RAV_CHECK(symbol.valid());
    word.cycle.push_back(symbol.value());
  }

  {
    // Cross-check: identical to the reference closure, which re-walks the
    // Type objects per position instead of replaying the tables.
    ConstraintClosure c1 =
        ReferenceConstraintClosure(era, alphabet, word, window);
    ConstraintClosure c2(era, alphabet, word, window);
    RAV_CHECK(c1.consistent() == c2.consistent());
    RAV_CHECK_EQ(c1.num_classes(), c2.num_classes());
    for (int v = 0; v < c1.num_nodes(); ++v) {
      RAV_CHECK_EQ(c1.ClassOf(v), c2.ClassOf(v));
    }
    RAV_CHECK(c1.InequalityEdges() == c2.InequalityEdges());
  }

  ClosureScratch scratch;
  for (auto _ : state) {
    ConstraintClosure closure(era, alphabet, word, window, &scratch);
    benchmark::DoNotOptimize(closure);
  }
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_GuardTablesClosure)
    ->ArgsProduct({{32, 128, 512}, {1}})
    ->MinTime(0.5);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E23", "Compiled guard tables: lowering each distinct guard once into a flat table program (batched SoA validation, precompiled closure ops) matches the HoldsIn and reference-closure oracles bit-for-bit while keeping per-evaluation allocations and per-position type recompilation out of the hot loops.")
