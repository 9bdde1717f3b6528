#ifndef RAV_BENCH_BENCH_COMMON_H_
#define RAV_BENCH_BENCH_COMMON_H_

// Shared fixtures for the experiment suite (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark binary regenerates the data of one
// experiment E1..E14; sizes are chosen so the whole suite completes in a
// few minutes.

#include <string>

#include "base/numbers.h"
#include "era/extended_automaton.h"
#include "ra/register_automaton.h"
#include "ra/transform.h"

namespace rav::bench {

// The experiment a bench binary regenerates: its EXPERIMENTS.md id and
// the paper claim it measures. Every bench .cc defines exactly one via
// RAV_BENCH_EXPERIMENT below; the shared bench_main.cc embeds it in the
// `--report` JSON (see docs/observability.md). A bench without the macro
// fails to link — the report metadata is not optional.
struct ExperimentInfo {
  const char* id;     // "E6"
  const char* claim;  // the paper's claim / expected shape, one sentence
};
ExperimentInfo GetExperimentInfo();

// Example 1 of the paper (the running 2-register automaton).
inline RegisterAutomaton MakeExample1() {
  RegisterAutomaton a(2, Schema());
  StateId q1 = a.AddState("q1");
  StateId q2 = a.AddState("q2");
  a.SetInitial(q1);
  a.SetFinal(q1);
  TypeBuilder d1 = a.NewGuardBuilder();
  d1.AddEq(d1.X(0), d1.X(1)).AddEq(d1.X(1), d1.Y(1));
  a.AddTransition(q1, d1.Build().value(), q2);
  TypeBuilder d2 = a.NewGuardBuilder();
  d2.AddEq(d2.X(1), d2.Y(1));
  a.AddTransition(q2, d2.Build().value(), q2);
  TypeBuilder d3 = a.NewGuardBuilder();
  d3.AddEq(d3.X(1), d3.Y(1)).AddEq(d3.Y(0), d3.Y(1));
  a.AddTransition(q2, d3.Build().value(), q1);
  return a;
}

// A k-register ring automaton with `num_states` states whose guards shift
// registers (x_i = y_{i+1}) — a scalable family with nontrivial equality
// propagation, used wherever a parameterized automaton is needed.
inline RegisterAutomaton MakeShiftRing(int k, int num_states) {
  RegisterAutomaton a(k, Schema());
  for (int s = 0; s < num_states; ++s) {
    a.AddState(NumberedName("s", s));
  }
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int s = 0; s < num_states; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    a.AddTransition(StateId(s), b.Build().value(),
                    StateId((s + 1) % num_states));
  }
  return a;
}

// Example 5's extended automaton (the projection of Example 1).
inline ExtendedAutomaton MakeExample5() {
  RegisterAutomaton b(1, Schema());
  StateId p1 = b.AddState("p1");
  StateId p2 = b.AddState("p2");
  b.SetInitial(p1);
  b.SetFinal(p1);
  Type empty = b.NewGuardBuilder().Build().value();
  b.AddTransition(p1, empty, p2);
  b.AddTransition(p2, empty, p2);
  b.AddTransition(p2, empty, p1);
  ExtendedAutomaton era(std::move(b));
  Status s = era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                       true, "p1 p2* p1");
  RAV_CHECK(s.ok());
  return era;
}

// A search-heavy shift-ring ERA for the parallel lasso-search benchmarks:
// on top of the ring each state gets a skip transition to (s+2)%n with a
// distinct guard (shift plus x1 = y1), so the accepting-lasso space is
// exponential in the length bound. With `contradictory`, an equality and
// an inequality constraint both span every s0...s0 factor of the trace:
// every candidate lasso is rejected, already on the lasso as written
// (the emptiness search's unpumped probe) — the all-reject workload the
// parallel engine distributes across workers.
// Without it the ERA is nonempty and the search must return the same first
// witness at any worker count.
inline ExtendedAutomaton MakeShiftRingSearchEra(int k, int n,
                                                bool contradictory) {
  RegisterAutomaton a = MakeShiftRing(k, n);
  for (int s = 0; s < n; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    b.AddEq(b.X(0), b.Y(0));
    a.AddTransition(StateId(s), b.Build().value(), StateId((s + 2) % n));
  }
  ExtendedAutomaton era(std::move(a));
  if (contradictory) {
    const RegisterPair r00{RegisterId(0), RegisterId(0)};
    RAV_CHECK(era.AddConstraintFromText(r00, true, "s0 .* s0").ok());
    RAV_CHECK(era.AddConstraintFromText(r00, false, "s0 .* s0").ok());
  }
  return era;
}

// The pump-only contradiction (the in-flight fixture of the service and
// transport tests, PumpOnlyEmptySpecText in tests/test_util.h): a complete
// digraph on 8 final states whose only guard keeps x1, and an inequality
// across every factor of exactly 24 positions. Every lasso of at most 12
// symbols is consistent as written, so each candidate passes the
// unpumped probe and is refuted only on its pumped window — the case the
// probe cannot speed up. Always EMPTY.
inline ExtendedAutomaton MakePumpOnlyContradiction() {
  const int n = 8;
  RegisterAutomaton a(1, Schema());
  for (int s = 0; s < n; ++s) {
    a.SetFinal(a.AddState(NumberedName("q", s)));
  }
  a.SetInitial(StateId(0));
  TypeBuilder keep = a.NewGuardBuilder();
  keep.AddEq(keep.X(0), keep.Y(0));
  const Type guard = keep.Build().value();
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      a.AddTransition(StateId(s), guard, StateId(t));
    }
  }
  ExtendedAutomaton era(std::move(a));
  std::string factor = ".";
  for (int i = 1; i < 24; ++i) factor += " .";
  RAV_CHECK(era.AddConstraintFromText(
                   RegisterPair{RegisterId(0), RegisterId(0)}, false, factor)
                .ok());
  return era;
}

// Completes an ERA's automaton, carrying the constraints over.
inline ExtendedAutomaton CompletedEra(const ExtendedAutomaton& era) {
  RegisterAutomaton completed = Completed(era.automaton()).value();
  ExtendedAutomaton out(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    Status s = out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                    c.dfa, c.description);
    RAV_CHECK(s.ok());
  }
  return out;
}

}  // namespace rav::bench

#define RAV_BENCH_EXPERIMENT(experiment_id, experiment_claim)   \
  namespace rav::bench {                                        \
  ExperimentInfo GetExperimentInfo() {                          \
    return ExperimentInfo{experiment_id, experiment_claim};     \
  }                                                             \
  }

#endif  // RAV_BENCH_BENCH_COMMON_H_
