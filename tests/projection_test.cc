#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "era/run_check.h"
#include "projection/lemma21.h"
#include "projection/lr_bounded.h"
#include "projection/project_era.h"
#include "projection/project_ra.h"
#include "projection/prop22.h"
#include "ra/simulate.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

using testing::MakeAllDistinct;
using testing::MakeExample1;
using testing::MakeExample5;

// Value traces (flattened, first `m` registers, first `keep_len` positions)
// of prefix-valid runs of an extended automaton over `pool`. Runs are
// enumerated at length keep_len + 1 and trimmed by one position so that
// every kept position's constraints are enforced by an in-prefix
// transition (deferred-enforcement constructions like Proposition 6 check
// position n while firing the transition n → n+1).
std::set<std::vector<DataValue>> EraTraces(const ExtendedAutomaton& era,
                                           size_t keep_len,
                                           const std::vector<DataValue>& pool,
                                           int m) {
  std::set<std::vector<DataValue>> out;
  Database db{era.automaton().schema()};
  EnumerateRuns(era.automaton(), db, keep_len + 1, pool,
                [&](const FiniteRun& run) {
                  if (!CheckFiniteRunConstraints(era, run).ok()) return true;
                  std::vector<DataValue> flat;
                  for (size_t n = 0; n < keep_len; ++n) {
                    flat.insert(flat.end(), run.values[n].begin(),
                                run.values[n].begin() + m);
                  }
                  out.insert(std::move(flat));
                  return true;
                });
  return out;
}

// --- Lemma 21 ---

TEST(Lemma21Test, RequiresStateDriven) {
  RegisterAutomaton a = Completed(MakeExample1()).value();
  EXPECT_FALSE(PropagationAutomata::Build(a).ok());  // not state-driven
}

TEST(Lemma21Test, AgreesWithClosureOnSampledTraces) {
  RegisterAutomaton sd = MakeStateDriven(Completed(MakeExample1()).value());
  auto propagation = PropagationAutomata::Build(sd);
  ASSERT_TRUE(propagation.ok()) << propagation.status().ToString();
  const int k = sd.num_registers();

  // Sample symbolic control lassos; for each pumped window compare the
  // DFA verdicts against the ground-truth closure.
  ExtendedAutomaton plain(sd);  // no constraints: closure is ~ itself
  ControlAlphabet alpha(plain.automaton());
  Nba scontrol = BuildSControlNba(plain.automaton(), alpha);
  size_t lassos = 0;
  LassoEnumerator enumerator(scontrol, /*max_length=*/6, /*max_count=*/12,
                             /*max_steps=*/2000000);
  LassoWord lasso;
  size_t rank = 0;
  while (enumerator.Next(&lasso, &rank)) {
    ++lassos;
    const size_t window = lasso.prefix.size() + lasso.cycle.size() * 3;
    ConstraintClosure closure(plain, alpha, lasso, window);
    // State word of the window.
    std::vector<int> states;
    for (size_t n = 0; n < window; ++n) {
      states.push_back(alpha.state_of(SymbolId(lasso.SymbolAt(n))).value());
    }
    for (size_t a_pos = 0; a_pos < window; ++a_pos) {
      for (size_t b_pos = a_pos; b_pos < window; ++b_pos) {
        std::vector<int> factor(states.begin() + a_pos,
                                states.begin() + b_pos + 1);
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) {
            bool same = closure.ClassOf(closure.NodeOf(a_pos, i)) ==
                        closure.ClassOf(closure.NodeOf(b_pos, j));
            EXPECT_EQ(propagation->EqualityDfa(i, j).Accepts(factor), same)
                << "eq i=" << i << " j=" << j << " a=" << a_pos
                << " b=" << b_pos;
          }
        }
      }
    }
  }
  EXPECT_GT(lassos, 0u);
}

TEST(Lemma21Test, InequalityDfaSoundOnCompleteAutomaton) {
  // For a complete automaton, forced-distinct and forced-equal partition
  // all pairs reachable through live value chains. Spot-check on the
  // 1-register automaton with guard x1 ≠ y1 (consecutive distinct).
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddNeq(b.X(0), b.Y(0));
  a.AddTransition(q, b.Build().value(), q);
  RegisterAutomaton sd = MakeStateDriven(Completed(a).value());
  auto propagation = PropagationAutomata::Build(sd);
  ASSERT_TRUE(propagation.ok());
  // Factor q q (adjacent positions): forced distinct; q q q: unrelated.
  std::vector<int> qq = {0, 0};
  std::vector<int> qqq = {0, 0, 0};
  EXPECT_TRUE(propagation->InequalityDfa(0, 0).Accepts(qq));
  EXPECT_FALSE(propagation->InequalityDfa(0, 0).Accepts(qqq));
  EXPECT_FALSE(propagation->EqualityDfa(0, 0).Accepts(qq));
  // Single position: register equals itself.
  EXPECT_TRUE(propagation->EqualityDfa(0, 0).Accepts({0}));
}

// --- Proposition 20 ---

TEST(Prop20Test, Example1ProjectionMatchesByEnumeration) {
  RegisterAutomaton a = MakeExample1();
  Prop20Stats stats;
  auto projected = ProjectRegisterAutomaton(a, 1, &stats);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_GT(stats.num_constraints, 0);

  // Ground truth: Π₁ of A's runs. A side gets extra fresh values so the
  // hidden register can range freely; visible traces are filtered to the
  // common pool.
  const size_t keep_len = 4;
  std::vector<DataValue> pool = {0, 1};
  std::vector<DataValue> pool_big = {0, 1, 10, 11, 12, 13, 14};
  ExtendedAutomaton plain{PruneFrontierIncompatibleTransitions(
      MakeStateDriven(Completed(a).value()))};
  std::set<std::vector<DataValue>> truth;
  for (auto& trace : EraTraces(plain, keep_len, pool_big, 1)) {
    bool in_pool = true;
    for (DataValue v : trace) {
      in_pool = in_pool && (v == 0 || v == 1);
    }
    if (in_pool) truth.insert(trace);
  }
  std::set<std::vector<DataValue>> via_projection =
      EraTraces(*projected, keep_len, pool, 1);
  EXPECT_EQ(truth, via_projection);
}

TEST(Prop20Test, ProjectionIsLrBounded) {
  auto projected = ProjectRegisterAutomaton(MakeExample1(), 1);
  ASSERT_TRUE(projected.ok());
  ControlAlphabet alpha(projected->automaton());
  LrBoundOptions options;
  options.max_lassos = 24;
  auto bound = EstimateLrBound(*projected, alpha, options);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_FALSE(bound->growth_detected);
  EXPECT_LE(bound->max_cover, MakeExample1().num_registers());
}

TEST(Prop20Test, FullProjectionKeepsAllRegisters) {
  // m = k: the "projection" is the identity up to completion; traces match.
  RegisterAutomaton a = MakeExample1();
  auto projected = ProjectRegisterAutomaton(a, 2);
  ASSERT_TRUE(projected.ok());
  const size_t keep_len = 3;
  std::vector<DataValue> pool = {0, 1, 2};
  ExtendedAutomaton plain{PruneFrontierIncompatibleTransitions(
      MakeStateDriven(Completed(a).value()))};
  EXPECT_EQ(EraTraces(plain, keep_len, pool, 2),
            EraTraces(*projected, keep_len, pool, 2));
}

// --- LR-boundedness (Definition 15 / Theorem 18 / Examples 16, 17) ---

TEST(LrBoundTest, BipartiteCoverViaKoenig) {
  // Path edges (0-0'),(1-0'),(1-1'): max matching 2, min cover 2.
  EXPECT_EQ(BipartiteMinVertexCover(2, 2, {{0, 0}, {1, 0}, {1, 1}}), 2);
  // Star: 1.
  EXPECT_EQ(BipartiteMinVertexCover(1, 5,
                                    {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}}),
            1);
  EXPECT_EQ(BipartiteMinVertexCover(3, 3, {}), 0);
}

TEST(LrBoundTest, Example16ConsecutiveDistinctIsBounded) {
  // 1-register automaton with x1 ≠ y1: LR-bounded (cover 1).
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddNeq(b.X(0), b.Y(0));
  a.AddTransition(q, b.Build().value(), q);
  ExtendedAutomaton era{MakeStateDriven(Completed(a).value())};
  ControlAlphabet alpha(era.automaton());
  auto bound = EstimateLrBound(era, alpha);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->growth_detected);
  EXPECT_EQ(bound->max_cover, 1);
}

TEST(LrBoundTest, Example17AllDistinctGrows) {
  ExtendedAutomaton era = MakeAllDistinct();
  ControlAlphabet alpha(era.automaton());
  auto bound = EstimateLrBound(era, alpha);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->growth_detected);
}

// --- Proposition 22 ---

TEST(Prop22Test, LongestWordLength) {
  // Over a 1-state automaton alphabet {q}: "q q" has longest word 2.
  RegisterAutomaton a(1, Schema());
  a.AddState("q");
  auto r = Regex::Parse("q q", [](const std::string&) { return 0; });
  ASSERT_TRUE(r.ok());
  Dfa d = r->ToDfa(1);
  EXPECT_EQ(LongestAcceptedWordLength(d).value(), 2);
  auto star = Regex::Parse("q q*", [](const std::string&) { return 0; });
  EXPECT_FALSE(LongestAcceptedWordLength(star->ToDfa(1)).ok());
}

ExtendedAutomaton MakeConsecutiveDistinctEra() {
  RegisterAutomaton b(1, Schema());
  StateId q = b.AddState("q");
  b.SetInitial(q);
  b.SetFinal(q);
  b.AddTransition(q, b.NewGuardBuilder().Build().value(), q);
  ExtendedAutomaton era(std::move(b));
  Status s = era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                       /*is_equality=*/false, "q q");
  RAV_CHECK(s.ok());
  return era;
}

TEST(Prop22Test, RealizesConsecutiveDistinct) {
  ExtendedAutomaton era = MakeConsecutiveDistinctEra();
  Prop22Stats stats;
  auto realized = RealizeLrBoundedEra(era, &stats);
  ASSERT_TRUE(realized.ok()) << realized.status().ToString();
  EXPECT_EQ(stats.window_length, 2);
  EXPECT_EQ(stats.registers_after, 2);

  // Π₁(Reg(realized)) equals Reg(era), by enumeration.
  const size_t keep_len = 4;
  std::vector<DataValue> pool = {0, 1, 2};
  std::set<std::vector<DataValue>> truth = EraTraces(era, keep_len, pool, 1);
  ExtendedAutomaton realized_plain(*realized);
  std::set<std::vector<DataValue>> via =
      EraTraces(realized_plain, keep_len, pool, 1);
  EXPECT_EQ(truth, via);
}

TEST(Prop22Test, RejectsInfiniteWindowConstraints) {
  ExtendedAutomaton era = MakeAllDistinct();
  auto realized = RealizeLrBoundedEra(era);
  ASSERT_FALSE(realized.ok());
  EXPECT_EQ(realized.status().code(), StatusCode::kUnimplemented);
}

TEST(Prop22Test, RejectsEqualityConstraints) {
  ExtendedAutomaton era = MakeExample5();
  EXPECT_EQ(RealizeLrBoundedEra(era).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Prop22Test, PaperBudgetFormula) {
  Prop22Stats stats;
  EXPECT_EQ(stats.paper_budget_for(1), 9);    // M = 2: 2·4 + 1
  EXPECT_EQ(stats.paper_budget_for(2), 19);   // M = 3: 2·9 + 1
}

// --- Theorem 13 ---

TEST(Theorem13Test, ProjectionOfEraWithEqualityConstraint) {
  // 2-register automaton, single state, guard propagating register 2
  // (x2 = y2). Project to register 1: trivially all sequences; with an
  // extra constraint forcing register 1 to equal register 2 at q-steps...
  // Keep it simple: ERA = Example 1 automaton with no extra constraints,
  // projected via Theorem 13, must agree with Proposition 20.
  RegisterAutomaton a = MakeStateDriven(Completed(MakeExample1()).value());
  ExtendedAutomaton era(a);
  Theorem13Stats stats;
  auto via_thm13 = ProjectExtendedAutomaton(era, 1, &stats);
  ASSERT_TRUE(via_thm13.ok()) << via_thm13.status().ToString();

  const size_t keep_len = 4;
  std::vector<DataValue> pool = {0, 1};
  std::vector<DataValue> pool_big = {0, 1, 10, 11, 12, 13, 14};
  std::set<std::vector<DataValue>> truth;
  for (auto& trace : EraTraces(era, keep_len, pool_big, 1)) {
    bool in_pool = true;
    for (DataValue v : trace) in_pool = in_pool && (v == 0 || v == 1);
    if (in_pool) truth.insert(trace);
  }
  EXPECT_EQ(truth, EraTraces(*via_thm13, keep_len, pool, 1));
}

TEST(Theorem13Test, ProjectionWithInequalityConstraint) {
  // 2-register automaton, one state q, trivial guard; constraint: the
  // *hidden* register 2 values at consecutive positions are distinct, and
  // register 2 equals register 1 locally (guard x1 = x2). Projecting to
  // register 1 must then force consecutive distinct visible values.
  RegisterAutomaton a(2, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder g = a.NewGuardBuilder();
  g.AddEq(g.X(0), g.X(1));  // x1 = x2 at every position
  a.AddTransition(q, g.Build().value(), q);
  ExtendedAutomaton era(MakeStateDriven(a));
  const RegisterPair r11{RegisterId(1), RegisterId(1)};
  ASSERT_TRUE(era.AddConstraintFromText(r11, false, "q0 q0").ok() ||
              era.AddConstraintFromText(r11, false, ". .").ok());

  auto projected = ProjectExtendedAutomaton(era, 1);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();

  const size_t keep_len = 4;
  std::vector<DataValue> pool = {0, 1, 2};
  std::set<std::vector<DataValue>> truth = EraTraces(era, keep_len, pool, 1);
  EXPECT_EQ(truth, EraTraces(*projected, keep_len, pool, 1));
}

}  // namespace
}  // namespace rav
