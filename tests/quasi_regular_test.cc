#include <gtest/gtest.h>

#include "era/quasi_regular.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

ExtendedAutomaton CompletedEra(const ExtendedAutomaton& era) {
  RegisterAutomaton completed = Completed(era.automaton()).value();
  ExtendedAutomaton out(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    RAV_CHECK(out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                   c.dfa, c.description)
                  .ok());
  }
  return out;
}

TEST(QuasiRegularTest, RequiresCompleteAutomaton) {
  ExtendedAutomaton era = testing::MakeExample5();
  EXPECT_FALSE(QuasiRegularControl::Build(era).ok());
}

TEST(QuasiRegularTest, Example5MembershipVerdicts) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  auto qr = QuasiRegularControl::Build(era);
  ASSERT_TRUE(qr.ok()) << qr.status().ToString();

  // A genuine control lasso of the SControl automaton is a member.
  auto lasso = qr->scontrol_nba().FindAcceptingLasso();
  ASSERT_TRUE(lasso.has_value());
  auto verdict = qr->Contains(*lasso);
  EXPECT_TRUE(verdict.in_scontrol);
  EXPECT_TRUE(verdict.closure_consistent);
  EXPECT_TRUE(verdict.member());

  // A word over invalid symbols is rejected before any analysis.
  EXPECT_FALSE(qr->Contains(LassoWord{{}, {999}}).in_scontrol);
}

TEST(QuasiRegularTest, InconsistentConstraintsRejectClosure) {
  ExtendedAutomaton era = testing::MakeExample5();
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      /*is_equality=*/false, "p1 p2* p1")
                .ok());
  ExtendedAutomaton complete = CompletedEra(era);
  auto qr = QuasiRegularControl::Build(complete);
  ASSERT_TRUE(qr.ok());
  auto lasso = qr->scontrol_nba().FindAcceptingLasso();
  ASSERT_TRUE(lasso.has_value());
  auto verdict = qr->Contains(*lasso);
  EXPECT_TRUE(verdict.in_scontrol);
  EXPECT_FALSE(verdict.closure_consistent);
  EXPECT_FALSE(verdict.member());
}

TEST(QuasiRegularTest, Example8CliqueUnbounded) {
  // All-distinct values forced into a unary relation: in SControl and
  // closure-consistent, but the clique grows with the window — excluded
  // from Control over finite databases (Example 8's non-ω-regularity).
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  RegisterAutomaton a(1, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.X(0)}, true).AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);
  ExtendedAutomaton era(Completed(a).value());
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      false, "q q+")
                .ok());

  auto qr = QuasiRegularControl::Build(era);
  ASSERT_TRUE(qr.ok());
  // The completed automaton has both x1 = y1 and x1 ≠ y1 refinements; the
  // constraint kills the former, so search for a closure-consistent
  // lasso: it must then fail the clique-boundedness conjunct.
  bool found_consistent = false;
  LassoEnumerator lassos(qr->scontrol_nba(), /*max_length=*/6,
                         /*max_count=*/200, /*max_steps=*/2000000);
  LassoWord lasso;
  size_t rank = 0;
  while (!found_consistent && lassos.Next(&lasso, &rank)) {
    auto verdict = qr->Contains(lasso);
    EXPECT_TRUE(verdict.in_scontrol);
    if (!verdict.closure_consistent) continue;
    found_consistent = true;
    EXPECT_FALSE(verdict.clique_bounded);
    EXPECT_FALSE(verdict.member());
    EXPECT_GT(verdict.clique, 1);
  }
  EXPECT_TRUE(found_consistent);
}

TEST(QuasiRegularTest, NoDatabaseMeansCliqueVacuous) {
  ExtendedAutomaton era = CompletedEra(testing::MakeAllDistinct());
  auto qr = QuasiRegularControl::Build(era);
  ASSERT_TRUE(qr.ok());
  // All-distinct is satisfiable without a database: among the symbolic
  // lassos, the all-inequality refinement is a member (the clique
  // condition is vacuous without relations).
  bool found_member = false;
  LassoEnumerator lassos(qr->scontrol_nba(), /*max_length=*/6,
                         /*max_count=*/200, /*max_steps=*/2000000);
  LassoWord lasso;
  size_t rank = 0;
  while (!found_member && lassos.Next(&lasso, &rank)) {
    auto verdict = qr->Contains(lasso);
    if (!verdict.member()) continue;
    EXPECT_TRUE(verdict.clique_bounded);
    found_member = true;
  }
  EXPECT_TRUE(found_member);
}

}  // namespace
}  // namespace rav
