#include <gtest/gtest.h>

#include <random>

#include "automata/complement.h"
#include "automata/nba.h"
#include "ra/control.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

// Accepts words over {0,1} with infinitely many 0s.
Nba InfinitelyManyZeros() {
  Nba nba(2);
  int s0 = nba.AddState();
  int s1 = nba.AddState();
  nba.AddTransition(s0, 1, s0);
  nba.AddTransition(s0, 0, s1);
  nba.AddTransition(s1, 0, s1);
  nba.AddTransition(s1, 1, s0);
  nba.SetInitial(s0);
  nba.SetAccepting(s1);
  return nba;
}

TEST(ComplementTest, InfManyZerosComplementIsFinitelyManyZeros) {
  Nba a = InfinitelyManyZeros();
  auto complement = ComplementNba(a);
  ASSERT_TRUE(complement.ok()) << complement.status().ToString();
  // 1^ω has finitely many zeros: in the complement.
  EXPECT_TRUE(complement->AcceptsLasso(LassoWord{{}, {1}}));
  EXPECT_TRUE(complement->AcceptsLasso(LassoWord{{0, 0, 1}, {1}}));
  // (01)^ω has infinitely many zeros: not in the complement.
  EXPECT_FALSE(complement->AcceptsLasso(LassoWord{{}, {0, 1}}));
  EXPECT_FALSE(complement->AcceptsLasso(LassoWord{{}, {0}}));
}

TEST(ComplementTest, EmptyAutomatonComplementIsUniversal) {
  Nba empty(2);
  int s = empty.AddState();
  empty.AddTransition(s, 0, s);
  empty.AddTransition(s, 1, s);
  empty.SetInitial(s);  // no accepting state: empty language
  auto complement = ComplementNba(empty);
  ASSERT_TRUE(complement.ok());
  EXPECT_TRUE(complement->AcceptsLasso(LassoWord{{}, {0}}));
  EXPECT_TRUE(complement->AcceptsLasso(LassoWord{{1, 0}, {1, 1, 0}}));
}

TEST(ComplementTest, IntersectionWithComplementIsEmpty) {
  Nba a = InfinitelyManyZeros();
  auto complement = ComplementNba(a);
  ASSERT_TRUE(complement.ok());
  EXPECT_TRUE(a.Intersect(*complement).IsEmpty());
}

// Property sweep: membership of random lassos is complementary.
class ComplementSweep : public ::testing::TestWithParam<int> {};

TEST_P(ComplementSweep, MembershipIsComplementary) {
  std::mt19937 rng(GetParam());
  // Random small NBA over {0,1}.
  Nba nba(2);
  std::uniform_int_distribution<int> state_count(1, 3);
  const int n = state_count(rng);
  for (int i = 0; i < n; ++i) nba.AddState();
  std::uniform_int_distribution<int> state(0, n - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int s = 0; s < n; ++s) {
    for (int symbol = 0; symbol < 2; ++symbol) {
      if (coin(rng) == 0) nba.AddTransition(s, symbol, state(rng));
    }
  }
  nba.SetInitial(state(rng));
  nba.SetAccepting(state(rng));

  auto complement = ComplementNba(nba);
  ASSERT_TRUE(complement.ok());
  for (int trial = 0; trial < 10; ++trial) {
    LassoWord w;
    std::uniform_int_distribution<int> len(1, 3);
    int plen = len(rng) - 1;
    int clen = len(rng);
    for (int i = 0; i < plen; ++i) w.prefix.push_back(coin(rng));
    for (int i = 0; i < clen; ++i) w.cycle.push_back(coin(rng));
    EXPECT_NE(nba.AcceptsLasso(w), complement->AcceptsLasso(w))
        << w.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplementSweep, ::testing::Range(1, 25));

TEST(LanguageInclusionTest, BasicInclusions) {
  Nba inf0 = InfinitelyManyZeros();
  // "always 0" ⊆ "infinitely many 0s".
  Nba always0(2);
  {
    int s = always0.AddState();
    always0.AddTransition(s, 0, s);
    always0.SetInitial(s);
    always0.SetAccepting(s);
  }
  EXPECT_TRUE(NbaLanguageIncluded(always0, inf0).value());
  EXPECT_FALSE(NbaLanguageIncluded(inf0, always0).value());
  EXPECT_TRUE(NbaLanguageEquivalent(inf0, inf0).value());
}

TEST(LanguageInclusionTest, ComplementBudgetIsEnforced) {
  // Rank-based complementation is (2n)^n; a 56-state SControl automaton
  // must hit the budget rather than hang.
  RegisterAutomaton sd = MakeStateDriven(
      Completed(rav::testing::MakeExample1()).value());
  ControlAlphabet alphabet(sd);
  Nba scontrol = BuildSControlNba(sd, alphabet);
  auto complement = ComplementNba(scontrol, /*max_states=*/5000);
  ASSERT_FALSE(complement.ok());
  EXPECT_EQ(complement.status().code(), StatusCode::kResourceExhausted);
}

TEST(LanguageInclusionTest, PruningPreservesSControlBySampling) {
  // Frontier-dead transitions are already excluded from the SControl
  // language, so pruning must not change it. Full ω-equivalence is out of
  // reach of rank-based complementation at this size; sample accepting
  // lassos of each automaton and check membership in the other.
  RegisterAutomaton sd = MakeStateDriven(
      Completed(rav::testing::MakeExample1()).value());
  RegisterAutomaton pruned = PruneFrontierIncompatibleTransitions(sd);
  ControlAlphabet alphabet(sd);  // same guards and symbol order in both
  ControlAlphabet alphabet2(pruned);
  ASSERT_EQ(alphabet.size(), alphabet2.size());
  Nba a = BuildSControlNba(sd, alphabet);
  Nba b = BuildSControlNba(pruned, alphabet2);
  size_t checked = 0;
  LassoWord w;
  size_t rank = 0;
  LassoEnumerator from_a(a, /*max_length=*/6, /*max_count=*/60,
                         /*max_steps=*/2000000);
  while (from_a.Next(&w, &rank)) {
    EXPECT_TRUE(b.AcceptsLasso(w)) << w.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  LassoEnumerator from_b(b, /*max_length=*/6, /*max_count=*/60,
                         /*max_steps=*/2000000);
  while (from_b.Next(&w, &rank)) {
    EXPECT_TRUE(a.AcceptsLasso(w)) << w.ToString();
  }
}

}  // namespace
}  // namespace rav
