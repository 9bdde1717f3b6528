#include <gtest/gtest.h>

#include <random>
#include <string>

#include "base/numbers.h"
#include "ltl/ltl.h"
#include "ltl/tableau.h"

namespace rav {
namespace {

int Props(const std::string& name) {
  if (name == "p") return 0;
  if (name == "q") return 1;
  if (name == "r") return 2;
  return -1;
}

LtlFormula Parse(const std::string& text) {
  auto f = LtlFormula::Parse(text, Props);
  RAV_CHECK(f.ok());
  return std::move(f).value();
}

// Valuation function over a lasso of AP bitmasks.
std::function<uint64_t(size_t)> MaskLasso(std::vector<uint64_t> prefix,
                                          std::vector<uint64_t> cycle) {
  return [prefix, cycle](size_t i) {
    if (i < prefix.size()) return prefix[i];
    return cycle[(i - prefix.size()) % cycle.size()];
  };
}

TEST(LtlParserTest, PrecedenceAndAssociativity) {
  // U binds tighter than &, which binds tighter than ->:
  // parses as p -> ((q U r) & p).
  LtlFormula f = Parse("p -> q U r & p");
  EXPECT_EQ(f.op(), LtlFormula::Op::kImplies);
  EXPECT_EQ(f.right().op(), LtlFormula::Op::kAnd);
  EXPECT_EQ(f.right().left().op(), LtlFormula::Op::kUntil);
}

TEST(LtlParserTest, Errors) {
  EXPECT_FALSE(LtlFormula::Parse("p &", Props).ok());
  EXPECT_FALSE(LtlFormula::Parse("unknown_prop", Props).ok());
  EXPECT_FALSE(LtlFormula::Parse("(p", Props).ok());
}

TEST(LtlEvalTest, GloballyEventually) {
  // G F p on (p, ¬p)^ω: true. On ¬p^ω with p in the prefix: false.
  LtlFormula gfp = Parse("G F p");
  EXPECT_TRUE(gfp.EvalOnLasso(MaskLasso({}, {1, 0}), 0, 2));
  EXPECT_FALSE(gfp.EvalOnLasso(MaskLasso({1}, {0}), 1, 1));
}

TEST(LtlEvalTest, UntilSemantics) {
  LtlFormula puq = Parse("p U q");
  // p p q ... : true at 0.
  EXPECT_TRUE(puq.EvalOnLasso(MaskLasso({1, 1, 2}, {0}), 3, 1));
  // p p p ... never q: false.
  EXPECT_FALSE(puq.EvalOnLasso(MaskLasso({}, {1}), 0, 1));
  // q immediately: true.
  EXPECT_TRUE(puq.EvalOnLasso(MaskLasso({2}, {0}), 1, 1));
  // gap in p before q: false.
  EXPECT_FALSE(puq.EvalOnLasso(MaskLasso({1, 0, 2}, {0}), 3, 1));
}

TEST(LtlEvalTest, NextAndRelease) {
  EXPECT_TRUE(Parse("X p").EvalOnLasso(MaskLasso({0, 1}, {0}), 2, 1));
  EXPECT_FALSE(Parse("X p").EvalOnLasso(MaskLasso({1, 0}, {0}), 2, 1));
  // q R p : p holds up to and including the first q (or forever).
  LtlFormula qrp = Parse("q R p");
  EXPECT_TRUE(qrp.EvalOnLasso(MaskLasso({}, {1}), 0, 1));        // p forever
  EXPECT_TRUE(qrp.EvalOnLasso(MaskLasso({1, 3}, {0}), 2, 1));    // released
  EXPECT_FALSE(qrp.EvalOnLasso(MaskLasso({1, 0}, {1}), 2, 1));   // p gap
}

TEST(LtlTableauTest, SatisfiableFormulasHaveWitnesses) {
  auto w = LtlSatisfiableWitness(Parse("G F p & G F !p"), 1);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->has_value());
}

TEST(LtlTableauTest, UnsatisfiableFormulasHaveNone) {
  auto w = LtlSatisfiableWitness(Parse("G p & F !p"), 1);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w->has_value());
  auto w2 = LtlSatisfiableWitness(Parse("p & !p"), 1);
  ASSERT_TRUE(w2.ok());
  EXPECT_FALSE(w2->has_value());
}

TEST(LtlTableauTest, WitnessSatisfiesFormulaPerOracle) {
  LtlFormula f = Parse("(p U q) & G (q -> X p)");
  auto w = LtlSatisfiableWitness(f, 2);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->has_value());
  const LassoWord& lasso = **w;
  auto mask_at = [&](size_t i) {
    return static_cast<uint64_t>(lasso.SymbolAt(i));
  };
  EXPECT_TRUE(
      f.EvalOnLasso(mask_at, lasso.prefix.size(), lasso.cycle.size()));
}

// Property test: the tableau NBA agrees with the direct lasso-evaluation
// oracle on random formulas and random lassos.
class TableauAgreementTest : public ::testing::TestWithParam<int> {};

LtlFormula RandomFormula(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int> ap_dist(0, 1);
  if (depth == 0) {
    return LtlFormula::Ap(ap_dist(rng));
  }
  switch (op_dist(rng)) {
    case 0:
      return LtlFormula::Not(RandomFormula(rng, depth - 1));
    case 1:
      return LtlFormula::And(RandomFormula(rng, depth - 1),
                             RandomFormula(rng, depth - 1));
    case 2:
      return LtlFormula::Or(RandomFormula(rng, depth - 1),
                            RandomFormula(rng, depth - 1));
    case 3:
      return LtlFormula::Next(RandomFormula(rng, depth - 1));
    case 4:
      return LtlFormula::Until(RandomFormula(rng, depth - 1),
                               RandomFormula(rng, depth - 1));
    case 5:
      return LtlFormula::Eventually(RandomFormula(rng, depth - 1));
    case 6:
      return LtlFormula::Globally(RandomFormula(rng, depth - 1));
    case 7:
      return LtlFormula::Release(RandomFormula(rng, depth - 1),
                                 RandomFormula(rng, depth - 1));
    default:
      return LtlFormula::Ap(ap_dist(rng));
  }
}

TEST_P(TableauAgreementTest, NbaAgreesWithOracle) {
  std::mt19937 rng(GetParam());
  LtlFormula f = RandomFormula(rng, 2);
  auto aut = LtlToNba(f, 2);
  ASSERT_TRUE(aut.ok());
  std::uniform_int_distribution<int> mask_dist(0, 3);
  std::uniform_int_distribution<int> len_dist(1, 3);
  for (int trial = 0; trial < 12; ++trial) {
    LassoWord lasso;
    int plen = len_dist(rng) - 1;
    int clen = len_dist(rng);
    for (int i = 0; i < plen; ++i) lasso.prefix.push_back(mask_dist(rng));
    for (int i = 0; i < clen; ++i) lasso.cycle.push_back(mask_dist(rng));
    bool by_nba = aut->nba.AcceptsLasso(lasso);
    bool by_oracle = f.EvalOnLasso(
        [&](size_t i) { return static_cast<uint64_t>(lasso.SymbolAt(i)); },
        lasso.prefix.size(), lasso.cycle.size());
    EXPECT_EQ(by_nba, by_oracle)
        << "formula: " << f.ToString([](int p) { return NumberedName("p", p); })
        << " lasso: " << lasso.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TableauAgreementTest,
                         ::testing::Range(1, 40));

}  // namespace
}  // namespace rav
