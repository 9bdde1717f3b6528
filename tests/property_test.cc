// Algebraic property sweeps over the core symbolic types: canonical-form
// laws for σ-types, idempotence/equivalence laws for DFA minimization,
// and consistency laws between the formula and type views.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "automata/regex.h"
#include "io/text_format.h"
#include "relational/formula.h"
#include "test_util.h"
#include "types/type.h"

namespace rav {
namespace {

// --- Random σ-types ---

Type RandomType(std::mt19937& rng, int num_vars, int num_constants) {
  std::uniform_int_distribution<int> element(0, num_vars + num_constants - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> literal_count(0, 4);
  Type current(num_vars, num_constants);
  int n = literal_count(rng);
  for (int i = 0; i < n; ++i) {
    TypeBuilder builder(num_vars, num_constants);
    builder.AddAll(current);
    int a = element(rng);
    int b = element(rng);
    if (a == b) continue;
    if (coin(rng) == 0) {
      builder.AddEq(ElementIndex(a), ElementIndex(b));
    } else {
      builder.AddNeq(ElementIndex(a), ElementIndex(b));
    }
    Result<Type> next = builder.Build();
    if (next.ok()) current = std::move(next).value();
  }
  return current;
}

class TypeLaws : public ::testing::TestWithParam<int> {};

TEST_P(TypeLaws, RebuildIsIdentity) {
  std::mt19937 rng(GetParam());
  Type t = RandomType(rng, 4, 1);
  TypeBuilder builder(4, 1);
  builder.AddAll(t);
  Result<Type> rebuilt = builder.Build();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(*rebuilt == t);
  Type::Hasher h;
  EXPECT_EQ(h(*rebuilt), h(t));
}

TEST_P(TypeLaws, ConjoinIsCommutativeAndIdempotent) {
  std::mt19937 rng(GetParam() + 100);
  Type a = RandomType(rng, 4, 0);
  Type b = RandomType(rng, 4, 0);
  Result<Type> ab = a.Conjoin(b);
  Result<Type> ba = b.Conjoin(a);
  ASSERT_EQ(ab.ok(), ba.ok());
  if (ab.ok()) {
    EXPECT_TRUE(*ab == *ba);
    // Idempotence: (a ∧ b) ∧ b = a ∧ b.
    Result<Type> abb = ab->Conjoin(b);
    ASSERT_TRUE(abb.ok());
    EXPECT_TRUE(*abb == *ab);
  }
  // Conjoin with self is identity.
  Result<Type> aa = a.Conjoin(a);
  ASSERT_TRUE(aa.ok());
  EXPECT_TRUE(*aa == a);
}

TEST_P(TypeLaws, RestrictComposes) {
  std::mt19937 rng(GetParam() + 200);
  Type t = RandomType(rng, 4, 1);
  // Restrict to {v0, v1, v2}, then to the image of {v0, v2}: equals the
  // one-step restriction to {v0, v2}.
  Type step1 = t.Restrict({true, true, true, false});
  Type step2 = step1.Restrict({true, false, true});
  Type direct = t.Restrict({true, false, true, false});
  EXPECT_TRUE(step2 == direct);
}

TEST_P(TypeLaws, RestrictWeakens) {
  std::mt19937 rng(GetParam() + 300);
  Type t = RandomType(rng, 4, 0);
  Type r = t.Restrict({true, true, false, false});
  // Every forced relation of the restriction is forced in the original.
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (r.AreEqual(a, b)) {
        EXPECT_TRUE(t.AreEqual(a, b));
      }
      if (r.AreDistinct(a, b)) {
        EXPECT_TRUE(t.AreDistinct(a, b));
      }
    }
  }
}

TEST_P(TypeLaws, ToFormulaAgreesWithHoldsIn) {
  std::mt19937 rng(GetParam() + 400);
  Type t = RandomType(rng, 3, 0);
  Formula f = t.ToFormula();
  Schema s;
  Database db(s);
  std::uniform_int_distribution<DataValue> value(0, 2);
  for (int trial = 0; trial < 8; ++trial) {
    ValueTuple v = {value(rng), value(rng), value(rng)};
    EXPECT_EQ(t.HoldsIn(db, v), f.Eval(db, v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypeLaws, ::testing::Range(1, 30));

// --- DFA laws ---

class DfaLaws : public ::testing::TestWithParam<int> {};

Regex RandomRegex2(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> op(0, 4);
  std::uniform_int_distribution<int> sym(0, 1);
  if (depth == 0) return Regex::Symbol(sym(rng));
  switch (op(rng)) {
    case 0:
      return Regex::Concat(RandomRegex2(rng, depth - 1),
                           RandomRegex2(rng, depth - 1));
    case 1:
      return Regex::Union(RandomRegex2(rng, depth - 1),
                          RandomRegex2(rng, depth - 1));
    case 2:
      return Regex::Star(RandomRegex2(rng, depth - 1));
    case 3:
      return Regex::Optional(RandomRegex2(rng, depth - 1));
    default:
      return Regex::Symbol(sym(rng));
  }
}

TEST_P(DfaLaws, MinimizeIsIdempotentAndEquivalent) {
  std::mt19937 rng(GetParam());
  Regex r = RandomRegex2(rng, 3);
  Dfa d = r.ToNfa(2).Determinize();
  Dfa m1 = d.Minimize();
  Dfa m2 = m1.Minimize();
  EXPECT_TRUE(d.EquivalentTo(m1));
  EXPECT_EQ(m1.num_states(), m2.num_states());
  EXPECT_LE(m1.num_states(), d.num_states());
}

TEST_P(DfaLaws, DoubleComplementIsIdentity) {
  std::mt19937 rng(GetParam() + 50);
  Regex r = RandomRegex2(rng, 3);
  Dfa d = r.ToDfa(2);
  EXPECT_TRUE(d.Complement().Complement().EquivalentTo(d));
  // De Morgan: complement of intersection ⊇ complement of each part.
  Dfa d2 = RandomRegex2(rng, 2).ToDfa(2);
  Dfa inter = d.Intersect(d2);
  EXPECT_TRUE(inter.Intersect(d.Complement()).IsEmptyLanguage());
}

TEST_P(DfaLaws, NfaAndDfaAgreeOnWords) {
  std::mt19937 rng(GetParam() + 99);
  Regex r = RandomRegex2(rng, 3);
  Nfa nfa = r.ToNfa(2);
  Dfa dfa = nfa.Determinize();
  std::uniform_int_distribution<int> sym(0, 1);
  std::uniform_int_distribution<int> len(0, 6);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> word;
    int n = len(rng);
    for (int i = 0; i < n; ++i) word.push_back(sym(rng));
    EXPECT_EQ(nfa.Accepts(word), dfa.Accepts(word));
  }
}

// A regex over `alphabet_size` symbols drawn from the whole syntax: symbols,
// '.', _eps, ∅, concatenation, union, '*', '+' and '?'.
Regex RandomFullRegex(std::mt19937& rng, int alphabet_size, int depth) {
  std::uniform_int_distribution<int> sym(0, alphabet_size - 1);
  std::uniform_int_distribution<int> leaf(0, 19);
  std::uniform_int_distribution<int> op(0, 6);
  const int choice = depth == 0 ? 5 : op(rng);  // 5 and 6 make a leaf
  switch (choice) {
    case 0:
      return Regex::Concat(RandomFullRegex(rng, alphabet_size, depth - 1),
                           RandomFullRegex(rng, alphabet_size, depth - 1));
    case 1:
      return Regex::Union(RandomFullRegex(rng, alphabet_size, depth - 1),
                          RandomFullRegex(rng, alphabet_size, depth - 1));
    case 2:
      return Regex::Star(RandomFullRegex(rng, alphabet_size, depth - 1));
    case 3:
      return Regex::Plus(RandomFullRegex(rng, alphabet_size, depth - 1));
    case 4:
      return Regex::Optional(RandomFullRegex(rng, alphabet_size, depth - 1));
    default: {
      const int l = leaf(rng);
      if (l < 13) return Regex::Symbol(sym(rng));
      if (l < 17) return Regex::AnySymbol();
      if (l < 19) return Regex::Epsilon();
      return Regex::EmptySet();
    }
  }
}

// ToDfa determinizes and minimizes over symbol classes; it must build the
// very DFA the full-alphabet oracle builds, numbering included. 29 seeds
// × 350 regexes over alphabets of 1–16 symbols.
TEST_P(DfaLaws, ToDfaMatchesTheSubsetConstructionOracle) {
  std::mt19937 rng(GetParam() + 1000);
  std::uniform_int_distribution<int> depth(1, 4);
  for (int i = 0; i < 350; ++i) {
    const int alphabet_size = 1 + i % 16;
    const Regex regex = RandomFullRegex(rng, alphabet_size, depth(rng));
    ASSERT_TRUE(testing::ToDfaMatchesOracle(regex, alphabet_size))
        << "regex " << regex.ToString([](int s) { return std::to_string(s); })
        << " over " << alphabet_size << " symbols";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfaLaws, ::testing::Range(1, 30));

// The same law on every constraint of every committed spec.
TEST(DfaLawsOnSpecs, EveryCommittedConstraintMatchesTheOracle) {
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {"tests/data", "examples/data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(RAV_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".rav") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 6u);
  int constraints = 0;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    Result<ExtendedAutomaton> era = ParseExtendedAutomaton(text.str());
    ASSERT_TRUE(era.ok()) << path << ": " << era.status().ToString();
    EXPECT_TRUE(testing::ConstraintDfasMatchOracle(*era)) << path;
    constraints += static_cast<int>(era->constraints().size());
  }
  EXPECT_GT(constraints, 0);
}

// --- Frontier laws ---

class FrontierLaws : public ::testing::TestWithParam<int> {};

TEST_P(FrontierLaws, CompatibilityMatchesConjoinability) {
  // For complete types, frontier compatibility (equality of restrictions)
  // coincides with satisfiability of the conjunction of the frontier
  // restrictions.
  std::mt19937 rng(GetParam());
  Type a = RandomType(rng, 4, 0);  // 2-register transition types
  Type b = RandomType(rng, 4, 0);
  Type fa = RestrictToYAsX(a, 2);
  Type fb = RestrictToX(b, 2);
  bool compatible = FrontierCompatible(a, b, 2);
  if (compatible) {
    EXPECT_TRUE(fa.Conjoin(fb).ok());
  }
  // Equal restrictions are always conjoinable; the converse only holds
  // for complete types, so no assertion in the other direction.
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierLaws, ::testing::Range(1, 20));

}  // namespace
}  // namespace rav
