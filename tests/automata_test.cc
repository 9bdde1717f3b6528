#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "automata/dfa.h"
#include "automata/dfa_to_regex.h"
#include "automata/lasso.h"
#include "automata/nba.h"
#include "automata/nfa.h"
#include "automata/regex.h"

namespace rav {
namespace {

// Resolver over single-letter symbols a=0, b=1, c=2.
int Abc(const std::string& name) {
  if (name == "a") return 0;
  if (name == "b") return 1;
  if (name == "c") return 2;
  return -1;
}

Dfa CompileAbc(const std::string& text) {
  auto r = Regex::Parse(text, Abc);
  RAV_CHECK(r.ok());
  return r->ToDfa(3);
}

TEST(RegexTest, ParseErrors) {
  EXPECT_FALSE(Regex::Parse("(a", Abc).ok());
  EXPECT_FALSE(Regex::Parse("unknown", Abc).ok());
  EXPECT_FALSE(Regex::Parse("a $ b", Abc).ok());
}

TEST(RegexTest, EmptyAlternativeIsEpsilon) {
  // "a |" parses as a ∪ ε.
  auto r = Regex::Parse("a |", Abc);
  ASSERT_TRUE(r.ok());
  Dfa d = r->ToDfa(3);
  EXPECT_TRUE(d.Accepts({}));
  EXPECT_TRUE(d.Accepts({0}));
  EXPECT_FALSE(d.Accepts({1}));
}

TEST(RegexTest, BasicMatching) {
  Dfa d = CompileAbc("a b* c");
  EXPECT_TRUE(d.Accepts({0, 2}));
  EXPECT_TRUE(d.Accepts({0, 1, 1, 1, 2}));
  EXPECT_FALSE(d.Accepts({0, 1}));
  EXPECT_FALSE(d.Accepts({1, 2}));
}

TEST(RegexTest, UnionAndPlusAndOptional) {
  Dfa d = CompileAbc("(a | b)+ c?");
  EXPECT_TRUE(d.Accepts({0}));
  EXPECT_TRUE(d.Accepts({1, 0, 1}));
  EXPECT_TRUE(d.Accepts({0, 2}));
  EXPECT_FALSE(d.Accepts({2}));
  EXPECT_FALSE(d.Accepts({}));
}

TEST(RegexTest, AnySymbolAndEpsilon) {
  Dfa d = CompileAbc(". .");
  EXPECT_TRUE(d.Accepts({0, 2}));
  EXPECT_FALSE(d.Accepts({0}));
  Dfa e = CompileAbc("_eps");
  EXPECT_TRUE(e.Accepts({}));
  EXPECT_FALSE(e.Accepts({0}));
}

TEST(RegexTest, ProgrammaticConstruction) {
  Regex r = Regex::Concat(Regex::Symbol(0),
                          Regex::Star(Regex::Symbol(1)));
  Dfa d = r.ToDfa(2);
  EXPECT_TRUE(d.Accepts({0, 1, 1}));
  EXPECT_FALSE(d.Accepts({1}));
}

TEST(DfaTest, MinimizeIsCanonical) {
  // (a|b)* a — minimal DFA has 2 states.
  Dfa d = CompileAbc("(a | b)* a");
  EXPECT_LE(d.num_states(), 3);  // minimized over 3-letter alphabet
  Dfa d2 = CompileAbc("(b* a)+");
  EXPECT_TRUE(d.EquivalentTo(d2));
}

TEST(DfaTest, ComplementAndIntersection) {
  Dfa a = CompileAbc("a b");
  Dfa not_a = a.Complement();
  EXPECT_FALSE(not_a.Accepts({0, 1}));
  EXPECT_TRUE(not_a.Accepts({0}));
  Dfa both = CompileAbc("a .").Intersect(CompileAbc(". b"));
  EXPECT_TRUE(both.Accepts({0, 1}));
  EXPECT_FALSE(both.Accepts({0, 2}));
}

TEST(DfaTest, EmptyLanguage) {
  Dfa a = CompileAbc("a");
  EXPECT_FALSE(a.IsEmptyLanguage());
  EXPECT_TRUE(a.Intersect(CompileAbc("b")).IsEmptyLanguage());
}

TEST(NfaTest, EpsilonClosureAndAccepts) {
  Nfa nfa(2);
  int s0 = nfa.AddState();
  int s1 = nfa.AddState();
  int s2 = nfa.AddState();
  nfa.AddTransition(s0, Nfa::kEpsilon, s1);
  nfa.AddTransition(s1, 0, s2);
  nfa.SetInitial(s0);
  nfa.SetAccepting(s2);
  EXPECT_TRUE(nfa.Accepts({0}));
  EXPECT_FALSE(nfa.Accepts({1}));
  EXPECT_FALSE(nfa.Accepts({}));
}

TEST(LassoTest, SymbolAtAndPump) {
  LassoWord w{{9}, {1, 2}};
  EXPECT_EQ(w.SymbolAt(0), 9);
  EXPECT_EQ(w.SymbolAt(1), 1);
  EXPECT_EQ(w.SymbolAt(2), 2);
  EXPECT_EQ(w.SymbolAt(3), 1);
  LassoWord p = w.PumpCycle(2);
  EXPECT_EQ(p.cycle.size(), 4u);
  for (size_t i = 0; i < 12; ++i) EXPECT_EQ(w.SymbolAt(i), p.SymbolAt(i));
  EXPECT_EQ(w.CanonicalPosition(5), 1u);
  EXPECT_EQ(w.Unroll(4), (std::vector<int>{9, 1, 2, 1}));
}

Nba MakeSimpleNba() {
  // Accepts words with infinitely many 0s, over {0,1}.
  Nba nba(2);
  int s0 = nba.AddState();  // waiting
  int s1 = nba.AddState();  // just saw 0 (accepting)
  nba.AddTransition(s0, 1, s0);
  nba.AddTransition(s0, 0, s1);
  nba.AddTransition(s1, 0, s1);
  nba.AddTransition(s1, 1, s0);
  nba.SetInitial(s0);
  nba.SetAccepting(s1);
  return nba;
}

TEST(NbaTest, FindAcceptingLassoAndMembership) {
  Nba nba = MakeSimpleNba();
  auto lasso = nba.FindAcceptingLasso();
  ASSERT_TRUE(lasso.has_value());
  EXPECT_TRUE(nba.AcceptsLasso(*lasso));
  EXPECT_TRUE(nba.AcceptsLasso(LassoWord{{}, {0}}));
  EXPECT_TRUE(nba.AcceptsLasso(LassoWord{{1, 1}, {1, 0}}));
  EXPECT_FALSE(nba.AcceptsLasso(LassoWord{{0}, {1}}));  // finitely many 0s
}

TEST(NbaTest, EmptyWhenNoAcceptingCycle) {
  Nba nba(1);
  int s0 = nba.AddState();
  int s1 = nba.AddState();
  nba.AddTransition(s0, 0, s1);  // s1 is a dead end
  nba.SetInitial(s0);
  nba.SetAccepting(s1);
  EXPECT_TRUE(nba.IsEmpty());
}

TEST(NbaTest, IntersectionSemantics) {
  // inf-many-0s ∩ inf-many-1s: both required.
  Nba inf0 = MakeSimpleNba();
  Nba inf1(2);
  {
    int s0 = inf1.AddState();
    int s1 = inf1.AddState();
    inf1.AddTransition(s0, 0, s0);
    inf1.AddTransition(s0, 1, s1);
    inf1.AddTransition(s1, 1, s1);
    inf1.AddTransition(s1, 0, s0);
    inf1.SetInitial(s0);
    inf1.SetAccepting(s1);
  }
  Nba both = inf0.Intersect(inf1);
  EXPECT_TRUE(both.AcceptsLasso(LassoWord{{}, {0, 1}}));
  EXPECT_FALSE(both.AcceptsLasso(LassoWord{{}, {0}}));
  EXPECT_FALSE(both.AcceptsLasso(LassoWord{{}, {1}}));
  EXPECT_FALSE(both.IsEmpty());
}

TEST(NbaTest, UnionSemantics) {
  Nba only0(2);
  {
    int s = only0.AddState();
    only0.AddTransition(s, 0, s);
    only0.SetInitial(s);
    only0.SetAccepting(s);
  }
  Nba only1(2);
  {
    int s = only1.AddState();
    only1.AddTransition(s, 1, s);
    only1.SetInitial(s);
    only1.SetAccepting(s);
  }
  Nba u = only0.Union(only1);
  EXPECT_TRUE(u.AcceptsLasso(LassoWord{{}, {0}}));
  EXPECT_TRUE(u.AcceptsLasso(LassoWord{{}, {1}}));
  EXPECT_FALSE(u.AcceptsLasso(LassoWord{{}, {0, 1}}));
}

TEST(NbaTest, FromLassoWordAcceptsExactlyThatWord) {
  LassoWord w{{0}, {1, 0}};
  Nba nba = Nba::FromLassoWord(2, w);
  EXPECT_TRUE(nba.AcceptsLasso(w));
  EXPECT_TRUE(nba.AcceptsLasso(LassoWord{{0, 1}, {0, 1}}));  // same ω-word
  EXPECT_FALSE(nba.AcceptsLasso(LassoWord{{}, {1, 0}}));
}

TEST(NbaTest, EnumerateAcceptingLassosFindsWitnesses) {
  Nba nba = MakeSimpleNba();
  LassoEnumerator lassos(nba, /*max_length=*/6, /*max_count=*/100,
                         /*max_steps=*/2000000);
  size_t count = 0;
  bool all_valid = true;
  LassoWord w;
  size_t rank = 0;
  while (lassos.Next(&w, &rank)) {
    ++count;
    all_valid = all_valid && nba.AcceptsLasso(w);
  }
  EXPECT_GT(count, 0u);
  EXPECT_TRUE(all_valid);
}

TEST(GeneralizedNbaTest, ZeroAcceptSetsMeansAllAccepting) {
  GeneralizedNba g(1, 0);
  int s = g.AddState();
  g.AddTransition(s, 0, s);
  g.SetInitial(s);
  Nba nba = g.Degeneralize();
  EXPECT_FALSE(nba.IsEmpty());
}

// --- DFA -> regex (state elimination) ---

std::string AbcName(int s) {
  return std::string(1, static_cast<char>('a' + s));
}

TEST(DfaToRegexTest, RoundTripsFixedRegexes) {
  for (const char* text :
       {"a b* c", "(a | b)+", "a? b? c?", ". . .", "a (b a)* c | b",
        "_eps", "(a b | b a)*"}) {
    Dfa original = CompileAbc(text);
    auto back = DfaToRegexString(original, AbcName);
    ASSERT_TRUE(back.has_value()) << text;
    auto reparsed = Regex::Parse(*back, Abc);
    ASSERT_TRUE(reparsed.ok()) << *back;
    EXPECT_TRUE(reparsed->ToDfa(3).EquivalentTo(original))
        << text << " -> " << *back;
  }
}

TEST(DfaToRegexTest, EmptyLanguageIsNullopt) {
  Dfa empty = CompileAbc("a").Intersect(CompileAbc("b"));
  EXPECT_FALSE(DfaToRegexString(empty, AbcName).has_value());
}

// Property sweep: random regexes round-trip through DFA and back.
class DfaRegexRoundTrip : public ::testing::TestWithParam<int> {};

Regex RandomRegex(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> op(0, 4);
  std::uniform_int_distribution<int> sym(0, 2);
  if (depth == 0) return Regex::Symbol(sym(rng));
  switch (op(rng)) {
    case 0:
      return Regex::Concat(RandomRegex(rng, depth - 1),
                           RandomRegex(rng, depth - 1));
    case 1:
      return Regex::Union(RandomRegex(rng, depth - 1),
                          RandomRegex(rng, depth - 1));
    case 2:
      return Regex::Star(RandomRegex(rng, depth - 1));
    case 3:
      return Regex::Optional(RandomRegex(rng, depth - 1));
    default:
      return Regex::Symbol(sym(rng));
  }
}

TEST_P(DfaRegexRoundTrip, Equivalent) {
  std::mt19937 rng(GetParam());
  Regex r = RandomRegex(rng, 3);
  Dfa original = r.ToDfa(3);
  auto back = DfaToRegexString(original, AbcName);
  if (!back.has_value()) {
    EXPECT_TRUE(original.IsEmptyLanguage());
    return;
  }
  auto reparsed = Regex::Parse(*back, Abc);
  ASSERT_TRUE(reparsed.ok()) << *back;
  EXPECT_TRUE(reparsed->ToDfa(3).EquivalentTo(original));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DfaRegexRoundTrip,
                         ::testing::Range(1, 30));

TEST(GeneralizedNbaTest, TwoSetsRequireBoth) {
  // States A, B; must visit both infinitely often.
  GeneralizedNba g(2, 2);
  int a = g.AddState();
  int b = g.AddState();
  g.AddTransition(a, 0, a);
  g.AddTransition(a, 1, b);
  g.AddTransition(b, 1, b);
  g.AddTransition(b, 0, a);
  g.SetInitial(a);
  g.AddToAcceptSet(0, a);
  g.AddToAcceptSet(1, b);
  Nba nba = g.Degeneralize();
  EXPECT_TRUE(nba.AcceptsLasso(LassoWord{{}, {1, 0}}));
  EXPECT_FALSE(nba.AcceptsLasso(LassoWord{{}, {0}}));
}

}  // namespace
}  // namespace rav
