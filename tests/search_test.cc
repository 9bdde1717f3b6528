// Tests of the lasso-search engine: truthful truncation verdicts (the
// stop-reason taxonomy), the resumable LassoEnumerator, determinism of the
// parallel search across worker counts, and the strict integer parsing the
// CLI depends on. The determinism tests are also the TSan target (see
// CMakePresets.json).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "automata/nba.h"
#include "base/numbers.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "era/parallel_search.h"
#include "io/text_format.h"
#include "projection/lr_bounded.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

ExtendedAutomaton CompletedEra(const ExtendedAutomaton& era) {
  RegisterAutomaton completed = Completed(era.automaton()).value();
  ExtendedAutomaton out(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    Status s = out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                    c.dfa, c.description);
    RAV_CHECK(s.ok());
  }
  return out;
}

// The bench family (bench/bench_common.h) in miniature: a k-register shift
// ring with extra skip transitions so the accepting-lasso space is large
// enough that worker scheduling could plausibly reorder results.
ExtendedAutomaton MakeShiftRingSearchEra(int k, int n, bool contradictory) {
  RegisterAutomaton a(k, Schema());
  for (int s = 0; s < n; ++s) a.AddState(NumberedName("s", s));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int s = 0; s < n; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    a.AddTransition(StateId(s), b.Build().value(), StateId((s + 1) % n));
  }
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

// Example 5 with an added inequality on the same factor as its equality
// constraint: every lasso's closure is inconsistent, so the search visits
// the whole bounded space (or its budget) without finding a witness.
ExtendedAutomaton MakeContradictoryExample5() {
  ExtendedAutomaton era = testing::MakeExample5();
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      false, "p1 p2* p1")
                .ok());
  return era;
}

// ---------------------------------------------------------------------------
// Truthful truncation verdicts (the headline regression).

TEST(SearchTruncation, StepBudgetSetsTruncated) {
  // A nonempty ERA searched under a step budget too small to reach any
  // witness: the old code reported search_truncated == false because
  // fewer than max_lassos candidates had been *delivered*, silently
  // presenting a budget-clipped EMPTY as definitive.
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_search_steps = 1;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kStepBudget);
}

TEST(SearchTruncation, LassoBudgetSetsTruncated) {
  ExtendedAutomaton era = CompletedEra(MakeContradictoryExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 8;
  options.max_lassos = 2;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result->stats.lassos_enumerated, 2u);
}

TEST(SearchTruncation, LengthBoundSetsTruncated) {
  // Generous step/count budgets but a short length bound: DFS paths are
  // clipped, so the EMPTY verdict only covers lassos up to the bound.
  ExtendedAutomaton era = CompletedEra(MakeContradictoryExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 4;
  options.max_lassos = 100000;
  options.max_search_steps = 10000000;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLengthBound);
}

TEST(SearchTruncation, VisitBoundSetsTruncated) {
  // Budgets comfortably above the DFS space: the enumeration finishes
  // before any length, count or step bound, but only because it cuts each
  // path at a state's third visit. Lassos whose cycle passes a state more
  // often are never examined, so the EMPTY verdict is not definitive.
  ExtendedAutomaton era = MakeContradictoryExample5();
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 50;
  options.max_lassos = 1000000;
  options.max_search_steps = 1000000;
  EraEmptinessResult result =
      SearchConsistentLasso(era, alphabet, scontrol, options);
  EXPECT_FALSE(result.nonempty);
  EXPECT_TRUE(result.search_truncated);
  EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kVisitBound);
  EXPECT_GT(result.stats.inconsistent_closures, 0u);
}

// Searches tests/data/visit_bound.rav with the default bounds. The spec is
// nonempty, but every consistent lasso passes r five times per cycle,
// beyond the enumerator's three visits per state. With its last
// alternative dropped, 4 r's suffice and the search finds a witness.
EraEmptinessResult SearchVisitBoundSpec(bool drop_last_alternative) {
  std::ifstream in(std::string(RAV_SOURCE_DIR) + "/tests/data/visit_bound.rav");
  std::ostringstream text;
  text << in.rdbuf();
  std::string spec = text.str();
  if (drop_last_alternative) {
    const std::string last = " | p r r r r p";
    const size_t at = spec.find(last);
    RAV_CHECK(at != std::string::npos);
    spec.erase(at, last.size());
  }
  Result<ExtendedAutomaton> parsed = ParseExtendedAutomaton(spec);
  RAV_CHECK(parsed.ok());
  ExtendedAutomaton era = CompletedEra(*parsed);
  ControlAlphabet alphabet(era.automaton());
  Result<EraEmptinessResult> result = CheckEraEmptiness(era, alphabet);
  RAV_CHECK(result.ok());
  return *result;
}

TEST(SearchTruncation, VisitBoundReproIsNotDefinitive) {
  EraEmptinessResult result =
      SearchVisitBoundSpec(/*drop_last_alternative=*/false);
  EXPECT_FALSE(result.nonempty);
  EXPECT_TRUE(result.search_truncated);
  EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kVisitBound);
}

TEST(SearchTruncation, VisitBoundReproWithFourAlternativesIsNonempty) {
  EraEmptinessResult result =
      SearchVisitBoundSpec(/*drop_last_alternative=*/true);
  EXPECT_TRUE(result.nonempty);
  EXPECT_EQ(result.control_word.ToString(), "0 (1 1 1 1 0)^ω");
}

TEST(SearchTruncation, WitnessFoundIsNotTruncated) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  auto result = CheckEraEmptiness(era, alphabet);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nonempty);
  EXPECT_FALSE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kWitnessFound);
}

TEST(SearchTruncation, LtlFoVerdictCarriesStopReason) {
  // "Holds" under a tiny step budget must be flagged bound-relative.
  ExtendedAutomaton era = testing::MakeExample5();
  LtlFoProperty prop;
  prop.propositions = {Formula::Eq(Term::Var(0), Term::Var(1))};  // x1 = y1
  prop.formula = LtlFormula::Globally(LtlFormula::Ap(0));
  VerificationOptions options;
  options.emptiness.max_search_steps = 1;
  auto result = VerifyLtlFo(era, prop, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->holds);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->search_stats.stop_reason, SearchStopReason::kStepBudget);
}

TEST(SearchTruncation, LrBoundCarriesStopReason) {
  ExtendedAutomaton era = testing::MakeAllDistinct();
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.max_lassos = 1;
  auto result = EstimateLrBound(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result->lassos_examined, 1u);
}

// ---------------------------------------------------------------------------
// The resumable enumerator (NBA layer).

TEST(LassoEnumerator, ExhaustsAcyclicAutomaton) {
  // No cycle, so no lasso and no path cut: the space is exhausted.
  Nba nba(1);
  int q = nba.AddState();
  int f = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(f);
  nba.AddTransition(q, 0, f);
  LassoEnumerator enumerator(nba, /*max_length=*/10, /*max_count=*/100,
                             /*max_steps=*/1000);
  LassoWord word;
  size_t index = 0;
  EXPECT_FALSE(enumerator.Next(&word, &index));
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kExhausted);
  EXPECT_EQ(enumerator.delivered(), 0u);
}

TEST(LassoEnumerator, ReportsVisitBoundOnSmallAutomaton) {
  // The self-loop closes lassos of length 1 and 2, then the DFS cuts the
  // path at q's third visit, far below the length bound: that cut is a
  // truncation, not an exhausted space.
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, /*max_length=*/10, /*max_count=*/100,
                             /*max_steps=*/1000);
  LassoWord word;
  size_t index = 0;
  size_t count = 0;
  size_t last_index = 0;
  while (enumerator.Next(&word, &index)) {
    EXPECT_EQ(index, count);  // ranks are 0-based and contiguous
    last_index = index;
    ++count;
  }
  EXPECT_GT(count, 0u);
  EXPECT_EQ(last_index, count - 1);
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kVisitBound);
  EXPECT_EQ(enumerator.delivered(), count);
}

TEST(LassoEnumerator, ReportsStepBudget) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, 10, 100, /*max_steps=*/1);
  LassoWord word;
  size_t index;
  while (enumerator.Next(&word, &index)) {
  }
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kMaxSteps);
}

TEST(LassoEnumerator, ReportsCountCap) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, 10, /*max_count=*/1, 1000);
  LassoWord word;
  size_t index;
  EXPECT_TRUE(enumerator.Next(&word, &index));
  EXPECT_FALSE(enumerator.Next(&word, &index));
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kMaxCount);
}

TEST(LassoEnumerator, ReportsLengthClipping) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, /*max_length=*/1, 100, 1000);
  LassoWord word;
  size_t index;
  size_t count = 0;
  while (enumerator.Next(&word, &index)) ++count;
  EXPECT_EQ(count, 1u);  // only the length-1 cycle fits
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kLengthClipped);
}

// ---------------------------------------------------------------------------
// Parallel determinism: the engine's verdict and witness must be
// byte-identical at every worker count (lowest-rank-wins tie-breaking).

TEST(ParallelSearch, DeterministicWitnessOnExample5) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions serial;
  serial.num_workers = 1;
  auto reference = CheckEraEmptiness(era, alphabet, serial);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options;
    options.num_workers = workers;
    auto result = CheckEraEmptiness(era, alphabet, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->nonempty) << workers << " workers";
    EXPECT_EQ(result->control_word.prefix, reference->control_word.prefix)
        << workers << " workers";
    EXPECT_EQ(result->control_word.cycle, reference->control_word.cycle)
        << workers << " workers";
    EXPECT_EQ(result->stats.workers, workers);
  }
}

TEST(ParallelSearch, DeterministicWitnessOnShiftRing) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions serial;
  serial.max_lasso_length = 12;
  serial.max_lassos = 128;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  ASSERT_TRUE(reference.nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options = serial;
    options.num_workers = workers;
    EraEmptinessResult result =
        SearchConsistentLasso(era, alphabet, scontrol, options);
    EXPECT_TRUE(result.nonempty) << workers << " workers";
    EXPECT_EQ(result.control_word.prefix, reference.control_word.prefix)
        << workers << " workers";
    EXPECT_EQ(result.control_word.cycle, reference.control_word.cycle)
        << workers << " workers";
    EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kWitnessFound);
  }
}

TEST(ParallelSearch, DeterministicEmptyVerdictOnShiftRing) {
  // All-reject workload: every worker count must see the same lassos and
  // reach the same budget-truncated EMPTY with the same stop reason.
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions serial;
  serial.max_lasso_length = 10;
  serial.max_lassos = 64;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  ASSERT_FALSE(reference.nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options = serial;
    options.num_workers = workers;
    EraEmptinessResult result =
        SearchConsistentLasso(era, alphabet, scontrol, options);
    EXPECT_FALSE(result.nonempty) << workers << " workers";
    EXPECT_EQ(result.stats.stop_reason, reference.stats.stop_reason);
    EXPECT_EQ(result.stats.lassos_enumerated,
              reference.stats.lassos_enumerated);
    EXPECT_EQ(result.stats.lassos_checked, reference.stats.lassos_checked);
    EXPECT_EQ(result.search_truncated, reference.search_truncated);
  }
}

TEST(ParallelSearch, LrBoundMatchesSerialAtAnyWorkerCount) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, false);
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      false, "s0 .* s3")
                .ok());
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions serial;
  serial.max_lassos = 32;
  serial.max_lasso_length = 10;
  serial.num_workers = 1;
  auto reference = EstimateLrBound(era, alphabet, serial);
  ASSERT_TRUE(reference.ok());
  for (int workers : {2, 8}) {
    LrBoundOptions options = serial;
    options.num_workers = workers;
    auto result = EstimateLrBound(era, alphabet, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->max_cover, reference->max_cover) << workers;
    EXPECT_EQ(result->growth_detected, reference->growth_detected) << workers;
    EXPECT_EQ(result->stats.stop_reason, reference->stats.stop_reason);
  }
}

TEST(ParallelSearch, ZeroWorkersMeansHardwareConcurrency) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.num_workers = 0;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nonempty);
  EXPECT_GE(result->stats.workers, 1);
}

TEST(ParallelSearch, StatsToStringMentionsStopReason) {
  SearchStats stats;
  stats.stop_reason = SearchStopReason::kStepBudget;
  EXPECT_NE(stats.ToString().find("step-budget"), std::string::npos);
  EXPECT_TRUE(stats.truncated());
  stats.stop_reason = SearchStopReason::kWitnessFound;
  EXPECT_FALSE(stats.truncated());
  stats.stop_reason = SearchStopReason::kExhausted;
  EXPECT_FALSE(stats.truncated());
  stats.stop_reason = SearchStopReason::kVisitBound;
  EXPECT_NE(stats.ToString().find("stop=visit-bound"), std::string::npos);
  EXPECT_TRUE(stats.truncated());
}

// ---------------------------------------------------------------------------
// Strict integer parsing (the CLI's replacement for bare std::stoi).

TEST(Numbers, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt32("42").value(), 42);
  EXPECT_EQ(ParseInt32("-7").value(), -7);
  EXPECT_EQ(ParseInt32("+12").value(), 12);
  EXPECT_EQ(ParseInt32("0").value(), 0);
  EXPECT_EQ(ParseInt64("123456789012").value(), 123456789012LL);
}

TEST(Numbers, RejectsMalformedInput) {
  EXPECT_FALSE(ParseInt32("").ok());
  EXPECT_FALSE(ParseInt32("abc").ok());
  EXPECT_FALSE(ParseInt32("12x").ok());
  EXPECT_FALSE(ParseInt32("x12").ok());
  EXPECT_FALSE(ParseInt32(" 12").ok());
  EXPECT_FALSE(ParseInt32("1.5").ok());
  EXPECT_FALSE(ParseInt32("--3").ok());
}

TEST(Numbers, RejectsOutOfRange) {
  EXPECT_FALSE(ParseInt32("99999999999").ok());
  EXPECT_FALSE(ParseInt32("-99999999999").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_EQ(ParseInt32("2147483647").value(), 2147483647);
  EXPECT_FALSE(ParseInt32("2147483648").ok());
}

}  // namespace
}  // namespace rav
