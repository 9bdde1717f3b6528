// Tests of the lasso-search engine: truthful truncation verdicts (the
// stop-reason taxonomy), the resumable LassoEnumerator, determinism of the
// parallel search across worker counts, and the strict integer parsing the
// CLI depends on. The determinism tests are also the TSan target (see
// CMakePresets.json).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "automata/nba.h"
#include "base/numbers.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "era/parallel_search.h"
#include "io/text_format.h"
#include "ltl/tableau.h"
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

// A zero lasso budget examines nothing, so it can prove nothing: each
// procedure must report the budget, never an exhausted space.
TEST(SearchTruncation, ZeroLassoBudgetIsNotDefinitive) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lassos = 0;
  EraEmptinessResult result =
      SearchConsistentLasso(era, alphabet, scontrol, options);
  EXPECT_FALSE(result.nonempty);
  EXPECT_TRUE(result.stats.truncated());
  EXPECT_TRUE(result.search_truncated);
  EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result.stats.lassos_checked, 0u);
}

TEST(SearchTruncation, ZeroLassoBudgetStopsLrBound) {
  ExtendedAutomaton era = testing::MakeAllDistinct();
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.max_lassos = 0;
  auto result = EstimateLrBound(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result->lassos_examined, 0u);
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

TEST(LassoEnumerator, ZeroBudgetStopsOnTheCountCap) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, 10, /*max_count=*/0, 1000);
  LassoWord word;
  size_t index;
  EXPECT_FALSE(enumerator.Next(&word, &index));
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kMaxCount);
  EXPECT_EQ(enumerator.delivered(), 0u);
  EXPECT_EQ(enumerator.steps(), 0u);
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

// The enumerator's bookkeeping against its oracle. ScanLassoEnumerator
// is LassoEnumerator as it was before the per-state visit counts: every
// node entry rescans the whole path, once for earlier occurrences with an
// accepting state after them and once for the 3-visit prune. Both must
// deliver the same (word, rank) sequence and end with the same steps,
// deliveries and stop reason, for any bounds.
class ScanLassoEnumerator {
 public:
  ScanLassoEnumerator(const Nba& nba, size_t max_length, size_t max_count,
                      size_t max_steps)
      : nba_(nba),
        max_length_(max_length),
        max_count_(max_count),
        max_steps_(max_steps) {
    if (max_count_ == 0) {
      count_capped_ = true;
      done_ = true;
    }
  }

  bool Next(LassoWord* out, size_t* index) {
    if (delivered_ >= max_count_) return false;
    while (pending_head_ >= pending_.size() && !done_) Step();
    if (pending_head_ >= pending_.size()) return false;
    *out = std::move(pending_[pending_head_++]);
    *index = delivered_++;
    if (pending_head_ >= pending_.size()) {
      pending_.clear();
      pending_head_ = 0;
    }
    if (delivered_ >= max_count_) {
      if (!(done_ && !steps_capped_ && pending_.empty())) count_capped_ = true;
      done_ = true;
    }
    return true;
  }

  LassoEnumStop stop() const {
    if (steps_capped_) return LassoEnumStop::kMaxSteps;
    if (count_capped_) return LassoEnumStop::kMaxCount;
    if (length_clipped_) return LassoEnumStop::kLengthClipped;
    if (visit_bounded_) return LassoEnumStop::kVisitBound;
    return LassoEnumStop::kExhausted;
  }
  size_t delivered() const { return delivered_; }
  size_t steps() const { return steps_; }

 private:
  struct Frame {
    int state;
    size_t next_edge;
  };

  bool EnterNode(int state) {
    if (++steps_ > max_steps_) {
      steps_capped_ = true;
      done_ = true;
      return false;
    }
    for (size_t t = 0; t < path_states_.size(); ++t) {
      if (path_states_[t] != state) continue;
      bool accepting_in_cycle = false;
      for (size_t p = t; p < path_states_.size(); ++p) {
        accepting_in_cycle =
            accepting_in_cycle || nba_.IsAccepting(path_states_[p]);
      }
      if (!accepting_in_cycle) continue;
      LassoWord w;
      w.prefix.assign(path_symbols_.begin(), path_symbols_.begin() + t);
      w.cycle.assign(path_symbols_.begin() + t, path_symbols_.end());
      pending_.push_back(std::move(w));
    }
    if (path_symbols_.size() >= max_length_) {
      if (!nba_.TransitionsFrom(state).empty()) length_clipped_ = true;
      return false;
    }
    int occurrences = 0;
    for (int s : path_states_) occurrences += (s == state);
    if (occurrences >= 3) {
      if (!nba_.TransitionsFrom(state).empty()) visit_bounded_ = true;
      return false;
    }
    path_states_.push_back(state);
    stack_.push_back(Frame{state, 0});
    return true;
  }

  void Step() {
    if (!stack_.empty()) {
      Frame& frame = stack_.back();
      const auto& edges = nba_.TransitionsFrom(frame.state);
      if (frame.next_edge < edges.size()) {
        auto [symbol, to] = edges[frame.next_edge++];
        path_symbols_.push_back(symbol);
        if (!EnterNode(to)) {
          if (done_) return;
          path_symbols_.pop_back();
        }
        return;
      }
      stack_.pop_back();
      path_states_.pop_back();
      if (!stack_.empty()) path_symbols_.pop_back();
      return;
    }
    if (init_index_ < nba_.initial().size()) {
      EnterNode(nba_.initial()[init_index_++]);
      return;
    }
    done_ = true;
  }

  const Nba& nba_;
  size_t max_length_;
  size_t max_count_;
  size_t max_steps_;
  std::vector<Frame> stack_;
  std::vector<int> path_states_;
  std::vector<int> path_symbols_;
  std::vector<LassoWord> pending_;
  size_t pending_head_ = 0;
  size_t init_index_ = 0;
  size_t delivered_ = 0;
  size_t steps_ = 0;
  bool done_ = false;
  bool steps_capped_ = false;
  bool count_capped_ = false;
  bool length_clipped_ = false;
  bool visit_bounded_ = false;
};

// Everything an enumeration produced: the (word, rank) sequence and how it
// ended.
struct EnumerationTrace {
  std::vector<std::pair<std::string, size_t>> lassos;
  size_t steps = 0;
  size_t delivered = 0;
  LassoEnumStop stop = LassoEnumStop::kExhausted;
};

template <typename Enumerator>
EnumerationTrace Enumerate(const Nba& nba, size_t max_length,
                           size_t max_count, size_t max_steps) {
  Enumerator enumerator(nba, max_length, max_count, max_steps);
  EnumerationTrace trace;
  LassoWord word;
  size_t index = 0;
  while (enumerator.Next(&word, &index)) {
    trace.lassos.emplace_back(word.ToString(), index);
  }
  trace.steps = enumerator.steps();
  trace.delivered = enumerator.delivered();
  trace.stop = enumerator.stop();
  return trace;
}

// Compares the enumerator with its oracle on `nba` over a grid of small
// bounds, so every stop reason (and cuts mid-subtree) is exercised.
void ExpectEnumeratorMatchesScanOracle(const std::string& label,
                                       const Nba& nba) {
  for (size_t max_length : {0, 1, 2, 4, 7}) {
    for (size_t max_count : {0, 1, 5, 300}) {
      for (size_t max_steps : {1, 9, 60, 4000}) {
        SCOPED_TRACE(label + " length " + std::to_string(max_length) +
                     " count " + std::to_string(max_count) + " steps " +
                     std::to_string(max_steps));
        const EnumerationTrace got = Enumerate<LassoEnumerator>(
            nba, max_length, max_count, max_steps);
        const EnumerationTrace want = Enumerate<ScanLassoEnumerator>(
            nba, max_length, max_count, max_steps);
        EXPECT_EQ(got.lassos, want.lassos);
        EXPECT_EQ(got.steps, want.steps);
        EXPECT_EQ(got.delivered, want.delivered);
        EXPECT_EQ(got.stop, want.stop);
      }
    }
  }
}

// A random NBA: several initial states, self-loops and parallel edges
// occur, and `accepting` = false leaves every state rejecting.
Nba RandomNba(std::mt19937& rng, bool accepting) {
  std::uniform_int_distribution<int> num_states_dist(1, 6);
  std::uniform_int_distribution<int> alphabet_dist(1, 3);
  const int num_states = num_states_dist(rng);
  Nba nba(alphabet_dist(rng));
  for (int q = 0; q < num_states; ++q) nba.AddState();
  std::uniform_int_distribution<int> state_dist(0, num_states - 1);
  std::uniform_int_distribution<int> symbol_dist(0, nba.alphabet_size() - 1);
  std::bernoulli_distribution coin(0.4);
  nba.SetInitial(0);
  if (num_states > 1 && coin(rng)) nba.SetInitial(state_dist(rng));
  for (int q = 0; q < num_states; ++q) {
    if (accepting && coin(rng)) nba.SetAccepting(q);
    if (coin(rng)) nba.AddTransition(q, symbol_dist(rng), q);
    std::uniform_int_distribution<int> out_degree(0, 3);
    for (int e = out_degree(rng); e > 0; --e) {
      nba.AddTransition(q, symbol_dist(rng), state_dist(rng));
    }
  }
  return nba;
}

TEST(LassoEnumeratorOracle, MatchesScanOracleOnRandomNbas) {
  std::mt19937 rng(25);
  for (int i = 0; i < 60; ++i) {
    for (bool accepting : {true, false}) {
      ExpectEnumeratorMatchesScanOracle(
          NumberedName("random nba ", i) + (accepting ? "" : " (no accept)"),
          RandomNba(rng, accepting));
    }
  }
}

TEST(LassoEnumeratorOracle, MatchesScanOracleOnSControlNbas) {
  for (const char* dir : {"examples/data", "tests/data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(RAV_SOURCE_DIR) + "/" + dir)) {
      if (entry.path().extension() != ".rav") continue;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      Result<ExtendedAutomaton> parsed = ParseExtendedAutomaton(text.str());
      ASSERT_TRUE(parsed.ok()) << entry.path();
      ExtendedAutomaton era = CompletedEra(*parsed);
      ControlAlphabet alphabet(era.automaton());
      ExpectEnumeratorMatchesScanOracle(
          entry.path().filename().string(),
          BuildSControlNba(era.automaton(), alphabet));
    }
  }
  for (int k : {2, 3}) {
    for (int n : {4, 8}) {
      ExtendedAutomaton era = MakeShiftRingSearchEra(k, n, true);
      ControlAlphabet alphabet(era.automaton());
      ExpectEnumeratorMatchesScanOracle(
          NumberedName("ring k=", k) + NumberedName(" n=", n),
          BuildSControlNba(era.automaton(), alphabet));
    }
  }
}

TEST(LassoEnumeratorOracle, MatchesScanOracleOnLtlProduct) {
  // G F p0 × G F p1: a degeneralized product with several accepting
  // states and edges under every AP valuation.
  Result<LtlAutomaton> infinitely_p0 = LtlToNba(
      LtlFormula::Globally(LtlFormula::Eventually(LtlFormula::Ap(0))), 2);
  Result<LtlAutomaton> infinitely_p1 = LtlToNba(
      LtlFormula::Globally(LtlFormula::Eventually(LtlFormula::Ap(1))), 2);
  ASSERT_TRUE(infinitely_p0.ok());
  ASSERT_TRUE(infinitely_p1.ok());
  ExpectEnumeratorMatchesScanOracle(
      "ltl product", infinitely_p0->nba.Intersect(infinitely_p1->nba));
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
// The probe-then-pump evaluator against its oracle. SearchConsistentLasso
// closes each candidate over the lasso as written and grows the closure
// to the pumped window only when that probe is consistent. The oracle is
// the evaluator it replaced: one closure at the full pumped window per
// candidate, and no memo of refuted prefixes. A window's constraints are a
// subset of any longer window's, so both must reach the same verdict on
// every candidate, and the searches may differ only in how many closures
// were built and extended.

EraEmptinessResult SearchWithFullWindowOracle(
    const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
    const Nba& nba, const EraEmptinessOptions& options) {
  const size_t pump =
      options.pump > 0 ? options.pump : SuggestedPumpCount(era);
  const bool has_database = era.automaton().schema().num_relations() > 0;
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) -> LassoVerdict {
    const LassoWord& lasso = candidate.word;
    ++counters.closures_built;
    ConstraintClosure closure(era, alphabet, lasso,
                              lasso.prefix.size() + lasso.cycle.size() * pump,
                              &counters.scratch);
    if (!closure.consistent()) return LassoVerdict::kInconsistent;
    if (has_database) {
      ++counters.closures_extended;
      ConstraintClosure wider = closure.ExtendedBy(1, &counters.scratch);
      const int now = closure.AdomCliqueNumber(kAdomCliqueMaxNodes);
      const int next = wider.AdomCliqueNumber(kAdomCliqueMaxNodes);
      if (now >= 0 && next >= 0 && next > now) return LassoVerdict::kReject;
    }
    Result<RunWitness> witness =
        RealizeEraWitness(era, alphabet, lasso, closure, &counters.guard);
    return witness.ok() ? LassoVerdict::kWitness : LassoVerdict::kReject;
  };
  LassoSearchOptions search;
  search.max_lasso_length = options.max_lasso_length;
  search.max_lassos = options.max_lassos;
  search.max_search_steps = options.max_search_steps;
  search.num_workers = options.num_workers;
  LassoSearchOutcome outcome = SearchLassos(nba, search, evaluate);
  EraEmptinessResult result;
  result.nonempty = outcome.witness.has_value();
  if (result.nonempty) result.control_word = outcome.witness->word;
  result.stats = outcome.stats;
  return result;
}

// Runs the production search and the oracle on `era` at 1 and 4 workers
// and compares them. A parallel search that finds a witness may evaluate
// a few candidates past it before they are cancelled (see SearchLassos),
// so its counters are compared only when they are deterministic: on one
// worker, or when no witness stopped the search early. closures_built is
// not compared: the memo of refuted prefixes lowers it, and the prefix
// search behind a refutation can raise it. Returns the production
// search's result at 1 worker.
EraEmptinessResult ExpectProbeMatchesOracle(const std::string& label,
                                            const ExtendedAutomaton& era,
                                            EraEmptinessOptions options = {}) {
  ControlAlphabet alphabet(era.automaton());
  Nba nba = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessResult serial;
  for (int workers : {1, 4}) {
    SCOPED_TRACE(label + " at " + std::to_string(workers) + " workers");
    options.num_workers = workers;
    const EraEmptinessResult got =
        SearchConsistentLasso(era, alphabet, nba, options);
    const EraEmptinessResult want =
        SearchWithFullWindowOracle(era, alphabet, nba, options);
    if (workers == 1) serial = got;
    EXPECT_EQ(got.nonempty, want.nonempty);
    EXPECT_EQ(got.control_word.prefix, want.control_word.prefix);
    EXPECT_EQ(got.control_word.cycle, want.control_word.cycle);
    EXPECT_EQ(got.stats.stop_reason, want.stats.stop_reason);
    if (workers > 1 && want.nonempty) continue;
    EXPECT_EQ(got.stats.lassos_enumerated, want.stats.lassos_enumerated);
    EXPECT_EQ(got.stats.lassos_checked, want.stats.lassos_checked);
    EXPECT_EQ(got.stats.inconsistent_closures,
              want.stats.inconsistent_closures);
    EXPECT_EQ(got.stats.enumeration_steps, want.stats.enumeration_steps);
    EXPECT_EQ(got.stats.workers, want.stats.workers);
    EXPECT_EQ(got.stats.guard_evals, want.stats.guard_evals);
    EXPECT_EQ(got.stats.guard_batches, want.stats.guard_batches);
  }
  return serial;
}

TEST(ProbeThenPump, MatchesOracleOnCommittedSpecs) {
  for (const char* dir : {"examples/data", "tests/data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(RAV_SOURCE_DIR) + "/" + dir)) {
      if (entry.path().extension() != ".rav") continue;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      Result<ExtendedAutomaton> parsed = ParseExtendedAutomaton(text.str());
      ASSERT_TRUE(parsed.ok()) << entry.path();
      ExpectProbeMatchesOracle(entry.path().filename().string(),
                               CompletedEra(*parsed));
    }
  }
}

TEST(ProbeThenPump, MatchesOracleOnShiftRings) {
  // The contradictory rings are the drains the probe exists for: every
  // candidate is refuted on the lasso as written, and the enumerator
  // delivers them subtree by subtree, so one refuted prefix must answer
  // most of them without a closure.
  for (int k : {2, 3}) {
    for (int n : {4, 8}) {
      const std::string ring =
          NumberedName("ring k=", k) + NumberedName(" n=", n);
      const EraEmptinessResult drain = ExpectProbeMatchesOracle(
          ring + " contradictory", MakeShiftRingSearchEra(k, n, true));
      EXPECT_LT(drain.stats.closures_built, drain.stats.lassos_checked / 2)
          << ring;
      ExpectProbeMatchesOracle(ring + " live",
                               MakeShiftRingSearchEra(k, n, false));
    }
  }
}

// E15's span-7 pair (bench/bench_ablation_pump.cc): an equality across
// every 7-position factor, with an inequality across 7-position factors
// (contradictory) or 4-position ones (consistent). The one-symbol lasso
// is consistent as written; the contradiction needs a window of 7, so
// pumps 2 and 4 miss it and pump 7 finds it.
ExtendedAutomaton MakeLongSpanEra(bool contradictory) {
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  ExtendedAutomaton era(std::move(a));
  const RegisterPair r00{RegisterId(0), RegisterId(0)};
  RAV_CHECK(era.AddConstraintFromText(r00, true, "q q q q q q q").ok());
  RAV_CHECK(era.AddConstraintFromText(
                   r00, false, contradictory ? "q q q q q q q" : "q q q q")
                .ok());
  return era;
}

TEST(ProbeThenPump, MatchesOracleOnLongSpanPairAtEveryPump) {
  for (bool contradictory : {true, false}) {
    for (size_t pump : {0, 2, 4, 7}) {
      EraEmptinessOptions options;
      options.pump = pump;
      ExpectProbeMatchesOracle(
          std::string(contradictory ? "contradictory" : "consistent") +
              " span pair, pump " + std::to_string(pump),
          CompletedEra(MakeLongSpanEra(contradictory)), options);
    }
  }
  // The verdicts the pair exists for: only a window covering the span
  // refutes the contradictory variant.
  ExtendedAutomaton era = CompletedEra(MakeLongSpanEra(true));
  ControlAlphabet alphabet(era.automaton());
  for (size_t pump : {2, 4, 7}) {
    EraEmptinessOptions options;
    options.pump = pump;
    auto result = CheckEraEmptiness(era, alphabet, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->nonempty, pump < 7) << "pump " << pump;
  }
}

TEST(ProbeThenPump, MatchesOracleOnExample8) {
  // A unary relation holds every value, and all values are distinct:
  // the Example-8 clique guard rejects each consistent lasso, on the
  // grown closure and one cycle past it.
  Schema schema;
  RelationId p = schema.AddRelation("P", 1);
  RegisterAutomaton a(1, schema);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.X(0)}, true).AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);
  ExtendedAutomaton era(Completed(a).value());
  RAV_CHECK(era.AddConstraintFromText(
                   RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+")
                .ok());
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = 500;
  ExpectProbeMatchesOracle("example 8", era, options);
}

// The memo's fixture: from p, one guard leads to a or to b, and only the
// factor "p a" is contradictory. The DFS delivers the lassos through a
// first, so the memo holds the refuted prefix (p, g)(a, ·) when the
// witness (p, g)(b, ·) arrives: the witness shares all of that prefix but
// its last symbol, and only a prefix recorded in full lets it through.
TEST(ProbeThenPump, RefutedPrefixSparesASiblingWitness) {
  Result<ExtendedAutomaton> parsed = ParseExtendedAutomaton(R"(
automaton {
  registers 1
  state p initial final
  state a
  state b
  transition p -> a { x1 = y1 }
  transition p -> b { x1 = y1 }
  transition a -> p { x1 = y1 }
  transition b -> p { x1 = y1 }
  constraint neq 1 1 "p a"
}
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExtendedAutomaton era = CompletedEra(*parsed);
  const EraEmptinessResult result =
      ExpectProbeMatchesOracle("sibling witness", era);
  ASSERT_TRUE(result.nonempty);
  // Some candidate through a was refuted before the witness was reached.
  EXPECT_GT(result.stats.inconsistent_closures, 0u);
  ControlAlphabet alphabet(era.automaton());
  ASSERT_FALSE(result.control_word.cycle.empty());
  EXPECT_EQ(era.automaton().state_name(alphabet.state_of(
                SymbolId(result.control_word.SymbolAt(1)))),
            "b");
}

TEST(ProbeThenPump, PumpOnlyContradictionIsRefutedOnThePumpedWindow) {
  // The in-flight fixture of the service and transport tests: every
  // candidate is consistent as written, so each one is grown to the
  // pumped window, and only there found inconsistent.
  Result<ExtendedAutomaton> parsed =
      ParseExtendedAutomaton(testing::PumpOnlyEmptySpecText());
  ASSERT_TRUE(parsed.ok());
  ExtendedAutomaton era = CompletedEra(*parsed);
  EraEmptinessOptions options;
  options.max_lassos = 300;
  ExpectProbeMatchesOracle("pump-only contradiction", era, options);

  ControlAlphabet alphabet(era.automaton());
  Nba nba = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessResult result =
      SearchConsistentLasso(era, alphabet, nba, options);
  EXPECT_FALSE(result.nonempty);
  EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result.stats.inconsistent_closures, 300u);
  EXPECT_EQ(result.stats.closures_built, 300u);
  EXPECT_EQ(result.stats.closures_extended, 300u);
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
