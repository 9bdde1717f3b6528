// Tests of the resource-governed execution layer (docs/robustness.md):
// the ExecutionGovernor itself and its scoped memory charges, the
// failpoint layer, the CLI limit parsers, governor trips inside the decision
// procedures (deadline mid-search, cross-thread cancellation, memory
// budget in complementation, worker-spawn degradation), and the
// randomized differential that an armed-but-untripped governor never
// changes a verdict.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "automata/complement.h"
#include "base/failpoints.h"
#include "base/governor.h"
#include "base/numbers.h"
#include "era/emptiness.h"
#include "io/text_format.h"
#include "ra/random.h"
#include "ra/transform.h"

namespace rav {
namespace {

// --- ExecutionGovernor unit tests ---

TEST(GovernorTest, UnlimitedByDefault) {
  ExecutionGovernor g;
  EXPECT_FALSE(g.has_deadline());
  EXPECT_FALSE(g.has_memory_budget());
  EXPECT_EQ(g.Check(), GovernorTrip::kNone);
  EXPECT_TRUE(g.CheckStatus("test").ok());
  EXPECT_EQ(g.trip(), GovernorTrip::kNone);
  // nullptr is the unlimited governor for the helpers.
  EXPECT_EQ(GovernorCheck(nullptr), GovernorTrip::kNone);
  EXPECT_TRUE(GovernorCheckStatus(nullptr, "test").ok());
}

TEST(GovernorTest, ExpiredDeadlineTripsAndSticks) {
  ExecutionGovernor g;
  g.set_deadline(ExecutionGovernor::Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(g.has_deadline());
  EXPECT_EQ(g.Check(), GovernorTrip::kDeadline);
  EXPECT_EQ(g.trip(), GovernorTrip::kDeadline);
  // Sticky: later limit changes cannot untrip it.
  g.set_deadline_after(std::chrono::hours(1));
  EXPECT_EQ(g.Check(), GovernorTrip::kDeadline);
}

TEST(GovernorTest, MemoryBudgetTripsOnLiveBytes) {
  ExecutionGovernor g;
  g.set_memory_budget(1000);
  g.ChargeBytes(600);
  EXPECT_EQ(g.Check(), GovernorTrip::kNone);
  g.ChargeBytes(600);
  EXPECT_EQ(g.live_bytes(), 1200u);
  EXPECT_EQ(g.peak_bytes(), 1200u);
  EXPECT_EQ(g.Check(), GovernorTrip::kMemoryBudget);
  // Releasing below the budget does not untrip — the first trip is the
  // procedure's answer.
  g.ReleaseBytes(1200);
  EXPECT_EQ(g.live_bytes(), 0u);
  EXPECT_EQ(g.peak_bytes(), 1200u);
  EXPECT_EQ(g.Check(), GovernorTrip::kMemoryBudget);
}

TEST(GovernorTest, CancellationOutranksResourceTrips) {
  ExecutionGovernor g;
  g.set_memory_budget(10);
  g.RequestCancel();
  // An over-budget charge lands after the cancel request: the recorded
  // trip is still the user's decision, not the budget.
  g.ChargeBytes(100);
  EXPECT_EQ(g.Check(), GovernorTrip::kCancelled);
  EXPECT_EQ(g.trip(), GovernorTrip::kCancelled);
}

TEST(GovernorTest, CheckStatusNamesTheTripAndTheSite) {
  ExecutionGovernor g;
  g.set_deadline(ExecutionGovernor::Clock::now() - std::chrono::seconds(1));
  Status s = g.CheckStatus("ComplementNba");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("deadline"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("ComplementNba"), std::string::npos)
      << s.ToString();
}

TEST(GovernorTest, CrossThreadCancelIsObserved) {
  ExecutionGovernor g;
  std::thread canceller([&g] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    g.RequestCancel();
  });
  GovernorTrip trip = GovernorTrip::kNone;
  while ((trip = g.Check()) == GovernorTrip::kNone) {
    std::this_thread::yield();
  }
  canceller.join();
  EXPECT_EQ(trip, GovernorTrip::kCancelled);
}

TEST(GovernorTest, TripNames) {
  EXPECT_STREQ(GovernorTripName(GovernorTrip::kNone), "none");
  EXPECT_STREQ(GovernorTripName(GovernorTrip::kDeadline), "deadline");
  EXPECT_STREQ(GovernorTripName(GovernorTrip::kMemoryBudget),
               "memory-budget");
  EXPECT_STREQ(GovernorTripName(GovernorTrip::kCancelled), "cancelled");
}

TEST(ScopedMemoryChargeTest, BalancesOnDestruction) {
  ExecutionGovernor g;
  {
    ScopedMemoryCharge charge(&g, 100);
    charge.Add(50);
    EXPECT_EQ(charge.charged(), 150u);
    EXPECT_EQ(g.live_bytes(), 150u);
  }
  EXPECT_EQ(g.live_bytes(), 0u);
  EXPECT_EQ(g.peak_bytes(), 150u);
  // A nullptr governor is a no-op charge.
  ScopedMemoryCharge unlimited(nullptr, 100);
  EXPECT_EQ(unlimited.charged(), 0u);
}

// --- Failpoints ---

TEST(FailpointsTest, FiresOnNthHitThenDisarms) {
  failpoints::DisarmAll();
  failpoints::Arm("test/governor_test/site", 3);
  EXPECT_TRUE(failpoints::AnyArmed());
  EXPECT_FALSE(RAV_FAILPOINT("test/governor_test/site"));
  EXPECT_FALSE(RAV_FAILPOINT("test/governor_test/site"));
  EXPECT_TRUE(RAV_FAILPOINT("test/governor_test/site"));
  // Fired once, now disarmed: the fourth hit is clean.
  EXPECT_FALSE(RAV_FAILPOINT("test/governor_test/site"));
  failpoints::DisarmAll();
}

TEST(FailpointsTest, SitesAreIndependentAndArmZeroDisarms) {
  failpoints::DisarmAll();
  failpoints::Arm("test/governor_test/a", 1);
  failpoints::Arm("test/governor_test/b", 1);
  failpoints::Arm("test/governor_test/b", 0);  // disarm b again
  EXPECT_FALSE(RAV_FAILPOINT("test/governor_test/b"));
  EXPECT_TRUE(RAV_FAILPOINT("test/governor_test/a"));
  failpoints::DisarmAll();
  EXPECT_FALSE(failpoints::AnyArmed());
}

TEST(FailpointsTest, ParseSiteInjectsAParseError) {
  failpoints::DisarmAll();
  const std::string spec =
      "automaton { registers 1 state q initial final }";
  ASSERT_TRUE(ParseExtendedAutomaton(spec).ok());
  failpoints::Arm("io/text_format/parse", 1);
  Result<ExtendedAutomaton> injected = ParseExtendedAutomaton(spec);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.status().code(), StatusCode::kInvalidArgument);
  // Fire-once: the very next parse is healthy again.
  EXPECT_TRUE(ParseExtendedAutomaton(spec).ok());
  failpoints::DisarmAll();
}

// --- CLI limit parsers ---

TEST(NumbersTest, ParseDurationMs) {
  EXPECT_EQ(*ParseDurationMs("250ms"), 250);
  EXPECT_EQ(*ParseDurationMs("10s"), 10000);
  EXPECT_EQ(*ParseDurationMs("2m"), 120000);
  EXPECT_EQ(*ParseDurationMs("0ms"), 0);
  EXPECT_FALSE(ParseDurationMs("").ok());
  EXPECT_FALSE(ParseDurationMs("10").ok());    // suffix is required
  EXPECT_FALSE(ParseDurationMs("10h").ok());   // unknown unit
  EXPECT_FALSE(ParseDurationMs("-5s").ok());   // negative
  EXPECT_FALSE(ParseDurationMs("ms").ok());    // no digits
  EXPECT_FALSE(ParseDurationMs("999999999999999999m").ok());  // overflow
}

TEST(NumbersTest, ParseByteSize) {
  EXPECT_EQ(*ParseByteSize("1048576"), 1048576);
  EXPECT_EQ(*ParseByteSize("64k"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("512m"), 512ll * 1024 * 1024);
  EXPECT_EQ(*ParseByteSize("2g"), 2ll * 1024 * 1024 * 1024);
  EXPECT_EQ(*ParseByteSize("64K"), 64 * 1024);  // case-insensitive
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("x").ok());
  EXPECT_FALSE(ParseByteSize("-1").ok());
  EXPECT_FALSE(ParseByteSize("10t").ok());  // unknown unit
  EXPECT_FALSE(ParseByteSize("999999999999999999g").ok());  // overflow
}

// --- Governed decision procedures ---

// An extended automaton that is EMPTY but whose bounded lasso search has
// a huge candidate space: a complete digraph on 8 states with both the
// x1=y1 and x1!=y1 guard on every edge (so the control alphabet has 128
// symbols and the simple-path space explodes combinatorially), plus a
// constraint DFA accepting every factor with a disequality e≠₁₁ — every
// length-1 factor demands x1 != x1, so every candidate closure is
// inconsistent and the searcher must wade through the whole enumeration
// to conclude emptiness. The worst case a budget is for.
ExtendedAutomaton BigEmptySpace() {
  const int n = 8;
  std::string spec = "automaton {\n  registers 1\n";
  for (int s = 0; s < n; ++s) {
    spec += "  state q" + std::to_string(s) +
            (s == 0 ? " initial final\n" : " final\n");
  }
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      const std::string edge =
          "  transition q" + std::to_string(s) + " -> q" + std::to_string(t);
      spec += edge + " { x1 = y1 }\n";
      spec += edge + " { x1 != y1 }\n";
    }
  }
  spec += "}\n";
  auto era = ParseExtendedAutomaton(spec);
  RAV_CHECK(era.ok());
  Dfa every_factor(/*alphabet_size=*/n, /*num_states=*/1, /*initial=*/0);
  for (int a = 0; a < n; ++a) every_factor.SetTransition(0, a, 0);
  every_factor.SetAccepting(0, true);
  RAV_CHECK(era->AddConstraintDfa(RegisterPair{RegisterId(0), RegisterId(0)},
                                  /*is_equality=*/false,
                                  std::move(every_factor))
                .ok());
  return *std::move(era);
}

EraEmptinessOptions BigSearchOptions(const ExecutionGovernor* governor) {
  EraEmptinessOptions options;
  // Enough candidates that the ungoverned search runs for about a second
  // (1.1 s on a 4-CPU x86-64 host: the emptiness search refutes each of
  // the 300,000 candidates on the lasso as written), so a 10ms budget
  // reliably trips mid-search — while the enumeration bounds still end
  // the test in finite time if the governor were broken (the run then
  // stops on kLassoBudget and the assertions fail cleanly).
  options.max_lassos = 300000;
  options.max_search_steps = 30000000;
  options.analyze_and_strip = false;
  options.governor = governor;
  return options;
}

TEST(GovernedSearchTest, ExpiredDeadlineTruncatesWithPartialStats) {
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  governor.set_deadline(ExecutionGovernor::Clock::now() -
                        std::chrono::milliseconds(1));
  auto result =
      CheckEraEmptiness(era, alphabet, BigSearchOptions(&governor));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kDeadline);
  EXPECT_TRUE(result->stats.truncated());
}

TEST(GovernedSearchTest, DeadlineFiresMidSearch) {
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  governor.set_deadline_after(std::chrono::milliseconds(10));
  auto result =
      CheckEraEmptiness(era, alphabet, BigSearchOptions(&governor));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kDeadline);
  // Partial results: the search got somewhere before the trip.
  EXPECT_GT(result->stats.lassos_enumerated, 0u);
}

TEST(GovernedSearchTest, CrossThreadCancelStopsParallelSearch) {
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  EraEmptinessOptions options = BigSearchOptions(&governor);
  options.num_workers = 4;
  std::thread canceller([&governor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    governor.RequestCancel();
  });
  auto result = CheckEraEmptiness(era, alphabet, options);
  canceller.join();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kCancelled);
}

TEST(GovernedSearchTest, TinyBudgetsNeverCrashAndStayTruthful) {
  // The acceptance stress: a 10ms deadline plus a 1MiB budget on a large
  // search space must produce a truthful truncated verdict with partial
  // results — never a crash, hang, or silent "definitive EMPTY".
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  governor.set_deadline_after(std::chrono::milliseconds(10));
  governor.set_memory_budget(1 << 20);
  auto result =
      CheckEraEmptiness(era, alphabet, BigSearchOptions(&governor));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_TRUE(result->stats.stop_reason == SearchStopReason::kDeadline ||
              result->stats.stop_reason == SearchStopReason::kMemoryBudget)
      << SearchStopReasonName(result->stats.stop_reason);
  EXPECT_GT(result->stats.lassos_enumerated, 0u);
}

TEST(GovernorTest, TransientOverBudgetChargeTripsSticky) {
  // A spike that is charged and fully released between two polls must
  // still trip: the budget bounds the high-water mark, not whatever
  // happens to be live when Check() runs.
  ExecutionGovernor g;
  g.set_memory_budget(1024);
  { ScopedMemoryCharge spike(&g, 4096); }
  EXPECT_EQ(g.live_bytes(), 0u);
  EXPECT_EQ(g.Check(), GovernorTrip::kMemoryBudget);
}

TEST(GovernedSearchTest, MemoryBudgetAloneStopsTheSearch) {
  // Regression: per-candidate closure charges are released before the
  // next safe-point poll, so a budget smaller than one closure used to
  // slip through an entire search. No deadline here — the budget must
  // stop it by itself.
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  governor.set_memory_budget(1);
  auto result =
      CheckEraEmptiness(era, alphabet, BigSearchOptions(&governor));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kMemoryBudget);
  EXPECT_LT(result->stats.lassos_enumerated, 100u);
}

TEST(GovernedSearchTest, WitnessBeatsGovernorTrip) {
  // The first candidate is a witness, and evaluating it charges more
  // memory than the entire budget: the witness still wins — a trip only
  // stops further search, it never discards completed real work.
  auto era = ParseExtendedAutomaton(
      "automaton {\n"
      "  registers 1\n"
      "  state q initial final\n"
      "  transition q -> q { x1 = y1 }\n"
      "  transition q -> q { x1 != y1 }\n"
      "}\n");
  ASSERT_TRUE(era.ok());
  ControlAlphabet alphabet(era->automaton());
  ExecutionGovernor governor;
  governor.set_memory_budget(1);
  EraEmptinessOptions options;
  options.analyze_and_strip = false;
  options.governor = &governor;
  auto result = CheckEraEmptiness(*era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nonempty);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kWitnessFound);
}

TEST(GovernedSearchTest, PreCancelledGovernorStopsBeforeAnyEvaluation) {
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  governor.RequestCancel();
  auto result =
      CheckEraEmptiness(era, alphabet, BigSearchOptions(&governor));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kCancelled);
  EXPECT_EQ(result->stats.lassos_checked, 0u);
}

TEST(GovernedComplementTest, MemoryBudgetTripsComplementation) {
  // A dense all-accepting NBA: the rank-state space explodes, and the
  // per-state charge must trip a small budget long before max_states.
  const int n = 5;
  Nba nba(2);
  for (int s = 0; s < n; ++s) nba.AddState();
  nba.SetInitial(0);
  for (int s = 0; s < n; ++s) {
    nba.SetAccepting(s, true);
    for (int a = 0; a < 2; ++a) {
      nba.AddTransition(s, a, (s + a + 1) % n);
      nba.AddTransition(s, a, (s + 3 * a) % n);
    }
  }
  // Ungoverned (and unbudgeted by max_states), the construction succeeds
  // and interns well over a thousand rank-states...
  auto ungoverned = ComplementNba(nba, /*max_states=*/2000000);
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_GT(ungoverned->num_states(), 100);
  // ...so a small byte budget must trip it long before completion.
  ExecutionGovernor governor;
  governor.set_memory_budget(8 * 1024);
  auto complement = ComplementNba(nba, /*max_states=*/2000000, &governor);
  ASSERT_FALSE(complement.ok());
  EXPECT_EQ(complement.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.trip(), GovernorTrip::kMemoryBudget);
}

TEST(GovernedSearchTest, WorkerSpawnFailureDegradesNotFails) {
  failpoints::DisarmAll();
  ExtendedAutomaton era = BigEmptySpace();
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lassos = 50;
  options.analyze_and_strip = false;
  options.num_workers = 4;
  auto healthy = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(healthy.ok());

  // First spawn attempt fails: the pool degrades all the way to the
  // inline serial path; verdict and stop reason are unchanged.
  failpoints::Arm("era/search/worker_spawn", 1);
  auto degraded = CheckEraEmptiness(era, alphabet, options);
  failpoints::DisarmAll();
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->nonempty, healthy->nonempty);
  EXPECT_EQ(degraded->stats.stop_reason, healthy->stats.stop_reason);
  EXPECT_EQ(degraded->stats.workers, 1);

  // Second spawn attempt fails: a partial pool of one worker carries on.
  failpoints::Arm("era/search/worker_spawn", 2);
  auto partial = CheckEraEmptiness(era, alphabet, options);
  failpoints::DisarmAll();
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->nonempty, healthy->nonempty);
  EXPECT_EQ(partial->stats.stop_reason, healthy->stats.stop_reason);
  EXPECT_EQ(partial->stats.workers, 1);
}

// --- Randomized differential: a governor that never trips is invisible ---

Dfa RandomConstraintDfa(std::mt19937& rng, int alphabet_size) {
  std::uniform_int_distribution<int> num_states_dist(1, 5);
  const int n = num_states_dist(rng);
  std::uniform_int_distribution<int> state_dist(0, n - 1);
  Dfa dfa(alphabet_size, n, state_dist(rng));
  std::uniform_int_distribution<int> accept_dist(0, 3);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < alphabet_size; ++a) {
      dfa.SetTransition(s, a, state_dist(rng));
    }
    dfa.SetAccepting(s, accept_dist(rng) == 0);
  }
  return dfa;
}

ExtendedAutomaton RandomCompleteEra(std::mt19937& rng) {
  RandomAutomatonOptions options;
  options.num_registers = std::uniform_int_distribution<int>(1, 3)(rng);
  options.num_states = std::uniform_int_distribution<int>(2, 4)(rng);
  options.num_transitions = 2 * options.num_states;
  RegisterAutomaton a = RandomAutomaton(rng, options);
  Result<RegisterAutomaton> completed = Completed(a);
  RAV_CHECK(completed.ok());
  const int num_states = completed->num_states();
  const int k = completed->num_registers();
  ExtendedAutomaton era(*std::move(completed));
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const int nc = std::uniform_int_distribution<int>(1, 3)(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    RAV_CHECK(era.AddConstraintDfa(regs, /*is_equality=*/coin(rng) == 1,
                                   RandomConstraintDfa(rng, num_states))
                  .ok());
  }
  return era;
}

TEST(GovernorDifferentialTest, UntrippedGovernorNeverChangesTheVerdict) {
  std::mt19937 rng(20260806);
  for (int iteration = 0; iteration < 100; ++iteration) {
    ExtendedAutomaton era = RandomCompleteEra(rng);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions ungoverned;
    ungoverned.max_lassos = 200;
    ungoverned.max_search_steps = 20000;
    auto baseline = CheckEraEmptiness(era, alphabet, ungoverned);
    ASSERT_TRUE(baseline.ok());

    ExecutionGovernor governor;  // armed into the run, but unlimited
    EraEmptinessOptions governed = ungoverned;
    governed.governor = &governor;
    auto result = CheckEraEmptiness(era, alphabet, governed);
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(result->nonempty, baseline->nonempty) << "iter " << iteration;
    EXPECT_EQ(result->search_truncated, baseline->search_truncated)
        << "iter " << iteration;
    EXPECT_EQ(result->stats.stop_reason, baseline->stats.stop_reason)
        << "iter " << iteration;
    if (baseline->nonempty) {
      EXPECT_EQ(result->control_word.ToString(),
                baseline->control_word.ToString())
          << "iter " << iteration;
    }
    EXPECT_EQ(governor.trip(), GovernorTrip::kNone);
  }
}

}  // namespace
}  // namespace rav
