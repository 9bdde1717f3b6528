// The lasso-search engine's worker-count differential (docs/search.md):
// random complete ERAs are searched on one worker and on two, three and
// four, and every multi-worker search must reproduce the serial one —
// verdict, stop reason, truncation and witness spelling, plus the
// enumeration counters of every search that drained without a witness.
// Every witness must realize as a concrete run. A last case pins the
// engine's tie-break directly: a higher-ranked witness that finishes
// after the lowest-ranked one never replaces it.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>

#include "automata/lasso.h"
#include "era/emptiness.h"
#include "ra/random.h"
#include "ra/transform.h"

namespace rav {
namespace {

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

// Schema-free (no relational signature), completed, with one to three
// random global constraints over random registers.
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

// Searches `era` on one worker and on 2, 3 and 4, and expects every
// multi-worker search to reproduce the serial one. A search that finds a
// witness may enumerate and evaluate a few candidates past it before
// they are cancelled, so the enumeration counters are compared only on
// searches without one. Returns whether the serial search found a
// witness.
bool ExpectSameAtEveryWorkerCount(const std::string& label,
                                  const ExtendedAutomaton& era) {
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lassos = 200;
  options.max_search_steps = 20000;
  options.num_workers = 1;
  auto serial = CheckEraEmptiness(era, alphabet, options);
  EXPECT_TRUE(serial.ok()) << label;
  if (!serial.ok()) return false;
  if (serial->nonempty) {
    const LassoWord& word = serial->control_word;
    const size_t window =
        word.prefix.size() + word.cycle.size() * SuggestedPumpCount(era);
    auto witness = RealizeEraWitness(era, alphabet, word, window);
    EXPECT_TRUE(witness.ok())
        << label << ": " << witness.status().ToString();
  }
  for (int workers : {2, 3, 4}) {
    const std::string at = label + " workers " + std::to_string(workers);
    options.num_workers = workers;
    auto parallel = CheckEraEmptiness(era, alphabet, options);
    EXPECT_TRUE(parallel.ok()) << at;
    if (!parallel.ok()) continue;
    EXPECT_EQ(parallel->nonempty, serial->nonempty) << at;
    EXPECT_EQ(parallel->stats.stop_reason, serial->stats.stop_reason) << at;
    EXPECT_EQ(parallel->search_truncated, serial->search_truncated) << at;
    EXPECT_EQ(parallel->control_word.ToString(),
              serial->control_word.ToString())
        << at;
    if (!serial->nonempty) {
      EXPECT_EQ(parallel->stats.lassos_enumerated,
                serial->stats.lassos_enumerated)
          << at;
      EXPECT_EQ(parallel->stats.enumeration_steps,
                serial->stats.enumeration_steps)
          << at;
    }
  }
  return serial->nonempty;
}

TEST(WorkerCountDifferentialTest, EveryWorkerCountMatchesTheSerialSearch) {
  std::mt19937 rng(20260809);
  size_t nonempty_seen = 0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    ExtendedAutomaton era = RandomCompleteEra(rng);
    if (ExpectSameAtEveryWorkerCount("iter " + std::to_string(iteration),
                                     era)) {
      ++nonempty_seen;
    }
  }
  // The generator must exercise both verdicts for the diff to mean much.
  EXPECT_GT(nonempty_seen, 10u);
  EXPECT_LT(nonempty_seen, 90u);
}

TEST(WorkerCountDifferentialTest, SecondSeedMatchesTheSerialSearch) {
  std::mt19937 rng(42);
  for (int iteration = 0; iteration < 25; ++iteration) {
    ExtendedAutomaton era = RandomCompleteEra(rng);
    ExpectSameAtEveryWorkerCount("seed 42 iter " + std::to_string(iteration),
                                 era);
  }
}

// Every candidate is a witness, but the first one (rank 0) takes a while
// and the first one of the next batch (rank 16, dealt to another worker)
// takes longer: that later-found, higher-ranked witness must not replace
// the lowest-ranked one.
TEST(WorkerCountDifferentialTest, LaterHigherRankedWitnessNeverWins) {
  // One accepting state with eight self-loops: far more than two batches
  // of lassos.
  Nba nba(8);
  const int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  for (int symbol = 0; symbol < 8; ++symbol) nba.AddTransition(q, symbol, q);
  auto evaluate = [](const LassoCandidate& candidate,
                     LassoWorkerCounters&) -> LassoVerdict {
    if (candidate.index == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else if (candidate.index == 16) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return LassoVerdict::kWitness;
  };
  LassoSearchOptions options;
  options.max_lassos = 64;
  options.num_workers = 4;
  LassoSearchOutcome outcome = SearchLassos(nba, options, evaluate);
  ASSERT_TRUE(outcome.witness.has_value());
  EXPECT_EQ(outcome.witness->index, 0u);
  EXPECT_EQ(outcome.stats.stop_reason, SearchStopReason::kWitnessFound);
}

}  // namespace
}  // namespace rav
