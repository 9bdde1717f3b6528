// Differential tests of the constraint closure's linear sweep against the
// reference per-start-restart engine (ReferenceConstraintClosure), and of
// ExtendedBy against a from-scratch build. They must agree on every
// observable: consistency, the class assignment of every node, adom
// membership, and the deduplicated inequality edge set. The random
// constraint DFAs have random initial states and accepting sets, so the
// sweep's start row and per-constraint tables are exercised off state 0.

#include <gtest/gtest.h>

#include <random>

#include "era/constraint_graph.h"
#include "ra/control.h"
#include "ra/random.h"

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

struct RandomInstance {
  ExtendedAutomaton era;
  ControlAlphabet alphabet;
  LassoWord word;
};

RandomInstance MakeInstance(std::mt19937& rng) {
  RandomAutomatonOptions options;
  std::uniform_int_distribution<int> reg_dist(1, 3);
  options.num_registers = reg_dist(rng);
  std::uniform_int_distribution<int> state_dist(2, 4);
  options.num_states = state_dist(rng);
  options.num_transitions = 2 * options.num_states;
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    options.schema.AddConstant("c0");
    if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
      options.schema.AddConstant("c1");
    }
  }
  RegisterAutomaton a = RandomAutomaton(rng, options);
  const int num_states = a.num_states();
  const int k = a.num_registers();
  ExtendedAutomaton era(std::move(a));
  std::uniform_int_distribution<int> num_constraints_dist(1, 4);
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const int nc = num_constraints_dist(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    EXPECT_TRUE(era.AddConstraintDfa(regs, /*is_equality=*/coin(rng) == 1,
                                     RandomConstraintDfa(rng, num_states))
                    .ok());
  }
  ControlAlphabet alphabet(era.automaton());
  // The closure does not require the word to follow the transition
  // relation, so any symbol sequence exercises it.
  std::uniform_int_distribution<int> symbol_dist(0, alphabet.size() - 1);
  LassoWord word;
  std::uniform_int_distribution<int> prefix_len(0, 3);
  std::uniform_int_distribution<int> cycle_len(1, 4);
  const int np = prefix_len(rng);
  const int nv = cycle_len(rng);
  for (int i = 0; i < np; ++i) word.prefix.push_back(symbol_dist(rng));
  for (int i = 0; i < nv; ++i) word.cycle.push_back(symbol_dist(rng));
  return RandomInstance{std::move(era), std::move(alphabet),
                        std::move(word)};
}

void ExpectSameClosure(const ConstraintClosure& got,
                       const ConstraintClosure& want) {
  ASSERT_EQ(got.window(), want.window());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.consistent(), want.consistent());
  ASSERT_EQ(got.num_classes(), want.num_classes());
  for (int v = 0; v < got.num_nodes(); ++v) {
    EXPECT_EQ(got.ClassOf(v), want.ClassOf(v)) << "node " << v;
  }
  for (int c = 0; c < got.num_classes(); ++c) {
    EXPECT_EQ(got.ClassInAdom(c), want.ClassInAdom(c)) << "class " << c;
  }
  EXPECT_EQ(got.InequalityEdges(), want.InequalityEdges());
  EXPECT_EQ(got.NumAdomClasses(), want.NumAdomClasses());
}

TEST(ClosureDiffTest, LinearMatchesReferenceOnRandomInstances) {
  std::mt19937 rng(20260806);
  ClosureScratch scratch;  // shared across iterations, like a search worker
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    std::uniform_int_distribution<size_t> window_dist(
        inst.word.prefix.size() + inst.word.cycle.size(), 40);
    const size_t window = window_dist(rng);
    ConstraintClosure fast(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    ConstraintClosure reference = ReferenceConstraintClosure(
        inst.era, inst.alphabet, inst.word, window, &scratch);
    ExpectSameClosure(fast, reference);
  }
}

TEST(ClosureDiffTest, ExtendedByMatchesRebuild) {
  std::mt19937 rng(987654321);
  ClosureScratch scratch;
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    std::uniform_int_distribution<size_t> window_dist(
        inst.word.prefix.size() + inst.word.cycle.size(), 25);
    std::uniform_int_distribution<size_t> extra_dist(0, 4);
    const size_t window = window_dist(rng);
    const size_t extra_cycles = extra_dist(rng);
    const size_t wider_window =
        window + extra_cycles * inst.word.cycle.size();

    ConstraintClosure base(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    ConstraintClosure extended = base.ExtendedBy(extra_cycles, &scratch);
    ConstraintClosure rebuilt(inst.era, inst.alphabet, inst.word,
                              wider_window, &scratch);
    ExpectSameClosure(extended, rebuilt);
    // And against the reference engine at the wider window.
    ConstraintClosure reference = ReferenceConstraintClosure(
        inst.era, inst.alphabet, inst.word, wider_window);
    ExpectSameClosure(extended, reference);

    // The emptiness search's probe→pump step: the lasso as written
    // (prefix plus one cycle), extended to the pumped window.
    const size_t prefix = inst.word.prefix.size();
    const size_t period = inst.word.cycle.size();
    const size_t pump = SuggestedPumpCount(inst.era);
    ConstraintClosure probe(inst.era, inst.alphabet, inst.word,
                            prefix + period, &scratch);
    ConstraintClosure pumped = probe.ExtendedBy(pump - 1, &scratch);
    ExpectSameClosure(pumped,
                      ReferenceConstraintClosure(inst.era, inst.alphabet,
                                                 inst.word,
                                                 prefix + pump * period));
  }
}

TEST(ClosureDiffTest, ExtendingTwiceMatchesExtendingOnce) {
  std::mt19937 rng(424242);
  ClosureScratch scratch;
  for (int iteration = 0; iteration < 50; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    const size_t window =
        inst.word.prefix.size() + 2 * inst.word.cycle.size();
    ConstraintClosure base(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    ConstraintClosure twice =
        base.ExtendedBy(1, &scratch).ExtendedBy(2, &scratch);
    ConstraintClosure once = base.ExtendedBy(3, &scratch);
    ExpectSameClosure(twice, once);
  }
}

// The emptiness search refutes a candidate on the lasso as written and
// pumps only the survivors. That is sound because a window's constraints
// are a subset of any longer window's: once a word's closure is
// inconsistent at a window W', it is inconsistent at every W >= W'.
// Checked over every window of each random word.
TEST(ClosureDiffTest, InconsistencyPersistsIntoEveryLargerWindow) {
  std::mt19937 rng(20261017);
  ClosureScratch scratch;
  int flips = 0;  // words consistent at some window, inconsistent later
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    size_t first_inconsistent = 0;
    for (size_t window = 1; window <= 32; ++window) {
      ConstraintClosure closure(inst.era, inst.alphabet, inst.word, window,
                                &scratch);
      if (first_inconsistent == 0) {
        if (!closure.consistent()) {
          first_inconsistent = window;
          flips += window > 1;
        }
        continue;
      }
      EXPECT_FALSE(closure.consistent())
          << "iteration " << iteration << ": inconsistent at window "
          << first_inconsistent << " but consistent at " << window;
    }
  }
  EXPECT_GT(flips, 0);  // the property was exercised, not vacuous
}

// The memo of the emptiness search rests on this: a window's closure
// reads only the word's first `window` symbols, so a contradiction at
// window w of one word holds, at w and at every larger window, for every
// word that starts with the same w symbols — up to its probe (the lasso
// as written) and its pumped window.
TEST(ClosureDiffTest, ContradictionCarriesOverToWordsSharingThePrefix) {
  std::mt19937 rng(20261019);
  ClosureScratch scratch;
  int carried = 0;  // pairs where the premise held
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    const size_t shared = std::uniform_int_distribution<size_t>(1, 10)(rng);
    ConstraintClosure at_shared(inst.era, inst.alphabet, inst.word, shared,
                                &scratch);
    if (at_shared.consistent()) continue;
    // Another word with the same first `shared` symbols and a random
    // rest, split anywhere into prefix and cycle.
    std::uniform_int_distribution<int> symbol_dist(
        0, inst.alphabet.size() - 1);
    LassoWord other;
    for (size_t i = 0; i < shared; ++i) {
      other.prefix.push_back(inst.word.SymbolAt(i));
    }
    const int extra = std::uniform_int_distribution<int>(0, 3)(rng);
    for (int i = 0; i < extra; ++i) other.prefix.push_back(symbol_dist(rng));
    const size_t split = std::uniform_int_distribution<size_t>(
        shared, other.prefix.size())(rng);
    other.cycle.assign(other.prefix.begin() + split, other.prefix.end());
    other.prefix.resize(split);
    other.cycle.push_back(symbol_dist(rng));
    ++carried;
    const size_t probe = other.prefix.size() + other.cycle.size();
    for (size_t window = shared; window <= probe; ++window) {
      ConstraintClosure closure(inst.era, inst.alphabet, other, window,
                                &scratch);
      EXPECT_FALSE(closure.consistent())
          << "iteration " << iteration << ": inconsistent at window "
          << shared << " of " << inst.word.ToString() << " but consistent at "
          << window << " of " << other.ToString();
    }
    const size_t pumped =
        other.prefix.size() + other.cycle.size() * SuggestedPumpCount(inst.era);
    ConstraintClosure at_pumped(inst.era, inst.alphabet, other, pumped,
                                &scratch);
    EXPECT_FALSE(at_pumped.consistent())
        << "iteration " << iteration << ": pumped window " << pumped;
  }
  EXPECT_GT(carried, 10);  // the property was exercised, not vacuous
}

// ContradictionFloor() is a lower bound on the shortest inconsistent
// window of the closure's word: every window below it is consistent. It
// is 0 exactly for consistent closures, and both engines compute it alike.
TEST(ClosureDiffTest, NoWindowBelowTheContradictionFloorIsInconsistent) {
  std::mt19937 rng(20261020);
  ClosureScratch scratch;
  int exact = 0;  // floors that were the shortest inconsistent window
  int inconsistent = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    size_t shortest = 0;
    for (size_t window = 1; window <= 24; ++window) {
      ConstraintClosure linear(inst.era, inst.alphabet, inst.word, window,
                               &scratch);
      ConstraintClosure reference = ReferenceConstraintClosure(
          inst.era, inst.alphabet, inst.word, window, &scratch);
      EXPECT_EQ(linear.ContradictionFloor(), reference.ContradictionFloor())
          << "iteration " << iteration << " window " << window;
      if (linear.consistent()) {
        EXPECT_EQ(linear.ContradictionFloor(), 0u);
        continue;
      }
      if (shortest == 0) shortest = window;
      ++inconsistent;
      const size_t floor = linear.ContradictionFloor();
      EXPECT_GE(floor, 1u);
      EXPECT_LE(floor, shortest)
          << "iteration " << iteration << ": " << inst.word.ToString()
          << " is inconsistent at window " << shortest
          << " but the closure at window " << window << " has floor "
          << floor;
      exact += floor == shortest;
    }
  }
  EXPECT_GT(inconsistent, 0);
  EXPECT_GT(exact, inconsistent / 2);  // the floor is usually exact
}

}  // namespace
}  // namespace rav
