#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>

#include "io/text_format.h"
#include "ra/control.h"
#include "ra/emptiness.h"
#include "ra/random.h"
#include "ra/register_automaton.h"
#include "ra/run.h"
#include "ra/simulate.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

using testing::MakeExample1;

TEST(RegisterAutomatonTest, Example1Structure) {
  RegisterAutomaton a = MakeExample1();
  EXPECT_EQ(a.num_registers(), 2);
  EXPECT_EQ(a.num_states(), 2);
  EXPECT_EQ(a.num_transitions(), 3);
  EXPECT_TRUE(a.IsInitial(a.FindState("q1")));
  EXPECT_TRUE(a.IsFinal(a.FindState("q1")));
  EXPECT_FALSE(a.IsComplete());
  EXPECT_FALSE(a.IsStateDriven());  // q2 fires both δ2 and δ3
  EXPECT_EQ(a.DistinctGuards().size(), 3u);
}

// The typical run of Example 1:
// (d2 d1, q1) (d3 d1, q2) (d4 d1, q2) (d5 d1, q2) (d1 d1, q1) ...
FiniteRun Example1Run() {
  FiniteRun run;
  run.values = {{1, 1}, {3, 1}, {4, 1}, {5, 1}, {1, 1}};
  run.states = testing::StateIds({0, 1, 1, 1, 0});
  run.transition_indices = {0, 1, 1, 2};
  return run;
}

TEST(RunTest, Example1TypicalRunValidates) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  EXPECT_TRUE(ValidateRunPrefix(a, db, Example1Run()).ok());
}

TEST(RunTest, GuardViolationDetected) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  FiniteRun run = Example1Run();
  run.values[1][1] = 99;  // breaks x2 = y2 of δ1
  EXPECT_FALSE(ValidateRunPrefix(a, db, run).ok());
}

TEST(RunTest, WiringErrorsDetected) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  FiniteRun run = Example1Run();
  run.states[1] = StateId(0);  // transition 0 goes to q2, not q1
  EXPECT_FALSE(ValidateRunPrefix(a, db, run).ok());
}

TEST(RunTest, LassoRunOfExample1) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  LassoRun lasso;
  lasso.spine = Example1Run();
  lasso.spine.values.pop_back();  // cycle of 4 positions: q1 q2 q2 q2
  lasso.spine.states.pop_back();
  lasso.spine.transition_indices.pop_back();
  lasso.cycle_start = 0;
  lasso.wrap_transition_index = 2;  // δ3 back to q1
  // Wrap: from (5,1) at q2 via δ3 to (1,1) at q1: x2=y2 (1==1) ✓,
  // y1=y2 (1==1) ✓.
  EXPECT_TRUE(ValidateLassoRun(a, db, lasso).ok());
  EXPECT_EQ(lasso.StateAt(4).value(), 0);
  EXPECT_EQ(lasso.ValuesAt(5), (ValueTuple{3, 1}));
}

TEST(RunTest, LassoWithoutFinalStateRejected) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  LassoRun lasso;
  lasso.spine.values = {{1, 1}, {2, 1}, {3, 1}};
  lasso.spine.states = testing::StateIds({0, 1, 1});
  lasso.spine.transition_indices = {0, 1};
  lasso.cycle_start = 1;  // cycle q2 q2 never visits final q1
  lasso.wrap_transition_index = 1;
  // Make the wrap guard hold: δ2 needs x2 = y2: values[2][1] == values[1][1].
  EXPECT_FALSE(ValidateLassoRun(a, db, lasso).ok());
}

TEST(SimulateTest, SampleRunsAreValid) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  std::mt19937 rng(7);
  int produced = 0;
  for (int i = 0; i < 20; ++i) {
    auto run = SampleRun(a, db, 6, rng);
    if (!run.has_value()) continue;
    ++produced;
    EXPECT_TRUE(ValidateRunPrefix(a, db, *run).ok());
    // Register 2 of Example 1 never changes.
    for (size_t n = 1; n < run->length(); ++n) {
      EXPECT_EQ(run->values[n][1], run->values[0][1]);
    }
  }
  EXPECT_GT(produced, 0);
}

TEST(SimulateTest, EnumerateRunsMatchesValidation) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  size_t count = EnumerateRuns(a, db, 3, {0, 1}, [&](const FiniteRun& run) {
    EXPECT_TRUE(ValidateRunPrefix(a, db, run).ok());
    return true;
  });
  // Runs of length 3 over pool {0,1}: position 0 must satisfy x1=x2
  // (δ1's x-part): values (0,0) or (1,1). Then two steps.
  EXPECT_GT(count, 0u);
}

TEST(TransformTest, CompletedPreservesRunsAndIsComplete) {
  RegisterAutomaton a = MakeExample1();
  auto completed = Completed(a);
  ASSERT_TRUE(completed.ok());
  EXPECT_TRUE(completed->IsComplete());
  Database db{Schema()};
  // Same projected traces over a small pool.
  auto t1 = CollectProjectedTraces(a, db, 4, {0, 1, 2}, 2);
  auto t2 = CollectProjectedTraces(*completed, db, 4, {0, 1, 2}, 2);
  EXPECT_EQ(t1, t2);
}

TEST(TransformTest, StateDrivenPreservesRuns) {
  RegisterAutomaton a = MakeExample1();
  RegisterAutomaton sd = MakeStateDriven(a);
  EXPECT_TRUE(sd.IsStateDriven());
  // Example 3 says the state-driven variant has 3 states (q1 with δ1, q2
  // with δ2, q2 with δ3).
  EXPECT_EQ(sd.num_states(), 3);
  Database db{Schema()};
  auto t1 = CollectProjectedTraces(a, db, 4, {0, 1, 2}, 2);
  auto t2 = CollectProjectedTraces(sd, db, 4, {0, 1, 2}, 2);
  EXPECT_EQ(t1, t2);
}

TEST(ControlTest, AlphabetCollectsDistinctSymbols) {
  RegisterAutomaton a = MakeExample1();
  ControlAlphabet alpha(a);
  EXPECT_EQ(alpha.size(), 3);  // (q1,δ1), (q2,δ2), (q2,δ3)
  EXPECT_EQ(alpha.state_of(alpha.SymbolOfTransition(0)), a.FindState("q1"));
}

TEST(ControlTest, SControlAcceptsControlWordsOfRealRuns) {
  // Completed automaton: control words of actual lasso runs must be
  // accepted by the SControl NBA (Control ⊆ SControl).
  RegisterAutomaton a = Completed(MakeExample1()).value();
  ControlAlphabet alpha(a);
  Nba scontrol = BuildSControlNba(a, alpha);
  Database db{Schema()};
  // Enumerate short runs, then close those that end where they started
  // with a valid wrap into lassos.
  size_t checked = 0;
  EnumerateRuns(a, db, 4, {0, 1}, [&](const FiniteRun& run) {
    for (int ti : a.TransitionsFrom(run.states.back())) {
      const RaTransition& t = a.transition(ti);
      if (t.to != run.states[0]) continue;
      LassoRun lasso{run, 0, ti};
      if (!ValidateLassoRun(a, db, lasso).ok()) continue;
      LassoWord w = ControlWordOfLassoRun(a, alpha, lasso);
      EXPECT_TRUE(scontrol.AcceptsLasso(w)) << w.ToString();
      ++checked;
    }
    return checked < 25;
  });
  EXPECT_GT(checked, 0u);
}

// Oracle of BuildSControlNba: the all-pairs construction, which tries
// every transition after every previous symbol, so states no run reaches
// get edges too. Its reachable part is SControl by definition.
Nba AllPairsSControlNba(const RegisterAutomaton& automaton,
                        const ControlAlphabet& alphabet) {
  const int num_symbols = alphabet.size();
  const int width = num_symbols + 1;
  Nba nba(num_symbols);
  for (StateId q : automaton.States()) {
    for (int p = 0; p < width; ++p) {
      const int id = nba.AddState();
      if (automaton.IsFinal(q)) nba.SetAccepting(id);
    }
  }
  compile::FrontierCompatibility frontiers(alphabet.tables());
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    const SymbolId symbol = alphabet.SymbolOfTransition(ti);
    const GuardId guard = alphabet.guard_id_of_symbol(symbol);
    for (int prev = -1; prev < num_symbols; ++prev) {
      if (prev >= 0 &&
          !frontiers.Compatible(alphabet.guard_id_of_symbol(SymbolId(prev)),
                                guard)) {
        continue;
      }
      nba.AddTransition(t.from.value() * width + (prev + 1), symbol.value(),
                        t.to.value() * width + (symbol.value() + 1));
    }
  }
  for (StateId q : automaton.InitialStates()) {
    nba.SetInitial(q.value() * width);
  }
  return nba;
}

// Success iff `got` is `want` as far as a search can tell: same alphabet,
// state count, initial states and accepting flags; the same edge list, in
// the same order, at every state reachable from the initial ones; and the
// same FindAcceptingLasso answer.
::testing::AssertionResult SameReachableNba(const Nba& got, const Nba& want) {
  if (got.alphabet_size() != want.alphabet_size() ||
      got.num_states() != want.num_states() ||
      got.initial() != want.initial()) {
    return ::testing::AssertionFailure()
           << "shape (alphabet, states, initial count): got ("
           << got.alphabet_size() << ", " << got.num_states() << ", "
           << got.initial().size() << "), want (" << want.alphabet_size()
           << ", " << want.num_states() << ", " << want.initial().size()
           << ")";
  }
  std::vector<bool> seen(want.num_states(), false);
  std::vector<int> stack;
  for (int s = 0; s < want.num_states(); ++s) {
    if (got.IsAccepting(s) != want.IsAccepting(s)) {
      return ::testing::AssertionFailure() << "acceptance of state " << s;
    }
  }
  for (int s : want.initial()) {
    if (!seen[s]) stack.push_back(s);
    seen[s] = true;
  }
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    if (got.TransitionsFrom(s) != want.TransitionsFrom(s)) {
      return ::testing::AssertionFailure()
             << "edges of reachable state " << s << ": got "
             << got.TransitionsFrom(s).size() << ", want "
             << want.TransitionsFrom(s).size();
    }
    for (const auto& [symbol, to] : want.TransitionsFrom(s)) {
      if (!seen[to]) stack.push_back(to);
      seen[to] = true;
    }
  }
  const std::optional<LassoWord> got_lasso = got.FindAcceptingLasso();
  const std::optional<LassoWord> want_lasso = want.FindAcceptingLasso();
  if (got_lasso.has_value() != want_lasso.has_value() ||
      (got_lasso.has_value() &&
       got_lasso->ToString() != want_lasso->ToString())) {
    return ::testing::AssertionFailure()
           << "FindAcceptingLasso: got "
           << (got_lasso ? got_lasso->ToString() : "none") << ", want "
           << (want_lasso ? want_lasso->ToString() : "none");
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SControlMatchesOracle(
    const RegisterAutomaton& automaton) {
  ControlAlphabet alphabet(automaton);
  return SameReachableNba(BuildSControlNba(automaton, alphabet),
                          AllPairsSControlNba(automaton, alphabet));
}

TEST(ControlTest, SControlMatchesAllPairsOracle) {
  // Seeded random automata, as generated and completed; fewer registers
  // on the completed side, where each guard splits into its complete
  // extensions.
  std::mt19937 rng(20261017);
  int completed = 0;
  for (int i = 0; i < 240; ++i) {
    RandomAutomatonOptions options;
    options.num_registers = 1 + i % 3;
    options.num_states = 2 + i % 4;
    options.num_transitions = options.num_states + i % 7;
    RegisterAutomaton a = RandomAutomaton(rng, options);
    EXPECT_TRUE(SControlMatchesOracle(a)) << "random automaton " << i;
    if (options.num_registers <= 2) {
      Result<RegisterAutomaton> complete = Completed(a, 4096);
      ASSERT_TRUE(complete.ok()) << complete.status().ToString();
      EXPECT_TRUE(SControlMatchesOracle(*complete))
          << "completed random automaton " << i;
      ++completed;
    }
  }
  EXPECT_GE(completed, 100);

  // Every committed spec, as written and completed.
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {"tests/data", "examples/data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(RAV_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".rav") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 7u);
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    Result<ExtendedAutomaton> era = ParseExtendedAutomaton(text.str());
    ASSERT_TRUE(era.ok()) << path << ": " << era.status().ToString();
    EXPECT_TRUE(SControlMatchesOracle(era->automaton())) << path;
    Result<RegisterAutomaton> complete = Completed(era->automaton());
    ASSERT_TRUE(complete.ok()) << path << ": " << complete.status().ToString();
    EXPECT_TRUE(SControlMatchesOracle(*complete)) << path << " (completed)";
  }
}

TEST(ControlTest, SControlLeavesUnreachablePairsWithoutEdges) {
  // Example 1 completed: (q, prev) gets edges only when prev = -1 or a
  // transition reading prev enters q, so strictly fewer edges than the
  // all-pairs construction and the same reachable automaton.
  RegisterAutomaton a = Completed(MakeExample1()).value();
  ControlAlphabet alphabet(a);
  const Nba nba = BuildSControlNba(a, alphabet);
  const Nba oracle = AllPairsSControlNba(a, alphabet);
  EXPECT_LT(nba.num_transitions(), oracle.num_transitions());
  const int width = alphabet.size() + 1;
  std::vector<std::set<int>> entering(a.num_states());
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    entering[a.transition(ti).to.value()].insert(
        alphabet.SymbolOfTransition(ti).value());
  }
  for (int s = 0; s < nba.num_states(); ++s) {
    const int q = s / width;
    const int prev = s % width - 1;
    if (prev >= 0 && entering[q].count(prev) == 0) {
      EXPECT_TRUE(nba.TransitionsFrom(s).empty()) << "state " << s;
    }
  }
  EXPECT_TRUE(SameReachableNba(nba, oracle));
}

TEST(EmptinessTest, Example1HasRuns) {
  auto has_run = HasSomeRun(MakeExample1());
  ASSERT_TRUE(has_run.ok());
  EXPECT_TRUE(*has_run);
}

TEST(EmptinessTest, DeadAutomatonIsEmpty) {
  // Guard x1 ≠ y1 into a state requiring x1 = y1 forever... simpler: no
  // final state reachable on a cycle.
  RegisterAutomaton a(1, Schema());
  StateId q0 = a.AddState("q0");
  StateId q1 = a.AddState("q1");
  a.SetInitial(q0);
  a.SetFinal(q1);
  TypeBuilder b = a.NewGuardBuilder();
  a.AddTransition(q0, b.Build().value(), q1);  // q1 has no outgoing edge
  auto has_run = HasSomeRun(a);
  ASSERT_TRUE(has_run.ok());
  EXPECT_FALSE(*has_run);
}

TEST(EmptinessTest, FrontierInconsistencyDetected) {
  // Single state q, guard requires y1 = y2 but also x1 ≠ x2: consecutive
  // copies of the guard are frontier-incompatible, so no infinite run.
  RegisterAutomaton a(2, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddEq(b.Y(0), b.Y(1)).AddNeq(b.X(0), b.X(1));
  a.AddTransition(q, b.Build().value(), q);
  auto has_run = HasSomeRun(a);
  ASSERT_TRUE(has_run.ok());
  EXPECT_FALSE(*has_run);
}

TEST(EmptinessTest, RealizeWitnessProducesValidRun) {
  RegisterAutomaton a = Completed(MakeExample1()).value();
  ControlAlphabet alpha(a);
  auto lasso = FindSymbolicControlLasso(a, alpha);
  ASSERT_TRUE(lasso.has_value());
  auto witness = RealizeWitness(a, alpha, *lasso, 8);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_EQ(witness->run.length(), 8u);
  EXPECT_TRUE(ValidateRunPrefix(a, witness->db, witness->run,
                                /*require_initial=*/false)
                  .ok());
}

TEST(FixedDbTest, NoDatabaseAutomatonAlwaysChecksEquality) {
  RegisterAutomaton a = MakeExample1();
  Database db{Schema()};
  FixedDbStats stats;
  EXPECT_TRUE(HasRunOverDatabase(a, db, &stats));
  EXPECT_GT(stats.num_configurations, 0u);
}

TEST(FixedDbTest, UnaryRelationGuardNeedsNonEmptyRelation) {
  // Guard requires P(y1) forever: a run exists iff P is non-empty.
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  RegisterAutomaton a(1, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);

  Database empty_db(s);
  EXPECT_FALSE(HasRunOverDatabase(a, empty_db));
  Database db(s);
  db.Insert(p, {5});
  EXPECT_TRUE(HasRunOverDatabase(a, db));
}

TEST(FixedDbTest, AllDistinctGuardIsSatisfiableOverAnyDb) {
  // x1 ≠ y1 loop: fresh values forever, fine over the empty database.
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddNeq(b.X(0), b.Y(0));
  a.AddTransition(q, b.Build().value(), q);
  Database db{Schema()};
  EXPECT_TRUE(HasRunOverDatabase(a, db));
}

TEST(FixedDbTest, ConstantGuardPinsRegister) {
  // Register must always equal the constant c and be in P.
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  ConstantId c = s.AddConstant("c");
  RegisterAutomaton a(1, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddEq(b.X(0), b.Const(c)).AddEq(b.Y(0), b.Const(c));
  b.AddAtom(p, {b.X(0)}, true);
  a.AddTransition(q, b.Build().value(), q);

  Database db1(s);
  db1.SetConstant(c, 3);
  db1.Insert(p, {3});
  EXPECT_TRUE(HasRunOverDatabase(a, db1));

  Database db2(s);
  db2.SetConstant(c, 3);
  db2.Insert(p, {4});
  EXPECT_FALSE(HasRunOverDatabase(a, db2));
}

}  // namespace
}  // namespace rav
