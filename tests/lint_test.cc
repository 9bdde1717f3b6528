#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lint.h"
#include "era/constraint_graph.h"
#include "era/emptiness.h"
#include "io/text_format.h"
#include "projection/lr_bounded.h"
#include "ra/random.h"
#include "ra/transform.h"
#include "types/completion.h"

namespace rav {
namespace {

using analysis::AnalyzeAndStrip;
using analysis::Diagnostic;
using analysis::Lint;
using analysis::Severity;
using analysis::StripResult;

int CountCode(const std::vector<Diagnostic>& diagnostics,
              const std::string& code) {
  int count = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) ++count;
  }
  return count;
}

std::string Render(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += analysis::FormatDiagnostic(d) + "\n";
  }
  return out;
}

ExtendedAutomaton Parse(const std::string& text) {
  auto era = ParseExtendedAutomaton(text);
  EXPECT_TRUE(era.ok()) << era.status().ToString();
  return std::move(era).value();
}

// ----- clean baseline ------------------------------------------------------

constexpr char kClean[] = R"(
automaton {
  registers 1
  state a initial final
  state b
  transition a -> b { x1 = y1 }
  transition b -> a { }
  constraint eq 1 1 "a b a"
}
)";

TEST(LintTest, CleanSpecHasNoDiagnostics) {
  auto diagnostics = Lint(Parse(kClean));
  EXPECT_TRUE(diagnostics.empty()) << Render(diagnostics);
  EXPECT_EQ(analysis::MaxSeverity(diagnostics), Severity::kNote);
}

// ----- RAV001 / RAV002: dead states ---------------------------------------

TEST(LintTest, Rav001FlagsUnreachableState) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  state orphan
  transition a -> a { }
  transition orphan -> a { }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV001"), 1) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV002"), 0) << Render(diagnostics);
  // The diagnostic points at the `state orphan` declaration (line 5).
  for (const Diagnostic& d : diagnostics) {
    if (d.code == "RAV001") {
      EXPECT_EQ(d.loc.line, 5);
    }
  }
}

TEST(LintTest, Rav002FlagsStateWithoutAcceptingCycle) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  state sink
  transition a -> a { }
  transition a -> sink { }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV002"), 1) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV001"), 0) << Render(diagnostics);
}

// ----- RAV003: transitions that can never fire -----------------------------

TEST(LintTest, Rav003FlagsFrontierIncompatibleTransitions) {
  // a->b forces y1 = c while b's only exit demands x1 != c: neither the
  // entering nor the leaving transition can sit on an infinite run.
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  schema { constant c }
  state a initial final
  state b
  transition a -> a { }
  transition a -> b { y1 = c }
  transition b -> a { x1 != c }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV003"), 2) << Render(diagnostics);
}

TEST(LintTest, Rav003CleanWhenFrontiersAgree) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  schema { constant c }
  state a initial final
  state b
  transition a -> a { }
  transition a -> b { y1 = c }
  transition b -> a { x1 = c }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV003"), 0) << Render(diagnostics);
}

// ----- RAV004: dead registers ----------------------------------------------

TEST(LintTest, Rav004FlagsNeverMentionedRegister) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 2
  state a initial final
  transition a -> a { x1 = y1 }
}
)"));
  ASSERT_EQ(CountCode(diagnostics, "RAV004"), 1) << Render(diagnostics);
  EXPECT_NE(diagnostics[0].message.find("never mentioned"), std::string::npos);
}

TEST(LintTest, Rav004FlagsWrittenNeverReadRegister) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 2
  state a initial final
  transition a -> a { x1 = y1  y2 = y1 }
}
)"));
  ASSERT_EQ(CountCode(diagnostics, "RAV004"), 1) << Render(diagnostics);
  bool found = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.code == "RAV004" &&
        d.message.find("written but never read") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << Render(diagnostics);
}

TEST(LintTest, Rav004ConstraintMentionKeepsRegisterAlive) {
  // The register is touched by no guard but by the global constraint —
  // exactly the example5 shape; must stay clean.
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  transition a -> a { }
  constraint eq 1 1 "a a"
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV004"), 0) << Render(diagnostics);
}

// ----- RAV005 / RAV006: vacuous and contradictory constraints --------------

TEST(LintTest, Rav005FlagsUnmatchableConstraint) {
  // "b b" needs two consecutive b's; the control graph has no b->b edge.
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  state b
  transition a -> a { }
  transition a -> b { }
  transition b -> a { }
  constraint eq 1 1 "b b"
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV005"), 1) << Render(diagnostics);
}

TEST(LintTest, Rav005CleanForMatchableConstraint) {
  auto diagnostics = Lint(Parse(kClean));
  EXPECT_EQ(CountCode(diagnostics, "RAV005"), 0) << Render(diagnostics);
}

TEST(LintTest, Rav006FlagsSelfInequalityOnSinglePosition) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  transition a -> a { }
  constraint neq 1 1 "a"
}
)"));
  ASSERT_EQ(CountCode(diagnostics, "RAV006"), 1) << Render(diagnostics);
  EXPECT_EQ(analysis::MaxSeverity(diagnostics), Severity::kError);
}

TEST(LintTest, Rav006CleanForMultiPositionSelfInequality) {
  // e≠[1,1] over windows of length 2 relates *different* positions —
  // satisfiable, so no error (all_distinct.rav relies on this).
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  transition a -> a { }
  constraint neq 1 1 "a a+"
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV006"), 0) << Render(diagnostics);
}

// ----- RAV007: duplicate / subsumed transitions ----------------------------

TEST(LintTest, Rav007FlagsDuplicateAndSubsumedTransitions) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  transition a -> a { }
  transition a -> a { }
  transition a -> a { x1 = y1 }
}
)"));
  int duplicates = 0;
  int subsumed = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.code != "RAV007") continue;
    if (d.severity == Severity::kWarning) ++duplicates;
    if (d.severity == Severity::kNote) ++subsumed;
  }
  EXPECT_EQ(duplicates, 1) << Render(diagnostics);
  EXPECT_EQ(subsumed, 1) << Render(diagnostics);
}

TEST(LintTest, Rav007CleanForDistinctGuards) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial final
  transition a -> a { x1 = y1 }
  transition a -> a { x1 != y1 }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV007"), 0) << Render(diagnostics);
}

// ----- RAV008: schema violations (programmatic automata only) --------------

TEST(LintTest, Rav008FlagsArityMismatch) {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2);
  RegisterAutomaton a(1, schema);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder builder = a.NewGuardBuilder();
  builder.AddAtom(r, {ElementIndex(0)}, true);  // R arity 2; one arg given
  auto guard = builder.Build();
  ASSERT_TRUE(guard.ok());
  a.AddTransition(q, std::move(guard).value(), q);
  auto diagnostics = Lint(a);
  ASSERT_EQ(CountCode(diagnostics, "RAV008"), 1) << Render(diagnostics);
  EXPECT_EQ(analysis::MaxSeverity(diagnostics), Severity::kError);
}

// ----- RAV009 / RAV010: degenerate automata --------------------------------

TEST(LintTest, Rav009FlagsMissingInitialState) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a final
  transition a -> a { }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV009"), 1) << Render(diagnostics);
  // The structural passes stay quiet on degenerate automata.
  EXPECT_EQ(CountCode(diagnostics, "RAV001"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV002"), 0) << Render(diagnostics);
}

TEST(LintTest, Rav010FlagsMissingFinalState) {
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 1
  state a initial
  transition a -> a { }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV010"), 1) << Render(diagnostics);
}

// ----- enhanced automata ---------------------------------------------------

TEST(LintTest, EnhancedEmptySelectorFlagged) {
  RegisterAutomaton a(1, Schema());
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), q);
  EnhancedAutomaton enhanced(a);
  // A pair DFA with an empty language: one rejecting sink state.
  Dfa empty_dfa(/*alphabet_size=*/1, /*num_states=*/1, /*initial=*/0);
  TupleInequalityConstraint c;
  c.pair_dfa = empty_dfa;
  c.regs_a = {0};
  c.offs_a = {0};
  c.regs_b = {0};
  c.offs_b = {0};
  ASSERT_TRUE(enhanced.AddTupleConstraint(std::move(c)).ok());
  auto diagnostics = Lint(enhanced);
  EXPECT_EQ(CountCode(diagnostics, "RAV005"), 1) << Render(diagnostics);
}

// ----- golden check: committed example specs are clean ---------------------

TEST(LintTest, CommittedExampleSpecsAreClean) {
  const std::string dir = std::string(RAV_SOURCE_DIR) + "/examples/data/";
  for (const char* name :
       {"example1.rav", "example5.rav", "all_distinct.rav"}) {
    std::ifstream in(dir + name);
    ASSERT_TRUE(in.good()) << dir + name;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto era = ParseExtendedAutomaton(buffer.str());
    ASSERT_TRUE(era.ok()) << name << ": " << era.status().ToString();
    auto diagnostics = Lint(*era);
    EXPECT_TRUE(diagnostics.empty()) << name << ":\n" << Render(diagnostics);
  }
}

// ----- diagnostic rendering ------------------------------------------------

TEST(LintTest, FormatAndJsonRendering) {
  Diagnostic d{"RAV001", Severity::kWarning, "state 'x' is unreachable",
               SourceLocation{3, 7}};
  EXPECT_EQ(analysis::FormatDiagnostic(d, "spec.rav"),
            "spec.rav:3:7: warning: RAV001: state 'x' is unreachable");
  Json doc = analysis::DiagnosticsToJson({d}, "spec.rav");
  const Json* rows = doc.Find("diagnostics");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->at(0).Find("code")->string_value(), "RAV001");
  EXPECT_EQ(rows->at(0).Find("severity")->string_value(), "warning");
  EXPECT_EQ(rows->at(0).Find("line")->number_value(), 3);
}

// ----- AnalyzeAndStrip: structure ------------------------------------------

constexpr char kDeadStructure[] = R"(
automaton {
  registers 1
  state a initial final
  state sink
  state orphan
  transition a -> a { }
  transition a -> sink { }
  transition orphan -> a { }
  constraint eq 1 1 "a a+"
  constraint eq 1 1 "sink sink"
}
)";

TEST(StripTest, RemovesDeadStatesTransitionsAndConstraints) {
  ExtendedAutomaton era = Parse(kDeadStructure);
  StripResult stripped = AnalyzeAndStrip(era);
  EXPECT_TRUE(stripped.changed());
  EXPECT_EQ(stripped.states_removed, 2);
  EXPECT_EQ(stripped.transitions_removed, 2);
  EXPECT_EQ(stripped.constraints_removed, 1);
  ASSERT_TRUE(stripped.era.has_value());
  const RegisterAutomaton& a = stripped.era->automaton();
  ASSERT_EQ(a.num_states(), 1);
  EXPECT_EQ(a.state_name(StateId(0)), "a");
  EXPECT_TRUE(a.IsInitial(StateId(0)));
  EXPECT_TRUE(a.IsFinal(StateId(0)));
  EXPECT_EQ(a.num_transitions(), 1);
  // Source locations survive the rebuild (state a was declared line 4).
  EXPECT_EQ(a.state_location(StateId(0)).line, 4);
  // The surviving constraint's DFA was remapped to the one-state alphabet.
  ASSERT_EQ(stripped.era->constraints().size(), 1u);
  EXPECT_EQ(stripped.era->constraints()[0].dfa.alphabet_size(), 1);
  // The original automaton is untouched.
  EXPECT_EQ(era.automaton().num_states(), 3);
}

TEST(StripTest, CleanAutomatonUnchanged) {
  ExtendedAutomaton era = Parse(kClean);
  StripResult stripped = AnalyzeAndStrip(era);
  EXPECT_FALSE(stripped.changed());
  EXPECT_FALSE(stripped.era.has_value());
}

TEST(StripTest, DegenerateAutomatonUntouched) {
  ExtendedAutomaton era = Parse(R"(
automaton {
  registers 1
  state a final
  transition a -> a { }
}
)");
  StripResult stripped = AnalyzeAndStrip(era);
  EXPECT_FALSE(stripped.changed());
  EXPECT_EQ(CountCode(stripped.diagnostics, "RAV009"), 1);
}

// ----- AnalyzeAndStrip: verdict preservation (differential) ----------------

// Seeds dead structure into a completed random automaton: a dead-end
// branch, an unreachable feeder, and a vacuous constraint anchored at the
// unreachable state. The strip provably removes some of it; the verdict
// must not move.
ExtendedAutomaton SeededDeadStructure(std::mt19937& rng, bool add_real_neq) {
  RandomAutomatonOptions options;
  options.num_registers = 1;
  options.num_states = 3;
  options.num_transitions = 4;
  RegisterAutomaton base = RandomAutomaton(rng, options);
  auto completed = Completed(base);
  EXPECT_TRUE(completed.ok());
  RegisterAutomaton a = std::move(completed).value();
  const RaTransition seed = a.transition(0);
  StateId sink = a.AddState("sink");
  StateId orphan = a.AddState("orphan");
  a.AddTransition(seed.from, seed.guard, sink);
  a.AddTransition(orphan, seed.guard, seed.from);
  ExtendedAutomaton era(std::move(a));
  EXPECT_TRUE(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                        /*is_equality=*/true, "orphan orphan")
                  .ok());
  if (add_real_neq) {
    EXPECT_TRUE(era.AddConstraintFromText(
        RegisterPair{RegisterId(0), RegisterId(0)}, 
                                          /*is_equality=*/false, "r0 r0")
                    .ok());
  }
  return era;
}

TEST(StripDifferentialTest, EmptinessVerdictPreservedOn100RandomAutomata) {
  std::mt19937 rng(20260806);
  int compared = 0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    ExtendedAutomaton era = SeededDeadStructure(rng, iteration % 2 == 0);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions with_strip;
    with_strip.max_lasso_length = 5;
    with_strip.max_lassos = 200000;
    with_strip.max_search_steps = 5000000;
    EraEmptinessOptions without_strip = with_strip;
    without_strip.analyze_and_strip = false;
    auto on = CheckEraEmptiness(era, alphabet, with_strip);
    auto off = CheckEraEmptiness(era, alphabet, without_strip);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    // Both searches run the same length bound, so their bounded verdicts
    // must agree even when enumeration clipped at that length. Only an
    // exhausted lasso/step budget (order-dependent under the parallel
    // engine) makes a pair incomparable.
    auto budget_limited = [](const SearchStats& s) {
      return s.stop_reason == SearchStopReason::kLassoBudget ||
             s.stop_reason == SearchStopReason::kStepBudget;
    };
    if (budget_limited(on->stats) || budget_limited(off->stats)) continue;
    EXPECT_EQ(on->nonempty, off->nonempty) << "iteration " << iteration;
    if (on->nonempty) {
      // The witness was found on the stripped automaton and remapped: it
      // must realize on the ORIGINAL one at the same pump the engine
      // validated it with.
      const size_t window =
          on->control_word.prefix.size() +
          on->control_word.cycle.size() * SuggestedPumpCount(era);
      auto witness =
          RealizeEraWitness(era, alphabet, on->control_word, window);
      EXPECT_TRUE(witness.ok())
          << "iteration " << iteration << ": " << witness.status().ToString();
    }
    ++compared;
  }
  EXPECT_GE(compared, 90);
}

// ----- RAV011/012/013: flow-sensitive passes -------------------------------

// The known-dirty flow fixture (tests/data/flow_dead.rav, inlined):
// locally clean — every transition has a frontier-compatible neighbour,
// courtesy of the self-justifying b->b loop — but the whole-graph
// fixpoint proves the loop (and everything it justifies) unfireable.
constexpr char kFlowDead[] = R"(
automaton {
  registers 2
  schema { constant c }
  state a initial final
  state b
  state e
  transition a -> a { x1 = y1 }
  transition a -> b { y1 = c }
  transition b -> b { x1 != c  y1 != c }
  transition b -> a { x1 = c  x2 = x1 }
  transition b -> e { y1 != c  y2 = c }
  transition e -> a { x1 = c }
  transition b -> e { x1 != c  y1 = c }
  transition e -> e { x1 != c  y1 != c }
}
)";

TEST(LintTest, Rav012FlagsSelfJustifyingUnfireableLoop) {
  auto diagnostics = Lint(Parse(kFlowDead));
  // The local pairwise pass is fooled by the loop justifying itself —
  // RAV012 is what makes the flow pass strictly stronger than RAV003.
  EXPECT_EQ(CountCode(diagnostics, "RAV003"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV012"), 3) << Render(diagnostics);
}

TEST(LintTest, Rav013FlagsStructureStrandedByUnfireableTransitions) {
  auto diagnostics = Lint(Parse(kFlowDead));
  // State e plus the two transitions stranded with it (b->e writing r2,
  // and the e->e loop).
  EXPECT_EQ(CountCode(diagnostics, "RAV002"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV013"), 3) << Render(diagnostics);
}

TEST(LintTest, Rav011FlagsRegisterWhoseWritesAllDie) {
  auto diagnostics = Lint(Parse(kFlowDead));
  // r2 is read (x2 on b->a) so RAV004 stays quiet, but its only write
  // (y2 on the first b->e) can never be read afterwards.
  EXPECT_EQ(CountCode(diagnostics, "RAV004"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV011"), 1) << Render(diagnostics);
  for (const Diagnostic& d : diagnostics) {
    if (d.code == "RAV011") {
      EXPECT_EQ(d.severity, Severity::kNote);
      EXPECT_NE(d.message.find("r2"), std::string::npos) << d.message;
    }
  }
}

TEST(LintTest, FlowPassesQuietWhenFrontiersActuallyArrive) {
  // Same shape, but the loop agrees with the feeder's frontier: every
  // transition fires, r2's write on b -> a is read by x2 = c on the
  // return edge, and nothing is flow-dead.
  auto diagnostics = Lint(Parse(R"(
automaton {
  registers 2
  schema { constant c }
  state a initial final
  state b
  transition a -> a { x1 = y1 }
  transition a -> b { y1 = c }
  transition b -> b { x1 = c  y1 = c }
  transition b -> a { x1 = c  y2 = c }
  transition a -> a { x2 = c }
}
)"));
  EXPECT_EQ(CountCode(diagnostics, "RAV011"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV012"), 0) << Render(diagnostics);
  EXPECT_EQ(CountCode(diagnostics, "RAV013"), 0) << Render(diagnostics);
}

TEST(LintTest, DiagnosticsAreSortedByLineColumnCode) {
  auto diagnostics = Lint(Parse(kFlowDead));
  ASSERT_GT(diagnostics.size(), 1u);
  EXPECT_TRUE(std::is_sorted(
      diagnostics.begin(), diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.loc.line, a.loc.column, a.code) <
               std::tie(b.loc.line, b.loc.column, b.code);
      }))
      << Render(diagnostics);
}

TEST(StripTest, FlowTierStripsFlowDeadStructure) {
  ExtendedAutomaton era = Parse(kFlowDead);
  StripResult fast = AnalyzeAndStrip(era, analysis::StripEffort::kFast);
  // The structural tier sees nothing: the fixture is locally clean.
  EXPECT_FALSE(fast.changed());
  StripResult flow = AnalyzeAndStrip(era, analysis::StripEffort::kFlow);
  ASSERT_TRUE(flow.changed());
  EXPECT_EQ(flow.states_removed, 1);        // e
  EXPECT_EQ(flow.transitions_removed, 5);   // the loop + everything via e
  const RegisterAutomaton& a = flow.era->automaton();
  EXPECT_EQ(a.num_states(), 2);
  EXPECT_EQ(a.num_transitions(), 3);  // a->a, a->b, b->a
}

// Seeds the self-justifying unfireable pattern of kFlowDead into a
// completed random automaton: a feeder pinning y1 = c into a state whose
// loop and exits all demand x1 != c. The flow tier provably strips it;
// the emptiness verdict must not move.
ExtendedAutomaton SeededFlowDeadStructure(std::mt19937& rng) {
  Schema schema;
  const ConstantId c = schema.AddConstant("c");
  RandomAutomatonOptions options;
  options.num_registers = 1;
  options.num_states = 3;
  options.num_transitions = 4;
  options.schema = schema;
  RegisterAutomaton base = RandomAutomaton(rng, options);
  auto completed = Completed(base);
  EXPECT_TRUE(completed.ok());
  RegisterAutomaton a = std::move(completed).value();
  const StateId anchor = a.transition(0).from;
  const StateId knot = a.AddState("flow_knot");
  // The emptiness engines demand complete guards, so each partial guard
  // goes in as the set of its complete extensions — the completions of
  // x1 != c all keep x1 != c, preserving the unfireable pattern.
  auto add_completions = [&a](StateId from, const Type& partial, StateId to) {
    for (const Type& guard : EqualityCompletions(partial)) {
      a.AddTransition(from, guard, to);
    }
  };
  TypeBuilder feeder = a.NewGuardBuilder();
  feeder.AddEq(feeder.Y(0), feeder.Const(c));
  add_completions(anchor, feeder.Build().value(), knot);
  TypeBuilder loop = a.NewGuardBuilder();
  loop.AddNeq(loop.X(0), loop.Const(c)).AddNeq(loop.Y(0), loop.Const(c));
  add_completions(knot, loop.Build().value(), knot);
  TypeBuilder leave = a.NewGuardBuilder();
  leave.AddNeq(leave.X(0), leave.Const(c));
  add_completions(knot, leave.Build().value(), anchor);
  return ExtendedAutomaton(std::move(a));
}

TEST(StripDifferentialTest, FlowTierPreservesEmptinessOn100RandomAutomata) {
  std::mt19937 rng(20260809);
  int compared = 0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    ExtendedAutomaton era = SeededFlowDeadStructure(rng);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions with_strip;
    // Force the kFlow tier: the seeded automata sit under the default
    // transition floor, and the point here is that the flow strip itself
    // preserves the verdict.
    with_strip.min_flow_strip_transitions = 0;
    with_strip.max_lasso_length = 5;
    with_strip.max_lassos = 200000;
    with_strip.max_search_steps = 5000000;
    EraEmptinessOptions without_strip = with_strip;
    without_strip.analyze_and_strip = false;
    auto on = CheckEraEmptiness(era, alphabet, with_strip);
    auto off = CheckEraEmptiness(era, alphabet, without_strip);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    auto budget_limited = [](const SearchStats& s) {
      return s.stop_reason == SearchStopReason::kLassoBudget ||
             s.stop_reason == SearchStopReason::kStepBudget;
    };
    if (budget_limited(on->stats) || budget_limited(off->stats)) continue;
    EXPECT_EQ(on->nonempty, off->nonempty) << "iteration " << iteration;
    if (on->nonempty) {
      const size_t window =
          on->control_word.prefix.size() +
          on->control_word.cycle.size() * SuggestedPumpCount(era);
      auto witness =
          RealizeEraWitness(era, alphabet, on->control_word, window);
      EXPECT_TRUE(witness.ok())
          << "iteration " << iteration << ": " << witness.status().ToString();
    }
    ++compared;
  }
  EXPECT_GE(compared, 90);
}

TEST(StripDifferentialTest, LrBoundPreservedOnRandomAutomata) {
  std::mt19937 rng(424242);
  for (int iteration = 0; iteration < 25; ++iteration) {
    ExtendedAutomaton era = SeededDeadStructure(rng, iteration % 2 == 0);
    ControlAlphabet alphabet(era.automaton());
    LrBoundOptions with_strip;
    with_strip.max_lassos = 4096;
    with_strip.max_lasso_length = 4;
    LrBoundOptions without_strip = with_strip;
    without_strip.analyze_and_strip = false;
    auto on = EstimateLrBound(era, alphabet, with_strip);
    auto off = EstimateLrBound(era, alphabet, without_strip);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    // Same reasoning as the emptiness differential: identical length
    // bounds make the aggregates comparable; only budget exhaustion
    // (order-dependent) does not.
    auto budget_limited = [](const SearchStats& s) {
      return s.stop_reason == SearchStopReason::kLassoBudget ||
             s.stop_reason == SearchStopReason::kStepBudget;
    };
    if (budget_limited(on->stats) || budget_limited(off->stats)) continue;
    EXPECT_EQ(on->max_cover, off->max_cover) << "iteration " << iteration;
    EXPECT_EQ(on->growth_detected, off->growth_detected)
        << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace rav
