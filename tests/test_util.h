#ifndef RAV_TESTS_TEST_UTIL_H_
#define RAV_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <initializer_list>
#include <istream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automata/dfa.h"
#include "automata/regex.h"
#include "base/numbers.h"
#include "era/extended_automaton.h"
#include "ra/register_automaton.h"
#include "relational/schema.h"
#include "types/type.h"

namespace rav::testing {

// Shorthand for literal state sequences in run expectations:
// run.states = StateIds({0, 1, 0}).
inline std::vector<StateId> StateIds(std::initializer_list<int> ids) {
  std::vector<StateId> out;
  out.reserve(ids.size());
  for (int v : ids) out.push_back(StateId(v));
  return out;
}

// Example 1 of the paper: the 2-register automaton with states q1, q2 and
// types δ1 = (x1 = x2 ∧ x2 = y2), δ2 = (x2 = y2),
// δ3 = (x2 = y2 ∧ y1 = y2); transitions (q1,δ1,q2), (q2,δ2,q2),
// (q2,δ3,q1); q1 initial and final; no database.
inline RegisterAutomaton MakeExample1() {
  RegisterAutomaton a(2, Schema());
  StateId q1 = a.AddState("q1");
  StateId q2 = a.AddState("q2");
  a.SetInitial(q1);
  a.SetFinal(q1);

  TypeBuilder d1 = a.NewGuardBuilder();
  d1.AddEq(d1.X(0), d1.X(1)).AddEq(d1.X(1), d1.Y(1));
  TypeBuilder d2 = a.NewGuardBuilder();
  d2.AddEq(d2.X(1), d2.Y(1));
  TypeBuilder d3 = a.NewGuardBuilder();
  d3.AddEq(d3.X(1), d3.Y(1)).AddEq(d3.Y(0), d3.Y(1));

  a.AddTransition(q1, d1.Build().value(), q2);
  a.AddTransition(q2, d2.Build().value(), q2);
  a.AddTransition(q2, d3.Build().value(), q1);
  return a;
}

// Example 5: the 1-register extended automaton capturing the projection of
// Example 1 on register 1: states p1 (initial, final), p2; both transitions
// carry the empty type; constraint e=₁₁ = p1 p2* p1.
inline ExtendedAutomaton MakeExample5() {
  RegisterAutomaton b(1, Schema());
  StateId p1 = b.AddState("p1");
  StateId p2 = b.AddState("p2");
  b.SetInitial(p1);
  b.SetFinal(p1);
  Type empty = b.NewGuardBuilder().Build().value();
  b.AddTransition(p1, empty, p2);
  b.AddTransition(p2, empty, p2);
  b.AddTransition(p2, empty, p1);
  ExtendedAutomaton era(std::move(b));
  Status s = era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                       /*is_equality=*/true, "p1 p2* p1");
  RAV_CHECK(s.ok());
  return era;
}

// Example 7: one register, one state q (initial+final), trivial looping
// transition, and the global constraint that all register values are
// pairwise distinct: e≠₁₁ = q q* (every factor of length >= 2... the
// constraint q+ also relates a position to itself; the paper's intent is
// distinct positions, so we use q q* which still matches the length-1
// factor... to relate *distinct* positions only we use q q+ = factors of
// length >= 2).
inline ExtendedAutomaton MakeAllDistinct() {
  RegisterAutomaton b(1, Schema());
  StateId q = b.AddState("q");
  b.SetInitial(q);
  b.SetFinal(q);
  Type empty = b.NewGuardBuilder().Build().value();
  b.AddTransition(q, empty, q);
  ExtendedAutomaton era(std::move(b));
  Status s = era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                       /*is_equality=*/false, "q q+");
  RAV_CHECK(s.ok());
  return era;
}

// An always-EMPTY spec whose bounded search is slow by construction, for
// tests that need a request reliably in flight: a complete digraph on 8
// final states whose only guard keeps x1 unchanged, and a constraint
// demanding x1 != x1 across every factor of exactly 24 positions. No
// lasso within the default max_lasso_length of 12 holds such a factor as
// written, so every candidate passes the unpumped probe and is refuted
// only on its pumped window: each of the 5,000 default candidates pays a
// full closure (EXPERIMENTS.md E6, BM_EmptinessPumpOnlyContradiction).
// The factor has a fixed length so that each window carries one
// inequality per position, not one per pair of positions: the search
// then takes ~0.3 s in an optimized build and ~12 s under
// ThreadSanitizer, inside the transport tests' 30 s answer timeout.
inline std::string PumpOnlyEmptySpecText() {
  const int n = 8;
  std::string spec = "automaton {\n  registers 1\n";
  for (int s = 0; s < n; ++s) {
    spec += "  state ";
    spec += NumberedName("q", s);
    spec += s == 0 ? " initial final\n" : " final\n";
  }
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      spec += "  transition ";
      spec += NumberedName("q", s);
      spec += " -> ";
      spec += NumberedName("q", t);
      spec += " { x1 = y1 }\n";
    }
  }
  spec += "  constraint neq 1 1 \".";
  for (int i = 1; i < 24; ++i) spec += " .";
  spec += "\"\n}\n";
  return spec;
}

enum class ReadLineStatus {
  kOk,        // *line holds one complete request line (newline stripped)
  kEof,       // stream ended with no further line
  kTooLarge,  // line exceeded max_bytes: buffered prefix discarded, the
              // stream consumed up to (and including) the newline
};

// The reference framing of a JSON-lines request stream, a bounded
// std::getline: never buffers more than `max_bytes` of one line. On
// kTooLarge the rest of the offending line is consumed (not buffered) so
// reading resumes at the next line. A final unterminated line still reads
// as kOk. The serving transport frames its recv/read chunks itself; this
// reader is the oracle its framing is checked against
// (SocketTransportTest.FramingMatchesTheStdioReader) and is fuzzed in
// fuzz_smoke.cc.
inline ReadLineStatus ReadBoundedLine(std::istream& in, std::string* line,
                                      size_t max_bytes) {
  line->clear();
  char ch = 0;
  while (in.get(ch)) {
    if (ch == '\n') return ReadLineStatus::kOk;
    if (line->size() >= max_bytes) {
      line->clear();
      while (in.get(ch) && ch != '\n') {
      }
      return ReadLineStatus::kTooLarge;
    }
    line->push_back(ch);
  }
  return line->empty() ? ReadLineStatus::kEof : ReadLineStatus::kOk;
}

// Success iff `got` and `want` are the same DFA state for state: same
// alphabet, state count, initial state, every transition row and
// accepting set — not merely the same language.
inline ::testing::AssertionResult SameDfa(const Dfa& got, const Dfa& want) {
  if (got.alphabet_size() != want.alphabet_size() ||
      got.num_states() != want.num_states() ||
      got.initial() != want.initial()) {
    return ::testing::AssertionFailure()
           << "shape (alphabet, states, initial): got (" << got.alphabet_size()
           << ", " << got.num_states() << ", " << got.initial() << "), want ("
           << want.alphabet_size() << ", " << want.num_states() << ", "
           << want.initial() << ")";
  }
  for (int q = 0; q < got.num_states(); ++q) {
    if (got.IsAccepting(q) != want.IsAccepting(q)) {
      return ::testing::AssertionFailure() << "acceptance of state " << q;
    }
    for (int s = 0; s < got.alphabet_size(); ++s) {
      if (got.Next(q, s) != want.Next(q, s)) {
        return ::testing::AssertionFailure()
               << "transition (" << q << ", " << s << "): got "
               << got.Next(q, s) << ", want " << want.Next(q, s);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Regex::ToDfa against its oracle, the minimized subset construction.
inline ::testing::AssertionResult ToDfaMatchesOracle(const Regex& regex,
                                                     int alphabet_size) {
  return SameDfa(regex.ToDfa(alphabet_size),
                 regex.ToNfa(alphabet_size).Determinize().Minimize());
}

// Re-parses every constraint of `era` from its description and checks
// ToDfaMatchesOracle over the automaton's states.
inline ::testing::AssertionResult ConstraintDfasMatchOracle(
    const ExtendedAutomaton& era) {
  const RegisterAutomaton& automaton = era.automaton();
  auto resolve = [&](const std::string& name) {
    return automaton.FindState(name).value();
  };
  for (const GlobalConstraint& c : era.constraints()) {
    Result<Regex> regex = Regex::Parse(c.description, resolve);
    if (!regex.ok()) {
      return ::testing::AssertionFailure()
             << "constraint \"" << c.description
             << "\" does not re-parse: " << regex.status().ToString();
    }
    ::testing::AssertionResult same =
        ToDfaMatchesOracle(*regex, automaton.num_states());
    if (!same) return same << " in constraint \"" << c.description << "\"";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace rav::testing

#endif  // RAV_TESTS_TEST_UTIL_H_
