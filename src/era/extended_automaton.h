#ifndef RAV_ERA_EXTENDED_AUTOMATON_H_
#define RAV_ERA_EXTENDED_AUTOMATON_H_

#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/regex.h"
#include "base/source_location.h"
#include "base/status.h"
#include "ra/register_automaton.h"

namespace rav {

// The ordered register pair (i, j) of a global constraint e∘ᵢⱼ: i is
// read at the matched window's first position, j at its last. One struct
// instead of two adjacent RegisterId parameters, so call sites name the
// direction (and the swappable-parameters tidy gate stays clean).
struct RegisterPair {
  RegisterId i;  // source register, read at the window start
  RegisterId j;  // target register, read at the window end
};

// One global constraint of an extended automaton (Section 3): a regular
// expression over the states Q together with a pair of registers and a
// polarity. A run (d_n, q_n, δ_n) satisfies e=ᵢⱼ if for all n ≤ m with
// q_n ... q_m ∈ L(e), d_n[i] = d_m[j]; the inequality form e≠ᵢⱼ requires
// d_n[i] ≠ d_m[j] instead.
struct GlobalConstraint {
  RegisterId i;            // source register (0-based)
  RegisterId j;            // target register (0-based)
  bool is_equality = true; // e= vs e≠
  Dfa dfa;                 // compiled over the state alphabet Q
  std::string description; // original regex text, for display
  // Byte tables over the DFA's states, built once by MakeGlobalConstraint
  // and read by every constraint-closure sweep: live[s] iff an accepting
  // state is reachable from s (dfa.CoreachableStates()), so a run entering
  // a dead state is dropped; accepting[s] iff s accepts.
  std::vector<char> live;
  std::vector<char> accepting;
  // Spec-file position of the declaration (io/text_format); invalid for
  // programmatically added constraints.
  SourceLocation loc;
};

// A constraint over `dfa` with its sweep tables built. The only way a
// GlobalConstraint is made (ExtendedAutomaton::AddConstraintDfa,
// EnhancedAutomaton::AddEqualityConstraint).
GlobalConstraint MakeGlobalConstraint(RegisterPair regs, bool is_equality,
                                      Dfa dfa, std::string description);

// An extended register automaton 𝒜 = (A, Σ): a register automaton plus
// global regular (in)equality constraints. Runs of 𝒜 are the runs of A
// satisfying every constraint in Σ.
class ExtendedAutomaton {
 public:
  explicit ExtendedAutomaton(RegisterAutomaton automaton)
      : automaton_(std::move(automaton)) {}

  const RegisterAutomaton& automaton() const { return automaton_; }
  RegisterAutomaton& mutable_automaton() { return automaton_; }

  const std::vector<GlobalConstraint>& constraints() const {
    return constraints_;
  }

  bool has_equality_constraints() const {
    for (const GlobalConstraint& c : constraints_) {
      if (c.is_equality) return true;
    }
    return false;
  }

  // Adds a constraint given as a compiled regex over the automaton's
  // states (alphabet = num_states).
  Status AddConstraint(RegisterPair regs, bool is_equality, const Regex& regex,
                       std::string description = "");
  // Adds a pre-compiled constraint; dfa alphabet must equal num_states.
  Status AddConstraintDfa(RegisterPair regs, bool is_equality, Dfa dfa,
                          std::string description = "");

  // Parses `regex_text` with state names as symbols (see Regex syntax).
  Status AddConstraintFromText(RegisterPair regs, bool is_equality,
                               const std::string& regex_text);

  // Records the spec-file position of constraint `index` (io/text_format).
  void SetConstraintLocation(int index, SourceLocation loc);

  // Largest number of DFA states among the constraints (the |Σ| parameter
  // of the LR-boundedness analysis), 0 if no constraints.
  int MaxConstraintDfaStates() const;

  std::string ToString() const;

 private:
  RegisterAutomaton automaton_;
  std::vector<GlobalConstraint> constraints_;
};

}  // namespace rav

#endif  // RAV_ERA_EXTENDED_AUTOMATON_H_
