#ifndef RAV_RA_CONTROL_H_
#define RAV_RA_CONTROL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "automata/nba.h"
#include "compile/guard_tables.h"
#include "ra/register_automaton.h"
#include "ra/run.h"

namespace rav {

// The finite alphabet of control symbols (q, δ) of a register automaton:
// one symbol per distinct (source state, guard) pair occurring in Δ.
// Control traces and symbolic control traces are ω-words over this
// alphabet.
//
// Building the alphabet is also where the guard compilation layer hooks
// in (docs/compilation.md): every distinct guard is lowered once into a
// compile::GuardTableSet that the closure engine, the run validators, and
// the simulators all share.
class ControlAlphabet {
 public:
  explicit ControlAlphabet(const RegisterAutomaton& automaton);

  int size() const { return static_cast<int>(symbols_.size()); }
  // The dense symbol id space, iterable: `for (SymbolId s : a.Symbols())`.
  IdRange<SymbolId> Symbols() const { return IdRange<SymbolId>(size()); }

  StateId state_of(SymbolId symbol) const {
    return symbols_[symbol.value()].state;
  }
  const Type& guard_of(SymbolId symbol) const {
    return tables_.guard(guard_id_of_symbol(symbol));
  }
  // guard_of(symbol) restricted to its x̄-part, precomputed once — the
  // closure engine applies it at every window's last position.
  const Type& x_restricted_guard_of(SymbolId symbol) const {
    return tables_.x_restricted(guard_id_of_symbol(symbol));
  }

  // Symbol of (q, guard), or SymbolId::Invalid().
  SymbolId SymbolOf(StateId q, const Type& guard) const;
  // Symbol induced by a transition (its source state and guard).
  SymbolId SymbolOfTransition(int transition_index) const {
    return transition_symbol_[transition_index];
  }

  // --- compiled guard tables ---
  const compile::GuardTableSet& tables() const { return tables_; }
  // Dense table id of a symbol's guard.
  GuardId guard_id_of_symbol(SymbolId symbol) const {
    return symbols_[symbol.value()].guard;
  }
  // Table id for the closure engine's per-position replay, or
  // GuardId::Invalid() when the symbol's full-guard / x̄-restricted
  // program is empty — the skip the hot closure loop takes with one dense
  // load.
  GuardId closure_program_of_symbol(SymbolId symbol) const {
    return symbols_[symbol.value()].closure_program;
  }
  GuardId x_closure_program_of_symbol(SymbolId symbol) const {
    return symbols_[symbol.value()].x_closure_program;
  }
  // Borrowed view over the owning automaton's transitions. Valid as long
  // as this alphabet is alive and unmoved.
  compile::TransitionGuardView transition_guard_view() const {
    return {&tables_, transition_guard_id_.data()};
  }
  int num_distinct_guards() const { return tables_.num_guards(); }
  size_t guard_table_bytes() const { return tables_.table_bytes(); }

  std::string SymbolName(const RegisterAutomaton& automaton,
                         SymbolId symbol) const;

 private:
  struct Symbol {
    StateId state;
    GuardId guard;
    GuardId closure_program;    // Invalid() if the program is empty
    GuardId x_closure_program;  // Invalid() if the program is empty
  };

  compile::GuardTableSet tables_;
  std::vector<GuardId> transition_guard_id_;  // transition -> table id
  std::vector<SymbolId> transition_symbol_;
  std::vector<Symbol> symbols_;
};

// Builds the Büchi automaton recognizing SControl(A), the symbolic control
// traces of A (Section 2): ω-words (q_n, δ_n) with q_0 initial, a final
// state occurring infinitely often, (q_n, δ_n, q_{n+1}) ∈ Δ, and
// consecutive types agreeing on the shared registers (frontier
// compatibility). By the result of [19] (re-proved constructively in
// Theorem 9), for complete automata SControl(A) = Control(A).
//
// NBA state (q, prev) — prev the symbol just read, -1 before the first —
// has id q·(|Σ|+1) + prev + 1. Edges leave only (q, -1) and the pairs
// some transition enters, so the states no run reaches have none.
Nba BuildSControlNba(const RegisterAutomaton& automaton,
                     const ControlAlphabet& alphabet);

// Control word (sequence of control symbols) of a finite run.
std::vector<int> ControlWordOfRun(const RegisterAutomaton& automaton,
                                  const ControlAlphabet& alphabet,
                                  const FiniteRun& run);

// Control word of a lasso run, as a lasso over control symbols.
LassoWord ControlWordOfLassoRun(const RegisterAutomaton& automaton,
                                const ControlAlphabet& alphabet,
                                const LassoRun& run);

}  // namespace rav

#endif  // RAV_RA_CONTROL_H_
