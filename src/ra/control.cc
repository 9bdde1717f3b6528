#include "ra/control.h"

#include <algorithm>

namespace rav {

ControlAlphabet::ControlAlphabet(const RegisterAutomaton& automaton) {
  std::vector<const Type*> guards;
  guards.reserve(automaton.num_transitions());
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    guards.push_back(&automaton.transition(ti).guard);
  }
  tables_ = compile::GuardTableSet::Build(
      guards, automaton.num_registers(), automaton.schema().num_constants(),
      &transition_guard_id_);
  // Guard ids are dedup'd by Type equality, so (state, guard id) pairs
  // number the symbols exactly as (state, guard) pairs would.
  transition_symbol_.resize(automaton.num_transitions());
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const StateId from = automaton.transition(ti).from;
    const GuardId gid = transition_guard_id_[ti];
    SymbolId symbol = SymbolId::Invalid();
    for (size_t s = 0; s < symbols_.size(); ++s) {
      if (symbols_[s].state == from && symbols_[s].guard == gid) {
        symbol = SymbolId(static_cast<int>(s));
        break;
      }
    }
    if (!symbol.valid()) {
      symbol = SymbolId(size());
      symbols_.push_back(
          {from, gid,
           tables_.closure_ops(gid).empty() ? GuardId::Invalid() : gid,
           tables_.x_closure_ops(gid).empty() ? GuardId::Invalid() : gid});
    }
    transition_symbol_[ti] = symbol;
  }
}

SymbolId ControlAlphabet::SymbolOf(StateId q, const Type& guard) const {
  for (SymbolId s : Symbols()) {
    if (state_of(s) == q && guard_of(s) == guard) return s;
  }
  return SymbolId::Invalid();
}

std::string ControlAlphabet::SymbolName(const RegisterAutomaton& automaton,
                                        SymbolId symbol) const {
  return "(" + automaton.state_name(state_of(symbol)) + ", δ" +
         std::to_string(symbol.value()) + ")";
}

Nba BuildSControlNba(const RegisterAutomaton& automaton,
                     const ControlAlphabet& alphabet) {
  const int num_symbols = alphabet.size();

  // NBA states: (automaton state, previous symbol or -1),
  // id = q * (num_symbols + 1) + (prev + 1).
  Nba nba(num_symbols);
  const int width = num_symbols + 1;
  for (StateId q : automaton.States()) {
    for (int p = 0; p < width; ++p) {
      int id = nba.AddState();
      RAV_CHECK_EQ(id, q.value() * width + p);
      if (automaton.IsFinal(q)) nba.SetAccepting(id);
    }
  }
  // A symbol may follow `prev` only if their frontiers are compatible:
  // δ_prev|ȳ consistent with δ|x̄. For complete automata this coincides
  // with the paper's condition (iii) (isomorphic restrictions: two
  // complete equality types are conjoinable iff equal); for incomplete
  // automata consistency is the sound over-approximation the bounded
  // searches need. Symbols sharing a guard share the memo's answer, so
  // each distinct-guard pair is decided once.
  //
  // Edges leave only the states a run can enter: (q, -1), and (q, prev)
  // where some transition reading prev enters q. No run reaches any other
  // (q, prev), so its edges could never be taken. Ids and the order of a
  // reachable state's edges (by transition) do not depend on the filter.
  std::vector<std::vector<int>> entering(automaton.num_states(), {-1});
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    entering[automaton.transition(ti).to.value()].push_back(
        alphabet.SymbolOfTransition(ti).value());
  }
  for (std::vector<int>& prevs : entering) {
    std::sort(prevs.begin(), prevs.end());
    prevs.erase(std::unique(prevs.begin(), prevs.end()), prevs.end());
  }
  compile::FrontierCompatibility frontiers(alphabet.tables());
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    const SymbolId symbol = alphabet.SymbolOfTransition(ti);
    const GuardId guard = alphabet.guard_id_of_symbol(symbol);
    for (int prev : entering[t.from.value()]) {
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
    nba.SetInitial(q.value() * width + 0);
  }
  return nba;
}

std::vector<int> ControlWordOfRun(const RegisterAutomaton& automaton,
                                  const ControlAlphabet& alphabet,
                                  const FiniteRun& run) {
  (void)automaton;
  std::vector<int> word;
  word.reserve(run.transition_indices.size());
  for (int ti : run.transition_indices) {
    word.push_back(alphabet.SymbolOfTransition(ti).value());
  }
  return word;
}

LassoWord ControlWordOfLassoRun(const RegisterAutomaton& automaton,
                                const ControlAlphabet& alphabet,
                                const LassoRun& run) {
  (void)automaton;
  LassoWord word;
  for (size_t n = 0; n < run.cycle_start; ++n) {
    word.prefix.push_back(
        alphabet.SymbolOfTransition(run.TransitionAt(n)).value());
  }
  for (size_t n = run.cycle_start; n < run.spine.length(); ++n) {
    word.cycle.push_back(
        alphabet.SymbolOfTransition(run.TransitionAt(n)).value());
  }
  return word;
}

}  // namespace rav
