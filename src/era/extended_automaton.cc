#include "era/extended_automaton.h"

#include <sstream>

namespace rav {

GlobalConstraint MakeGlobalConstraint(RegisterPair regs, bool is_equality,
                                      Dfa dfa, std::string description) {
  GlobalConstraint c{regs.i, regs.j, is_equality, std::move(dfa),
                     std::move(description), /*live=*/{}, /*accepting=*/{},
                     /*loc=*/{}};
  const std::vector<bool> coreachable = c.dfa.CoreachableStates();
  c.live.assign(coreachable.begin(), coreachable.end());
  c.accepting.resize(c.dfa.num_states());
  for (int s = 0; s < c.dfa.num_states(); ++s) {
    c.accepting[s] = c.dfa.IsAccepting(s);
  }
  return c;
}

Status ExtendedAutomaton::AddConstraint(RegisterPair regs, bool is_equality,
                                        const Regex& regex,
                                        std::string description) {
  return AddConstraintDfa(regs, is_equality,
                          regex.ToDfa(automaton_.num_states()),
                          std::move(description));
}

Status ExtendedAutomaton::AddConstraintDfa(RegisterPair regs, bool is_equality,
                                           Dfa dfa, std::string description) {
  const int k = automaton_.num_registers();
  if (regs.i.value() < 0 || regs.i.value() >= k || regs.j.value() < 0 ||
      regs.j.value() >= k) {
    return Status::InvalidArgument("constraint registers out of range");
  }
  if (dfa.alphabet_size() != automaton_.num_states()) {
    return Status::InvalidArgument(
        "constraint DFA alphabet must be the automaton's state set");
  }
  constraints_.push_back(MakeGlobalConstraint(regs, is_equality, std::move(dfa),
                                              std::move(description)));
  return Status::OK();
}

void ExtendedAutomaton::SetConstraintLocation(int index, SourceLocation loc) {
  RAV_CHECK_GE(index, 0);
  RAV_CHECK_LT(index, static_cast<int>(constraints_.size()));
  constraints_[index].loc = loc;
}

Status ExtendedAutomaton::AddConstraintFromText(
    RegisterPair regs, bool is_equality, const std::string& regex_text) {
  auto resolve = [this](const std::string& name) {
    return automaton_.FindState(name).value();
  };
  auto regex = Regex::Parse(regex_text, resolve);
  if (!regex.ok()) return regex.status();
  return AddConstraint(regs, is_equality, regex.value(), regex_text);
}

int ExtendedAutomaton::MaxConstraintDfaStates() const {
  int max_states = 0;
  for (const GlobalConstraint& c : constraints_) {
    max_states = std::max(max_states, c.dfa.num_states());
  }
  return max_states;
}

std::string ExtendedAutomaton::ToString() const {
  std::ostringstream out;
  out << automaton_.ToString();
  for (const GlobalConstraint& c : constraints_) {
    out << "  constraint e" << (c.is_equality ? "=" : "≠") << "["
        << (c.i.value() + 1) << "," << (c.j.value() + 1) << "]";
    if (!c.description.empty()) out << " : " << c.description;
    out << " (dfa " << c.dfa.num_states() << " states)\n";
  }
  return out.str();
}

}  // namespace rav
