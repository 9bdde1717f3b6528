#include "enhanced/enhanced_automaton.h"

#include <set>
#include <sstream>

namespace rav {

Status EnhancedAutomaton::AddEqualityConstraint(RegisterPair regs, Dfa dfa,
                                                std::string description) {
  const int k = automaton_.num_registers();
  if (regs.i.value() < 0 || regs.i.value() >= k || regs.j.value() < 0 ||
      regs.j.value() >= k) {
    return Status::InvalidArgument("equality constraint registers bad");
  }
  if (dfa.alphabet_size() != automaton_.num_states()) {
    return Status::InvalidArgument(
        "equality constraint DFA alphabet must be the state set");
  }
  eq_constraints_.push_back(MakeGlobalConstraint(
      regs, /*is_equality=*/true, std::move(dfa), std::move(description)));
  return Status::OK();
}

void EnhancedAutomaton::SetEqualityConstraintLocation(int index,
                                                      SourceLocation loc) {
  RAV_CHECK_GE(index, 0);
  RAV_CHECK_LT(index, static_cast<int>(eq_constraints_.size()));
  eq_constraints_[index].loc = loc;
}

Status EnhancedAutomaton::AddTupleConstraint(
    TupleInequalityConstraint constraint) {
  const int k = automaton_.num_registers();
  if (constraint.regs_a.size() != constraint.offs_a.size() ||
      constraint.regs_b.size() != constraint.offs_b.size() ||
      constraint.regs_a.size() != constraint.regs_b.size() ||
      constraint.regs_a.empty()) {
    return Status::InvalidArgument("tuple constraint arity mismatch");
  }
  for (int r : constraint.regs_a) {
    if (r < 0 || r >= k) {
      return Status::InvalidArgument("tuple constraint register bad");
    }
  }
  for (int r : constraint.regs_b) {
    if (r < 0 || r >= k) {
      return Status::InvalidArgument("tuple constraint register bad");
    }
  }
  if (constraint.pair_dfa.alphabet_size() != automaton_.num_states()) {
    return Status::InvalidArgument(
        "tuple constraint DFA alphabet must be the state set");
  }
  tuple_constraints_.push_back(std::move(constraint));
  return Status::OK();
}

Status EnhancedAutomaton::AddFinitenessConstraint(
    FinitenessConstraint constraint) {
  if (constraint.reg < 0 || constraint.reg >= automaton_.num_registers()) {
    return Status::InvalidArgument("finiteness constraint register bad");
  }
  if (constraint.selector.alphabet_size() != automaton_.num_states()) {
    return Status::InvalidArgument(
        "finiteness selector alphabet must be the state set");
  }
  finiteness_constraints_.push_back(std::move(constraint));
  return Status::OK();
}

std::string EnhancedAutomaton::ToString() const {
  std::ostringstream out;
  out << automaton_.ToString();
  for (const GlobalConstraint& c : eq_constraints_) {
    out << "  equality e=[" << (c.i.value() + 1) << "," << (c.j.value() + 1)
        << "] "
        << c.description << "\n";
  }
  for (const TupleInequalityConstraint& c : tuple_constraints_) {
    out << "  tuple-ineq arity " << c.arity() << " " << c.description << "\n";
  }
  for (const FinitenessConstraint& c : finiteness_constraints_) {
    out << "  finiteness reg " << (c.reg + 1) << " " << c.description << "\n";
  }
  return out.str();
}

Status CheckEnhancedRunConstraints(const EnhancedAutomaton& enhanced,
                                   const FiniteRun& run) {
  const size_t len = run.length();
  // Equality constraints (same semantics as in extended automata).
  for (const GlobalConstraint& c : enhanced.equality_constraints()) {
    for (size_t n = 0; n < len; ++n) {
      int state = c.dfa.initial();
      for (size_t m = n; m < len; ++m) {
        state = c.dfa.Next(state, run.states[m].value());
        if (!c.dfa.IsAccepting(state)) continue;
        if (run.values[n][c.i.value()] != run.values[m][c.j.value()]) {
          return Status::InvalidArgument(
              "equality constraint violated between positions " +
              std::to_string(n) + " and " + std::to_string(m));
        }
      }
    }
  }
  // Tuple inequality constraints.
  for (const TupleInequalityConstraint& c : enhanced.tuple_constraints()) {
    auto tuple_at = [&](size_t anchor, const std::vector<int>& regs,
                        const std::vector<int>& offs,
                        ValueTuple* out) -> bool {
      out->clear();
      for (size_t t = 0; t < regs.size(); ++t) {
        size_t pos = anchor + static_cast<size_t>(offs[t]);
        if (pos >= len) return false;  // tuple sticks out of the prefix
        out->push_back(run.values[pos][regs[t]]);
      }
      return true;
    };
    ValueTuple ta, tb;
    for (size_t n = 0; n < len; ++n) {
      int state = c.pair_dfa.initial();
      for (size_t m = n; m < len; ++m) {
        state = c.pair_dfa.Next(state, run.states[m].value());
        if (!c.pair_dfa.IsAccepting(state)) continue;
        if (!tuple_at(n, c.regs_a, c.offs_a, &ta)) continue;
        if (!tuple_at(m, c.regs_b, c.offs_b, &tb)) continue;
        if (n == m && c.regs_a == c.regs_b && c.offs_a == c.offs_b) {
          continue;  // a tuple is never required to differ from itself
        }
        if (ta == tb) {
          return Status::InvalidArgument(
              "tuple inequality constraint violated between anchors " +
              std::to_string(n) + " and " + std::to_string(m) +
              (c.description.empty() ? "" : " (" + c.description + ")"));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateEnhancedRunPrefix(const EnhancedAutomaton& enhanced,
                                 const FiniteRun& run, bool require_initial) {
  Database db{enhanced.automaton().schema()};
  RAV_RETURN_IF_ERROR(
      ValidateRunPrefix(enhanced.automaton(), db, run, require_initial));
  return CheckEnhancedRunConstraints(enhanced, run);
}

std::vector<DataValue> SelectedValues(const FinitenessConstraint& constraint,
                                      const FiniteRun& run) {
  std::set<DataValue> values;
  int state = constraint.selector.initial();
  for (size_t h = 0; h < run.length(); ++h) {
    state = constraint.selector.Next(state, run.states[h].value());
    if (constraint.selector.IsAccepting(state)) {
      values.insert(run.values[h][constraint.reg]);
    }
  }
  return std::vector<DataValue>(values.begin(), values.end());
}

}  // namespace rav
