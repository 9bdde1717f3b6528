#include "ra/run.h"

#include <algorithm>
#include <sstream>

namespace rav {

namespace {

std::string TupleToString(const ValueTuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(t[i]);
  }
  out += ")";
  return out;
}

// Concatenates the two adjacent value tuples into the x̄·ȳ valuation a
// transition guard is evaluated on.
ValueTuple JoinXy(const ValueTuple& x, const ValueTuple& y) {
  ValueTuple xy;
  xy.reserve(x.size() + y.size());
  xy.insert(xy.end(), x.begin(), x.end());
  xy.insert(xy.end(), y.begin(), y.end());
  return xy;
}

}  // namespace

std::string FiniteRun::ToString(const RegisterAutomaton& automaton) const {
  std::ostringstream out;
  for (size_t n = 0; n < length(); ++n) {
    if (n > 0) out << " ";
    out << "(" << TupleToString(values[n]) << ","
        << automaton.state_name(states[n]) << ")";
  }
  return out.str();
}

std::vector<ValueTuple> LassoRun::PrefixValues() const {
  return std::vector<ValueTuple>(spine.values.begin(),
                                 spine.values.begin() + cycle_start);
}

std::vector<ValueTuple> LassoRun::CycleValues() const {
  return std::vector<ValueTuple>(spine.values.begin() + cycle_start,
                                 spine.values.end());
}

const ValueTuple& LassoRun::ValuesAt(size_t n) const {
  if (n < spine.length()) return spine.values[n];
  size_t p = period();
  RAV_CHECK_GE(p, 1u);
  return spine.values[cycle_start + (n - cycle_start) % p];
}

StateId LassoRun::StateAt(size_t n) const {
  if (n < spine.length()) return spine.states[n];
  size_t p = period();
  return spine.states[cycle_start + (n - cycle_start) % p];
}

int LassoRun::TransitionAt(size_t n) const {
  // The wrap transition fires from the last spine position back to
  // cycle_start; every other position fires its spine transition.
  size_t canonical =
      n < spine.length() ? n : cycle_start + (n - cycle_start) % period();
  if (canonical == spine.length() - 1) return wrap_transition_index;
  return spine.transition_indices[canonical];
}

std::string LassoRun::ToString(const RegisterAutomaton& automaton) const {
  std::ostringstream out;
  for (size_t n = 0; n < spine.length(); ++n) {
    if (n == cycle_start) out << "[";
    out << "(" << TupleToString(spine.values[n]) << ","
        << automaton.state_name(spine.states[n]) << ")";
    if (n + 1 < spine.length()) out << " ";
  }
  out << "]^ω";
  return out.str();
}

namespace {

// Compiled-engine guard pass: positions [0, limit) have valid wiring;
// batch them per distinct guard, lay each batch out SoA, and evaluate
// every batch in one EvalBatch call. Returns the first position whose
// guard fails, or -1. Equivalent to checking positions in order because
// the first guard failure is the minimum failing position across groups.
ptrdiff_t FirstGuardFailure(const RegisterAutomaton& automaton,
                            const Database& db, const FiniteRun& run,
                            size_t limit,
                            const rav::compile::TransitionGuardView& guards,
                            rav::compile::GuardStats* stats) {
  const int k = automaton.num_registers();
  const int two_k = 2 * k;
  // Bucket positions by guard id.
  std::vector<std::vector<int>> positions_of(guards.tables->num_guards());
  for (size_t n = 0; n < limit; ++n) {
    positions_of[guards.guard_id_of_transition[run.transition_indices[n]]
                     .value()]
        .push_back(static_cast<int>(n));
  }
  ptrdiff_t first_fail = -1;
  std::vector<DataValue> soa;
  std::vector<unsigned char> ok;
  for (int gid = 0; gid < guards.tables->num_guards(); ++gid) {
    const std::vector<int>& positions = positions_of[gid];
    if (positions.empty()) continue;
    const size_t count = positions.size();
    soa.resize(static_cast<size_t>(two_k) * count);
    // Element e of candidate i: register e of values[nᵢ] for e < k, else
    // register e-k of values[nᵢ+1] (the guard's x̄·ȳ layout).
    for (int e = 0; e < two_k; ++e) {
      DataValue* row = soa.data() + static_cast<size_t>(e) * count;
      for (size_t i = 0; i < count; ++i) {
        const size_t n = static_cast<size_t>(positions[i]);
        row[i] = e < k ? run.values[n][e] : run.values[n + 1][e - k];
      }
    }
    ok.assign(count, 1);
    guards.tables->EvalBatch(GuardId(gid), soa.data(), count, db, ok.data(),
                             stats);
    for (size_t i = 0; i < count; ++i) {
      if (!ok[i] && (first_fail < 0 || positions[i] < first_fail)) {
        first_fail = positions[i];
      }
    }
  }
  return first_fail;
}

}  // namespace

Status ValidateRunPrefix(const RegisterAutomaton& automaton,
                         const Database& db, const FiniteRun& run,
                         bool require_initial,
                         const compile::TransitionGuardView& guards,
                         compile::GuardStats* guard_stats) {
  const size_t len = run.length();
  if (run.states.size() != len) {
    return Status::InvalidArgument("run: states/values length mismatch");
  }
  if (len == 0) return Status::InvalidArgument("run: empty");
  if (run.transition_indices.size() + 1 != len) {
    return Status::InvalidArgument("run: transition count must be length-1");
  }
  for (size_t n = 0; n < len; ++n) {
    if (static_cast<int>(run.values[n].size()) != automaton.num_registers()) {
      return Status::InvalidArgument("run: bad value-tuple arity at position " +
                                     std::to_string(n));
    }
  }
  if (require_initial && !automaton.IsInitial(run.states[0])) {
    return Status::InvalidArgument("run: first state is not initial");
  }
  if (guards) {
    // Wiring first: the first wiring error bounds how far guards are
    // checked, so the reported violation matches the interleaved order
    // of the reference loop below.
    size_t limit = len - 1;
    Status wiring_error = Status::OK();
    for (size_t n = 0; n + 1 < len; ++n) {
      int ti = run.transition_indices[n];
      if (ti < 0 || ti >= automaton.num_transitions()) {
        wiring_error = Status::InvalidArgument("run: bad transition index at " +
                                               std::to_string(n));
        limit = n;
        break;
      }
      const RaTransition& t = automaton.transition(ti);
      if (t.from != run.states[n] || t.to != run.states[n + 1]) {
        wiring_error = Status::InvalidArgument(
            "run: transition endpoints mismatch at " + std::to_string(n));
        limit = n;
        break;
      }
    }
    ptrdiff_t fail =
        FirstGuardFailure(automaton, db, run, limit, guards, guard_stats);
    if (fail >= 0) {
      return Status::InvalidArgument("run: guard violated at position " +
                                     std::to_string(fail));
    }
    return wiring_error;
  }
  for (size_t n = 0; n + 1 < len; ++n) {
    int ti = run.transition_indices[n];
    if (ti < 0 || ti >= automaton.num_transitions()) {
      return Status::InvalidArgument("run: bad transition index at " +
                                     std::to_string(n));
    }
    const RaTransition& t = automaton.transition(ti);
    if (t.from != run.states[n] || t.to != run.states[n + 1]) {
      return Status::InvalidArgument("run: transition endpoints mismatch at " +
                                     std::to_string(n));
    }
    if (!t.guard.HoldsIn(db, JoinXy(run.values[n], run.values[n + 1]))) {
      return Status::InvalidArgument("run: guard violated at position " +
                                     std::to_string(n));
    }
  }
  return Status::OK();
}

Status ValidateLassoRun(const RegisterAutomaton& automaton, const Database& db,
                        const LassoRun& run,
                        const compile::TransitionGuardView& guards,
                        compile::GuardStats* guard_stats) {
  RAV_RETURN_IF_ERROR(ValidateRunPrefix(automaton, db, run.spine,
                                        /*require_initial=*/true, guards,
                                        guard_stats));
  if (run.cycle_start >= run.spine.length()) {
    return Status::InvalidArgument("lasso: cycle_start beyond spine");
  }
  int ti = run.wrap_transition_index;
  if (ti < 0 || ti >= automaton.num_transitions()) {
    return Status::InvalidArgument("lasso: bad wrap transition index");
  }
  const RaTransition& t = automaton.transition(ti);
  StateId last = run.spine.states.back();
  StateId first = run.spine.states[run.cycle_start];
  if (t.from != last || t.to != first) {
    return Status::InvalidArgument("lasso: wrap transition endpoints mismatch");
  }
  const ValueTuple wrap_xy =
      JoinXy(run.spine.values.back(), run.spine.values[run.cycle_start]);
  const bool wrap_holds =
      guards ? guards.tables->Holds(guards.guard_id_of_transition[ti],
                                    wrap_xy.data(), db, guard_stats)
             : t.guard.HoldsIn(db, wrap_xy);
  if (!wrap_holds) {
    return Status::InvalidArgument("lasso: wrap guard violated");
  }
  bool final_in_cycle = false;
  for (size_t n = run.cycle_start; n < run.spine.length(); ++n) {
    final_in_cycle = final_in_cycle || automaton.IsFinal(run.spine.states[n]);
  }
  if (!final_in_cycle) {
    return Status::InvalidArgument("lasso: no final state in the cycle");
  }
  return Status::OK();
}

FiniteRun RemapNonActiveDomainValues(
    const FiniteRun& run, const Database& db,
    const std::function<DataValue(DataValue)>& map) {
  std::vector<DataValue> adom = db.ActiveDomain();
  auto in_adom = [&](DataValue v) {
    return std::binary_search(adom.begin(), adom.end(), v);
  };
  FiniteRun out = run;
  for (ValueTuple& tuple : out.values) {
    for (DataValue& v : tuple) {
      if (!in_adom(v)) v = map(v);
    }
  }
  return out;
}

std::vector<ValueTuple> ProjectValues(const std::vector<ValueTuple>& values,
                                      int m) {
  std::vector<ValueTuple> out;
  out.reserve(values.size());
  for (const ValueTuple& v : values) {
    RAV_CHECK_LE(static_cast<size_t>(m), v.size());
    out.emplace_back(v.begin(), v.begin() + m);
  }
  return out;
}

}  // namespace rav
