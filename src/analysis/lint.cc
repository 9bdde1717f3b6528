#include "analysis/lint.h"

#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "compile/guard_tables.h"
#include "types/completion.h"
#include "types/type.h"

namespace rav::analysis {
namespace {

// The guard-level passes (RAV003 frontier checks, RAV007 pair scans) are
// quadratic in the local fan-out; beyond this many transitions they are
// skipped so lint stays cheap enough to run at the top of every decision
// procedure. The structural sweeps (states, constraints) always run.
constexpr int kMaxTransitionsForGuardPasses = 1000;

struct Analysis {
  std::vector<Diagnostic> diagnostics;
  bool has_initial = false;
  bool has_final = false;
  // The governor tripped mid-analysis: diagnostics are a prefix of the
  // full list and liveness flags must not justify stripping.
  bool tripped = false;
  bool degenerate() const { return !has_initial || !has_final; }
  std::vector<bool> live;             // reachable ∧ can reach accepting cycle
  std::vector<bool> drop_transition;  // RAV003-dead or RAV007-duplicate
  std::vector<bool> drop_constraint;  // RAV005-vacuous
};

void Emit(Analysis& analysis, const char* code, Severity severity,
          SourceLocation loc, std::string message) {
  analysis.diagnostics.push_back(
      Diagnostic{code, severity, std::move(message), loc});
}

std::string StateLabel(const RegisterAutomaton& a, StateId q) {
  return "state '" + a.state_name(q) + "'";
}

std::string TransitionLabel(const RegisterAutomaton& a, int ti) {
  const RaTransition& t = a.transition(ti);
  return "transition " + a.state_name(t.from) + " -> " + a.state_name(t.to);
}

std::string ConstraintLabel(const GlobalConstraint& c, int index) {
  std::string label = std::string(c.is_equality ? "equality" : "inequality") +
                      " constraint #" + std::to_string(index + 1);
  if (!c.description.empty()) label += " \"" + c.description + "\"";
  return label;
}

std::string RegisterLabel(int reg) { return "register r" + std::to_string(reg + 1); }

// Forward reachability from the initial states over the control graph.
std::vector<bool> ReachableStates(
    const RegisterAutomaton& a,
    const std::vector<std::vector<StateId>>& succ) {
  std::vector<bool> reachable(a.num_states(), false);
  std::queue<StateId> frontier;
  for (StateId q : a.InitialStates()) {
    reachable[q.value()] = true;
    frontier.push(q);
  }
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop();
    for (StateId q2 : succ[q.value()]) {
      if (!reachable[q2.value()]) {
        reachable[q2.value()] = true;
        frontier.push(q2);
      }
    }
  }
  return reachable;
}

// States whose forward cone contains a final state lying on a cycle —
// the states an accepting infinite run can still pass through.
std::vector<bool> BuchiCoaccepting(
    const RegisterAutomaton& a, const std::vector<std::vector<StateId>>& succ,
    const std::vector<std::vector<StateId>>& pred) {
  const int n = a.num_states();
  std::vector<bool> cycle_final(n, false);
  std::vector<bool> seen(n, false);
  for (StateId f : a.States()) {
    if (!a.IsFinal(f)) continue;
    // Is f reachable from one of its successors?
    std::fill(seen.begin(), seen.end(), false);
    std::queue<StateId> frontier;
    for (StateId q : succ[f.value()]) {
      if (!seen[q.value()]) {
        seen[q.value()] = true;
        frontier.push(q);
      }
    }
    while (!frontier.empty() && !seen[f.value()]) {
      StateId q = frontier.front();
      frontier.pop();
      for (StateId q2 : succ[q.value()]) {
        if (!seen[q2.value()]) {
          seen[q2.value()] = true;
          frontier.push(q2);
        }
      }
    }
    cycle_final[f.value()] = seen[f.value()];
  }
  std::vector<bool> coaccepting(n, false);
  std::queue<StateId> frontier;
  for (StateId f : a.States()) {
    if (cycle_final[f.value()]) {
      coaccepting[f.value()] = true;
      frontier.push(f);
    }
  }
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop();
    for (StateId q2 : pred[q.value()]) {
      if (!coaccepting[q2.value()]) {
        coaccepting[q2.value()] = true;
        frontier.push(q2);
      }
    }
  }
  return coaccepting;
}

// True iff `dfa` (alphabet = control states) accepts the state trace of
// some nonempty factor of a path through live states. Paths through the
// plain edge relation over-approximate run factors, so a negative answer
// proves the constraint vacuous (RAV005) while a positive one proves
// nothing — exactly the sound direction.
bool MatchRealizable(const Dfa& dfa,
                     const std::vector<std::vector<StateId>>& succ,
                     const std::vector<bool>& live) {
  const int num_control = static_cast<int>(live.size());
  if (num_control == 0) return false;
  std::vector<bool> seen(
      static_cast<size_t>(dfa.num_states()) * num_control, false);
  std::queue<int> frontier;  // node = d * num_control + q (q last consumed)
  bool accepted = false;
  auto visit = [&](int d, int q) {
    const size_t node = static_cast<size_t>(d) * num_control + q;
    if (seen[node]) return;
    seen[node] = true;
    frontier.push(static_cast<int>(node));
    if (dfa.IsAccepting(d)) accepted = true;
  };
  for (int q = 0; q < num_control && !accepted; ++q) {
    if (live[q]) visit(dfa.Next(dfa.initial(), q), q);
  }
  while (!frontier.empty() && !accepted) {
    const int node = frontier.front();
    frontier.pop();
    const int d = node / num_control;
    const int q = node % num_control;
    for (StateId q2 : succ[q]) {
      if (live[q2.value()]) {
        visit(dfa.Next(d, q2.value()), q2.value());
        if (accepted) break;
      }
    }
  }
  return accepted;
}

// True iff the DFA accepts the one-letter word `q` — a single-position
// constraint window anchored at state q.
bool AcceptsSinglePosition(const Dfa& dfa, int q) {
  return dfa.IsAccepting(dfa.Next(dfa.initial(), q));
}

void CheckSchemaAtoms(const RegisterAutomaton& a, Analysis& analysis) {
  const Schema& schema = a.schema();
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    for (const TypeAtom& atom : a.transition(ti).guard.atoms()) {
      if (atom.relation < 0 || atom.relation >= schema.num_relations()) {
        Emit(analysis, "RAV008", Severity::kError, a.transition_location(ti),
             TransitionLabel(a, ti) + ": guard atom references unknown " +
                 "relation id " + std::to_string(atom.relation));
      } else if (static_cast<int>(atom.args.size()) !=
                 schema.arity(atom.relation)) {
        Emit(analysis, "RAV008", Severity::kError, a.transition_location(ti),
             TransitionLabel(a, ti) + ": guard atom for relation '" +
                 schema.relation_name(atom.relation) + "' has " +
                 std::to_string(atom.args.size()) + " argument(s), expected " +
                 std::to_string(schema.arity(atom.relation)));
      }
    }
  }
}

void CheckRegisters(const RegisterAutomaton& a,
                    const std::vector<GlobalConstraint>* constraints,
                    Analysis& analysis) {
  const int k = a.num_registers();
  std::vector<bool> read_x(k, false);   // x̄ copy constrained by some guard
  std::vector<bool> written_y(k, false);  // ȳ copy constrained by some guard
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const Type& g = a.transition(ti).guard;
    std::vector<int> class_size(g.num_classes(), 0);
    for (int e = 0; e < g.num_elements(); ++e) class_size[g.ClassOf(e)]++;
    std::vector<bool> constrained(g.num_classes(), false);
    for (int c = 0; c < g.num_classes(); ++c) {
      if (class_size[c] >= 2) constrained[c] = true;
    }
    for (const auto& [ca, cb] : g.disequalities()) {
      constrained[ca] = true;
      constrained[cb] = true;
    }
    for (const TypeAtom& atom : g.atoms()) {
      for (int c : atom.args) constrained[c] = true;
    }
    for (int r = 0; r < k; ++r) {
      if (constrained[g.ClassOf(r)]) read_x[r] = true;
      if (constrained[g.ClassOf(k + r)]) written_y[r] = true;
    }
  }
  std::vector<bool> in_constraint(k, false);
  if (constraints != nullptr) {
    for (const GlobalConstraint& c : *constraints) {
      in_constraint[c.i.value()] = true;
      in_constraint[c.j.value()] = true;
    }
  }
  for (int r = 0; r < k; ++r) {
    if (!read_x[r] && !written_y[r] && !in_constraint[r]) {
      Emit(analysis, "RAV004", Severity::kWarning, SourceLocation{},
           RegisterLabel(r) +
               " is never mentioned by any guard or global constraint "
               "(dead register; hiding it under projection changes nothing)");
    } else if (!read_x[r] && !in_constraint[r]) {
      Emit(analysis, "RAV004", Severity::kWarning, SourceLocation{},
           RegisterLabel(r) +
               " is written but never read: guards constrain only its ȳ copy "
               "and no global constraint mentions it");
    }
  }
}

void CheckTransitions(const RegisterAutomaton& a, Analysis& analysis) {
  const int k = a.num_registers();
  const int num_transitions = a.num_transitions();
  if (num_transitions > kMaxTransitionsForGuardPasses) {
    RAV_METRIC_COUNT("analysis/lint/guard_passes_skipped", 1);
    return;
  }
  // Completed automata reuse a handful of complete types across all
  // transitions, so every guard-level computation below (frontier
  // restrictions, pairwise Conjoins) is deduplicated to distinct guards
  // and memoized per distinct-guard pair — this keeps the pass cheap
  // enough to run at the top of every decision procedure. The dedup and
  // the x̄/ȳ restrictions are the compile layer's GuardTableSet — the
  // same representation the closure engine and the alphabet build — so
  // lint+strip and the decision procedures share one lowering.
  std::vector<const Type*> transition_guards;
  transition_guards.reserve(num_transitions);
  for (int ti = 0; ti < num_transitions; ++ti) {
    transition_guards.push_back(&a.transition(ti).guard);
  }
  std::vector<GuardId> guard_id;
  const compile::GuardTableSet tables = compile::GuardTableSet::Build(
      transition_guards, k, a.schema().num_constants(), &guard_id);
  const int num_guards = tables.num_guards();
  const int n = a.num_states();
  std::vector<std::vector<int>> out_live(n);
  std::vector<std::vector<int>> in_live(n);
  for (int ti = 0; ti < num_transitions; ++ti) {
    const RaTransition& t = a.transition(ti);
    if (analysis.live[t.from.value()] && analysis.live[t.to.value()]) {
      out_live[t.from.value()].push_back(ti);
      in_live[t.to.value()].push_back(ti);
    }
  }
  compile::FrontierCompatibility frontiers(tables);
  auto compatible = [&](int before, int after) {
    return frontiers.Compatible(guard_id[before], guard_id[after]);
  };
  std::vector<int8_t> completion_memo(num_guards, -1);
  auto has_completion = [&](int ti) {
    int8_t& memo = completion_memo[guard_id[ti].value()];
    if (memo < 0) {
      memo = EnumerateEqualityCompletions(a.transition(ti).guard,
                                          [](const Type&) { return false; }) >
                     0
                 ? 1
                 : 0;
    }
    return memo == 1;
  };
  // RAV003: a transition both of whose endpoints are live, but that still
  // cannot sit on any infinite run because its frontier is incompatible
  // with every neighbour (or its guard admits no complete extension).
  for (int ti = 0; ti < num_transitions; ++ti) {
    const RaTransition& t = a.transition(ti);
    if (!analysis.live[t.from.value()] || !analysis.live[t.to.value()]) {
      continue;
    }
    bool can_continue = false;
    for (int tj : out_live[t.to.value()]) {
      if (compatible(ti, tj)) {
        can_continue = true;
        break;
      }
    }
    bool can_enter = a.IsInitial(t.from);
    if (!can_enter) {
      for (int tj : in_live[t.from.value()]) {
        if (compatible(tj, ti)) {
          can_enter = true;
          break;
        }
      }
    }
    if (!can_continue) {
      Emit(analysis, "RAV003", Severity::kWarning, a.transition_location(ti),
           TransitionLabel(a, ti) +
               " can never fire on an infinite run: its ȳ-frontier is "
               "incompatible with every outgoing guard of '" +
               a.state_name(t.to) + "'");
      analysis.drop_transition[ti] = true;
    } else if (!can_enter) {
      Emit(analysis, "RAV003", Severity::kWarning, a.transition_location(ti),
           TransitionLabel(a, ti) + " can never fire: '" +
               a.state_name(t.from) +
               "' is not initial and the x̄-frontier is incompatible with "
               "every live guard entering it");
      analysis.drop_transition[ti] = true;
    } else if (!has_completion(ti)) {
      // Defensive: Types are satisfiable by construction, so a completion
      // always exists; kept as a backstop for hand-built guards.
      Emit(analysis, "RAV003", Severity::kWarning, a.transition_location(ti),
           TransitionLabel(a, ti) +
               " can never fire: its guard admits no complete extension");
      analysis.drop_transition[ti] = true;
    }
  }
  // RAV007: duplicate / subsumed transitions between the same endpoints.
  // 0 = unrelated, 1 = second subsumed, 2 = first subsumed.
  std::vector<int8_t> subsume_memo(
      static_cast<size_t>(num_guards) * num_guards, -1);
  for (StateId s : a.States()) {
    const std::vector<int>& out = a.TransitionsFrom(s);
    for (size_t bi = 0; bi < out.size(); ++bi) {
      const int tb = out[bi];
      if (analysis.drop_transition[tb]) continue;
      const RaTransition& b = a.transition(tb);
      for (size_t ai = 0; ai < bi; ++ai) {
        const int ta = out[ai];
        if (analysis.drop_transition[ta]) continue;
        const RaTransition& t = a.transition(ta);
        if (t.to != b.to) continue;
        if (guard_id[ta] == guard_id[tb]) {
          Emit(analysis, "RAV007", Severity::kWarning,
               a.transition_location(tb),
               "duplicate " + TransitionLabel(a, tb) +
                   ": an identical transition (same endpoints and guard) "
                   "appears earlier");
          analysis.drop_transition[tb] = true;
          break;
        }
        int8_t& sub =
            subsume_memo[static_cast<size_t>(guard_id[ta].value()) *
                             num_guards +
                         guard_id[tb].value()];
        if (sub < 0) {
          auto conj = t.guard.Conjoin(b.guard);
          sub = 0;
          if (conj.ok()) {
            if (conj.value() == b.guard) sub = 1;
            if (conj.value() == t.guard) sub = 2;
          }
        }
        if (sub == 0) continue;
        if (sub == 1) {
          Emit(analysis, "RAV007", Severity::kNote, a.transition_location(tb),
               TransitionLabel(a, tb) +
                   " is subsumed by an earlier transition with the same "
                   "endpoints and a weaker guard");
          break;
        }
        if (sub == 2) {
          Emit(analysis, "RAV007", Severity::kNote, a.transition_location(ta),
               TransitionLabel(a, ta) +
                   " is subsumed by a later transition with the same "
                   "endpoints and a weaker guard");
        }
      }
    }
  }
}

void CheckConstraints(const RegisterAutomaton& a,
                      const std::vector<GlobalConstraint>& constraints,
                      const std::vector<std::vector<StateId>>& succ,
                      Analysis& analysis) {
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const GlobalConstraint& c = constraints[ci];
    if (!c.is_equality && c.i == c.j) {
      // A single-position window forces d_n[i] ≠ d_n[i].
      bool contradictory = false;
      for (StateId q : a.States()) {
        if (contradictory) break;
        if (analysis.live[q.value()] &&
            AcceptsSinglePosition(c.dfa, q.value())) {
          Emit(analysis, "RAV006", Severity::kError, c.loc,
               ConstraintLabel(c, static_cast<int>(ci)) +
                   " is contradictory: it matches the single-position window "
                   "at state '" +
                   a.state_name(q) + "', forcing d[" +
                   std::to_string(c.i.value() + 1) + "] ≠ d[" +
                   std::to_string(c.i.value() + 1) + "] at one position");
          contradictory = true;
        }
      }
      if (contradictory) continue;
    }
    if (c.dfa.IsEmptyLanguage()) {
      Emit(analysis, "RAV005", Severity::kWarning, c.loc,
           ConstraintLabel(c, static_cast<int>(ci)) +
               " never applies: its regular expression denotes the empty "
               "language");
      analysis.drop_constraint[ci] = true;
    } else if (!MatchRealizable(c.dfa, succ, analysis.live)) {
      Emit(analysis, "RAV005", Severity::kWarning, c.loc,
           ConstraintLabel(c, static_cast<int>(ci)) +
               " never applies: no factor of any live control path matches "
               "its regular expression");
      analysis.drop_constraint[ci] = true;
    }
  }
}

// The flow-sensitive passes (analysis/dataflow.h): RAV011 register
// liveness, RAV012 whole-graph fireability, RAV013 refined Büchi
// liveness. Runs after the local passes so drop_transition marks from
// RAV003/RAV007 are already in place (a transition gets at most one
// dropping diagnostic), and refines analysis.live in place so the
// constraint pass and the strip both see the refined structure.
void RunFlowPasses(const RegisterAutomaton& a,
                   const std::vector<GlobalConstraint>* constraints,
                   Analysis& analysis) {
  if (a.num_transitions() > kMaxTransitionsForGuardPasses) {
    RAV_METRIC_COUNT("analysis/dataflow/skipped", 1);
    return;
  }
  const FlowAnalysisResult flow =
      RunFlowAnalyses(a, constraints, analysis.live);
  for (int r = 0; r < a.num_registers(); ++r) {
    if (!flow.register_flow_dead[r]) continue;
    // Advisory only: the writes constrain the data word, so removing
    // them would change the language even though their values die.
    Emit(analysis, "RAV011", Severity::kNote, SourceLocation{},
         RegisterLabel(r) + " is flow-dead: every write (" +
             std::to_string(flow.dead_writes[r]) +
             " live writing transition(s)) is overwritten before any read "
             "on every path to an accepting cycle");
  }
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    if (!analysis.live[t.from.value()] || !analysis.live[t.to.value()] ||
        analysis.drop_transition[ti]) {
      continue;
    }
    if (flow.unsatisfiable[ti]) {
      Emit(analysis, "RAV012", Severity::kWarning, a.transition_location(ti),
           TransitionLabel(a, ti) +
               " is statically unsatisfiable: every guard frontier that can "
               "arrive at '" +
               a.state_name(t.from) +
               "' from the initial states contradicts its guard");
      analysis.drop_transition[ti] = true;
    } else if (!flow.refined_transition_live[ti]) {
      Emit(analysis, "RAV013", Severity::kWarning, a.transition_location(ti),
           TransitionLabel(a, ti) +
               " is flow-dead: with unsatisfiable transitions removed it "
               "lies on no path from an initial state to an accepting "
               "cycle");
      analysis.drop_transition[ti] = true;
    }
  }
  for (StateId q : a.States()) {
    if (analysis.live[q.value()] && !flow.refined_state_live[q.value()]) {
      Emit(analysis, "RAV013", Severity::kWarning, a.state_location(q),
           StateLabel(a, q) +
               " is flow-dead: with unsatisfiable transitions removed it "
               "lies on no path from an initial state to an accepting "
               "cycle");
      analysis.live[q.value()] = false;
    }
  }
}

Analysis Analyze(const RegisterAutomaton& a,
                 const std::vector<GlobalConstraint>* constraints,
                 bool guard_passes = true, bool flow_passes = true,
                 const ExecutionGovernor* governor = nullptr) {
  Analysis analysis;
  const int n = a.num_states();
  analysis.live.assign(n, true);
  analysis.drop_transition.assign(a.num_transitions(), false);
  analysis.drop_constraint.assign(constraints ? constraints->size() : 0,
                                  false);
  for (StateId q : a.States()) {
    analysis.has_initial = analysis.has_initial || a.IsInitial(q);
    analysis.has_final = analysis.has_final || a.IsFinal(q);
  }
  if (!analysis.has_initial) {
    Emit(analysis, "RAV009", Severity::kError, SourceLocation{},
         "automaton has no initial state: it has no runs at all");
  }
  if (!analysis.has_final) {
    Emit(analysis, "RAV010", Severity::kWarning, SourceLocation{},
         "automaton has no final state: no run is Büchi-accepting");
  }
  if (guard_passes) CheckSchemaAtoms(a, analysis);
  if (analysis.degenerate()) {
    // Everything downstream of the missing initial/final state would
    // flag every state and constraint; RAV009/RAV010 already say it all.
    if (guard_passes) CheckRegisters(a, constraints, analysis);
    return analysis;
  }
  std::vector<std::vector<StateId>> succ(n);
  std::vector<std::vector<StateId>> pred(n);
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    succ[t.from.value()].push_back(t.to);
    pred[t.to.value()].push_back(t.from);
  }
  const std::vector<bool> reachable = ReachableStates(a, succ);
  const std::vector<bool> coaccepting = BuchiCoaccepting(a, succ, pred);
  for (StateId q : a.States()) {
    analysis.live[q.value()] = reachable[q.value()] && coaccepting[q.value()];
    if (!reachable[q.value()]) {
      Emit(analysis, "RAV001", Severity::kWarning, a.state_location(q),
           StateLabel(a, q) + " is unreachable from the initial states");
    } else if (!coaccepting[q.value()]) {
      Emit(analysis, "RAV002", Severity::kWarning, a.state_location(q),
           StateLabel(a, q) +
               " cannot reach an accepting cycle: no run through it is "
               "Büchi-accepting");
    }
  }
  // Pass boundaries are the governor's safe points: the structural sweep
  // above is linear and always completes; the guard and constraint passes
  // are the expensive ones and are skipped wholesale after a trip, so the
  // diagnostic list is a clean pass prefix.
  analysis.tripped = GovernorCheck(governor) != GovernorTrip::kNone;
  if (!analysis.tripped && guard_passes) {
    CheckTransitions(a, analysis);
    CheckRegisters(a, constraints, analysis);
    analysis.tripped = GovernorCheck(governor) != GovernorTrip::kNone;
  }
  if (!analysis.tripped && flow_passes) {
    RunFlowPasses(a, constraints, analysis);
    analysis.tripped = GovernorCheck(governor) != GovernorTrip::kNone;
  }
  if (!analysis.tripped && constraints != nullptr) {
    CheckConstraints(a, *constraints, succ, analysis);
  }
  if (analysis.tripped) {
    RAV_METRIC_COUNT("analysis/lint/governor_stops", 1);
  }
  return analysis;
}

void CountLint(Analysis& analysis) {
  RAV_METRIC_COUNT("analysis/lint/calls", 1);
  RAV_METRIC_COUNT("analysis/lint/diagnostics", analysis.diagnostics.size());
  // The output contract (lint.h): sorted by (line, column, code) at every
  // public entry point, stably, so pass order never leaks into output.
  SortDiagnostics(analysis.diagnostics);
}

// Copies `dfa` (alphabet = old state set) onto the surviving state
// alphabet. Removed symbols never occur on stripped control paths, so
// dropping their columns preserves every matched factor.
Dfa RemapConstraintDfa(const Dfa& dfa, const std::vector<StateId>& new_id,
                       int kept_states) {
  Dfa remapped(kept_states, dfa.num_states(), dfa.initial());
  for (int d = 0; d < dfa.num_states(); ++d) {
    for (int q = 0; q < static_cast<int>(new_id.size()); ++q) {
      if (new_id[q].valid()) {
        remapped.SetTransition(d, new_id[q].value(), dfa.Next(d, q));
      }
    }
    remapped.SetAccepting(d, dfa.IsAccepting(d));
  }
  return remapped;
}

}  // namespace

std::vector<Diagnostic> Lint(const RegisterAutomaton& automaton,
                             const ExecutionGovernor* governor) {
  Analysis analysis = Analyze(automaton, nullptr, /*guard_passes=*/true,
                              /*flow_passes=*/true, governor);
  CountLint(analysis);
  return std::move(analysis.diagnostics);
}

std::vector<Diagnostic> Lint(const ExtendedAutomaton& era,
                             const ExecutionGovernor* governor) {
  Analysis analysis = Analyze(era.automaton(), &era.constraints(),
                              /*guard_passes=*/true,
                              /*flow_passes=*/true, governor);
  CountLint(analysis);
  return std::move(analysis.diagnostics);
}

std::vector<Diagnostic> Lint(const EnhancedAutomaton& enhanced,
                             const ExecutionGovernor* governor) {
  Analysis analysis =
      Analyze(enhanced.automaton(), &enhanced.equality_constraints(),
              /*guard_passes=*/true, /*flow_passes=*/true, governor);
  for (size_t ci = 0; ci < enhanced.tuple_constraints().size(); ++ci) {
    const TupleInequalityConstraint& c = enhanced.tuple_constraints()[ci];
    if (c.pair_dfa.IsEmptyLanguage()) {
      Emit(analysis, "RAV005", Severity::kWarning, SourceLocation{},
           "tuple inequality constraint #" + std::to_string(ci + 1) +
               " never applies: its pair selector denotes the empty language");
    }
  }
  for (size_t ci = 0; ci < enhanced.finiteness_constraints().size(); ++ci) {
    const FinitenessConstraint& c = enhanced.finiteness_constraints()[ci];
    if (c.selector.IsEmptyLanguage()) {
      Emit(analysis, "RAV005", Severity::kWarning, SourceLocation{},
           "finiteness constraint #" + std::to_string(ci + 1) +
               " selects no positions: its selector denotes the empty "
               "language");
    }
  }
  CountLint(analysis);
  return std::move(analysis.diagnostics);
}

StripResult AnalyzeAndStrip(const ExtendedAutomaton& era, StripEffort effort,
                            const ExecutionGovernor* governor) {
  const RegisterAutomaton& a = era.automaton();
  const bool guard_passes = effort == StripEffort::kFull;
  const bool flow_passes =
      effort == StripEffort::kFull || effort == StripEffort::kFlow;
  Analysis analysis =
      Analyze(a, &era.constraints(), guard_passes, flow_passes, governor);
  CountLint(analysis);
  RAV_METRIC_COUNT("analysis/strip/calls", 1);
  StripResult out{std::nullopt, std::move(analysis.diagnostics), 0, 0, 0};
  if (analysis.degenerate()) return out;
  // A tripped analysis is a prefix; its liveness flags are complete (the
  // structural sweep always runs) but the skipped passes mean the
  // cheapest safe answer is: keep the automaton untouched.
  if (analysis.tripped) return out;

  const int n = a.num_states();
  int kept_states = 0;
  for (StateId q : a.States()) {
    if (analysis.live[q.value()]) ++kept_states;
  }
  // An empty live set means the language is empty; rebuilding a
  // zero-state automaton helps nobody, so leave the input untouched.
  if (kept_states == 0) return out;

  int dropped_transitions = 0;
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    if (!analysis.live[t.from.value()] || !analysis.live[t.to.value()] ||
        analysis.drop_transition[ti]) {
      ++dropped_transitions;
    }
  }
  int dropped_constraints = 0;
  for (bool drop : analysis.drop_constraint) {
    if (drop) ++dropped_constraints;
  }
  if (kept_states == n && dropped_transitions == 0 &&
      dropped_constraints == 0) {
    return out;
  }

  std::vector<StateId> new_id(n);
  RegisterAutomaton stripped(a.num_registers(), a.schema());
  for (StateId q : a.States()) {
    if (!analysis.live[q.value()]) continue;
    new_id[q.value()] = stripped.AddState(a.state_name(q));
    stripped.SetInitial(new_id[q.value()], a.IsInitial(q));
    stripped.SetFinal(new_id[q.value()], a.IsFinal(q));
    stripped.SetStateLocation(new_id[q.value()], a.state_location(q));
  }
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    if (!new_id[t.from.value()].valid() || !new_id[t.to.value()].valid() ||
        analysis.drop_transition[ti]) {
      continue;
    }
    stripped.AddTransition(new_id[t.from.value()], t.guard,
                           new_id[t.to.value()]);
    stripped.SetTransitionLocation(stripped.num_transitions() - 1,
                                   a.transition_location(ti));
  }
  ExtendedAutomaton result(std::move(stripped));
  for (size_t ci = 0; ci < era.constraints().size(); ++ci) {
    if (analysis.drop_constraint[ci]) continue;
    const GlobalConstraint& c = era.constraints()[ci];
    Dfa dfa = kept_states == n ? c.dfa
                               : RemapConstraintDfa(c.dfa, new_id, kept_states);
    Status added = result.AddConstraintDfa(
        RegisterPair{c.i, c.j}, c.is_equality, std::move(dfa), c.description);
    RAV_CHECK(added.ok());
    result.SetConstraintLocation(
        static_cast<int>(result.constraints().size()) - 1, c.loc);
  }
  out.states_removed = n - kept_states;
  out.transitions_removed = dropped_transitions;
  out.constraints_removed = dropped_constraints;
  out.era = std::move(result);
  RAV_METRIC_COUNT("analysis/strip/states_removed", out.states_removed);
  RAV_METRIC_COUNT("analysis/strip/transitions_removed",
                   out.transitions_removed);
  RAV_METRIC_COUNT("analysis/strip/constraints_removed",
                   out.constraints_removed);
  return out;
}

}  // namespace rav::analysis
