#ifndef RAV_ANALYSIS_LINT_H_
#define RAV_ANALYSIS_LINT_H_

#include <optional>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/governor.h"
#include "enhanced/enhanced_automaton.h"
#include "era/extended_automaton.h"
#include "ra/register_automaton.h"

namespace rav::analysis {

// Static analysis over a parsed automaton. Every pass is a sound
// over-approximation of "cannot matter on any accepting infinite run":
// a finding never claims dead structure that some run uses. The stable
// diagnostic codes (docs/linting.md):
//
//   RAV001  warning  state unreachable from the initial states
//   RAV002  warning  state cannot reach an accepting cycle (Büchi-dead)
//   RAV003  warning  transition can never fire on an accepting run
//                    (frontier-incompatible with every neighbour, or its
//                    guard admits no complete extension)
//   RAV004  warning  dead register (never mentioned, or written-never-read)
//   RAV005  warning  vacuous global constraint (empty regex language, or
//                    no factor of any live control path matches)
//   RAV006  error    contradictory constraint (e≠[i,i] matching a
//                    realizable single-position window)
//   RAV007  warning  duplicate transition; note: subsumed transition
//   RAV008  error    guard atom uses an unknown relation / wrong arity
//   RAV009  error    no initial state
//   RAV010  warning  no final state
//
// Flow-sensitive codes, computed by the fixpoint framework in
// analysis/dataflow.h over the whole control graph (not just adjacent
// transition pairs):
//
//   RAV011  note     register liveness: every write to the register is
//                    dead — overwritten before any read on every path —
//                    yet some guard does read it (so RAV004 stays quiet).
//                    Advisory only; never stripped (removing the write
//                    constraints would change the language).
//   RAV012  warning  statically-unsatisfiable guard: no frontier that can
//                    actually arrive at the source state (propagated
//                    transitively from the initial states) is compatible
//                    with the guard. Strictly stronger than RAV003, which
//                    only checks immediate neighbours.
//   RAV013  warning  reachability-refined Büchi-dead structure: removing
//                    the RAV012 transitions disconnects this transition
//                    (or state) from every accepting cycle.
//
// Diagnostics are computed in pass order (global, states, transitions,
// registers, constraints, flow) and then stably sorted by (line, column,
// code) before being returned from every public entry point, so equal
// inputs produce byte-identical output regardless of pass evolution or
// caller threading. A governor (nullptr = unlimited) is polled at pass
// boundaries; a trip stops further passes and returns the diagnostics
// found so far (a partial list, never a wrong one).
std::vector<Diagnostic> Lint(const RegisterAutomaton& automaton,
                             const ExecutionGovernor* governor = nullptr);
std::vector<Diagnostic> Lint(const ExtendedAutomaton& era,
                             const ExecutionGovernor* governor = nullptr);
std::vector<Diagnostic> Lint(const EnhancedAutomaton& enhanced,
                             const ExecutionGovernor* governor = nullptr);

// Outcome of AnalyzeAndStrip: the (possibly) reduced automaton plus the
// full diagnostic list that justified the reductions.
struct StripResult {
  // Engaged iff anything was stripped: the common clean-spec case pays
  // for the analysis but never for a copy of the automaton.
  std::optional<ExtendedAutomaton> era;
  std::vector<Diagnostic> diagnostics;
  int states_removed = 0;
  int transitions_removed = 0;
  int constraints_removed = 0;
  bool changed() const { return era.has_value(); }
};

// How much analysis AnalyzeAndStrip spends.
enum class StripEffort {
  // Every lint pass runs; diagnostics match Lint(). The strip
  // additionally drops transitions that can never fire and exact
  // duplicates (RAV003 / RAV007-duplicate).
  kFull,
  // Procedure-top mode: only the passes whose findings pay for
  // themselves at microsecond cost — reachability, Büchi-coacceptance,
  // and constraint realizability. The guard-level transition passes are
  // skipped: a dead transition between live states merely makes the
  // closure reject candidates through it, exactly as it would
  // unstripped, so skipping them trades a per-call cost for nothing on
  // the verdict.
  kFast,
  // kFast plus the flow passes of analysis/dataflow.h (RAV012/RAV013):
  // whole-graph fireability through the compiled guard tables, then
  // Büchi liveness refined to the fireable subgraph. Catches
  // self-justifying dead loops the local kFull guard passes cannot,
  // while skipping the quadratic local pairwise passes those run. The
  // decision procedures run at this tier once the automaton clears
  // their transition-count floor (min_flow_strip_transitions in the
  // search options — the flat fixpoint cost is not worth paying on a
  // tiny search).
  kFlow,
};

// Removes structure that provably cannot take part in any accepting
// infinite run: states that are unreachable or Büchi-dead (RAV001/002),
// transitions that can never fire or exactly duplicate an earlier one
// (RAV003 / RAV007-duplicate, kFull only), flow-unsatisfiable and
// flow-dead structure (RAV012/RAV013, kFlow and kFull), and vacuous
// constraints (RAV005). Constraint DFAs are remapped onto the surviving state
// alphabet, and state/transition names, flags, and source locations are
// preserved. The accepted run set — and hence every decision-procedure
// verdict — is unchanged. Degenerate automata (no initial or no final
// state) are never stripped, nor is an automaton whose live state set
// is empty. If the governor trips during analysis, no strip happens (a
// partial analysis must never justify a removal) and the diagnostics
// collected so far are returned.
StripResult AnalyzeAndStrip(const ExtendedAutomaton& era,
                            StripEffort effort = StripEffort::kFull,
                            const ExecutionGovernor* governor = nullptr);

}  // namespace rav::analysis

#endif  // RAV_ANALYSIS_LINT_H_
