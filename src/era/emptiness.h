#ifndef RAV_ERA_EMPTINESS_H_
#define RAV_ERA_EMPTINESS_H_

#include <optional>

#include "base/status.h"
#include "era/constraint_graph.h"
#include "era/extended_automaton.h"
#include "era/parallel_search.h"
#include "ra/emptiness.h"

namespace rav {

// Node cap of the exact clique computation behind the search's Example 8
// check: with a database, a lasso is rejected when one more cycle of its
// window grows a strictly larger clique in the adom inequality graph (no
// finite database can support the run).
inline constexpr int kAdomCliqueMaxNodes = 64;

// Options of the extended-automaton emptiness search (Corollary 10).
struct EraEmptinessOptions {
  // Bounded lasso enumeration over the SControl NBA.
  size_t max_lasso_length = 12;
  size_t max_lassos = 5000;
  size_t max_search_steps = 500000;
  // Cycle pump count for the constraint-closure window; 0 = automatic
  // (SuggestedPumpCount). A lasso already inconsistent as written
  // (prefix + one cycle) is rejected without being pumped.
  size_t pump = 0;
  // Worker threads for the candidate checks (<= 1 = inline serial, 0 =
  // all hardware threads). Verdict and witness are identical for every
  // setting; only wall time and the checked counts vary.
  int num_workers = kDefaultSearchWorkers;
  // Run analysis::AnalyzeAndStrip first and search the reduced automaton
  // (dead states/transitions and vacuous constraints removed; verdict and
  // witness are unchanged — the witness is remapped back to the caller's
  // alphabet). Metrics appear under analysis/*.
  bool analyze_and_strip = true;
  // The strip runs at StripEffort::kFlow — whole-graph fireability plus
  // refined Büchi liveness — only when the automaton has at least this
  // many transitions; below, it runs at kFast. The flow fixpoint costs
  // microseconds flat, which a small search cannot recoup (EXPERIMENTS.md
  // E24 puts breakeven near a hundred transitions). 0 forces kFlow
  // everywhere (the differential tests do, to exercise the flow strip on
  // small seeded automata).
  int min_flow_strip_transitions = 64;
  // Resource governor (nullptr = unlimited): polled by the lasso engine
  // at every safe point, charged the approximate bytes of each closure a
  // candidate builds, and forwarded into the strip pre-pass. A trip turns
  // the stop reason into deadline/memory-budget/cancelled and makes any
  // negative verdict truncated. Results computed before the trip are
  // preserved.
  const ExecutionGovernor* governor = nullptr;
};

// Outcome of the emptiness search.
struct EraEmptinessResult {
  // A consistency-checked witness lasso was found: the automaton has an
  // infinite accepting run over some finite database.
  bool nonempty = false;
  LassoWord control_word;  // meaningful iff nonempty
  size_t lassos_tried = 0;
  // True iff the answer is negative AND the search stopped on a budget
  // (steps, lasso count, length clipping, a path cut at a state's third
  // visit, or a governor trip — deadline, memory budget, cancellation)
  // rather than after exhausting the bounded search space — the negative
  // answer is then relative to the bound, never definitive. Derived from
  // stats.stop_reason; kept as a field for ergonomic access.
  bool search_truncated = false;
  // Full instrumentation, including the precise stop reason.
  SearchStats stats;
};

// Decides (boundedly) whether the extended automaton has a run over some
// finite database, implementing the lasso-based counterpart of
// Corollary 10: enumerate accepting symbolic control lassos, close each
// under Σ and the local equalities (Theorem 9's ~_w on a pumped window),
// and keep the first one that is consistent and finitely supportable.
// A positive answer carries a validated witness; a negative answer is
// exhaustive up to the enumeration bounds (reported in the result).
// The automaton part must be complete (call Completed() first).
//
// Strips `era` when options.analyze_and_strip asks, builds the SControl
// NBA of what remains, and answers through the overload below.
Result<EraEmptinessResult> CheckEraEmptiness(
    const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
    const EraEmptinessOptions& options = {});

// The same search over a prebuilt `scontrol` =
// BuildSControlNba(era.automaton(), alphabet), so a caller answering many
// queries against one automaton (service::CompiledSpec) builds it once.
// `era` is searched as given: options.analyze_and_strip is not consulted.
Result<EraEmptinessResult> CheckEraEmptiness(
    const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
    const Nba& scontrol, const EraEmptinessOptions& options);

// The search core shared by emptiness and LTL-FO verification: enumerates
// accepting lassos of `nba` (an automaton over the control alphabet — the
// SControl automaton itself, or its product with a property automaton) and
// returns the first lasso whose constraint closure is consistent and
// realizable over a finite database.
EraEmptinessResult SearchConsistentLasso(const ExtendedAutomaton& era,
                                         const ControlAlphabet& alphabet,
                                         const Nba& nba,
                                         const EraEmptinessOptions& options);

// Realizes a consistent control lasso of an extended automaton as a
// finite database plus a run prefix of `length` positions satisfying both
// the transition types and (within the prefix) the global constraints —
// the constructive content of Theorem 9 applied to the window.
Result<RunWitness> RealizeEraWitness(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     size_t length);

// Same, but reuses a prebuilt closure of `control_word` instead of paying
// a rebuild; the realized prefix spans closure.window() positions. The
// closure must have been built for this era/alphabet/word triple.
// `guard_stats` (optional) tallies compiled guard evaluations of the
// final validation pass when the alphabet carries compiled tables.
Result<RunWitness> RealizeEraWitness(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     const ConstraintClosure& closure,
                                     compile::GuardStats* guard_stats = nullptr);

}  // namespace rav

#endif  // RAV_ERA_EMPTINESS_H_
