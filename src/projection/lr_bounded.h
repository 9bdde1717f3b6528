#ifndef RAV_PROJECTION_LR_BOUNDED_H_
#define RAV_PROJECTION_LR_BOUNDED_H_

#include <vector>

#include "base/status.h"
#include "era/constraint_graph.h"
#include "era/extended_automaton.h"
#include "era/parallel_search.h"
#include "ra/control.h"

namespace rav {

// LR-boundedness (Definition 15): an extended automaton is LR-bounded if
// some N bounds, over every control trace w and position h, the vertex
// cover of the graph G^w_h whose edges connect inequality-related classes
// lying entirely left of h to classes entirely right of h.
//
// Theorem 18 decides this with MSO + bounding quantifiers; this module
// implements the effective sampled counterpart: enumerate consistent
// control lassos, compute the exact minimum vertex cover of G^w_h for
// every cut h of a pumped window (the graph is bipartite by construction,
// so König's theorem applies: min cover = max matching), and report both
// the largest cover seen and whether the cover keeps growing when the
// window is pumped further — growth is the signature of a non-LR-bounded
// automaton (Examples 16/17), stability the signature of a bounded one.

struct LrBoundOptions {
  size_t max_lassos = 64;
  size_t max_lasso_length = 8;
  size_t max_search_steps = 200000;
  // Worker threads measuring lasso covers (<= 1 = inline serial, 0 = all
  // hardware threads). The per-lasso aggregation (max / or) is
  // commutative, so the result is identical for every setting.
  int num_workers = kDefaultSearchWorkers;
  // Run analysis::AnalyzeAndStrip first and sample the reduced automaton.
  // Dead structure carries no control lassos, so the estimate is
  // unchanged; the sampler just stops wading through it.
  bool analyze_and_strip = true;
  // Transition-count floor for the StripEffort::kFlow tier; below it the
  // strip runs at kFast (see EraEmptinessOptions for the rationale).
  int min_flow_strip_transitions = 64;
  // Resource governor (nullptr = unlimited): polled by the sampling
  // engine per candidate and charged each candidate's closures. On a trip
  // the estimate covers the lassos sampled so far and search_truncated is
  // set.
  const ExecutionGovernor* governor = nullptr;
};

struct LrBoundResult {
  // Largest min-vertex-cover observed over all sampled (w, h) at the
  // small pump — the best lower bound for the true N.
  int max_cover = 0;
  // True if some lasso's max cover strictly grew between the two pump
  // sizes: evidence that no N exists.
  bool growth_detected = false;
  size_t lassos_examined = 0;
  // True iff the lasso sampling stopped on a budget rather than after
  // exhausting its bounded space: the verdict then covers only the
  // sampled lassos. Derived from stats.stop_reason.
  bool search_truncated = false;
  // Instrumentation of the lasso sampling, including the stop reason.
  SearchStats stats;
};

// Samples control lassos of the automaton (consistent ones only) and
// measures G^w_h vertex covers. Growth detection compares each lasso's
// cover at two windows: 2·max|Q_dfa| + 2 cycle pumps, so that every
// constraint span fits inside it (otherwise truncated edges masquerade as
// growth), and twice that. Requires no database (empty relational
// signature), matching Section 5's setting. Strips `era` when
// options.analyze_and_strip asks, builds the SControl NBA of what
// remains, and samples through the overload below.
Result<LrBoundResult> EstimateLrBound(const ExtendedAutomaton& era,
                                      const ControlAlphabet& alphabet,
                                      const LrBoundOptions& options = {});

// The same sampling over a prebuilt `scontrol` =
// BuildSControlNba(era.automaton(), alphabet), so a caller answering many
// queries against one automaton (service::CompiledSpec) builds it once.
// `era` is sampled as given: options.analyze_and_strip is not consulted.
Result<LrBoundResult> EstimateLrBound(const ExtendedAutomaton& era,
                                      const ControlAlphabet& alphabet,
                                      const Nba& scontrol,
                                      const LrBoundOptions& options);

// The exact maximum over cuts h of the minimum vertex cover of G^w_h for
// one lasso at one window size. Exposed for tests and benchmarks.
int MaxCutVertexCover(const ExtendedAutomaton& era,
                      const ControlAlphabet& alphabet, const LassoWord& lasso,
                      size_t window);

// Same measurement on a prebuilt closure (window = closure.window()), so
// callers comparing several window sizes of one lasso can grow a single
// closure with ExtendedBy instead of rebuilding. Returns -1 if the
// closure is inconsistent.
int MaxCutVertexCoverOfClosure(const ConstraintClosure& closure);

// Minimum vertex cover of a bipartite graph given as edges between left
// ids [0, n_left) and right ids [0, n_right), via maximum matching
// (König). Exposed for tests.
int BipartiteMinVertexCover(int n_left, int n_right,
                            const std::vector<std::pair<int, int>>& edges);

}  // namespace rav

#endif  // RAV_PROJECTION_LR_BOUNDED_H_
