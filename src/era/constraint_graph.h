#ifndef RAV_ERA_CONSTRAINT_GRAPH_H_
#define RAV_ERA_CONSTRAINT_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/lasso.h"
#include "base/union_find.h"
#include "era/extended_automaton.h"
#include "ra/control.h"

namespace rav {

// One live set of constraint-DFA runs parked between sweeps: every start
// position in [begin, end) of the flat start array has driven constraint
// `constraint`'s DFA to `dfa_state` on the factor read so far. For
// equality constraints the range collapses to a single representative
// once the positions have been merged. Flat (indices into one shared
// start array) so parking a closure's sweep state costs two allocations,
// not one per group.
struct ClosureSweepGroup {
  int constraint = 0;
  int dfa_state = 0;
  int begin = 0;
  int end = 0;
};

// Reusable per-thread scratch for closure construction. One instance per
// search worker (it lives inside LassoWorkerCounters) amortizes the
// per-candidate allocations of the sweep and canonicalization across the
// whole search. Not thread-safe: each worker owns its own.
class ClosureScratch {
 public:
  ClosureScratch() = default;

 private:
  friend class ConstraintClosure;

  // Double-buffered per-DFA-state start lists for the sweep's inner loop.
  // Invariant between uses: every list is empty (a live group always has
  // at least one start, so emptiness doubles as the occupancy test). The
  // buffers keep their capacity across positions, constraints, and
  // closures, so a warmed-up sweep allocates nothing per position.
  void EnsureStateBuffers(int num_states) {
    if (static_cast<size_t>(num_states) > state_starts_[0].size()) {
      state_starts_[0].resize(num_states);
      state_starts_[1].resize(num_states);
    }
  }

  std::vector<std::vector<int>> state_starts_[2];
  std::vector<int> occupied_[2];  // states with a group, insertion order
  std::vector<int> states_at_;    // control states of the sweep's positions

  std::vector<int> root_to_class_;
  std::vector<int> type_rep_;
  std::vector<int> element_nodes_;

  // Staging area for the sweep state being parked (the closure's own
  // copy is assigned from these in one shot at the end of the sweep).
  std::vector<ClosureSweepGroup> parked_groups_tmp_;
  std::vector<int> parked_starts_tmp_;
};

// The equivalence relation ~_w of Section 3 computed over a finite window
// of a symbolic control word, together with the induced inequality
// structure — the machinery behind Theorem 9 (quasi-regularity and
// witness synthesis), Corollary 10 (emptiness), and the projection
// constructions.
//
// Nodes are one node per constant symbol (a constant anchors equality
// across the whole run) followed by the register occurrences
// (position n < window, register i). The closure merges
//   * the equalities of each transition type δ_n,
//   * every Σ equality e=ᵢⱼ whose expression accepts q_n...q_m in the
//     window,
// and records inequality edges from the types' disequalities and from the
// Σ inequality constraints.
//
// The global constraints are resolved by a single forward sweep: per
// constraint, the live DFA runs are grouped by DFA state (start positions
// whose factors lead to the same state advance together), groups at
// states from which no accepting state is reachable are dropped, and an
// accepting group emits its edges in one pass — O(window · |Q_dfa|) per
// constraint instead of the reference engine's per-start restarts. The
// sweep reads each constraint's live/accepting tables, built once when the
// constraint was added, so a closure does no per-constraint setup.
//
// The window is a finite under-approximation of the infinite unrolling:
// any contradiction found is genuine; consistency is relative to the
// window (pump the cycle more for higher confidence — see
// SuggestedPumpCount). A closure can be grown in place of a rebuild with
// ExtendedBy, which resumes the sweep after the last position.
class ConstraintClosure {
 public:
  // Builds the closure over the first `window` positions of
  // `control_word`. `scratch` (optional) amortizes temporary allocations
  // across closures — search workers pass their own; without one a
  // per-thread instance is used. `era` and `alphabet` must outlive the
  // closure.
  ConstraintClosure(const ExtendedAutomaton& era,
                    const ControlAlphabet& alphabet,
                    const LassoWord& control_word, size_t window,
                    ClosureScratch* scratch = nullptr);

  // The closure of the same word over window() + extra_cycles · period
  // positions, computed by resuming this closure's sweep instead of
  // rebuilding from position 0. Identical (classes, edges, consistency)
  // to a from-scratch closure over the larger window. Not defined on a
  // ReferenceConstraintClosure, which keeps no sweep to resume.
  ConstraintClosure ExtendedBy(size_t extra_cycles,
                               ClosureScratch* scratch = nullptr) const;

  size_t window() const { return window_; }
  int num_registers() const { return k_; }
  int num_constants() const { return num_constants_; }

  // Node ids: constants first (stable under ExtendedBy), then the
  // register occurrences in position-major order.
  int ConstantNode(int c) const { return c; }
  int NodeOf(size_t pos, int reg) const {
    return num_constants_ + static_cast<int>(pos) * k_ + reg;
  }
  int num_nodes() const {
    return num_constants_ + static_cast<int>(window_) * k_;
  }

  // True iff no forced-equal pair is forced-distinct within the window.
  bool consistent() const { return consistent_; }

  // For an inconsistent closure: a window length (>= 1, <= window())
  // below which every closure of the same word is consistent, so the
  // shortest inconsistent window lies in [ContradictionFloor(),
  // window()]. 0 for a consistent closure. It is the smallest
  // max(position) + 1 over the inequality edges inside one class, with
  // the register endpoints of a class that holds a constant counted one
  // position earlier: each edge of the shortest inconsistent window w
  // recurs here between the same nodes, except one of w's x̄-restricted
  // last type, whose class representative in the full type may be the ȳ
  // node at position w, and then only when that class holds a constant.
  // Computed on demand, in one pass over the raw inequality edges.
  size_t ContradictionFloor() const;

  // Dense class id of a node (classes canonicalized by smallest node).
  int ClassOf(int node) const;
  int num_classes() const { return num_classes_; }

  // Class is in adom_w: one of its nodes occurs in a positive relational
  // literal (or is a constant).
  bool ClassInAdom(int class_id) const { return class_in_adom_[class_id]; }
  int NumAdomClasses() const;

  // Deduplicated inequality edges between distinct classes.
  const std::vector<std::pair<int, int>>& InequalityEdges() const {
    return ineq_edges_;
  }

  // The graph G_w of Theorem 9: inequality edges between adom classes.
  std::vector<std::pair<int, int>> AdomInequalityEdges() const;

  // Exact maximum clique of G_w (Bron–Kerbosch); returns -1 if the adom
  // subgraph exceeds `max_nodes` (callers treat that as "too large").
  int AdomCliqueNumber(int max_nodes = 64) const;

  // Greedy coloring of G_w; entry per class (non-adom classes get 0).
  // Returns the colors and sets *num_colors.
  std::vector<int> GreedyAdomColoring(int* num_colors) const;

  // Approximate heap footprint of this closure, for governor memory
  // accounting (the dominant per-node and per-edge containers; not exact
  // malloc bookkeeping). Scales linearly with window · registers, so a
  // memory budget trips after boundedly many windows of a given size.
  size_t ApproxBytes() const {
    return sizeof(*this) +
           static_cast<size_t>(num_nodes()) * sizeof(int) +  // union-find
           node_in_adom_.capacity() * sizeof(char) +
           raw_ineq_.capacity() * sizeof(std::pair<int, int>) +
           sweep_groups_.capacity() * sizeof(ClosureSweepGroup) +
           sweep_starts_.capacity() * sizeof(int) +
           class_of_node_.capacity() * sizeof(int) +
           class_in_adom_.capacity() / 8 +
           ineq_edges_.capacity() * sizeof(std::pair<int, int>);
  }

 private:
  friend ConstraintClosure ReferenceConstraintClosure(
      const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
      const LassoWord& control_word, size_t window, ClosureScratch* scratch);

  // A closure over `window` positions with nothing applied yet: every
  // node its own class, only the constants in the active domain. The
  // public constructor and ReferenceConstraintClosure fill it in.
  struct Unbuilt {};
  ConstraintClosure(Unbuilt, const ExtendedAutomaton& era,
                    const ControlAlphabet& alphabet,
                    const LassoWord& control_word, size_t window);
  void RecordBuilt() const;

  // Applies the transition types of positions [from_pos, window_): full
  // types up to window_ - 2, the x̄-restricted type at the last position,
  // by replaying each symbol's closure ops, lowered once by the
  // alphabet's guard tables.
  void ApplyTypes(size_t from_pos);
  // Advances every constraint sweep over positions [from_pos, window_).
  void SweepConstraints(size_t from_pos, ClosureScratch& scratch);
  // The reference engine: re-derives every position from the Type
  // objects and restarts each constraint DFA at every start position,
  // faithful to the original implementation's cost.
  void ReferenceApplyTypes(ClosureScratch& scratch);
  void ApplyOneType(const Type& type, const int* element_to_node,
                    ClosureScratch& scratch);
  void ReferenceSweep();
  // Recomputes classes, adom flags, deduplicated edges, and consistency
  // from the union-find and the raw edge list.
  void Finalize(ClosureScratch& scratch);

  const ExtendedAutomaton* era_;
  const ControlAlphabet* alphabet_;
  LassoWord word_;
  int k_;
  int num_constants_;
  size_t window_;
  bool has_sweep_ = true;  // false for a reference closure
  UnionFind uf_;
  bool consistent_ = true;
  int num_classes_ = 0;
  std::vector<char> node_in_adom_;
  std::vector<std::pair<int, int>> raw_ineq_;  // node pairs, with duplicates
  // Live sweep groups, ordered by constraint, kept so ExtendedBy can
  // resume after the last position. `sweep_starts_` is the flat start
  // array the groups' [begin, end) ranges index into.
  std::vector<ClosureSweepGroup> sweep_groups_;
  std::vector<int> sweep_starts_;
  std::vector<int> class_of_node_;
  std::vector<bool> class_in_adom_;
  std::vector<std::pair<int, int>> ineq_edges_;  // class pairs, deduped
};

// The original O(window² · |Σ|) closure: the oracle the linear sweep is
// checked against (closure_diff_test, guard_table_test, E17, E23). No
// production path builds one.
ConstraintClosure ReferenceConstraintClosure(const ExtendedAutomaton& era,
                                             const ControlAlphabet& alphabet,
                                             const LassoWord& control_word,
                                             size_t window,
                                             ClosureScratch* scratch = nullptr);

// A pump count sufficient to expose the periodic constraint structure of
// the lasso: enough cycle repetitions that every constraint DFA re-enters
// a previously seen (phase, state) pair at least twice.
size_t SuggestedPumpCount(const ExtendedAutomaton& era);

}  // namespace rav

#endif  // RAV_ERA_CONSTRAINT_GRAPH_H_
