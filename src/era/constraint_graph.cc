#include "era/constraint_graph.h"

#include <algorithm>

#include "base/metrics.h"

namespace rav {

namespace {

// Callers that don't thread a ClosureScratch (one-off closures, the
// containment checks) fall back to a per-thread instance so they still
// amortize the sweep buffers instead of reallocating them per closure.
ClosureScratch& ThreadLocalClosureScratch() {
  thread_local ClosureScratch scratch;
  return scratch;
}

// Sequential reader of a lasso word's symbols from a start position: one
// modulo at construction instead of one per SymbolAt call. Reading past
// the prefix of a cycle-less word is the caller's error (as with
// SymbolAt).
class SymbolCursor {
 public:
  SymbolCursor(const LassoWord& w, size_t pos) : w_(w), pos_(pos) {
    if (pos_ >= w.prefix.size() && !w.cycle.empty()) {
      cyc_ = (pos_ - w.prefix.size()) % w.cycle.size();
    }
  }

  int Next() {
    if (pos_ < w_.prefix.size()) {
      return w_.prefix[pos_++];
    }
    ++pos_;
    const int s = w_.cycle[cyc_];
    if (++cyc_ == w_.cycle.size()) cyc_ = 0;
    return s;
  }

 private:
  const LassoWord& w_;
  size_t pos_;
  size_t cyc_ = 0;
};

}  // namespace

ConstraintClosure::ConstraintClosure(Unbuilt, const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     size_t window)
    : era_(&era),
      alphabet_(&alphabet),
      word_(control_word),
      k_(era.automaton().num_registers()),
      num_constants_(era.automaton().schema().num_constants()),
      window_(window) {
  RAV_CHECK_GE(window, 1u);
  uf_.Reset(num_nodes());
  node_in_adom_.assign(num_nodes(), false);
  // Constants are part of the active domain by definition.
  for (int c = 0; c < num_constants_; ++c) {
    node_in_adom_[ConstantNode(c)] = true;
  }
}

ConstraintClosure::ConstraintClosure(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     size_t window, ClosureScratch* scratch)
    : ConstraintClosure(Unbuilt{}, era, alphabet, control_word, window) {
  ClosureScratch& s =
      scratch != nullptr ? *scratch : ThreadLocalClosureScratch();
  ApplyTypes(0);
  SweepConstraints(0, s);
  Finalize(s);
  RecordBuilt();
}

ConstraintClosure ReferenceConstraintClosure(const ExtendedAutomaton& era,
                                             const ControlAlphabet& alphabet,
                                             const LassoWord& control_word,
                                             size_t window,
                                             ClosureScratch* scratch) {
  ConstraintClosure closure(ConstraintClosure::Unbuilt{}, era, alphabet,
                            control_word, window);
  closure.has_sweep_ = false;
  ClosureScratch& s =
      scratch != nullptr ? *scratch : ThreadLocalClosureScratch();
  closure.ReferenceApplyTypes(s);
  closure.ReferenceSweep();
  closure.Finalize(s);
  closure.RecordBuilt();
  return closure;
}

void ConstraintClosure::RecordBuilt() const {
  RAV_METRIC_COUNT("era/closure/built", 1);
  RAV_METRIC_RECORD("era/closure/nodes", num_nodes());
  RAV_METRIC_RECORD("era/closure/classes", num_classes_);
  RAV_METRIC_RECORD("era/closure/ineq_edges", ineq_edges_.size());
  if (!consistent_) RAV_METRIC_COUNT("era/closure/inconsistent", 1);
}

ConstraintClosure ConstraintClosure::ExtendedBy(size_t extra_cycles,
                                                ClosureScratch* scratch) const {
  RAV_CHECK(has_sweep_);  // a reference closure keeps no sweep to resume
  const size_t extra = extra_cycles * word_.cycle.size();
  ConstraintClosure out(*this);
  if (extra == 0) return out;

  ClosureScratch& s =
      scratch != nullptr ? *scratch : ThreadLocalClosureScratch();
  const size_t old_window = out.window_;
  out.window_ += extra;
  out.node_in_adom_.resize(out.num_nodes(), false);
  for (int v = 0; v < static_cast<int>(extra) * out.k_; ++v) out.uf_.Add();

  // The old last position was applied x̄-restricted; now that it has a
  // successor, re-apply its full type (a superset of the restriction, so
  // re-application only adds the constraints a from-scratch closure over
  // the larger window would have).
  out.ApplyTypes(old_window - 1);
  out.SweepConstraints(old_window, s);
  out.Finalize(s);

  RAV_METRIC_COUNT("era/closure/extended", 1);
  RAV_METRIC_RECORD("era/closure/extended_positions", extra);
  if (!out.consistent_) RAV_METRIC_COUNT("era/closure/inconsistent", 1);
  return out;
}

void ConstraintClosure::ApplyOneType(const Type& t, const int* element_to_node,
                                     ClosureScratch& scratch) {
  std::vector<int>& rep = scratch.type_rep_;
  rep.assign(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      uf_.Union(element_to_node[rep[c]], element_to_node[e]);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    raw_ineq_.emplace_back(element_to_node[rep[c1]], element_to_node[rep[c2]]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) node_in_adom_[element_to_node[rep[c]]] = true;
  }
}

void ConstraintClosure::ReferenceApplyTypes(ClosureScratch& scratch) {
  // The original per-position path: every position re-derives class
  // representatives from the Type object, and the last position's
  // restriction is recomputed per closure.
  std::vector<int>& nodes = scratch.element_nodes_;
  for (size_t n = 0; n + 1 < window_; ++n) {
    nodes.clear();
    for (int i = 0; i < k_; ++i) nodes.push_back(NodeOf(n, i));
    for (int i = 0; i < k_; ++i) nodes.push_back(NodeOf(n + 1, i));
    for (int c = 0; c < num_constants_; ++c) nodes.push_back(ConstantNode(c));
    ApplyOneType(alphabet_->guard_of(SymbolId(word_.SymbolAt(n))), nodes.data(),
                 scratch);
  }
  Type last = RestrictToX(
      alphabet_->guard_of(SymbolId(word_.SymbolAt(window_ - 1))), k_);
  nodes.clear();
  for (int i = 0; i < k_; ++i) nodes.push_back(NodeOf(window_ - 1, i));
  for (int c = 0; c < num_constants_; ++c) nodes.push_back(ConstantNode(c));
  ApplyOneType(last, nodes.data(), scratch);
}

void ConstraintClosure::ApplyTypes(size_t from_pos) {
  // The per-symbol programs are compile::GuardOps, lowered once at
  // alphabet build and shared across every closure and every worker.
  // Full types of positions with a successor inside the window: the
  // 2k-var type's elements map to (x̄ at n, ȳ at n+1, constants); since
  // NodeOf(n + 1, e - k) == NodeOf(n, e) for k <= e < 2k, element e maps
  // to num_constants_ + n·k + e for e < 2k and to constant e - 2k after.
  const compile::GuardTableSet& tables = alphabet_->tables();
  SymbolCursor cursor(word_, from_pos);
  for (size_t n = from_pos; n + 1 < window_; ++n) {
    const int sym = cursor.Next();
    // One dense load per position; Invalid() marks a data-trivial guard
    // whose program is empty.
    const GuardId gid = alphabet_->closure_program_of_symbol(SymbolId(sym));
    if (!gid.valid()) continue;
    const compile::GuardOps& ops = tables.closure_ops(gid);
    const int base = num_constants_ + static_cast<int>(n) * k_;
    const int two_k = 2 * k_;
    auto node = [&](int e) { return e < two_k ? base + e : e - two_k; };
    for (const auto& [a, b] : ops.unions) uf_.Union(node(a), node(b));
    for (const auto& [a, b] : ops.diseqs) {
      raw_ineq_.emplace_back(node(a), node(b));
    }
    for (int e : ops.adom) node_in_adom_[node(e)] = true;
  }
  // Last position: the precompiled x̄-restricted program over
  // (k registers at window_-1, constants).
  const GuardId last_gid = alphabet_->x_closure_program_of_symbol(
      SymbolId(word_.SymbolAt(window_ - 1)));
  if (!last_gid.valid()) return;
  const compile::GuardOps& last_ops = tables.x_closure_ops(last_gid);
  const int base = num_constants_ + static_cast<int>(window_ - 1) * k_;
  auto node = [&](int e) { return e < k_ ? base + e : e - k_; };
  for (const auto& [a, b] : last_ops.unions) uf_.Union(node(a), node(b));
  for (const auto& [a, b] : last_ops.diseqs) {
    raw_ineq_.emplace_back(node(a), node(b));
  }
  for (int e : last_ops.adom) node_in_adom_[node(e)] = true;
}

void ConstraintClosure::SweepConstraints(size_t from_pos,
                                         ClosureScratch& scratch) {
  const std::vector<GlobalConstraint>& constraints = era_->constraints();
  if (from_pos >= window_ || constraints.empty()) return;
  // Control states read at positions [from_pos, window_), resolved once
  // and shared by every constraint's sweep.
  std::vector<int>& qs = scratch.states_at_;
  qs.clear();
  SymbolCursor cursor(word_, from_pos);
  for (size_t m = from_pos; m < window_; ++m) {
    qs.push_back(alphabet_->state_of(SymbolId(cursor.Next())).value());
  }

  // New parked state is staged in scratch (reading the old state as we
  // go) and assigned to the closure in one shot afterwards.
  std::vector<ClosureSweepGroup>& next_groups = scratch.parked_groups_tmp_;
  std::vector<int>& next_starts = scratch.parked_starts_tmp_;
  next_groups.clear();
  next_starts.clear();
  size_t gi = 0;  // cursor over sweep_groups_ (ordered by constraint)

  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    const GlobalConstraint& c = constraints[ci];
    const Dfa& dfa = c.dfa;
    // The constraint's live/accepting tables and the DFA's initial row
    // (the state a run starting on control state q is in after one step)
    // are built once per constraint and shared by every closure.
    const char* live = c.live.data();
    const char* accept = c.accepting.data();
    const int* initial_row = dfa.NextRow(dfa.initial());
    scratch.EnsureStateBuffers(dfa.num_states());
    int cur = 0;
    for (; gi < sweep_groups_.size() &&
           sweep_groups_[gi].constraint == static_cast<int>(ci);
         ++gi) {
      const ClosureSweepGroup& g = sweep_groups_[gi];
      scratch.state_starts_[cur][g.dfa_state].assign(
          sweep_starts_.begin() + g.begin, sweep_starts_.begin() + g.end);
      scratch.occupied_[cur].push_back(g.dfa_state);
    }

    for (size_t t = 0; t < qs.size(); ++t) {
      const int m = static_cast<int>(from_pos + t);
      const int q = qs[t];
      const int nxt = cur ^ 1;
      std::vector<std::vector<int>>& from_side = scratch.state_starts_[cur];
      std::vector<std::vector<int>>& to_side = scratch.state_starts_[nxt];
      std::vector<int>& occ_nxt = scratch.occupied_[nxt];
      // Advance every live run by the state read at position m. Runs
      // converging on the same DFA state merge into one group (smaller
      // start list spliced into the larger); runs entering a state from
      // which no accepting state is reachable are dropped — they can
      // never emit another edge.
      for (int s : scratch.occupied_[cur]) {
        std::vector<int>& src = from_side[s];
        const int to = dfa.NextRow(s)[q];
        if (!live[to]) {
          src.clear();
          continue;
        }
        std::vector<int>& dst = to_side[to];
        if (dst.empty()) {
          dst.swap(src);
          occ_nxt.push_back(to);
        } else {
          if (src.size() > dst.size()) src.swap(dst);
          dst.insert(dst.end(), src.begin(), src.end());
          src.clear();
        }
      }
      scratch.occupied_[cur].clear();
      // A new run starts at position m (the factor q_m...).
      const int s0 = initial_row[q];
      if (live[s0]) {
        std::vector<int>& dst = to_side[s0];
        if (dst.empty()) occ_nxt.push_back(s0);
        dst.push_back(m);
      }
      // Accepting groups emit their edges against position m. For an
      // equality constraint every start is merged into one class, so the
      // group collapses to a single representative.
      for (int s : occ_nxt) {
        if (!accept[s]) continue;
        const int b = NodeOf(m, c.j.value());
        std::vector<int>& starts = to_side[s];
        if (c.is_equality) {
          for (int n : starts) uf_.Union(NodeOf(n, c.i.value()), b);
          starts.resize(1);
        } else {
          for (int n : starts) {
            raw_ineq_.emplace_back(NodeOf(n, c.i.value()), b);
          }
        }
      }
      cur = nxt;
    }

    // Park the final groups (for ExtendedBy) and restore the all-empty
    // buffer invariant for the next constraint.
    for (int s : scratch.occupied_[cur]) {
      std::vector<int>& starts = scratch.state_starts_[cur][s];
      const int begin = static_cast<int>(next_starts.size());
      next_starts.insert(next_starts.end(), starts.begin(), starts.end());
      next_groups.push_back(ClosureSweepGroup{
          static_cast<int>(ci), s, begin,
          static_cast<int>(next_starts.size())});
      starts.clear();
    }
    scratch.occupied_[cur].clear();
  }

  sweep_groups_ = next_groups;
  sweep_starts_ = next_starts;
}

void ConstraintClosure::ReferenceSweep() {
  for (const GlobalConstraint& c : era_->constraints()) {
    for (size_t n = 0; n < window_; ++n) {
      int dfa_state = c.dfa.initial();
      for (size_t m = n; m < window_; ++m) {
        int q = alphabet_->state_of(SymbolId(word_.SymbolAt(m))).value();
        dfa_state = c.dfa.Next(dfa_state, q);
        if (!c.dfa.IsAccepting(dfa_state)) continue;
        int a = NodeOf(n, c.i.value());
        int b = NodeOf(m, c.j.value());
        if (c.is_equality) {
          uf_.Union(a, b);
        } else {
          raw_ineq_.emplace_back(a, b);
        }
      }
    }
  }
}

void ConstraintClosure::Finalize(ClosureScratch& scratch) {
  // Canonicalize classes: dense ids in smallest-node order, so the
  // assignment depends only on the partition (identical across engines
  // and across build-vs-extend).
  class_of_node_.assign(num_nodes(), -1);
  std::vector<int>& root_to_class = scratch.root_to_class_;
  root_to_class.assign(num_nodes(), -1);
  num_classes_ = 0;
  for (int v = 0; v < num_nodes(); ++v) {
    int root = uf_.Find(v);
    if (root_to_class[root] < 0) root_to_class[root] = num_classes_++;
    class_of_node_[v] = root_to_class[root];
  }
  class_in_adom_.assign(num_classes_, false);
  for (int v = 0; v < num_nodes(); ++v) {
    if (node_in_adom_[v]) class_in_adom_[class_of_node_[v]] = true;
  }

  // Inequality edges at class level, deduplicated; an edge inside one
  // class is a genuine contradiction.
  consistent_ = true;
  ineq_edges_.clear();
  ineq_edges_.reserve(raw_ineq_.size());
  for (const auto& [a, b] : raw_ineq_) {
    int ca = class_of_node_[a];
    int cb = class_of_node_[b];
    if (ca == cb) {
      consistent_ = false;
      continue;
    }
    ineq_edges_.emplace_back(std::min(ca, cb), std::max(ca, cb));
  }
  std::sort(ineq_edges_.begin(), ineq_edges_.end());
  ineq_edges_.erase(std::unique(ineq_edges_.begin(), ineq_edges_.end()),
                    ineq_edges_.end());
}

size_t ConstraintClosure::ContradictionFloor() const {
  if (consistent_) return 0;
  // Constants are the smallest nodes and class ids follow each class's
  // smallest node, so the classes holding a constant are the ids below
  // `constant_classes`.
  int constant_classes = 0;
  for (int c = 0; c < num_constants_; ++c) {
    constant_classes = std::max(constant_classes, class_of_node_[c] + 1);
  }
  // The window an edge's endpoint needs at least; constants occupy no
  // position.
  auto reach = [&](int node, bool holds_constant) -> size_t {
    if (node < num_constants_) return 0;
    const size_t pos = static_cast<size_t>((node - num_constants_) / k_);
    return holds_constant ? pos : pos + 1;
  };
  size_t floor = window_;
  for (const auto& [a, b] : raw_ineq_) {
    const int cls = class_of_node_[a];
    if (cls != class_of_node_[b]) continue;
    const bool holds_constant = cls < constant_classes;
    floor = std::min(floor, std::max({size_t{1}, reach(a, holds_constant),
                                      reach(b, holds_constant)}));
  }
  return floor;
}

int ConstraintClosure::ClassOf(int node) const {
  RAV_CHECK_GE(node, 0);
  RAV_CHECK_LT(static_cast<size_t>(node), class_of_node_.size());
  return class_of_node_[node];
}

int ConstraintClosure::NumAdomClasses() const {
  int n = 0;
  for (bool b : class_in_adom_) n += b;
  return n;
}

std::vector<std::pair<int, int>> ConstraintClosure::AdomInequalityEdges()
    const {
  std::vector<std::pair<int, int>> out;
  for (const auto& [a, b] : ineq_edges_) {
    if (class_in_adom_[a] && class_in_adom_[b]) out.emplace_back(a, b);
  }
  return out;
}

namespace {

// Bron–Kerbosch with pivoting over an adjacency-list graph on dense ids.
class CliqueFinder {
 public:
  explicit CliqueFinder(int n) : adj_(n, std::vector<bool>(n, false)), n_(n) {}

  void AddEdge(int a, int b) {
    adj_[a][b] = adj_[b][a] = true;
  }

  int MaxClique() {
    std::vector<int> r, p, x;
    for (int v = 0; v < n_; ++v) p.push_back(v);
    best_ = 0;
    Expand(r, p, x);
    return best_;
  }

 private:
  void Expand(std::vector<int>& r, std::vector<int> p, std::vector<int> x) {
    if (p.empty() && x.empty()) {
      best_ = std::max(best_, static_cast<int>(r.size()));
      return;
    }
    if (static_cast<int>(r.size() + p.size()) <= best_) return;  // bound
    // Pivot: vertex of p ∪ x with most neighbors in p.
    int pivot = -1, pivot_deg = -1;
    for (int v : p) {
      int d = 0;
      for (int u : p) d += adj_[v][u];
      if (d > pivot_deg) {
        pivot_deg = d;
        pivot = v;
      }
    }
    for (int v : x) {
      int d = 0;
      for (int u : p) d += adj_[v][u];
      if (d > pivot_deg) {
        pivot_deg = d;
        pivot = v;
      }
    }
    std::vector<int> candidates;
    for (int v : p) {
      if (pivot < 0 || !adj_[pivot][v]) candidates.push_back(v);
    }
    for (int v : candidates) {
      std::vector<int> p2, x2;
      for (int u : p) {
        if (adj_[v][u]) p2.push_back(u);
      }
      for (int u : x) {
        if (adj_[v][u]) x2.push_back(u);
      }
      r.push_back(v);
      Expand(r, std::move(p2), std::move(x2));
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
  }

  std::vector<std::vector<bool>> adj_;
  int n_;
  int best_ = 0;
};

}  // namespace

int ConstraintClosure::AdomCliqueNumber(int max_nodes) const {
  // Compact the adom classes that touch an inequality edge (isolated
  // classes cannot enlarge a clique beyond 1).
  std::vector<std::pair<int, int>> edges = AdomInequalityEdges();
  if (edges.empty()) return NumAdomClasses() > 0 ? 1 : 0;
  std::vector<int> compact(num_classes_, -1);
  int n = 0;
  for (const auto& [a, b] : edges) {
    if (compact[a] < 0) compact[a] = n++;
    if (compact[b] < 0) compact[b] = n++;
  }
  if (n > max_nodes) return -1;
  CliqueFinder finder(n);
  for (const auto& [a, b] : edges) finder.AddEdge(compact[a], compact[b]);
  return finder.MaxClique();
}

std::vector<int> ConstraintClosure::GreedyAdomColoring(int* num_colors) const {
  std::vector<std::vector<int>> neighbors(num_classes_);
  for (const auto& [a, b] : AdomInequalityEdges()) {
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
  }
  std::vector<int> color(num_classes_, 0);
  int max_color = 0;
  for (int c = 0; c < num_classes_; ++c) {
    if (!class_in_adom_[c]) continue;
    std::vector<bool> used(num_classes_ + 1, false);
    for (int nb : neighbors[c]) {
      if (nb < c && class_in_adom_[nb]) used[color[nb]] = true;
    }
    int pick = 0;
    while (used[pick]) ++pick;
    color[c] = pick;
    max_color = std::max(max_color, pick);
  }
  if (num_colors != nullptr) *num_colors = max_color + 1;
  return color;
}

size_t SuggestedPumpCount(const ExtendedAutomaton& era) {
  size_t pump = 4 + 2 * static_cast<size_t>(era.automaton().num_registers());
  for (const GlobalConstraint& c : era.constraints()) {
    pump += 2 * static_cast<size_t>(c.dfa.num_states());
  }
  return pump;
}

}  // namespace rav
