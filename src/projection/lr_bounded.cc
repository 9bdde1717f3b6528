#include "projection/lr_bounded.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "analysis/lint.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace rav {

namespace {

// Hopcroft-Karp is overkill at this scale; Kuhn's augmenting paths.
class BipartiteMatcher {
 public:
  BipartiteMatcher(int n_left, int n_right)
      : adj_(n_left), match_right_(n_right, -1) {}

  void AddEdge(int l, int r) { adj_[l].push_back(r); }

  int MaxMatching() {
    int matching = 0;
    for (int l = 0; l < static_cast<int>(adj_.size()); ++l) {
      visited_.assign(match_right_.size(), false);
      if (TryAugment(l)) ++matching;
    }
    return matching;
  }

 private:
  bool TryAugment(int l) {
    for (int r : adj_[l]) {
      if (visited_[r]) continue;
      visited_[r] = true;
      if (match_right_[r] < 0 || TryAugment(match_right_[r])) {
        match_right_[r] = l;
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<int>> adj_;
  std::vector<int> match_right_;
  std::vector<bool> visited_;
};

Status RequireNoDatabase(const ExtendedAutomaton& era) {
  if (era.automaton().schema().num_relations() == 0) return Status::OK();
  return Status::InvalidArgument(
      "EstimateLrBound: LR-boundedness is defined for automata without a "
      "database (Section 5)");
}

}  // namespace

int BipartiteMinVertexCover(int n_left, int n_right,
                            const std::vector<std::pair<int, int>>& edges) {
  BipartiteMatcher matcher(n_left, n_right);
  for (const auto& [l, r] : edges) matcher.AddEdge(l, r);
  // König: in bipartite graphs, min vertex cover = max matching.
  return matcher.MaxMatching();
}

int MaxCutVertexCover(const ExtendedAutomaton& era,
                      const ControlAlphabet& alphabet, const LassoWord& lasso,
                      size_t window) {
  ConstraintClosure closure(era, alphabet, lasso, window);
  return MaxCutVertexCoverOfClosure(closure);
}

int MaxCutVertexCoverOfClosure(const ConstraintClosure& closure) {
  RAV_METRIC_COUNT("projection/lr_bounded/cover_computations", 1);
  const int k = closure.num_registers();
  const size_t window = closure.window();
  if (!closure.consistent()) return -1;

  // Span of each class: [min position, max position].
  const int num_classes = closure.num_classes();
  std::vector<int> min_pos(num_classes, static_cast<int>(window));
  std::vector<int> max_pos(num_classes, -1);
  for (size_t n = 0; n < window; ++n) {
    for (int i = 0; i < k; ++i) {
      int c = closure.ClassOf(closure.NodeOf(n, i));
      min_pos[c] = std::min(min_pos[c], static_cast<int>(n));
      max_pos[c] = std::max(max_pos[c], static_cast<int>(n));
    }
  }
  // Constant classes span everything; treat them as straddling every cut
  // (they never participate in G^w_h edges).
  for (int c = 0; c < closure.num_constants(); ++c) {
    int cls = closure.ClassOf(closure.ConstantNode(c));
    min_pos[cls] = 0;
    max_pos[cls] = static_cast<int>(window) - 1;
  }

  int best = 0;
  for (size_t h = 0; h + 1 < window; ++h) {
    // Classes entirely in L(h) = positions <= h, entirely in R(h) = > h.
    // Compact ids per side.
    std::map<int, int> left_id, right_id;
    std::vector<std::pair<int, int>> edges;
    for (const auto& [c1, c2] : closure.InequalityEdges()) {
      int left = -1, right = -1;
      auto classify = [&](int c) {
        if (max_pos[c] < 0) return 0;  // class with no register occurrence
        if (max_pos[c] <= static_cast<int>(h)) return -1;  // left
        if (min_pos[c] > static_cast<int>(h)) return 1;    // right
        return 0;  // straddles
      };
      int k1 = classify(c1);
      int k2 = classify(c2);
      if (k1 == -1 && k2 == 1) {
        left = c1;
        right = c2;
      } else if (k1 == 1 && k2 == -1) {
        left = c2;
        right = c1;
      } else {
        continue;
      }
      auto lid = left_id.emplace(left, static_cast<int>(left_id.size())).first;
      auto rid =
          right_id.emplace(right, static_cast<int>(right_id.size())).first;
      edges.emplace_back(lid->second, rid->second);
    }
    best = std::max(
        best, BipartiteMinVertexCover(static_cast<int>(left_id.size()),
                                      static_cast<int>(right_id.size()),
                                      edges));
  }
  return best;
}

namespace {

// The smaller growth-detection window, in cycle pumps: every constraint's
// span fits into it. The larger window is twice as many.
size_t SmallWindowPumps(const ExtendedAutomaton& era) {
  return 2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
}

Result<LrBoundResult> SampleLrBound(const ExtendedAutomaton& era,
                                    const ControlAlphabet& alphabet,
                                    const Nba& scontrol,
                                    const LrBoundOptions& options,
                                    size_t pump_small) {
  RAV_TRACE_SPAN("projection/lr_bounded");
  RAV_METRIC_COUNT("projection/lr_bounded/estimations", 1);
  RAV_RETURN_IF_ERROR(RequireNoDatabase(era));
  const size_t pump_large = 2 * pump_small;

  // Per-lasso cover measurement, run on the engine's workers. The
  // aggregation (max over covers, or over growth flags) is commutative and
  // associative, so the verdict is identical for any worker count; the
  // mutex only orders the cheap folds, not the cover computations.
  std::mutex fold_mu;
  int max_cover = 0;
  bool growth_detected = false;
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) -> LassoVerdict {
    const LassoWord& lasso = candidate.word;
    size_t w_small = lasso.prefix.size() + lasso.cycle.size() * pump_small;
    ++counters.closures_built;
    ConstraintClosure small(era, alphabet, lasso, w_small,
                            &counters.scratch);
    ScopedMemoryCharge closure_charge(options.governor, small.ApproxBytes());
    int cover_small = MaxCutVertexCoverOfClosure(small);
    if (cover_small < 0) return LassoVerdict::kInconsistent;
    // The large window shares the small one's prefix: grow the closure by
    // the extra cycle pumps instead of rebuilding from position 0.
    ++counters.closures_extended;
    ConstraintClosure large =
        small.ExtendedBy(pump_large - pump_small, &counters.scratch);
    closure_charge.Add(large.ApproxBytes());
    int cover_large = MaxCutVertexCoverOfClosure(large);
    {
      std::lock_guard<std::mutex> lock(fold_mu);
      max_cover = std::max(max_cover, cover_small);
      if (cover_large > cover_small) growth_detected = true;
    }
    return LassoVerdict::kReject;  // aggregate-only: never a witness
  };

  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  search_options.num_workers = options.num_workers;
  search_options.governor = options.governor;
  LassoSearchOutcome outcome =
      SearchLassos(scontrol, search_options, evaluate);

  RAV_METRIC_RECORD("projection/lr_bounded/max_cover", max_cover);
  if (growth_detected) {
    RAV_METRIC_COUNT("projection/lr_bounded/growth_detected", 1);
  }

  LrBoundResult result;
  result.max_cover = max_cover;
  result.growth_detected = growth_detected;
  result.lassos_examined = outcome.stats.lassos_checked;
  result.stats = outcome.stats;
  result.stats.guard_table_bytes = alphabet.guard_table_bytes();
  if (result.stats.guard_table_bytes > 0) {
    RAV_METRIC_SET("era/guard/table_bytes", result.stats.guard_table_bytes);
  }
  result.search_truncated = outcome.stats.truncated();
  return result;
}

}  // namespace

Result<LrBoundResult> EstimateLrBound(const ExtendedAutomaton& era,
                                      const ControlAlphabet& alphabet,
                                      const LrBoundOptions& options) {
  RAV_RETURN_IF_ERROR(RequireNoDatabase(era));
  if (options.analyze_and_strip) {
    const analysis::StripEffort effort =
        era.automaton().num_transitions() >= options.min_flow_strip_transitions
            ? analysis::StripEffort::kFlow
            : analysis::StripEffort::kFast;
    analysis::StripResult stripped =
        analysis::AnalyzeAndStrip(era, effort, options.governor);
    if (stripped.changed()) {
      RAV_METRIC_COUNT("projection/lr_bounded/strips", 1);
      ControlAlphabet stripped_alphabet(stripped.era->automaton());
      // Pin the windows to the original constraint list (stripping may
      // drop its largest DFA, and the estimate must be identical with and
      // without stripping).
      return SampleLrBound(
          *stripped.era, stripped_alphabet,
          BuildSControlNba(stripped.era->automaton(), stripped_alphabet),
          options, SmallWindowPumps(era));
    }
  }
  return EstimateLrBound(era, alphabet,
                         BuildSControlNba(era.automaton(), alphabet), options);
}

Result<LrBoundResult> EstimateLrBound(const ExtendedAutomaton& era,
                                      const ControlAlphabet& alphabet,
                                      const Nba& scontrol,
                                      const LrBoundOptions& options) {
  return SampleLrBound(era, alphabet, scontrol, options,
                       SmallWindowPumps(era));
}

}  // namespace rav
