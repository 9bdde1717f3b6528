#include "era/emptiness.h"

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "analysis/lint.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "era/run_check.h"
#include "ra/run.h"

namespace rav {

namespace {

// Translates a witness found on the stripped automaton back into the
// caller's alphabet: a stripped symbol (q', δ) maps to the original
// symbol (q, δ) where q is the original state with q's name (states keep
// their names and guards are copied verbatim by AnalyzeAndStrip).
Status RemapLassoWord(LassoWord& word,
                      const RegisterAutomaton& stripped_automaton,
                      const ControlAlphabet& stripped_alphabet,
                      const RegisterAutomaton& original_automaton,
                      const ControlAlphabet& original_alphabet) {
  auto remap = [&](std::vector<int>& symbols) -> Status {
    for (int& symbol : symbols) {
      const StateId stripped_state =
          stripped_alphabet.state_of(SymbolId(symbol));
      const StateId original_state = original_automaton.FindState(
          stripped_automaton.state_name(stripped_state));
      if (!original_state.valid()) {
        return Status::Internal("strip witness remap: state vanished");
      }
      const SymbolId original_symbol = original_alphabet.SymbolOf(
          original_state, stripped_alphabet.guard_of(SymbolId(symbol)));
      if (!original_symbol.valid()) {
        return Status::Internal("strip witness remap: symbol vanished");
      }
      symbol = original_symbol.value();
    }
    return Status::OK();
  };
  RAV_RETURN_IF_ERROR(remap(word.prefix));
  return remap(word.cycle);
}

// How many leading symbols of `word` as written (prefix · cycle) agree
// with `prefix`.
size_t SharedPrefixLength(const LassoWord& word,
                          const std::vector<int>& prefix) {
  size_t i = 0;
  for (const std::vector<int>* part : {&word.prefix, &word.cycle}) {
    for (int symbol : *part) {
      if (i == prefix.size() || symbol != prefix[i]) return i;
      ++i;
    }
  }
  return i;
}

// Called once the probe over `lasso` as written came out inconsistent:
// records in `counters.refuted_prefix` the shortest prefix of that word
// whose closure is inconsistent. The windows up to `shared` (the symbols
// the word shares with the previous record, the shortest of its own
// word) are consistent, and so is every window below the probe's
// ContradictionFloor(). The bisection between those and the probe
// tries the floor first, since it is usually exact.
void RecordRefutedPrefix(const ExtendedAutomaton& era,
                         const ControlAlphabet& alphabet,
                         const LassoWord& lasso,
                         const ConstraintClosure& probe, size_t shared,
                         const ExecutionGovernor* governor,
                         LassoWorkerCounters& counters) {
  size_t hi = probe.window();
  size_t lo = std::min(hi, std::max(shared + 1, probe.ContradictionFloor()));
  for (size_t window = lo; lo < hi; window = lo + (hi - lo) / 2) {
    ++counters.closures_built;
    ConstraintClosure closure(era, alphabet, lasso, window,
                              &counters.scratch);
    ScopedMemoryCharge charge(governor, closure.ApproxBytes());
    if (closure.consistent()) {
      lo = window + 1;
    } else {
      hi = window;
    }
  }
  std::vector<int>& refuted = counters.refuted_prefix;
  refuted.clear();
  for (size_t i = 0; i < hi; ++i) refuted.push_back(lasso.SymbolAt(i));
}

Status RequireComplete(const RegisterAutomaton& automaton) {
  if (automaton.IsComplete()) return Status::OK();
  return Status::FailedPrecondition(
      "CheckEraEmptiness: automaton must be complete (use Completed())");
}

}  // namespace

Result<RunWitness> RealizeEraWitness(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     size_t length) {
  if (length == 0) {
    return Status::InvalidArgument("RealizeEraWitness: length 0");
  }
  ConstraintClosure closure(era, alphabet, control_word, length);
  return RealizeEraWitness(era, alphabet, control_word, closure);
}

Result<RunWitness> RealizeEraWitness(const ExtendedAutomaton& era,
                                     const ControlAlphabet& alphabet,
                                     const LassoWord& control_word,
                                     const ConstraintClosure& closure,
                                     compile::GuardStats* guard_stats) {
  const size_t length = closure.window();
  const RegisterAutomaton& automaton = era.automaton();
  const int k = automaton.num_registers();

  if (!closure.consistent()) {
    return Status::InvalidArgument(
        "RealizeEraWitness: constraint closure inconsistent on the window");
  }

  // One fresh value per class.
  auto value_of_class = [](int class_id) -> DataValue { return class_id; };

  // Database: constants and the positive atoms of each position's type.
  Database db(automaton.schema());
  for (int c = 0; c < automaton.schema().num_constants(); ++c) {
    db.SetConstant(c, value_of_class(closure.ClassOf(closure.ConstantNode(c))));
  }

  auto element_class = [&](size_t n, int element) -> int {
    int node;
    if (element < k) {
      node = closure.NodeOf(n, element);
    } else if (element < 2 * k) {
      node = closure.NodeOf(n + 1, element - k);
    } else {
      node = closure.ConstantNode(element - 2 * k);
    }
    return closure.ClassOf(node);
  };
  auto last_element_class = [&](int element) -> int {
    int node = element < k ? closure.NodeOf(length - 1, element)
                           : closure.ConstantNode(element - k);
    return closure.ClassOf(node);
  };

  struct PendingNegative {
    RelationId relation;
    ValueTuple tuple;
  };
  std::vector<PendingNegative> negatives;

  auto process_type = [&](const Type& t,
                          const std::function<int(int)>& class_of_element) {
    std::vector<int> rep(t.num_classes(), -1);
    for (int e = 0; e < t.num_elements(); ++e) {
      if (rep[t.ClassOf(e)] < 0) rep[t.ClassOf(e)] = e;
    }
    for (const TypeAtom& atom : t.atoms()) {
      ValueTuple tuple;
      tuple.reserve(atom.args.size());
      for (int c : atom.args) {
        tuple.push_back(value_of_class(class_of_element(rep[c])));
      }
      if (atom.positive) {
        db.Insert(atom.relation, std::move(tuple));
      } else {
        negatives.push_back(PendingNegative{atom.relation, std::move(tuple)});
      }
    }
  };

  for (size_t n = 0; n + 1 < length; ++n) {
    const Type& t = alphabet.guard_of(SymbolId(control_word.SymbolAt(n)));
    process_type(t, [&](int e) { return element_class(n, e); });
  }
  const Type& last = alphabet.x_restricted_guard_of(
      SymbolId(control_word.SymbolAt(length - 1)));
  process_type(last, [&](int e) { return last_element_class(e); });

  for (const PendingNegative& neg : negatives) {
    if (db.Contains(neg.relation, neg.tuple)) {
      return Status::InvalidArgument(
          "RealizeEraWitness: positive and negative relational literals "
          "collide on the window");
    }
  }

  // Assemble the run.
  FiniteRun run;
  run.values.resize(length);
  run.states.resize(length);
  for (size_t n = 0; n < length; ++n) {
    run.states[n] = alphabet.state_of(SymbolId(control_word.SymbolAt(n)));
    run.values[n].resize(k);
    for (int i = 0; i < k; ++i) {
      run.values[n][i] =
          value_of_class(closure.ClassOf(closure.NodeOf(n, i)));
    }
  }
  for (size_t n = 0; n + 1 < length; ++n) {
    int found = -1;
    const Type& guard = alphabet.guard_of(SymbolId(control_word.SymbolAt(n)));
    for (int ti : automaton.TransitionsFrom(run.states[n])) {
      const RaTransition& t = automaton.transition(ti);
      if (t.to == run.states[n + 1] && t.guard == guard) {
        found = ti;
        break;
      }
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "RealizeEraWitness: control word does not follow the transition "
          "relation");
    }
    run.transition_indices.push_back(found);
  }

  RAV_RETURN_IF_ERROR(ValidateEraRunPrefix(era, db, run,
                                           /*require_initial=*/false,
                                           alphabet.transition_guard_view(),
                                           guard_stats));
  return RunWitness{std::move(db), std::move(run)};
}

Result<EraEmptinessResult> CheckEraEmptiness(
    const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
    const EraEmptinessOptions& options) {
  const RegisterAutomaton& automaton = era.automaton();
  RAV_RETURN_IF_ERROR(RequireComplete(automaton));
  if (options.analyze_and_strip) {
    const analysis::StripEffort effort =
        era.automaton().num_transitions() >= options.min_flow_strip_transitions
            ? analysis::StripEffort::kFlow
            : analysis::StripEffort::kFast;
    analysis::StripResult stripped =
        analysis::AnalyzeAndStrip(era, effort, options.governor);
    if (stripped.changed()) {
      RAV_METRIC_COUNT("era/emptiness/strips", 1);
      ControlAlphabet stripped_alphabet(stripped.era->automaton());
      EraEmptinessOptions inner = options;
      inner.analyze_and_strip = false;
      // Pin the automatic pump to the original automaton: the suggested
      // count depends on the constraint list, which stripping may shrink,
      // and the bounded verdict must be identical either way.
      if (inner.pump == 0) inner.pump = SuggestedPumpCount(era);
      RAV_ASSIGN_OR_RETURN(
          EraEmptinessResult result,
          CheckEraEmptiness(*stripped.era, stripped_alphabet, inner));
      if (result.nonempty) {
        RAV_RETURN_IF_ERROR(RemapLassoWord(
            result.control_word, stripped.era->automaton(), stripped_alphabet,
            automaton, alphabet));
      }
      return result;
    }
  }
  Nba scontrol = [&] {
    RAV_TRACE_SPAN("era/scontrol");
    Nba nba = BuildSControlNba(automaton, alphabet);
    RAV_METRIC_RECORD("era/emptiness/scontrol_states", nba.num_states());
    return nba;
  }();
  return CheckEraEmptiness(era, alphabet, scontrol, options);
}

Result<EraEmptinessResult> CheckEraEmptiness(
    const ExtendedAutomaton& era, const ControlAlphabet& alphabet,
    const Nba& scontrol, const EraEmptinessOptions& options) {
  RAV_RETURN_IF_ERROR(RequireComplete(era.automaton()));
  RAV_TRACE_SPAN("era/emptiness");
  return SearchConsistentLasso(era, alphabet, scontrol, options);
}

EraEmptinessResult SearchConsistentLasso(const ExtendedAutomaton& era,
                                         const ControlAlphabet& alphabet,
                                         const Nba& nba,
                                         const EraEmptinessOptions& options) {
  const size_t pump =
      options.pump > 0 ? options.pump : SuggestedPumpCount(era);
  const bool has_database =
      era.automaton().schema().num_relations() > 0;

  // The per-candidate check, run on the engine's workers. It only reads
  // era/alphabet (both const) and builds its closures locally, so it is
  // safe to run concurrently.
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) -> LassoVerdict {
    const LassoWord& lasso = candidate.word;
    // A window's constraints are a subset of any longer window's: the
    // positions before its last carry the same full types, the last
    // one's x̄-restricted type is implied by its full type, and every
    // constraint factor inside it lies inside the longer window too. And
    // a window's closure reads only the word's first `window` symbols.
    // So a word as written that starts with a prefix this worker has
    // already refuted is contradictory on its probe and on every pumped
    // window: one refutation answers the enumerator's whole subtree.
    const std::vector<int>& refuted = counters.refuted_prefix;
    const size_t shared = SharedPrefixLength(lasso, refuted);
    if (!refuted.empty() && shared == refuted.size()) {
      return LassoVerdict::kInconsistent;
    }
    // Probe the lasso as written (one pass of its cycle) before pumping
    // it: a contradiction on the probe is the pumped window's verdict,
    // and only candidates consistent as written pay the pump.
    ++counters.closures_built;
    ConstraintClosure closure(era, alphabet, lasso,
                              lasso.prefix.size() + lasso.cycle.size(),
                              &counters.scratch);
    // Account this candidate's closures against the memory budget for as
    // long as they are alive; the engine notices a trip before the next
    // candidate is evaluated.
    ScopedMemoryCharge closure_charge(options.governor,
                                      closure.ApproxBytes());
    if (!closure.consistent()) {
      RecordRefutedPrefix(era, alphabet, lasso, closure, shared,
                          options.governor, counters);
      return LassoVerdict::kInconsistent;
    }
    if (pump > 1) {
      ++counters.closures_extended;
      closure = closure.ExtendedBy(pump - 1, &counters.scratch);
      closure_charge.Add(closure.ApproxBytes());
      if (!closure.consistent()) return LassoVerdict::kInconsistent;
    }
    if (has_database) {
      // Example 8 guard: if one more cycle strictly grows the largest
      // clique of G_w, no finite database can support the infinite
      // run; reject the lasso. The wider closure is grown from the base
      // one instead of rebuilt from scratch.
      ++counters.closures_extended;
      ConstraintClosure wider = closure.ExtendedBy(1, &counters.scratch);
      closure_charge.Add(wider.ApproxBytes());
      int clique_now = closure.AdomCliqueNumber(kAdomCliqueMaxNodes);
      int clique_wider = wider.AdomCliqueNumber(kAdomCliqueMaxNodes);
      if (clique_now >= 0 && clique_wider >= 0 &&
          clique_wider > clique_now) {
        RAV_METRIC_COUNT("era/emptiness/clique_rejections", 1);
        return LassoVerdict::kReject;
      }
    }
    // Validate by realizing a concrete witness on the window, reusing the
    // closure already built for this candidate.
    Result<RunWitness> witness =
        RealizeEraWitness(era, alphabet, lasso, closure, &counters.guard);
    if (!witness.ok()) {
      RAV_METRIC_COUNT("era/emptiness/witness_rejections", 1);
      return LassoVerdict::kReject;
    }
    RAV_METRIC_COUNT("era/emptiness/witnesses_realized", 1);
    return LassoVerdict::kWitness;
  };

  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  search_options.num_workers = options.num_workers;
  search_options.governor = options.governor;
  LassoSearchOutcome outcome = SearchLassos(nba, search_options, evaluate);

  EraEmptinessResult result;
  result.nonempty = outcome.witness.has_value();
  if (outcome.witness.has_value()) {
    result.control_word = std::move(outcome.witness->word);
  }
  result.lassos_tried = outcome.stats.lassos_checked;
  result.stats = outcome.stats;
  result.stats.guard_table_bytes = alphabet.guard_table_bytes();
  if (result.stats.guard_table_bytes > 0) {
    RAV_METRIC_SET("era/guard/table_bytes", result.stats.guard_table_bytes);
  }
  result.search_truncated = outcome.stats.truncated();
  return result;
}

}  // namespace rav
