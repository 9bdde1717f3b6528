#include "ra/simulate.h"

#include <algorithm>
#include <set>

#include "base/value.h"

namespace rav {

compile::TransitionGuardView SamplerGuards(
    const RegisterAutomaton& automaton, const SimulateOptions& options,
    std::optional<ControlAlphabet>* local) {
  if (options.guards) return options.guards;
  local->emplace(automaton);
  return (*local)->transition_guard_view();
}

std::optional<FiniteRun> SampleRun(const RegisterAutomaton& automaton,
                                   const Database& db, size_t length,
                                   std::mt19937& rng,
                                   const SimulateOptions& options) {
  if (length == 0) return std::nullopt;
  const int k = automaton.num_registers();

  // Value pool: active domain plus some fresh values.
  std::vector<DataValue> pool = db.ActiveDomain();
  {
    FreshValueSource fresh;
    for (DataValue v : pool) fresh.Observe(v);
    for (int i = 0; i < options.fresh_values; ++i) pool.push_back(fresh.Fresh());
  }
  if (pool.empty()) pool.push_back(0);

  std::vector<StateId> initial = automaton.InitialStates();
  if (initial.empty()) return std::nullopt;

  std::uniform_int_distribution<size_t> pool_dist(0, pool.size() - 1);
  auto sample_tuple = [&](ValueTuple& out) {
    out.resize(k);
    for (int i = 0; i < k; ++i) out[i] = pool[pool_dist(rng)];
  };

  // Equality-guided successor sampling: ȳ registers whose class contains
  // an x̄ register or a constant are copied deterministically; the
  // remaining classes get one random value each. This makes guards that
  // mostly propagate registers (the common workflow shape) sample in O(1)
  // attempts instead of pool^k.
  auto sample_successor = [&](const Type& guard, const ValueTuple& current,
                              ValueTuple& out) {
    out.resize(k);
    std::vector<DataValue> class_value(guard.num_classes(), 0);
    std::vector<bool> class_known(guard.num_classes(), false);
    for (int j = 0; j < k; ++j) {
      int cls = guard.ClassOf(j);
      class_value[cls] = current[j];
      class_known[cls] = true;
    }
    for (int c = 0; c < automaton.schema().num_constants(); ++c) {
      int cls = guard.ClassOf(2 * k + c);
      if (!class_known[cls]) {
        class_value[cls] = db.constant(c);
        class_known[cls] = true;
      }
    }
    for (int i = 0; i < k; ++i) {
      int cls = guard.ClassOf(k + i);
      if (!class_known[cls]) {
        class_value[cls] = pool[pool_dist(rng)];
        class_known[cls] = true;
      }
      out[i] = class_value[cls];
    }
  };

  // Guard evaluation through the compiled tables. The x̄·ȳ scratch
  // valuation is reused across every attempt of the sampling loop.
  std::optional<ControlAlphabet> local;
  const compile::TransitionGuardView guards =
      SamplerGuards(automaton, options, &local);
  ValueTuple xy_scratch;
  auto guard_holds = [&](int ti, const ValueTuple& cur,
                         const ValueTuple& next) {
    xy_scratch.clear();
    xy_scratch.insert(xy_scratch.end(), cur.begin(), cur.end());
    xy_scratch.insert(xy_scratch.end(), next.begin(), next.end());
    return guards.tables->Holds(guards.guard_id_of_transition[ti],
                                xy_scratch.data(), db, options.guard_stats);
  };

  FiniteRun run;
  std::uniform_int_distribution<size_t> init_dist(0, initial.size() - 1);

  // Sample position 0: a state and values such that some transition's
  // x̄-restriction is satisfiable (so the run can actually continue, when
  // length > 1). For length == 1 any values do.
  for (int attempt = 0; attempt < options.assignment_attempts; ++attempt) {
    StateId q0 = initial[init_dist(rng)];
    ValueTuple d0;
    sample_tuple(d0);
    run.values = {d0};
    run.states = {q0};
    run.transition_indices.clear();
    bool ok = true;
    // Extend step by step.
    while (run.length() < length && ok) {
      ok = false;
      StateId q = run.states.back();
      const std::vector<int>& outgoing = automaton.TransitionsFrom(q);
      if (outgoing.empty()) break;
      std::uniform_int_distribution<size_t> tdist(0, outgoing.size() - 1);
      for (int t_try = 0; t_try < options.transition_attempts && !ok;
           ++t_try) {
        int ti = outgoing[tdist(rng)];
        const RaTransition& t = automaton.transition(ti);
        for (int a = 0; a < options.assignment_attempts; ++a) {
          ValueTuple next;
          sample_successor(t.guard, run.values.back(), next);
          if (guard_holds(ti, run.values.back(), next)) {
            run.values.push_back(std::move(next));
            run.states.push_back(t.to);
            run.transition_indices.push_back(ti);
            ok = true;
            break;
          }
        }
      }
    }
    if (run.length() == length) return run;
  }
  return std::nullopt;
}

namespace {

// DFS state of the exhaustive enumerator.
struct Enumerator {
  const RegisterAutomaton& automaton;
  const Database& db;
  size_t length;
  const std::vector<DataValue>& pool;
  const std::function<bool(const FiniteRun&)>& callback;
  FiniteRun run;
  size_t count = 0;
  bool stopped = false;

  // Enumerates all value tuples over the pool, invoking f; f returns false
  // to stop.
  bool ForEachTuple(const std::function<bool(const ValueTuple&)>& f) const {
    const int k = automaton.num_registers();
    ValueTuple tuple(k, pool.empty() ? 0 : pool[0]);
    if (k == 0) return f(tuple);
    if (pool.empty()) return true;
    std::vector<size_t> idx(k, 0);
    while (true) {
      for (int i = 0; i < k; ++i) tuple[i] = pool[idx[i]];
      if (!f(tuple)) return false;
      int i = k - 1;
      while (i >= 0 && idx[i] + 1 == pool.size()) {
        idx[i] = 0;
        --i;
      }
      if (i < 0) return true;
      ++idx[i];
    }
  }

  void Extend() {
    if (stopped) return;
    if (run.length() == length) {
      ++count;
      if (!callback(run)) stopped = true;
      return;
    }
    StateId q = run.states.back();
    for (int ti : automaton.TransitionsFrom(q)) {
      if (stopped) return;
      const RaTransition& t = automaton.transition(ti);
      ForEachTuple([&](const ValueTuple& next) {
        ValueTuple xy;
        xy.reserve(2 * next.size());
        xy.insert(xy.end(), run.values.back().begin(),
                  run.values.back().end());
        xy.insert(xy.end(), next.begin(), next.end());
        if (t.guard.HoldsIn(db, xy)) {
          run.values.push_back(next);
          run.states.push_back(t.to);
          run.transition_indices.push_back(ti);
          Extend();
          run.values.pop_back();
          run.states.pop_back();
          run.transition_indices.pop_back();
        }
        return !stopped;
      });
    }
  }
};

}  // namespace

size_t EnumerateRuns(const RegisterAutomaton& automaton, const Database& db,
                     size_t length, const std::vector<DataValue>& value_pool,
                     const std::function<bool(const FiniteRun&)>& callback) {
  if (length == 0) return 0;
  Enumerator e{automaton, db, length, value_pool, callback, {}, 0, false};
  for (StateId q0 : automaton.InitialStates()) {
    if (e.stopped) break;
    e.ForEachTuple([&](const ValueTuple& d0) {
      e.run.values = {d0};
      e.run.states = {q0};
      e.run.transition_indices.clear();
      e.Extend();
      return !e.stopped;
    });
  }
  return e.count;
}

std::vector<std::vector<DataValue>> CollectProjectedTraces(
    const RegisterAutomaton& automaton, const Database& db, size_t length,
    const std::vector<DataValue>& value_pool, int m) {
  std::set<std::vector<DataValue>> traces;
  EnumerateRuns(automaton, db, length, value_pool, [&](const FiniteRun& run) {
    std::vector<DataValue> flat;
    flat.reserve(length * m);
    for (const ValueTuple& v : run.values) {
      flat.insert(flat.end(), v.begin(), v.begin() + m);
    }
    traces.insert(std::move(flat));
    return true;
  });
  return std::vector<std::vector<DataValue>>(traces.begin(), traces.end());
}

}  // namespace rav
