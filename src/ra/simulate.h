#ifndef RAV_RA_SIMULATE_H_
#define RAV_RA_SIMULATE_H_

#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "compile/guard_tables.h"
#include "ra/control.h"
#include "ra/register_automaton.h"
#include "ra/run.h"
#include "relational/database.h"

namespace rav {

// Options for the randomized run generator.
struct SimulateOptions {
  // Attempts per step before trying another transition.
  int assignment_attempts = 64;
  // Attempts at choosing a transition before giving up on a step.
  int transition_attempts = 16;
  // How many fresh (never-seen) values the value pool is topped up with.
  int fresh_values = 4;
  // Compiled guard tables of the automaton being simulated, through which
  // every guard check runs. Falsy (the default): the sampler lowers the
  // automaton's guards itself, once per call — callers that sample in a
  // loop pass their alphabet's view instead. Must outlive the sampling
  // call. `guard_stats` (optional) tallies the compiled evaluations.
  compile::TransitionGuardView guards;
  compile::GuardStats* guard_stats = nullptr;
};

// The guard view a sampler evaluates through: `options.guards` when the
// caller passed one, else the view of `*local`, which is built here.
compile::TransitionGuardView SamplerGuards(
    const RegisterAutomaton& automaton, const SimulateOptions& options,
    std::optional<ControlAlphabet>* local);

// Randomized generation of run prefixes of `automaton` over `db`: at each
// step a transition is sampled and successor register values are sampled
// from (current values ∪ active domain ∪ fresh values) until the guard
// holds. Returns a run of exactly `length` positions, or nullopt if the
// sampler got stuck (which can also mean the automaton has no run of that
// length from its initial states).
std::optional<FiniteRun> SampleRun(const RegisterAutomaton& automaton,
                                   const Database& db, size_t length,
                                   std::mt19937& rng,
                                   const SimulateOptions& options = {});

// Exhaustive enumeration of every run prefix of exactly `length` positions
// whose register values are drawn from `value_pool`. Exponential; intended
// for small cross-checking experiments (pool of ≤ ~6 values, length ≤ ~8,
// k ≤ 3). The callback returns false to stop enumeration early.
// Returns the number of runs delivered.
size_t EnumerateRuns(const RegisterAutomaton& automaton, const Database& db,
                     size_t length, const std::vector<DataValue>& value_pool,
                     const std::function<bool(const FiniteRun&)>& callback);

// Collects the set of projected register traces {Π_m(values) : valid runs
// of exactly `length` positions over `value_pool`}. Each trace is the
// concatenation of the m projected values per position — a convenient
// canonical form for set comparison in tests.
std::vector<std::vector<DataValue>> CollectProjectedTraces(
    const RegisterAutomaton& automaton, const Database& db, size_t length,
    const std::vector<DataValue>& value_pool, int m);

}  // namespace rav

#endif  // RAV_RA_SIMULATE_H_
