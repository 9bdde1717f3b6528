#ifndef RAV_RA_RUN_H_
#define RAV_RA_RUN_H_

#include <functional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/value.h"
#include "compile/guard_tables.h"
#include "ra/register_automaton.h"
#include "relational/database.h"

namespace rav {

// A finite prefix of a run of a register automaton: positions 0..L-1 with
// value tuples and states; transition_indices[n] is the transition fired
// between positions n and n+1 (size L-1).
struct FiniteRun {
  std::vector<ValueTuple> values;
  std::vector<StateId> states;
  std::vector<int> transition_indices;

  size_t length() const { return values.size(); }

  std::string ToString(const RegisterAutomaton& automaton) const;
};

// An ultimately periodic run: the finite run `spine`, of which positions
// cycle_start..L-1 repeat forever, with `wrap_transition_index` firing
// from position L-1 back to position cycle_start. Such a run represents
// the genuine infinite run obtained by unrolling the cycle (with the same
// value tuples in every iteration).
struct LassoRun {
  FiniteRun spine;
  size_t cycle_start = 0;
  int wrap_transition_index = -1;

  // The register trace of the infinite run, as a lasso of value tuples.
  std::vector<ValueTuple> PrefixValues() const;
  std::vector<ValueTuple> CycleValues() const;

  // Value tuple at an arbitrary position n >= 0 of the unrolled run.
  const ValueTuple& ValuesAt(size_t n) const;
  StateId StateAt(size_t n) const;
  // Transition index fired between positions n and n+1.
  int TransitionAt(size_t n) const;

  size_t period() const { return spine.length() - cycle_start; }

  std::string ToString(const RegisterAutomaton& automaton) const;
};

// Checks that `run` is a valid run prefix of `automaton` over `db`:
// states/transitions wired correctly, first state initial, and every
// guard satisfied by the adjacent value tuples. Returns OK or a
// description of the first violation (the same message with or without a
// view).
//
// Production callers pass their alphabet's `guards` view
// (ControlAlphabet::transition_guard_view): the run's positions are then
// batched per distinct guard, laid out SoA, and evaluated in one
// EvalBatch pass per guard. `guard_stats` (optional) tallies those
// evaluations. Without a view the guards are checked by the Type::HoldsIn
// reference walk — the view-less form tests use to re-check compiled
// answers.
Status ValidateRunPrefix(const RegisterAutomaton& automaton,
                         const Database& db, const FiniteRun& run,
                         bool require_initial = true,
                         const compile::TransitionGuardView& guards = {},
                         compile::GuardStats* guard_stats = nullptr);

// Checks that `run` is a valid *accepting* infinite run (Büchi: the cycle
// must contain a final state; the wrap transition must be satisfied).
// `guards`/`guard_stats` as in ValidateRunPrefix.
Status ValidateLassoRun(const RegisterAutomaton& automaton, const Database& db,
                        const LassoRun& run,
                        const compile::TransitionGuardView& guards = {},
                        compile::GuardStats* guard_stats = nullptr);

// Projects the register trace of a finite run onto registers [0, m).
std::vector<ValueTuple> ProjectValues(const std::vector<ValueTuple>& values,
                                      int m);

// Lemma 25's computational content: register values outside the active
// domain of the database can be renamed by any injective map (into values
// still outside the active domain) without affecting validity — only
// (in)equality patterns matter for non-adom values, and relational atoms
// never hold of them. Returns the remapped run; values in adom(db) and
// values not in `map` are left untouched. The caller is responsible for
// the map being injective and avoiding adom(db); violations are caught by
// re-validation, not here.
FiniteRun RemapNonActiveDomainValues(
    const FiniteRun& run, const Database& db,
    const std::function<DataValue(DataValue)>& map);

}  // namespace rav

#endif  // RAV_RA_RUN_H_
