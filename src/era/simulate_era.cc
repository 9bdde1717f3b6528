#include "era/simulate_era.h"

#include "era/run_check.h"

namespace rav {

namespace {

// Overwrites target positions of equality constraints with their source
// values. May break transition guards; the caller re-validates.
void RepairEqualities(const ExtendedAutomaton& era, FiniteRun& run) {
  for (const GlobalConstraint& c : era.constraints()) {
    if (!c.is_equality) continue;
    for (size_t n = 0; n < run.length(); ++n) {
      int state = c.dfa.initial();
      for (size_t m = n; m < run.length(); ++m) {
        state = c.dfa.Next(state, run.states[m].value());
        if (c.dfa.IsAccepting(state)) {
          run.values[m][c.j.value()] = run.values[n][c.i.value()];
        }
      }
    }
  }
}

}  // namespace

std::optional<FiniteRun> SampleEraRun(const ExtendedAutomaton& era,
                                      const Database& db, size_t length,
                                      std::mt19937& rng,
                                      const SimulateOptions& options,
                                      int max_rejections) {
  // One lowering for every attempt: the per-attempt guard checks dominate
  // the sampler, and sampling and validation share the tables.
  std::optional<ControlAlphabet> local;
  SimulateOptions local_options = options;
  local_options.guards = SamplerGuards(era.automaton(), options, &local);
  for (int attempt = 0; attempt < max_rejections; ++attempt) {
    std::optional<FiniteRun> run =
        SampleRun(era.automaton(), db, length, rng, local_options);
    if (!run.has_value()) continue;
    if (ValidateEraRunPrefix(era, db, *run, /*require_initial=*/true,
                             local_options.guards, options.guard_stats)
            .ok()) {
      return run;
    }
    // Try an equality repair before giving up on this proposal.
    FiniteRun repaired = *run;
    RepairEqualities(era, repaired);
    if (ValidateEraRunPrefix(era, db, repaired, /*require_initial=*/true,
                             local_options.guards, options.guard_stats)
            .ok()) {
      return repaired;
    }
  }
  return std::nullopt;
}

}  // namespace rav
