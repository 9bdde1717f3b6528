#include "ra/random.h"

#include "base/numbers.h"

namespace rav {

RegisterAutomaton RandomAutomaton(std::mt19937& rng,
                                  const RandomAutomatonOptions& options) {
  const int k = options.num_registers;
  const int n = options.num_states;
  RAV_CHECK_GT(n, 0);
  RegisterAutomaton a(k, options.schema);
  for (int s = 0; s < n; ++s) a.AddState(NumberedName("r", s));

  std::uniform_int_distribution<int> state_dist(0, n - 1);
  auto random_state = [&]() { return StateId(state_dist(rng)); };
  a.SetInitial(random_state());
  a.SetFinal(random_state());

  const int num_elements = 2 * k + options.schema.num_constants();
  std::uniform_int_distribution<int> element_dist(0, num_elements - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> permille(0, 999);

  auto random_guard = [&]() {
    // Build incrementally, keeping only literals that stay satisfiable.
    Type current(2 * k, options.schema.num_constants());
    for (int attempt = 0; attempt < options.literal_attempts; ++attempt) {
      TypeBuilder builder(2 * k, options.schema.num_constants());
      builder.AddAll(current);
      bool relational = options.schema.num_relations() > 0 &&
                        permille(rng) < options.relational_literal_permille;
      if (relational) {
        std::uniform_int_distribution<int> rel_dist(
            0, options.schema.num_relations() - 1);
        RelationId rel = rel_dist(rng);
        std::vector<ElementIndex> args;
        for (int i = 0; i < options.schema.arity(rel); ++i) {
          args.push_back(ElementIndex(element_dist(rng)));
        }
        builder.AddAtom(rel, std::move(args), coin(rng) == 0);
      } else {
        int e1 = element_dist(rng);
        int e2 = element_dist(rng);
        if (e1 == e2) continue;
        if (coin(rng) == 0) {
          builder.AddEq(ElementIndex(e1), ElementIndex(e2));
        } else {
          builder.AddNeq(ElementIndex(e1), ElementIndex(e2));
        }
      }
      Result<Type> next = builder.Build();
      if (next.ok()) current = std::move(next).value();
    }
    return current;
  };

  // Every state gets one outgoing transition; remaining transitions are
  // placed at random sources.
  int remaining = options.num_transitions;
  for (int s = 0; s < n && remaining > 0; ++s, --remaining) {
    a.AddTransition(StateId(s), random_guard(), random_state());
  }
  while (remaining-- > 0) {
    a.AddTransition(random_state(), random_guard(), random_state());
  }
  return a;
}

}  // namespace rav
