// Tests of the guard compilation layer (docs/compilation.md): table
// layout and lowering invariants of GuardTableSet checked against the
// Type algebra and the Type::HoldsIn walk, and randomized differentials
// across the three decision procedures that re-check every compiled
// answer with a reference oracle — realized witnesses and counterexamples
// through the view-less (HoldsIn) run validators, LR-bound covers through
// reference closures.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "compile/guard_tables.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "era/run_check.h"
#include "projection/lr_bounded.h"
#include "ra/control.h"
#include "ra/random.h"
#include "ra/transform.h"

namespace rav {
namespace {

using compile::GuardStats;
using compile::GuardTableSet;

// --- shared generators ---

Dfa RandomConstraintDfa(std::mt19937& rng, int alphabet_size) {
  std::uniform_int_distribution<int> num_states_dist(1, 4);
  const int n = num_states_dist(rng);
  std::uniform_int_distribution<int> state_dist(0, n - 1);
  Dfa dfa(alphabet_size, n, state_dist(rng));
  std::uniform_int_distribution<int> accept_dist(0, 3);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < alphabet_size; ++a) {
      dfa.SetTransition(s, a, state_dist(rng));
    }
    dfa.SetAccepting(s, accept_dist(rng) == 0);
  }
  return dfa;
}

// A random automaton; `relational` adds a schema with a unary and a
// binary relation (LR-boundedness requires a relation-free schema).
RegisterAutomaton MakeRandomAutomaton(std::mt19937& rng, bool relational) {
  RandomAutomatonOptions options;
  options.num_registers = std::uniform_int_distribution<int>(1, 3)(rng);
  options.num_states = std::uniform_int_distribution<int>(2, 4)(rng);
  options.num_transitions = 2 * options.num_states;
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    options.schema.AddConstant("c0");
  }
  if (relational && std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    options.schema.AddRelation("R", 1);
    options.schema.AddRelation("S", 2);
  }
  return RandomAutomaton(rng, options);
}

// A deliberately small relational automaton that stays completable: one
// unary relation, k <= 2, few states (completion is exponential in the
// guard element count — see ra/transform.h).
RegisterAutomaton MakeSmallRelationalAutomaton(std::mt19937& rng) {
  RandomAutomatonOptions options;
  options.num_registers = std::uniform_int_distribution<int>(1, 2)(rng);
  options.num_states = std::uniform_int_distribution<int>(2, 3)(rng);
  options.num_transitions = 2 * options.num_states;
  options.schema.AddRelation("R", 1);
  return RandomAutomaton(rng, options);
}

ExtendedAutomaton AddRandomConstraints(RegisterAutomaton a,
                                       std::mt19937& rng) {
  const int num_states = a.num_states();
  const int k = a.num_registers();
  ExtendedAutomaton era(std::move(a));
  std::uniform_int_distribution<int> num_constraints_dist(0, 3);
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const int nc = num_constraints_dist(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    EXPECT_TRUE(era.AddConstraintDfa(regs, /*is_equality=*/coin(rng) == 1,
                                     RandomConstraintDfa(rng, num_states))
                    .ok());
  }
  return era;
}

ExtendedAutomaton MakeRandomEra(std::mt19937& rng, bool relational) {
  return AddRandomConstraints(MakeRandomAutomaton(rng, relational), rng);
}

// Completion is worst-case exponential (relational schemas especially);
// instances that trip the transition cap are skipped by the caller.
std::optional<ExtendedAutomaton> CompletedEra(const ExtendedAutomaton& era,
                                              size_t max_transitions) {
  Result<RegisterAutomaton> completed =
      Completed(era.automaton(), max_transitions);
  if (!completed.ok()) return std::nullopt;
  ExtendedAutomaton out(std::move(*completed));
  for (const GlobalConstraint& c : era.constraints()) {
    EXPECT_TRUE(
        out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality, c.dfa,
                             c.description)
            .ok());
  }
  return out;
}

// A database with every constant bound and (when the schema has
// relations) a few random facts over a small value pool.
Database MakeRandomDatabase(const Schema& schema, std::mt19937& rng) {
  Database db(schema);
  std::uniform_int_distribution<DataValue> value_dist(0, 5);
  for (int c = 0; c < schema.num_constants(); ++c) {
    db.SetConstant(c, value_dist(rng));
  }
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const int facts = std::uniform_int_distribution<int>(0, 6)(rng);
    for (int f = 0; f < facts; ++f) {
      ValueTuple tuple(schema.arity(r));
      for (DataValue& v : tuple) v = value_dist(rng);
      db.Insert(r, std::move(tuple));
    }
  }
  return db;
}

// --- table layout ---

TEST(GuardTableLayoutTest, BuildDedupsByTypeEquality) {
  std::mt19937 rng(11);
  RegisterAutomaton a = MakeRandomAutomaton(rng, /*relational=*/true);
  const int k = a.num_registers();
  std::vector<const Type*> guards;
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    guards.push_back(&a.transition(ti).guard);
  }
  // Duplicate the whole list: the table set must not grow.
  std::vector<const Type*> doubled = guards;
  doubled.insert(doubled.end(), guards.begin(), guards.end());
  std::vector<GuardId> ids;
  GuardTableSet tables = GuardTableSet::Build(
      doubled, k, a.schema().num_constants(), &ids);
  ASSERT_EQ(ids.size(), doubled.size());
  EXPECT_EQ(tables.num_guards(),
            static_cast<int>(a.DistinctGuards().size()));
  EXPECT_LE(tables.num_guards(), static_cast<int>(guards.size()));
  for (size_t i = 0; i < doubled.size(); ++i) {
    // Each input maps to a table entry equal to it, and duplicates share
    // ids (first-use order, like RegisterAutomaton::DistinctGuards).
    ASSERT_GE(ids[i].value(), 0);
    ASSERT_LT(ids[i].value(), tables.num_guards());
    EXPECT_EQ(tables.guard(ids[i]), *doubled[i]);
    EXPECT_EQ(ids[i].value(), ids[i % guards.size()].value());
  }
}

TEST(GuardTableLayoutTest, RestrictionsMatchTypeAlgebra) {
  std::mt19937 rng(12);
  for (int iteration = 0; iteration < 20; ++iteration) {
    RegisterAutomaton a = MakeRandomAutomaton(rng, /*relational=*/true);
    const int k = a.num_registers();
    std::vector<const Type*> guards;
    for (int ti = 0; ti < a.num_transitions(); ++ti) {
      guards.push_back(&a.transition(ti).guard);
    }
    GuardTableSet tables =
        GuardTableSet::Build(guards, k, a.schema().num_constants());
    EXPECT_GT(tables.table_bytes(), 0u);
    EXPECT_EQ(tables.num_registers(), k);
    for (GuardId id : tables.GuardIds()) {
      EXPECT_EQ(tables.x_restricted(id), RestrictToX(tables.guard(id), k));
      EXPECT_EQ(tables.y_restricted_as_x(id),
                RestrictToYAsX(tables.guard(id), k));
      // The lowered program's instruction count is bounded by the type's
      // element structure: one union per non-representative element, at
      // most one diseq per recorded disequality.
      const Type& g = tables.guard(id);
      EXPECT_EQ(tables.closure_ops(id).unions.size(),
                static_cast<size_t>(g.num_elements() - g.num_classes()));
      EXPECT_LE(tables.closure_ops(id).diseqs.size(),
                g.disequalities().size());
    }
    // The frontier memo against its Type-algebra definition — asked
    // twice, so the memoized answer is checked too.
    compile::FrontierCompatibility frontiers(tables);
    for (int pass = 0; pass < 2; ++pass) {
      for (GuardId g1 : tables.GuardIds()) {
        for (GuardId g2 : tables.GuardIds()) {
          EXPECT_EQ(frontiers.Compatible(g1, g2),
                    RestrictToYAsX(tables.guard(g1), k)
                        .Conjoin(RestrictToX(tables.guard(g2), k))
                        .ok())
              << "guards " << g1.value() << ", " << g2.value();
        }
      }
    }
  }
}

TEST(GuardTableLayoutTest, HoldsMatchesInterpretedWalk) {
  std::mt19937 rng(13);
  std::uniform_int_distribution<DataValue> value_dist(0, 5);
  size_t checked = 0;
  for (int iteration = 0; iteration < 50; ++iteration) {
    RegisterAutomaton a = MakeRandomAutomaton(rng, /*relational=*/true);
    const int k = a.num_registers();
    Database db = MakeRandomDatabase(a.schema(), rng);
    std::vector<const Type*> guards;
    for (int ti = 0; ti < a.num_transitions(); ++ti) {
      guards.push_back(&a.transition(ti).guard);
    }
    std::vector<GuardId> ids;
    GuardTableSet tables =
        GuardTableSet::Build(guards, k, a.schema().num_constants(), &ids);
    GuardStats stats;
    for (int trial = 0; trial < 40; ++trial) {
      const size_t gi = trial % guards.size();
      ValueTuple xy(2 * k);
      for (DataValue& v : xy) v = value_dist(rng);
      const bool interpreted = guards[gi]->HoldsIn(db, xy);
      const bool compiled = tables.Holds(ids[gi], xy.data(), db, &stats);
      EXPECT_EQ(compiled, interpreted) << "guard " << gi;
      ++checked;
    }
    EXPECT_EQ(stats.evals, 40u);
  }
  EXPECT_EQ(checked, 50u * 40u);
}

TEST(GuardTableLayoutTest, EvalBatchMatchesScalarHolds) {
  std::mt19937 rng(14);
  std::uniform_int_distribution<DataValue> value_dist(0, 5);
  for (int iteration = 0; iteration < 30; ++iteration) {
    RegisterAutomaton a = MakeRandomAutomaton(rng, /*relational=*/true);
    const int k = a.num_registers();
    Database db = MakeRandomDatabase(a.schema(), rng);
    std::vector<const Type*> guards;
    for (int ti = 0; ti < a.num_transitions(); ++ti) {
      guards.push_back(&a.transition(ti).guard);
    }
    std::vector<GuardId> ids;
    GuardTableSet tables =
        GuardTableSet::Build(guards, k, a.schema().num_constants(), &ids);
    const size_t count = std::uniform_int_distribution<size_t>(1, 33)(rng);
    // Element-major SoA: soa[e * count + i] = element e of valuation i.
    std::vector<DataValue> soa(2 * k * count);
    std::vector<ValueTuple> rows(count, ValueTuple(2 * k));
    for (size_t i = 0; i < count; ++i) {
      for (int e = 0; e < 2 * k; ++e) {
        rows[i][e] = value_dist(rng);
        soa[static_cast<size_t>(e) * count + i] = rows[i][e];
      }
    }
    const GuardId id = ids[iteration % ids.size()];
    std::vector<unsigned char> ok(count, 1);
    GuardStats stats;
    tables.EvalBatch(id, soa.data(), count, db, ok.data(), &stats);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.evals, count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(ok[i] != 0, tables.guard(id).HoldsIn(db, rows[i]))
          << "valuation " << i;
    }
  }
}

TEST(GuardTableLayoutTest, AlphabetSymbolsIndexOneTableSet) {
  std::mt19937 rng(15);
  for (int iteration = 0; iteration < 10; ++iteration) {
    ExtendedAutomaton era = MakeRandomEra(rng, /*relational=*/true);
    const RegisterAutomaton& a = era.automaton();
    const int k = a.num_registers();
    ControlAlphabet alphabet(a);
    const GuardTableSet& tables = alphabet.tables();
    EXPECT_TRUE(alphabet.transition_guard_view());
    EXPECT_GT(alphabet.guard_table_bytes(), 0u);
    EXPECT_EQ(alphabet.num_distinct_guards(),
              static_cast<int>(a.DistinctGuards().size()));
    for (int ti = 0; ti < a.num_transitions(); ++ti) {
      const RaTransition& t = a.transition(ti);
      const SymbolId s = alphabet.SymbolOfTransition(ti);
      // Symbols are the distinct (state, guard) pairs, first-use order.
      EXPECT_EQ(alphabet.SymbolOf(t.from, t.guard), s);
      EXPECT_EQ(alphabet.state_of(s), t.from);
      EXPECT_EQ(alphabet.guard_of(s), t.guard);
      EXPECT_EQ(alphabet.guard_id_of_symbol(s),
                alphabet.transition_guard_view().guard_id_of_transition[ti]);
    }
    for (SymbolId s : alphabet.Symbols()) {
      const GuardId gid = alphabet.guard_id_of_symbol(s);
      EXPECT_EQ(alphabet.x_restricted_guard_of(s),
                RestrictToX(alphabet.guard_of(s), k));
      EXPECT_EQ(alphabet.closure_program_of_symbol(s).valid(),
                !tables.closure_ops(gid).empty());
      EXPECT_EQ(alphabet.x_closure_program_of_symbol(s).valid(),
                !tables.x_closure_ops(gid).empty());
    }
  }
}

// --- randomized differentials: every compiled answer of the three
// --- decision procedures re-checked by a reference oracle (>= 220
// --- instances total)

// Realizes `word` (a control lasso of `alphabet`) over its pumped window
// and re-checks the run with the view-less validator, whose guard checks
// are the Type::HoldsIn walk rather than the tables the search used.
void ExpectRealizesUnderReference(const ExtendedAutomaton& era,
                                  const ControlAlphabet& alphabet,
                                  const LassoWord& word, int instance) {
  const size_t window =
      word.prefix.size() + word.cycle.size() * SuggestedPumpCount(era);
  Result<RunWitness> witness = RealizeEraWitness(era, alphabet, word, window);
  ASSERT_TRUE(witness.ok()) << "instance " << instance << ": "
                            << witness.status().ToString();
  EXPECT_TRUE(ValidateEraRunPrefix(era, witness->db, witness->run,
                                   /*require_initial=*/true)
                  .ok())
      << "instance " << instance;
}

TEST(GuardTableDiffTest, EmptinessAgreesOnRandomInstances) {
  std::mt19937 rng(20260809);
  int instances = 0;
  int attempts = 0;
  int nonempty = 0;
  while (instances < 100 && attempts < 500) {
    ++attempts;
    // Every third instance carries a (small, unary-relation) relational
    // schema; larger relational completions are exponential, and any
    // instance tripping the completion cap is skipped.
    const bool relational = instances % 3 == 2;
    std::optional<ExtendedAutomaton> era = CompletedEra(
        relational
            ? AddRandomConstraints(MakeSmallRelationalAutomaton(rng), rng)
            : MakeRandomEra(rng, /*relational=*/false),
        /*max_transitions=*/256);
    if (!era.has_value()) continue;
    ++instances;
    ControlAlphabet alphabet(era->automaton());
    EraEmptinessOptions options;
    options.analyze_and_strip = false;  // isolate the engine under test
    options.max_lasso_length = 6;
    options.max_lassos = 300;
    options.max_search_steps = 20000;
    options.num_workers = 1;
    auto result = CheckEraEmptiness(*era, alphabet, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->stats.lassos_checked > 0) {
      EXPECT_GT(result->stats.guard_table_bytes, 0u);
    }
    if (!result->nonempty) continue;
    ++nonempty;
    EXPECT_TRUE(ReferenceConstraintClosure(
                    *era, alphabet, result->control_word,
                    result->control_word.prefix.size() +
                        result->control_word.cycle.size() *
                            SuggestedPumpCount(*era))
                    .consistent())
        << "instance " << instances;
    ExpectRealizesUnderReference(*era, alphabet, result->control_word,
                                 instances);
  }
  EXPECT_EQ(instances, 100);
  EXPECT_GT(nonempty, 0);
}

TEST(GuardTableDiffTest, LtlFoAgreesOnRandomInstances) {
  std::mt19937 rng(20260810);
  int fails = 0;
  for (int iteration = 0; iteration < 60; ++iteration) {
    ExtendedAutomaton era = MakeRandomEra(rng, /*relational=*/false);
    const int k = era.automaton().num_registers();
    std::uniform_int_distribution<int> var_dist(0, 2 * k - 1);
    LtlFoProperty prop;
    const int v1 = var_dist(rng);
    const int v2 = var_dist(rng);
    prop.propositions = {Formula::Eq(Term::Var(v1), Term::Var(v2))};
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        prop.formula = LtlFormula::Globally(LtlFormula::Ap(0));
        break;
      case 1:
        prop.formula = LtlFormula::Eventually(LtlFormula::Ap(0));
        break;
      default:
        prop.formula =
            LtlFormula::Globally(LtlFormula::Not(LtlFormula::Ap(0)));
        break;
    }
    VerificationOptions options;
    options.analyze_and_strip = false;
    options.emptiness.max_lasso_length = 6;
    options.emptiness.max_lassos = 300;
    options.emptiness.max_search_steps = 20000;
    options.emptiness.num_workers = 1;
    auto result = VerifyLtlFo(era, prop, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->holds, !result->counterexample.has_value())
        << "iteration " << iteration;
    if (!result->counterexample.has_value()) continue;
    ++fails;
    // The counterexample is a control lasso of the refined automaton the
    // verifier searched.
    Result<ExtendedAutomaton> refined =
        RefineForPropositions(era, prop.propositions);
    ASSERT_TRUE(refined.ok()) << refined.status().ToString();
    ControlAlphabet alphabet(refined->automaton());
    ExpectRealizesUnderReference(*refined, alphabet, *result->counterexample,
                                 iteration);
  }
  EXPECT_GT(fails, 0);
}

// EstimateLrBound's aggregate recomputed over the same sampled lassos with
// reference closures: each window re-walks the Type objects per position
// (no table replay) and the large window is rebuilt instead of extended.
struct ReferenceLrBound {
  int max_cover = 0;
  bool growth_detected = false;
  SearchStopReason stop_reason = SearchStopReason::kExhausted;
};

ReferenceLrBound ReferenceEstimateLrBound(const ExtendedAutomaton& era,
                                          const ControlAlphabet& alphabet,
                                          const LrBoundOptions& options) {
  const size_t pump_small =
      2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
  const size_t pump_large = 2 * pump_small;
  ReferenceLrBound out;
  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  search_options.num_workers = 1;
  LassoSearchOutcome outcome = SearchLassos(
      BuildSControlNba(era.automaton(), alphabet), search_options,
      [&](const LassoCandidate& candidate, LassoWorkerCounters&) {
        const LassoWord& w = candidate.word;
        const int cover_small =
            MaxCutVertexCoverOfClosure(ReferenceConstraintClosure(
                era, alphabet, w, w.prefix.size() + w.cycle.size() * pump_small));
        if (cover_small < 0) return LassoVerdict::kInconsistent;
        const int cover_large =
            MaxCutVertexCoverOfClosure(ReferenceConstraintClosure(
                era, alphabet, w, w.prefix.size() + w.cycle.size() * pump_large));
        out.max_cover = std::max(out.max_cover, cover_small);
        if (cover_large > cover_small) out.growth_detected = true;
        return LassoVerdict::kReject;
      });
  out.stop_reason = outcome.stats.stop_reason;
  return out;
}

TEST(GuardTableDiffTest, LrBoundAgreesOnRandomInstances) {
  std::mt19937 rng(20260811);
  for (int iteration = 0; iteration < 60; ++iteration) {
    ExtendedAutomaton era = MakeRandomEra(rng, /*relational=*/false);
    ControlAlphabet alphabet(era.automaton());
    LrBoundOptions options;
    options.analyze_and_strip = false;
    options.max_lasso_length = 5;
    options.max_lassos = 200;
    options.max_search_steps = 20000;
    options.num_workers = 1;
    auto result = EstimateLrBound(era, alphabet, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ReferenceLrBound reference =
        ReferenceEstimateLrBound(era, alphabet, options);
    EXPECT_EQ(result->max_cover, reference.max_cover)
        << "iteration " << iteration;
    EXPECT_EQ(result->growth_detected, reference.growth_detected)
        << "iteration " << iteration;
    EXPECT_EQ(result->stats.stop_reason, reference.stop_reason)
        << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace rav
