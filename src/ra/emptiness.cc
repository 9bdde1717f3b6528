#include "ra/emptiness.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <tuple>

#include "base/union_find.h"
#include "base/value.h"
#include "ra/transform.h"

namespace rav {

std::optional<LassoWord> FindSymbolicControlLasso(
    const RegisterAutomaton& automaton, const ControlAlphabet& alphabet) {
  Nba scontrol = BuildSControlNba(automaton, alphabet);
  return scontrol.FindAcceptingLasso();
}

Result<bool> HasSomeRun(const RegisterAutomaton& automaton) {
  const RegisterAutomaton* a = &automaton;
  std::optional<RegisterAutomaton> completed;
  if (!automaton.IsComplete()) {
    RAV_ASSIGN_OR_RETURN(RegisterAutomaton c, Completed(automaton));
    completed = std::move(c);
    a = &*completed;
  }
  ControlAlphabet alphabet(*a);
  return FindSymbolicControlLasso(*a, alphabet).has_value();
}

Result<RunWitness> RealizeWitness(const RegisterAutomaton& automaton,
                                  const ControlAlphabet& alphabet,
                                  const LassoWord& control_word,
                                  size_t length) {
  if (length == 0) return Status::InvalidArgument("RealizeWitness: length 0");
  const int k = automaton.num_registers();
  const int num_constants = automaton.schema().num_constants();

  // Node space: (position, register) pairs plus one global node per
  // constant symbol (the constant anchors equality across positions).
  auto reg_node = [&](size_t pos, int reg) {
    return static_cast<int>(pos) * k + reg;
  };
  const int const_base = static_cast<int>(length) * k;
  auto const_node = [&](int c) { return const_base + c; };
  UnionFind uf(length * k + num_constants);

  // Per position, the transition type (full for inner positions, x̄-only
  // restriction for the last). Merge the equalities into the union-find.
  std::vector<const Type*> guards(length, nullptr);
  for (size_t n = 0; n < length; ++n) {
    const int symbol = control_word.SymbolAt(n);
    if (symbol < 0 || symbol >= alphabet.size()) {
      return Status::InvalidArgument("RealizeWitness: bad control symbol");
    }
    guards[n] = &alphabet.guard_of(SymbolId(symbol));
  }

  // Maps a type element (over 2k vars + constants) at step n to a node.
  auto element_node = [&](size_t n, int element) -> int {
    if (element < k) return reg_node(n, element);
    if (element < 2 * k) {
      RAV_CHECK_LT(n + 1, length);
      return reg_node(n + 1, element - k);
    }
    return const_node(element - 2 * k);
  };
  // Same for an element of a k-var restricted type at the last position.
  auto last_element_node = [&](int element) -> int {
    if (element < k) return reg_node(length - 1, element);
    return const_node(element - k);
  };

  Type last_restricted = RestrictToX(*guards[length - 1], k);
  for (size_t n = 0; n + 1 < length; ++n) {
    const Type& t = *guards[n];
    // Merge equal elements: walk classes via representative chains.
    std::vector<int> rep(t.num_classes(), -1);
    for (int e = 0; e < t.num_elements(); ++e) {
      int c = t.ClassOf(e);
      if (rep[c] < 0) {
        rep[c] = e;
      } else {
        uf.Union(element_node(n, rep[c]), element_node(n, e));
      }
    }
  }
  {
    const Type& t = last_restricted;
    std::vector<int> rep(t.num_classes(), -1);
    for (int e = 0; e < t.num_elements(); ++e) {
      int c = t.ClassOf(e);
      if (rep[c] < 0) {
        rep[c] = e;
      } else {
        uf.Union(last_element_node(rep[c]), last_element_node(e));
      }
    }
  }

  // One fresh value per node class.
  std::map<int, DataValue> class_value;
  DataValue next_value = 0;
  auto value_of = [&](int node) {
    int root = uf.Find(node);
    auto it = class_value.find(root);
    if (it != class_value.end()) return it->second;
    DataValue v = next_value++;
    class_value.emplace(root, v);
    return v;
  };

  // Disequality check: elements forced distinct must land in different
  // classes (otherwise the symbolic word is not realizable).
  auto check_diseqs = [&](const Type& t,
                          const std::function<int(int)>& node_of) -> Status {
    std::vector<int> rep(t.num_classes(), -1);
    for (int e = 0; e < t.num_elements(); ++e) {
      if (rep[t.ClassOf(e)] < 0) rep[t.ClassOf(e)] = e;
    }
    for (const auto& [c1, c2] : t.disequalities()) {
      if (uf.Same(node_of(rep[c1]), node_of(rep[c2]))) {
        return Status::InvalidArgument(
            "RealizeWitness: symbolic word not realizable (equality closure "
            "contradicts a disequality)");
      }
    }
    return Status::OK();
  };
  for (size_t n = 0; n + 1 < length; ++n) {
    RAV_RETURN_IF_ERROR(check_diseqs(
        *guards[n], [&](int e) { return element_node(n, e); }));
  }
  RAV_RETURN_IF_ERROR(
      check_diseqs(last_restricted, [&](int e) { return last_element_node(e); }));

  // Build the database: constants, then positive atoms; finally verify the
  // negative atoms.
  Database db(automaton.schema());
  for (int c = 0; c < num_constants; ++c) {
    db.SetConstant(c, value_of(const_node(c)));
  }
  auto atom_tuple = [&](const Type& t, const TypeAtom& atom,
                        const std::function<int(int)>& node_of) {
    std::vector<int> rep(t.num_classes(), -1);
    for (int e = 0; e < t.num_elements(); ++e) {
      if (rep[t.ClassOf(e)] < 0) rep[t.ClassOf(e)] = e;
    }
    ValueTuple tuple;
    tuple.reserve(atom.args.size());
    for (int c : atom.args) tuple.push_back(value_of(node_of(rep[c])));
    return tuple;
  };
  for (size_t n = 0; n + 1 < length; ++n) {
    for (const TypeAtom& atom : guards[n]->atoms()) {
      if (!atom.positive) continue;
      db.Insert(atom.relation,
                atom_tuple(*guards[n], atom,
                           [&](int e) { return element_node(n, e); }));
    }
  }
  for (const TypeAtom& atom : last_restricted.atoms()) {
    if (!atom.positive) continue;
    db.Insert(atom.relation,
              atom_tuple(last_restricted, atom,
                         [&](int e) { return last_element_node(e); }));
  }
  // Negative atoms must not have been inserted.
  for (size_t n = 0; n + 1 < length; ++n) {
    for (const TypeAtom& atom : guards[n]->atoms()) {
      if (atom.positive) continue;
      if (db.Contains(atom.relation,
                      atom_tuple(*guards[n], atom, [&](int e) {
                        return element_node(n, e);
                      }))) {
        return Status::InvalidArgument(
            "RealizeWitness: symbolic word not realizable (positive and "
            "negative atoms collide)");
      }
    }
  }
  for (const TypeAtom& atom : last_restricted.atoms()) {
    if (atom.positive) continue;
    if (db.Contains(atom.relation,
                    atom_tuple(last_restricted, atom, [&](int e) {
                      return last_element_node(e);
                    }))) {
      return Status::InvalidArgument(
          "RealizeWitness: symbolic word not realizable at last position");
    }
  }

  // Assemble the run.
  FiniteRun run;
  run.values.resize(length);
  run.states.resize(length);
  for (size_t n = 0; n < length; ++n) {
    run.states[n] = alphabet.state_of(SymbolId(control_word.SymbolAt(n)));
    run.values[n].resize(k);
    for (int i = 0; i < k; ++i) run.values[n][i] = value_of(reg_node(n, i));
  }
  // Transition indices: locate (q_n, guard_n, q_{n+1}).
  for (size_t n = 0; n + 1 < length; ++n) {
    int found = -1;
    for (int ti : automaton.TransitionsFrom(run.states[n])) {
      const RaTransition& t = automaton.transition(ti);
      if (t.to == run.states[n + 1] && t.guard == *guards[n]) {
        found = ti;
        break;
      }
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "RealizeWitness: control word does not follow the transition "
          "relation");
    }
    run.transition_indices.push_back(found);
  }

  RAV_RETURN_IF_ERROR(ValidateRunPrefix(automaton, db, run,
                                        /*require_initial=*/false,
                                        alphabet.transition_guard_view()));
  return RunWitness{std::move(db), std::move(run)};
}

// ---------------------------------------------------------------------------
// Fixed-database emptiness via the region abstraction.

namespace {

// Abstract register value: codes [0, A) are active-domain values (indices
// into the sorted active domain); codes >= A are equality classes of
// values outside the active domain, canonicalized by first occurrence in
// the register tuple.
using AbstractTuple = std::vector<int>;

AbstractTuple Canonicalize(const AbstractTuple& tuple, int adom_size) {
  AbstractTuple out(tuple.size());
  std::map<int, int> remap;
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i] < adom_size) {
      out[i] = tuple[i];
    } else {
      auto it = remap.find(tuple[i]);
      if (it == remap.end()) {
        it = remap.emplace(tuple[i],
                           adom_size + static_cast<int>(remap.size())).first;
      }
      out[i] = it->second;
    }
  }
  return out;
}

// Evaluates `guard` on abstract x̄/ȳ codes. Codes >= adom_size denote
// pairwise-distinct values outside the active domain (so relational atoms
// over them are false).
bool GuardHoldsAbstract(const Type& guard, const AbstractTuple& x,
                        const AbstractTuple& y, const Database& db,
                        const std::vector<DataValue>& adom,
                        const std::vector<int>& constant_codes) {
  const int k = static_cast<int>(x.size());
  auto code_of = [&](int element) -> int {
    if (element < k) return x[element];
    if (element < 2 * k) return y[element - k];
    return constant_codes[element - 2 * k];
  };
  // Equalities within classes.
  std::vector<int> class_code(guard.num_classes(), -2);
  for (int e = 0; e < guard.num_elements(); ++e) {
    int c = guard.ClassOf(e);
    int code = code_of(e);
    if (class_code[c] == -2) {
      class_code[c] = code;
    } else if (class_code[c] != code) {
      return false;
    }
  }
  for (const auto& [c1, c2] : guard.disequalities()) {
    if (class_code[c1] == class_code[c2]) return false;
  }
  const int adom_size = static_cast<int>(adom.size());
  for (const TypeAtom& atom : guard.atoms()) {
    bool in_adom = true;
    ValueTuple tuple;
    tuple.reserve(atom.args.size());
    for (int c : atom.args) {
      int code = class_code[c];
      if (code >= adom_size) {
        in_adom = false;
        break;
      }
      tuple.push_back(adom[code]);
    }
    bool holds = in_adom && db.Contains(atom.relation, tuple);
    if (holds != atom.positive) return false;
  }
  return true;
}

}  // namespace

bool HasRunOverDatabase(const RegisterAutomaton& automaton, const Database& db,
                        FixedDbStats* stats) {
  const int k = automaton.num_registers();
  const std::vector<DataValue> adom = db.ActiveDomain();
  const int adom_size = static_cast<int>(adom.size());

  // Constant codes (constants are in the active domain by definition).
  std::vector<int> constant_codes(automaton.schema().num_constants(), -1);
  for (int c = 0; c < automaton.schema().num_constants(); ++c) {
    DataValue v = db.constant(c);
    auto it = std::lower_bound(adom.begin(), adom.end(), v);
    RAV_CHECK(it != adom.end() && *it == v);
    constant_codes[c] = static_cast<int>(it - adom.begin());
  }

  // Configuration space.
  struct Config {
    StateId state;
    AbstractTuple values;
    bool operator<(const Config& o) const {
      return std::tie(state, values) < std::tie(o.state, o.values);
    }
  };
  std::map<Config, int> config_ids;
  std::vector<Config> configs;
  Nba graph(std::max(automaton.num_transitions(), 1));
  std::queue<int> work;
  auto intern = [&](Config c) {
    auto it = config_ids.find(c);
    if (it != config_ids.end()) return it->second;
    int id = graph.AddState();
    config_ids.emplace(c, id);
    configs.push_back(c);
    if (automaton.IsFinal(c.state)) graph.SetAccepting(id);
    work.push(id);
    return id;
  };

  // Initial configurations: every initial state with every canonical
  // abstract tuple. The number of canonical tuples is bounded by
  // (adom + k)^k; enumerate them.
  {
    std::vector<int> tuple(k, 0);
    auto emit = [&]() {
      AbstractTuple canon = Canonicalize(tuple, adom_size);
      if (canon != tuple) return;  // enumerate canonical forms only
      for (StateId q : automaton.InitialStates()) {
        graph.SetInitial(intern(Config{q, canon}));
      }
    };
    if (k == 0) {
      emit();
    } else {
      const int limit = adom_size + k;
      while (true) {
        emit();
        int i = k - 1;
        while (i >= 0 && tuple[i] == limit - 1) {
          tuple[i] = 0;
          --i;
        }
        if (i < 0) break;
        ++tuple[i];
      }
    }
  }

  size_t num_edges = 0;
  while (!work.empty()) {
    int id = work.front();
    work.pop();
    Config current = configs[id];  // copy: configs may reallocate
    for (int ti : automaton.TransitionsFrom(current.state)) {
      const RaTransition& t = automaton.transition(ti);
      // Enumerate successor abstract tuples: each register takes an adom
      // code or a class code; class codes range over the current tuple's
      // classes plus up to k fresh ones.
      int max_class = adom_size;
      for (int code : current.values) max_class = std::max(max_class, code + 1);
      const int limit = max_class + k;
      std::vector<int> next(k, 0);
      std::set<AbstractTuple> seen_next;
      auto try_next = [&]() {
        if (!GuardHoldsAbstract(t.guard, current.values, next, db, adom,
                                constant_codes)) {
          return;
        }
        AbstractTuple canon = Canonicalize(next, adom_size);
        if (!seen_next.insert(canon).second) return;
        int to = intern(Config{t.to, canon});
        graph.AddTransition(id, automaton.num_transitions() > 0 ? ti : 0, to);
        ++num_edges;
      };
      if (k == 0) {
        try_next();
      } else {
        while (true) {
          try_next();
          int i = k - 1;
          while (i >= 0 && next[i] == limit - 1) {
            next[i] = 0;
            --i;
          }
          if (i < 0) break;
          ++next[i];
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->num_configurations = configs.size();
    stats->num_edges = num_edges;
  }
  return graph.FindAcceptingLasso().has_value();
}

}  // namespace rav
