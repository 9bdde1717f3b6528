#include "compile/guard_tables.h"

#include "base/logging.h"

namespace rav::compile {

namespace {

// Lowers one type into its closure/eval ops: union pairs (first element of
// each class, later element), diseq pairs between first elements, adom
// marks of positive-atom argument classes — the instruction stream the
// closure engine replays per window position, computed once per guard.
// `rep` is reused scratch; returns the per-class representative elements.
void LowerOps(const Type& t, std::vector<int>& rep, GuardOps& ops) {
  rep.assign(t.num_classes(), -1);
  for (int e = 0; e < t.num_elements(); ++e) {
    const int c = t.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      ops.unions.emplace_back(rep[c], e);
    }
  }
  for (const auto& [c1, c2] : t.disequalities()) {
    ops.diseqs.emplace_back(rep[c1], rep[c2]);
  }
  for (const TypeAtom& a : t.atoms()) {
    if (!a.positive) continue;
    for (int c : a.args) ops.adom.push_back(rep[c]);
  }
}

}  // namespace

GuardTableSet GuardTableSet::Build(const std::vector<const Type*>& guards,
                                   int k, int num_constants,
                                   std::vector<GuardId>* id_of_input) {
  GuardTableSet set;
  set.k_ = k;
  set.num_constants_ = num_constants;
  if (id_of_input != nullptr) {
    id_of_input->clear();
    id_of_input->reserve(guards.size());
  }
  std::vector<int> rep;
  for (const Type* g : guards) {
    RAV_CHECK(g != nullptr);
    RAV_CHECK_EQ(g->num_vars(), 2 * k);
    RAV_CHECK_EQ(g->num_constants(), num_constants);
    int id = -1;
    for (size_t d = 0; d < set.guards_.size(); ++d) {
      if (set.guards_[d] == *g) {
        id = static_cast<int>(d);
        break;
      }
    }
    if (id < 0) {
      id = set.num_guards();
      set.guards_.push_back(*g);
      set.x_restricted_.push_back(RestrictToX(*g, k));
      set.y_restricted_.push_back(RestrictToYAsX(*g, k));
      GuardOps& ops = set.ops_.emplace_back();
      LowerOps(*g, rep, ops);
      // The evaluation atoms (both signs) over the same representatives.
      std::vector<GuardAtom>& atoms = set.atoms_.emplace_back();
      for (const TypeAtom& a : g->atoms()) {
        GuardAtom& atom = atoms.emplace_back();
        atom.relation = a.relation;
        atom.positive = a.positive;
        atom.arg_elements.reserve(a.args.size());
        for (int c : a.args) atom.arg_elements.push_back(rep[c]);
      }
      GuardOps& x_ops = set.x_ops_.emplace_back();
      LowerOps(set.x_restricted_[id], rep, x_ops);
    }
    if (id_of_input != nullptr) id_of_input->push_back(GuardId(id));
  }
  for (int id = 0; id < set.num_guards(); ++id) {
    set.table_bytes_ += set.ops_[id].bytes() + set.x_ops_[id].bytes();
    for (const GuardAtom& a : set.atoms_[id]) {
      set.table_bytes_ += sizeof(GuardAtom) +
                          a.arg_elements.capacity() * sizeof(int);
    }
    // Rough footprint of the retained Types (class map + literal lists).
    set.table_bytes_ +=
        3 * sizeof(Type) +
        static_cast<size_t>(set.guards_[id].num_elements() +
                            set.x_restricted_[id].num_elements() +
                            set.y_restricted_[id].num_elements()) *
            sizeof(int);
  }
  return set;
}

bool GuardTableSet::Holds(GuardId id, const DataValue* xy, const Database& db,
                          GuardStats* stats) const {
  if (stats != nullptr) ++stats->evals;
  const int two_k = 2 * k_;
  auto value_of = [&](int e) -> DataValue {
    return e < two_k ? xy[e] : db.constant(e - two_k);
  };
  const GuardOps& ops = ops_[id.value()];
  // The union pairs are exactly "every element equals its class's first
  // element", so conjoining them decides the same forced equalities as
  // HoldsIn's first-seen walk; diseqs and atoms read the representatives.
  for (const auto& [a, b] : ops.unions) {
    if (value_of(a) != value_of(b)) return false;
  }
  for (const auto& [a, b] : ops.diseqs) {
    if (value_of(a) == value_of(b)) return false;
  }
  if (!atoms_[id.value()].empty()) {
    ValueTuple args;
    for (const GuardAtom& atom : atoms_[id.value()]) {
      args.clear();
      args.reserve(atom.arg_elements.size());
      for (int e : atom.arg_elements) args.push_back(value_of(e));
      if (db.Contains(atom.relation, args) != atom.positive) return false;
    }
  }
  return true;
}

void GuardTableSet::EvalBatch(GuardId id, const DataValue* soa, size_t count,
                              const Database& db, unsigned char* ok,
                              GuardStats* stats) const {
  if (stats != nullptr) {
    ++stats->batches;
    stats->evals += count;
  }
  if (count == 0) return;
  const int two_k = 2 * k_;
  const GuardOps& ops = ops_[id.value()];
  auto row = [&](int e) { return soa + static_cast<size_t>(e) * count; };
  auto constant_of = [&](int e) { return db.constant(e - two_k); };
  // One pass over the batch per instruction. Register-register compares
  // are the common case and vectorize; a constant operand broadcasts.
  for (const auto& [a, b] : ops.unions) {
    if (a < two_k && b < two_k) {
      const DataValue* ra = row(a);
      const DataValue* rb = row(b);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(ra[i] == rb[i]);
      }
    } else if (a < two_k || b < two_k) {
      const DataValue* r = row(a < two_k ? a : b);
      const DataValue c = constant_of(a < two_k ? b : a);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(r[i] == c);
      }
    } else if (constant_of(a) != constant_of(b)) {
      for (size_t i = 0; i < count; ++i) ok[i] = 0;
      return;
    }
  }
  for (const auto& [a, b] : ops.diseqs) {
    if (a < two_k && b < two_k) {
      const DataValue* ra = row(a);
      const DataValue* rb = row(b);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(ra[i] != rb[i]);
      }
    } else if (a < two_k || b < two_k) {
      const DataValue* r = row(a < two_k ? a : b);
      const DataValue c = constant_of(a < two_k ? b : a);
      for (size_t i = 0; i < count; ++i) {
        ok[i] &= static_cast<unsigned char>(r[i] != c);
      }
    } else if (constant_of(a) == constant_of(b)) {
      for (size_t i = 0; i < count; ++i) ok[i] = 0;
      return;
    }
  }
  if (atoms_[id.value()].empty()) return;
  // Relational atoms go through the database per surviving valuation —
  // they cannot be a flat compare, but the (in)equality instructions above
  // have already thinned the batch.
  ValueTuple args;
  for (size_t i = 0; i < count; ++i) {
    if (!ok[i]) continue;
    for (const GuardAtom& atom : atoms_[id.value()]) {
      args.clear();
      args.reserve(atom.arg_elements.size());
      for (int e : atom.arg_elements) {
        args.push_back(e < two_k ? soa[static_cast<size_t>(e) * count + i]
                                 : constant_of(e));
      }
      if (db.Contains(atom.relation, args) != atom.positive) {
        ok[i] = 0;
        break;
      }
    }
  }
}

bool FrontierCompatibility::Compatible(GuardId before, GuardId after) {
  int8_t& memo = memo_[static_cast<size_t>(before.value()) *
                           tables_->num_guards() +
                       after.value()];
  if (memo < 0) {
    memo = tables_->y_restricted_as_x(before)
                   .Conjoin(tables_->x_restricted(after))
                   .ok()
               ? 1
               : 0;
  }
  return memo == 1;
}

}  // namespace rav::compile
