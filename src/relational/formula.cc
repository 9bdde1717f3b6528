#include "relational/formula.h"

#include <algorithm>
#include <sstream>

#include "base/numbers.h"

namespace rav {

namespace {

std::string TermToString(const Term& t, const Schema& schema,
                         int num_registers) {
  if (t.kind == Term::Kind::kConstant) return schema.constant_name(t.index);
  if (num_registers > 0 && t.index < 2 * num_registers) {
    if (t.index < num_registers) return NumberedName("x", t.index + 1);
    return NumberedName("y", t.index - num_registers + 1);
  }
  return NumberedName("v", t.index);
}

DataValue ResolveTerm(const Term& t, const Database& db,
                      const ValueTuple& valuation) {
  if (t.kind == Term::Kind::kConstant) return db.constant(t.index);
  RAV_CHECK_GE(t.index, 0);
  RAV_CHECK_LT(static_cast<size_t>(t.index), valuation.size());
  return valuation[t.index];
}

}  // namespace

Formula Formula::True() {
  auto node = std::make_shared<Node>();
  node->op = Op::kTrue;
  return Formula(std::move(node));
}

Formula Formula::False() {
  auto node = std::make_shared<Node>();
  node->op = Op::kFalse;
  return Formula(std::move(node));
}

Formula Formula::Eq(Term a, Term b) {
  auto node = std::make_shared<Node>();
  node->op = Op::kEq;
  node->terms = {a, b};
  return Formula(std::move(node));
}

Formula Formula::Neq(Term a, Term b) { return Not(Eq(a, b)); }

Formula Formula::Rel(RelationId rel, std::vector<Term> args) {
  auto node = std::make_shared<Node>();
  node->op = Op::kRel;
  node->relation = rel;
  node->terms = std::move(args);
  return Formula(std::move(node));
}

Formula Formula::NotRel(RelationId rel, std::vector<Term> args) {
  return Not(Rel(rel, std::move(args)));
}

Formula Formula::Not(Formula f) {
  auto node = std::make_shared<Node>();
  node->op = Op::kNot;
  node->children = {std::move(f)};
  return Formula(std::move(node));
}

Formula Formula::And(Formula a, Formula b) {
  auto node = std::make_shared<Node>();
  node->op = Op::kAnd;
  node->children = {std::move(a), std::move(b)};
  return Formula(std::move(node));
}

Formula Formula::Or(Formula a, Formula b) {
  auto node = std::make_shared<Node>();
  node->op = Op::kOr;
  node->children = {std::move(a), std::move(b)};
  return Formula(std::move(node));
}

Formula Formula::AndAll(const std::vector<Formula>& fs) {
  if (fs.empty()) return True();
  Formula acc = fs[0];
  for (size_t i = 1; i < fs.size(); ++i) acc = And(acc, fs[i]);
  return acc;
}

Formula Formula::OrAll(const std::vector<Formula>& fs) {
  if (fs.empty()) return False();
  Formula acc = fs[0];
  for (size_t i = 1; i < fs.size(); ++i) acc = Or(acc, fs[i]);
  return acc;
}

bool Formula::Eval(const Database& db, const ValueTuple& valuation) const {
  switch (node_->op) {
    case Op::kTrue:
      return true;
    case Op::kFalse:
      return false;
    case Op::kEq:
      return ResolveTerm(node_->terms[0], db, valuation) ==
             ResolveTerm(node_->terms[1], db, valuation);
    case Op::kRel: {
      ValueTuple args;
      args.reserve(node_->terms.size());
      for (const Term& t : node_->terms) {
        args.push_back(ResolveTerm(t, db, valuation));
      }
      return db.Contains(node_->relation, args);
    }
    case Op::kNot:
      return !node_->children[0].Eval(db, valuation);
    case Op::kAnd:
      for (const Formula& c : node_->children) {
        if (!c.Eval(db, valuation)) return false;
      }
      return true;
    case Op::kOr:
      for (const Formula& c : node_->children) {
        if (c.Eval(db, valuation)) return true;
      }
      return false;
  }
  RAV_CHECK(false);
  return false;
}

bool Formula::EvalEqualityOnly(const ValueTuple& valuation) const {
  switch (node_->op) {
    case Op::kTrue:
      return true;
    case Op::kFalse:
      return false;
    case Op::kEq: {
      const Term& a = node_->terms[0];
      const Term& b = node_->terms[1];
      RAV_CHECK(a.is_variable() && b.is_variable());
      RAV_CHECK_LT(static_cast<size_t>(a.index), valuation.size());
      RAV_CHECK_LT(static_cast<size_t>(b.index), valuation.size());
      return valuation[a.index] == valuation[b.index];
    }
    case Op::kRel:
      RAV_CHECK(false);  // not equality-only
      return false;
    case Op::kNot:
      return !node_->children[0].EvalEqualityOnly(valuation);
    case Op::kAnd:
      for (const Formula& c : node_->children) {
        if (!c.EvalEqualityOnly(valuation)) return false;
      }
      return true;
    case Op::kOr:
      for (const Formula& c : node_->children) {
        if (c.EvalEqualityOnly(valuation)) return true;
      }
      return false;
  }
  RAV_CHECK(false);
  return false;
}

int Formula::MaxVariableIndex() const {
  int max_index = -1;
  for (const Term& t : node_->terms) {
    if (t.is_variable()) max_index = std::max(max_index, t.index);
  }
  for (const Formula& c : node_->children) {
    max_index = std::max(max_index, c.MaxVariableIndex());
  }
  return max_index;
}

std::string Formula::ToString(const Schema& schema, int num_registers) const {
  std::ostringstream out;
  switch (node_->op) {
    case Op::kTrue:
      out << "true";
      break;
    case Op::kFalse:
      out << "false";
      break;
    case Op::kEq:
      out << TermToString(node_->terms[0], schema, num_registers) << " = "
          << TermToString(node_->terms[1], schema, num_registers);
      break;
    case Op::kRel:
      out << schema.relation_name(node_->relation) << "(";
      for (size_t i = 0; i < node_->terms.size(); ++i) {
        if (i > 0) out << ", ";
        out << TermToString(node_->terms[i], schema, num_registers);
      }
      out << ")";
      break;
    case Op::kNot:
      out << "¬(" << node_->children[0].ToString(schema, num_registers) << ")";
      break;
    case Op::kAnd:
    case Op::kOr: {
      const char* sep = node_->op == Op::kAnd ? " ∧ " : " ∨ ";
      out << "(";
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i > 0) out << sep;
        out << node_->children[i].ToString(schema, num_registers);
      }
      out << ")";
      break;
    }
  }
  return out.str();
}

}  // namespace rav
