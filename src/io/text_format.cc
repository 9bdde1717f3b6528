#include "io/text_format.h"

#include "automata/dfa_to_regex.h"

#include <cctype>
#include <limits>
#include <sstream>
#include <vector>

#include "base/failpoints.h"
#include "base/numbers.h"

namespace rav {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer

struct TfToken {
  enum class Kind {
    kIdent, kNumber, kString, kLBrace, kRBrace, kLParen, kRParen, kComma,
    kEq, kNeq, kArrow, kBang, kSlash, kEnd,
  };
  Kind kind;
  std::string text;
  SourceLocation loc;
};

Result<std::vector<TfToken>> Tokenize(const std::string& text) {
  std::vector<TfToken> tokens;
  int line = 1;
  size_t line_start = 0;  // offset of the first character of `line`
  size_t i = 0;
  auto here = [&]() {
    return SourceLocation{line, static_cast<int>(i - line_start) + 1};
  };
  auto push = [&](TfToken::Kind kind, std::string t) {
    // The caller positions `i` at the first character of the token when
    // pushing single-character tokens; multi-character tokens pass their
    // start column explicitly via push_at.
    tokens.push_back(TfToken{kind, std::move(t), here()});
  };
  auto push_at = [&](TfToken::Kind kind, std::string t, SourceLocation loc) {
    tokens.push_back(TfToken{kind, std::move(t), loc});
  };
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    switch (c) {
      case '{': push(TfToken::Kind::kLBrace, "{"); ++i; continue;
      case '}': push(TfToken::Kind::kRBrace, "}"); ++i; continue;
      case '(': push(TfToken::Kind::kLParen, "("); ++i; continue;
      case ')': push(TfToken::Kind::kRParen, ")"); ++i; continue;
      case ',': push(TfToken::Kind::kComma, ","); ++i; continue;
      case '/': push(TfToken::Kind::kSlash, "/"); ++i; continue;
      case '=': push(TfToken::Kind::kEq, "="); ++i; continue;
      default: break;
    }
    if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
      push(TfToken::Kind::kNeq, "!=");
      i += 2;
      continue;
    }
    if (c == '!') {
      push(TfToken::Kind::kBang, "!");
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      push(TfToken::Kind::kArrow, "->");
      i += 2;
      continue;
    }
    if (c == '"') {
      const SourceLocation loc = here();
      size_t start = ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        ++i;
      }
      if (i >= text.size()) {
        return Status::InvalidArgument("text format: unterminated string");
      }
      push_at(TfToken::Kind::kString, text.substr(start, i - start), loc);
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const SourceLocation loc = here();
      size_t start = i;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      push_at(TfToken::Kind::kNumber, text.substr(start, i - start), loc);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const SourceLocation loc = here();
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_')) {
        ++i;
      }
      push_at(TfToken::Kind::kIdent, text.substr(start, i - start), loc);
      continue;
    }
    return Status::InvalidArgument(
        std::string("text format: unexpected character '") + c + "' at line " +
        std::to_string(line));
  }
  push(TfToken::Kind::kEnd, "");
  return tokens;
}

// ---------------------------------------------------------------------------
// Parser

class TfParser {
 public:
  explicit TfParser(std::vector<TfToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<ExtendedAutomaton> Parse() {
    RAV_RETURN_IF_ERROR(ExpectIdent("automaton"));
    RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kLBrace));

    // First pass directives must come in a workable order: we buffer
    // declarations, then build.
    int registers = -1;
    Schema schema;
    struct StateDecl {
      std::string name;
      bool initial = false;
      bool final_state = false;
      SourceLocation loc;
    };
    std::vector<StateDecl> states;
    struct Literal {
      enum class Kind { kEq, kNeq, kAtom } kind;
      std::string lhs, rhs;             // for eq/neq: term tokens
      std::string relation;             // for atoms
      std::vector<std::string> args;
      bool positive = true;
    };
    struct TransitionDecl {
      std::string from, to;
      std::vector<Literal> literals;
      SourceLocation loc;
    };
    std::vector<TransitionDecl> transitions;
    struct ConstraintDecl {
      bool equality;
      int i, j;
      std::string regex;
      SourceLocation loc;
    };
    std::vector<ConstraintDecl> constraints;

    while (Peek().kind != TfToken::Kind::kRBrace) {
      const SourceLocation directive_loc = Peek().loc;
      RAV_ASSIGN_OR_RETURN(std::string directive, Ident());
      if (directive == "registers") {
        RAV_ASSIGN_OR_RETURN(registers, Number());
      } else if (directive == "schema") {
        RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kLBrace));
        while (Peek().kind != TfToken::Kind::kRBrace) {
          RAV_ASSIGN_OR_RETURN(std::string kind, Ident());
          if (kind == "relation") {
            RAV_ASSIGN_OR_RETURN(std::string name, Ident());
            RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kSlash));
            RAV_ASSIGN_OR_RETURN(int arity, Number());
            if (schema.FindRelation(name) >= 0) {
              return Err("duplicate relation '" + name + "'");
            }
            schema.AddRelation(name, arity);
          } else if (kind == "constant") {
            RAV_ASSIGN_OR_RETURN(std::string name, Ident());
            if (schema.FindConstant(name) >= 0) {
              return Err("duplicate constant '" + name + "'");
            }
            schema.AddConstant(name);
          } else {
            return Err("expected 'relation' or 'constant'");
          }
        }
        RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kRBrace));
      } else if (directive == "state") {
        StateDecl decl;
        decl.loc = directive_loc;
        RAV_ASSIGN_OR_RETURN(decl.name, Ident());
        while (Peek().kind == TfToken::Kind::kIdent &&
               (Peek().text == "initial" || Peek().text == "final")) {
          if (Peek().text == "initial") decl.initial = true;
          if (Peek().text == "final") decl.final_state = true;
          Advance();
        }
        states.push_back(std::move(decl));
      } else if (directive == "transition") {
        TransitionDecl decl;
        decl.loc = directive_loc;
        RAV_ASSIGN_OR_RETURN(decl.from, Ident());
        RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kArrow));
        RAV_ASSIGN_OR_RETURN(decl.to, Ident());
        RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kLBrace));
        while (Peek().kind != TfToken::Kind::kRBrace) {
          Literal lit;
          bool negated = false;
          if (Peek().kind == TfToken::Kind::kBang) {
            Advance();
            negated = true;
          }
          RAV_ASSIGN_OR_RETURN(std::string first, Ident());
          if (Peek().kind == TfToken::Kind::kLParen) {
            // Relational atom.
            Advance();
            lit.kind = Literal::Kind::kAtom;
            lit.relation = std::move(first);
            lit.positive = !negated;
            while (Peek().kind != TfToken::Kind::kRParen) {
              RAV_ASSIGN_OR_RETURN(std::string arg, Ident());
              lit.args.push_back(std::move(arg));
              if (Peek().kind == TfToken::Kind::kComma) Advance();
            }
            RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kRParen));
          } else {
            if (negated) return Err("'!' must precede a relational atom");
            lit.lhs = std::move(first);
            if (Peek().kind == TfToken::Kind::kEq) {
              lit.kind = Literal::Kind::kEq;
            } else if (Peek().kind == TfToken::Kind::kNeq) {
              lit.kind = Literal::Kind::kNeq;
            } else {
              return Err("expected '=' or '!=' in literal");
            }
            Advance();
            RAV_ASSIGN_OR_RETURN(lit.rhs, Ident());
          }
          decl.literals.push_back(std::move(lit));
        }
        RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kRBrace));
        transitions.push_back(std::move(decl));
      } else if (directive == "constraint") {
        ConstraintDecl decl;
        decl.loc = directive_loc;
        RAV_ASSIGN_OR_RETURN(std::string kind, Ident());
        if (kind == "eq") {
          decl.equality = true;
        } else if (kind == "neq") {
          decl.equality = false;
        } else {
          return Err("expected 'eq' or 'neq' after 'constraint'");
        }
        RAV_ASSIGN_OR_RETURN(decl.i, Number());
        RAV_ASSIGN_OR_RETURN(decl.j, Number());
        if (Peek().kind != TfToken::Kind::kString) {
          return Err("expected a quoted regex");
        }
        decl.regex = Peek().text;
        Advance();
        constraints.push_back(std::move(decl));
      } else {
        return Status::InvalidArgument(
            "text format (" + directive_loc.ToString() +
            "): unknown directive '" + directive + "'");
      }
    }
    RAV_RETURN_IF_ERROR(Expect(TfToken::Kind::kRBrace));

    // --- Build ---
    if (registers < 0) return Err("missing 'registers' directive");
    RegisterAutomaton automaton(registers, schema);
    for (const StateDecl& s : states) {
      if (automaton.FindState(s.name).valid()) {
        return Status::InvalidArgument("text format (" + s.loc.ToString() +
                                       "): duplicate state '" + s.name + "'");
      }
      StateId id = automaton.AddState(s.name);
      automaton.SetInitial(id, s.initial);
      automaton.SetFinal(id, s.final_state);
      automaton.SetStateLocation(id, s.loc);
    }
    const int k = registers;
    auto resolve_term = [&](const std::string& term) -> Result<int> {
      if (term.size() >= 2 && (term[0] == 'x' || term[0] == 'y') &&
          std::isdigit(static_cast<unsigned char>(term[1]))) {
        int index = std::stoi(term.substr(1));
        if (index < 1 || index > k) {
          return Status::InvalidArgument("text format: register index of '" +
                                         term + "' out of range");
        }
        return (term[0] == 'x' ? 0 : k) + index - 1;
      }
      ConstantId c = schema.FindConstant(term);
      if (c < 0) {
        return Status::InvalidArgument("text format: unknown term '" + term +
                                       "' (registers are x<i>/y<i>)");
      }
      return 2 * k + c;
    };
    for (const TransitionDecl& t : transitions) {
      StateId from = automaton.FindState(t.from);
      StateId to = automaton.FindState(t.to);
      if (!from.valid() || !to.valid()) {
        return Status::InvalidArgument("text format (" + t.loc.ToString() +
                                       "): transition references unknown "
                                       "state '" +
                                       (!from.valid() ? t.from : t.to) + "'");
      }
      TypeBuilder builder(2 * k, schema.num_constants());
      for (const Literal& lit : t.literals) {
        switch (lit.kind) {
          case Literal::Kind::kEq:
          case Literal::Kind::kNeq: {
            RAV_ASSIGN_OR_RETURN(int lhs, resolve_term(lit.lhs));
            RAV_ASSIGN_OR_RETURN(int rhs, resolve_term(lit.rhs));
            if (lit.kind == Literal::Kind::kEq) {
              builder.AddEq(ElementIndex(lhs), ElementIndex(rhs));
            } else {
              builder.AddNeq(ElementIndex(lhs), ElementIndex(rhs));
            }
            break;
          }
          case Literal::Kind::kAtom: {
            RelationId rel = schema.FindRelation(lit.relation);
            if (rel < 0) {
              return Err("unknown relation '" + lit.relation + "'");
            }
            if (schema.arity(rel) != static_cast<int>(lit.args.size())) {
              return Err("arity mismatch for relation '" + lit.relation +
                         "'");
            }
            std::vector<ElementIndex> elements;
            for (const std::string& arg : lit.args) {
              RAV_ASSIGN_OR_RETURN(int e, resolve_term(arg));
              elements.push_back(ElementIndex(e));
            }
            builder.AddAtom(rel, std::move(elements), lit.positive);
            break;
          }
        }
      }
      RAV_ASSIGN_OR_RETURN(Type guard, builder.Build());
      automaton.AddTransition(from, std::move(guard), to);
      automaton.SetTransitionLocation(automaton.num_transitions() - 1, t.loc);
    }

    ExtendedAutomaton era(std::move(automaton));
    for (const ConstraintDecl& c : constraints) {
      RAV_RETURN_IF_ERROR(era.AddConstraintFromText(
          RegisterPair{RegisterId(c.i - 1), RegisterId(c.j - 1)}, c.equality,
          c.regex));
      era.SetConstraintLocation(
          static_cast<int>(era.constraints().size()) - 1, c.loc);
    }
    return era;
  }

 private:
  const TfToken& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Status Err(const std::string& message) const {
    return Status::InvalidArgument("text format (" + Peek().loc.ToString() +
                                   "): " + message);
  }

  Status Expect(TfToken::Kind kind) {
    if (Peek().kind != kind) return Err("unexpected token '" + Peek().text + "'");
    Advance();
    return Status::OK();
  }

  Status ExpectIdent(const std::string& word) {
    if (Peek().kind != TfToken::Kind::kIdent || Peek().text != word) {
      return Err("expected '" + word + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<std::string> Ident() {
    if (Peek().kind != TfToken::Kind::kIdent) {
      return Err("expected an identifier, found '" + Peek().text + "'");
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  Result<int> Number() {
    if (Peek().kind != TfToken::Kind::kNumber) {
      return Err("expected a number, found '" + Peek().text + "'");
    }
    // Not std::stoi: a fuzzed literal like "99999999999" must be a parse
    // error, not an uncaught std::out_of_range.
    long long value = 0;
    for (char c : Peek().text) {
      value = value * 10 + (c - '0');
      if (value > std::numeric_limits<int>::max()) {
        return Err("number out of range: '" + Peek().text + "'");
      }
    }
    Advance();
    return static_cast<int>(value);
  }

  std::vector<TfToken> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExtendedAutomaton> ParseExtendedAutomaton(const std::string& text) {
  // Fault-injection site: models a corrupt or unreadable spec reaching
  // the parser — callers must surface the error, never crash.
  if (RAV_FAILPOINT("io/text_format/parse")) {
    return Status::InvalidArgument(
        "ParseExtendedAutomaton: injected parse failure (failpoint "
        "io/text_format/parse)");
  }
  RAV_ASSIGN_OR_RETURN(std::vector<TfToken> tokens, Tokenize(text));
  TfParser parser(std::move(tokens));
  return parser.Parse();
}

Result<RegisterAutomaton> ParseRegisterAutomaton(const std::string& text) {
  RAV_ASSIGN_OR_RETURN(ExtendedAutomaton era, ParseExtendedAutomaton(text));
  if (!era.constraints().empty()) {
    return Status::InvalidArgument(
        "expected a plain register automaton but constraints were declared");
  }
  return era.automaton();
}

// ---------------------------------------------------------------------------
// Printing

namespace {

std::string GuardToTextFormat(const Type& guard, const Schema& schema,
                              int k) {
  std::ostringstream out;
  auto term = [&](int element) -> std::string {
    if (element < k) return NumberedName("x", element + 1);
    if (element < 2 * k) return NumberedName("y", element - k + 1);
    return schema.constant_name(element - 2 * k);
  };
  std::vector<int> rep(guard.num_classes(), -1);
  bool first = true;
  auto sep = [&]() {
    if (!first) out << "  ";
    first = false;
  };
  for (int e = 0; e < guard.num_elements(); ++e) {
    int c = guard.ClassOf(e);
    if (rep[c] < 0) {
      rep[c] = e;
    } else {
      sep();
      out << term(rep[c]) << " = " << term(e);
    }
  }
  for (const auto& [c1, c2] : guard.disequalities()) {
    sep();
    out << term(rep[c1]) << " != " << term(rep[c2]);
  }
  for (const TypeAtom& atom : guard.atoms()) {
    sep();
    if (!atom.positive) out << "!";
    out << schema.relation_name(atom.relation) << "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out << ", ";
      out << term(rep[atom.args[i]]);
    }
    out << ")";
  }
  return out.str();
}

void AppendAutomatonBody(const RegisterAutomaton& a, std::ostringstream& out) {
  out << "automaton {\n";
  out << "  registers " << a.num_registers() << "\n";
  if (!a.schema().empty()) {
    out << "  schema {";
    for (int r = 0; r < a.schema().num_relations(); ++r) {
      out << " relation " << a.schema().relation_name(r) << "/"
          << a.schema().arity(r);
    }
    for (int c = 0; c < a.schema().num_constants(); ++c) {
      out << " constant " << a.schema().constant_name(c);
    }
    out << " }\n";
  }
  for (StateId s : a.States()) {
    out << "  state " << a.state_name(s);
    if (a.IsInitial(s)) out << " initial";
    if (a.IsFinal(s)) out << " final";
    out << "\n";
  }
  for (int ti = 0; ti < a.num_transitions(); ++ti) {
    const RaTransition& t = a.transition(ti);
    out << "  transition " << a.state_name(t.from) << " -> "
        << a.state_name(t.to) << " { "
        << GuardToTextFormat(t.guard, a.schema(), a.num_registers())
        << " }\n";
  }
}

}  // namespace

std::string ToTextFormat(const RegisterAutomaton& automaton) {
  std::ostringstream out;
  AppendAutomatonBody(automaton, out);
  out << "}\n";
  return out.str();
}

std::string ToTextFormat(const ExtendedAutomaton& era) {
  std::ostringstream out;
  AppendAutomatonBody(era.automaton(), out);
  for (const GlobalConstraint& c : era.constraints()) {
    // Serialize the compiled DFA back to a regex so the rendering
    // round-trips regardless of how the constraint was constructed.
    auto regex = DfaToRegexString(c.dfa, [&](int q) {
      return era.automaton().state_name(StateId(q));
    });
    if (!regex.has_value()) continue;  // empty-language constraint: vacuous
    out << "  constraint " << (c.is_equality ? "eq" : "neq") << " "
        << (c.i.value() + 1) << " " << (c.j.value() + 1) << " \"" << *regex
        << "\"\n";
  }
  out << "}\n";
  return out.str();
}

std::string ToTextFormat(const EnhancedAutomaton& enhanced) {
  std::ostringstream out;
  AppendAutomatonBody(enhanced.automaton(), out);
  auto state_name = [&](int q) {
    return enhanced.automaton().state_name(StateId(q));
  };
  for (const GlobalConstraint& c : enhanced.equality_constraints()) {
    auto regex = DfaToRegexString(c.dfa, state_name);
    if (!regex.has_value()) continue;
    out << "  constraint eq " << (c.i.value() + 1) << " "
        << (c.j.value() + 1) << " \"" << *regex << "\"\n";
  }
  for (const TupleInequalityConstraint& c : enhanced.tuple_constraints()) {
    auto regex = DfaToRegexString(c.pair_dfa, state_name);
    out << "  # tuple-ineq";
    for (int t = 0; t < c.arity(); ++t) {
      out << " (r" << (c.regs_a[t] + 1) << "+" << c.offs_a[t] << " vs r"
          << (c.regs_b[t] + 1) << "+" << c.offs_b[t] << ")";
    }
    out << " when \"" << (regex.has_value() ? *regex : "<empty>")
        << "\"\n";
  }
  for (const FinitenessConstraint& c : enhanced.finiteness_constraints()) {
    auto regex = DfaToRegexString(c.selector, state_name);
    out << "  # finiteness r" << (c.reg + 1) << " over prefixes \""
        << (regex.has_value() ? *regex : "<empty>") << "\"\n";
  }
  out << "}\n";
  return out.str();
}

std::string ToGraphviz(const RegisterAutomaton& automaton) {
  std::ostringstream out;
  out << "digraph automaton {\n  rankdir=LR;\n";
  for (StateId s : automaton.States()) {
    out << "  \"" << automaton.state_name(s) << "\" [shape="
        << (automaton.IsFinal(s) ? "doublecircle" : "circle") << "];\n";
    if (automaton.IsInitial(s)) {
      out << "  \"__start" << s.value() << "\" [shape=point];\n";
      out << "  \"__start" << s.value() << "\" -> \""
          << automaton.state_name(s) << "\";\n";
    }
  }
  for (int ti = 0; ti < automaton.num_transitions(); ++ti) {
    const RaTransition& t = automaton.transition(ti);
    out << "  \"" << automaton.state_name(t.from) << "\" -> \""
        << automaton.state_name(t.to) << "\" [label=\""
        << GuardToTextFormat(t.guard, automaton.schema(),
                             automaton.num_registers())
        << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace rav
