#include "automata/regex.h"

#include <cctype>
#include <numeric>
#include <vector>

namespace rav {

Regex Regex::EmptySet() {
  auto n = std::make_shared<Node>();
  n->op = Op::kEmpty;
  return Regex(std::move(n));
}

Regex Regex::Epsilon() {
  auto n = std::make_shared<Node>();
  n->op = Op::kEpsilon;
  return Regex(std::move(n));
}

Regex Regex::Symbol(int symbol) {
  RAV_CHECK_GE(symbol, 0);
  auto n = std::make_shared<Node>();
  n->op = Op::kSymbol;
  n->symbol = symbol;
  return Regex(std::move(n));
}

Regex Regex::AnySymbol() {
  auto n = std::make_shared<Node>();
  n->op = Op::kAny;
  return Regex(std::move(n));
}

Regex Regex::Concat(Regex a, Regex b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConcat;
  n->left = std::move(a.node_);
  n->right = std::move(b.node_);
  return Regex(std::move(n));
}

Regex Regex::Union(Regex a, Regex b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kUnion;
  n->left = std::move(a.node_);
  n->right = std::move(b.node_);
  return Regex(std::move(n));
}

Regex Regex::Star(Regex a) {
  auto n = std::make_shared<Node>();
  n->op = Op::kStar;
  n->left = std::move(a.node_);
  return Regex(std::move(n));
}

Regex Regex::Plus(Regex a) {
  Regex copy(a.node_);
  return Concat(std::move(a), Star(std::move(copy)));
}

Regex Regex::Optional(Regex a) { return Union(std::move(a), Epsilon()); }

// ---------------------------------------------------------------------------
// Parser: recursive descent over tokens.

namespace {

struct Token {
  enum class Kind { kIdent, kLParen, kRParen, kBar, kStar, kPlus, kQuestion,
                    kDot, kEnd };
  Kind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({Token::Kind::kLParen, "("});
          ++i;
          continue;
        case ')':
          tokens.push_back({Token::Kind::kRParen, ")"});
          ++i;
          continue;
        case '|':
          tokens.push_back({Token::Kind::kBar, "|"});
          ++i;
          continue;
        case '*':
          tokens.push_back({Token::Kind::kStar, "*"});
          ++i;
          continue;
        case '+':
          tokens.push_back({Token::Kind::kPlus, "+"});
          ++i;
          continue;
        case '?':
          tokens.push_back({Token::Kind::kQuestion, "?"});
          ++i;
          continue;
        case '.':
          tokens.push_back({Token::Kind::kDot, "."});
          ++i;
          continue;
        default:
          break;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        tokens.push_back({Token::Kind::kIdent, text_.substr(start, i - start)});
        continue;
      }
      return Status::InvalidArgument(std::string("regex: unexpected char '") +
                                     c + "'");
    }
    tokens.push_back({Token::Kind::kEnd, ""});
    return tokens;
  }

 private:
  const std::string& text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens,
         const std::function<int(const std::string&)>& resolve)
      : tokens_(std::move(tokens)), resolve_(resolve) {}

  Result<Regex> Parse() {
    RAV_ASSIGN_OR_RETURN(Regex r, ParseUnion());
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument("regex: trailing input");
    }
    return r;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Result<Regex> ParseUnion() {
    RAV_ASSIGN_OR_RETURN(Regex left, ParseConcat());
    while (Peek().kind == Token::Kind::kBar) {
      Advance();
      RAV_ASSIGN_OR_RETURN(Regex right, ParseConcat());
      left = Regex::Union(std::move(left), std::move(right));
    }
    return left;
  }

  bool StartsFactor() const {
    switch (Peek().kind) {
      case Token::Kind::kIdent:
      case Token::Kind::kLParen:
      case Token::Kind::kDot:
        return true;
      default:
        return false;
    }
  }

  Result<Regex> ParseConcat() {
    if (!StartsFactor()) {
      // Empty concatenation denotes ε (e.g. "a|" or "()" are rejected by
      // the factor parser, but an empty alternative is allowed).
      return Regex::Epsilon();
    }
    RAV_ASSIGN_OR_RETURN(Regex left, ParseFactor());
    while (StartsFactor()) {
      RAV_ASSIGN_OR_RETURN(Regex right, ParseFactor());
      left = Regex::Concat(std::move(left), std::move(right));
    }
    return left;
  }

  Result<Regex> ParseFactor() {
    RAV_ASSIGN_OR_RETURN(Regex base, ParseBase());
    while (true) {
      switch (Peek().kind) {
        case Token::Kind::kStar:
          Advance();
          base = Regex::Star(std::move(base));
          continue;
        case Token::Kind::kPlus:
          Advance();
          base = Regex::Plus(std::move(base));
          continue;
        case Token::Kind::kQuestion:
          Advance();
          base = Regex::Optional(std::move(base));
          continue;
        default:
          return base;
      }
    }
  }

  Result<Regex> ParseBase() {
    switch (Peek().kind) {
      case Token::Kind::kLParen: {
        Advance();
        RAV_ASSIGN_OR_RETURN(Regex inner, ParseUnion());
        if (Peek().kind != Token::Kind::kRParen) {
          return Status::InvalidArgument("regex: expected ')'");
        }
        Advance();
        return inner;
      }
      case Token::Kind::kDot:
        Advance();
        return Regex::AnySymbol();
      case Token::Kind::kIdent: {
        std::string name = Peek().text;
        Advance();
        if (name == "_eps") return Regex::Epsilon();
        int symbol = resolve_(name);
        if (symbol < 0) {
          return Status::InvalidArgument("regex: unknown symbol '" + name +
                                         "'");
        }
        return Regex::Symbol(symbol);
      }
      default:
        return Status::InvalidArgument("regex: expected a symbol, '(' or '.'");
    }
  }

  std::vector<Token> tokens_;
  const std::function<int(const std::string&)>& resolve_;
  size_t pos_ = 0;
};

}  // namespace

Result<Regex> Regex::Parse(
    const std::string& text,
    const std::function<int(const std::string&)>& resolve) {
  Lexer lexer(text);
  RAV_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), resolve);
  return parser.Parse();
}

// ---------------------------------------------------------------------------
// Compilation

std::pair<int, int> Regex::Build(const Node& node,
                                 const std::vector<int>& letter_of,
                                 Nfa& nfa) const {
  int start = nfa.AddState();
  int accept = nfa.AddState();
  switch (node.op) {
    case Op::kEmpty:
      break;  // no path from start to accept
    case Op::kEpsilon:
      nfa.AddTransition(start, Nfa::kEpsilon, accept);
      break;
    case Op::kSymbol:
      RAV_CHECK_LT(node.symbol, static_cast<int>(letter_of.size()));
      nfa.AddTransition(start, letter_of[node.symbol], accept);
      break;
    case Op::kAny:
      for (int letter = 0; letter < nfa.alphabet_size(); ++letter) {
        nfa.AddTransition(start, letter, accept);
      }
      break;
    case Op::kConcat: {
      auto [ls, la] = Build(*node.left, letter_of, nfa);
      auto [rs, ra] = Build(*node.right, letter_of, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, rs);
      nfa.AddTransition(ra, Nfa::kEpsilon, accept);
      break;
    }
    case Op::kUnion: {
      auto [ls, la] = Build(*node.left, letter_of, nfa);
      auto [rs, ra] = Build(*node.right, letter_of, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(start, Nfa::kEpsilon, rs);
      nfa.AddTransition(la, Nfa::kEpsilon, accept);
      nfa.AddTransition(ra, Nfa::kEpsilon, accept);
      break;
    }
    case Op::kStar: {
      auto [ls, la] = Build(*node.left, letter_of, nfa);
      nfa.AddTransition(start, Nfa::kEpsilon, accept);
      nfa.AddTransition(start, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, ls);
      nfa.AddTransition(la, Nfa::kEpsilon, accept);
      break;
    }
  }
  return {start, accept};
}

Nfa Regex::ToNfa(int alphabet_size) const {
  std::vector<int> identity(alphabet_size);
  std::iota(identity.begin(), identity.end(), 0);
  Nfa nfa(alphabet_size);
  auto [start, accept] = Build(*node_, identity, nfa);
  nfa.SetInitial(start);
  nfa.SetAccepting(accept);
  return nfa;
}

Dfa Regex::ToDfa(int alphabet_size) const {
  // Symbols the regex never names are reached only through '.', so no
  // word can tell them apart: they share one letter, and every named
  // symbol gets a letter of its own. Letters are numbered by their
  // smallest symbol. Dfa::Minimize numbers states in the order a BFS
  // scanning letters in ascending order first meets them (a 2-state
  // result keeps its acceptance split: rejecting 0, accepting 1), so over
  // these letters it numbers exactly as over the symbols, and the expanded
  // DFA is state for state ToNfa(alphabet_size).Determinize().Minimize().
  std::vector<bool> named(alphabet_size, false);
  std::vector<const Node*> pending = {node_.get()};
  while (!pending.empty()) {
    const Node* n = pending.back();
    pending.pop_back();
    if (n->op == Op::kSymbol) {
      RAV_CHECK_LT(n->symbol, alphabet_size);
      named[n->symbol] = true;
    }
    if (n->left) pending.push_back(n->left.get());
    if (n->right) pending.push_back(n->right.get());
  }
  std::vector<int> letter_of(alphabet_size);
  int num_letters = 0;
  int shared = -1;
  for (int s = 0; s < alphabet_size; ++s) {
    if (named[s]) {
      letter_of[s] = num_letters++;
    } else {
      if (shared < 0) shared = num_letters++;
      letter_of[s] = shared;
    }
  }

  Nfa nfa(num_letters);
  auto [start, accept] = Build(*node_, letter_of, nfa);
  nfa.SetInitial(start);
  nfa.SetAccepting(accept);
  const Dfa over_letters = nfa.Determinize().Minimize();

  // Expand each letter column back into the dense per-symbol rows.
  Dfa dfa(alphabet_size, over_letters.num_states(), over_letters.initial());
  for (int q = 0; q < over_letters.num_states(); ++q) {
    const int* row = over_letters.NextRow(q);
    for (int s = 0; s < alphabet_size; ++s) {
      dfa.SetTransition(q, s, row[letter_of[s]]);
    }
    dfa.SetAccepting(q, over_letters.IsAccepting(q));
  }
  return dfa;
}

std::string Regex::ToString(const std::function<std::string(int)>& name) const {
  struct Printer {
    const std::function<std::string(int)>& name;
    std::string Print(const Node& n) {
      switch (n.op) {
        case Op::kEmpty:
          return "∅";
        case Op::kEpsilon:
          return "_eps";
        case Op::kSymbol:
          return name(n.symbol);
        case Op::kAny:
          return ".";
        case Op::kConcat:
          return Print(*n.left) + " " + Print(*n.right);
        case Op::kUnion: {
          // Built by appending: GCC 12 at -O3 reports a false
          // -Werror=restrict for "(" + std::string.
          std::string out = "(";
          out += Print(*n.left);
          out += " | ";
          out += Print(*n.right);
          out += ")";
          return out;
        }
        case Op::kStar: {
          std::string out = "(";
          out += Print(*n.left);
          out += ")*";
          return out;
        }
      }
      return "?";
    }
  };
  Printer p{name};
  return p.Print(*node_);
}

}  // namespace rav
