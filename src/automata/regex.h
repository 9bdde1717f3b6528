#ifndef RAV_AUTOMATA_REGEX_H_
#define RAV_AUTOMATA_REGEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/status.h"

namespace rav {

// Regular expressions over a dense integer alphabet. In this library the
// alphabet is always the state set Q of a register automaton: the paper's
// global constraints e=ᵢⱼ / e≠ᵢⱼ are regular expressions over Q matched
// against factors q_n ... q_m of the state trace.
//
// Concrete syntax accepted by Parse (symbols are whitespace- or
// juxtaposition-separated identifiers, resolved by the caller):
//   e  :=  e '|' e   — union
//        | e e       — concatenation
//        | e '*'     — Kleene star
//        | e '+'     — one or more
//        | e '?'     — optional
//        | '(' e ')'
//        | ident     — one alphabet symbol (e.g. a state name)
//        | '.'       — any single alphabet symbol
//        | '_eps'    — the empty word
// Example: "p1 p2* p1" is the constraint expression of Example 5.
class Regex {
 public:
  // --- Programmatic constructors ---
  static Regex EmptySet();
  static Regex Epsilon();
  static Regex Symbol(int symbol);
  static Regex AnySymbol();
  static Regex Concat(Regex a, Regex b);
  static Regex Union(Regex a, Regex b);
  static Regex Star(Regex a);
  static Regex Plus(Regex a);
  static Regex Optional(Regex a);

  // Parses the concrete syntax; `resolve` maps identifiers to symbols and
  // returns a negative value for unknown identifiers.
  static Result<Regex> Parse(
      const std::string& text,
      const std::function<int(const std::string&)>& resolve);

  // Thompson construction.
  Nfa ToNfa(int alphabet_size) const;
  // The minimal DFA, state for state the one
  // ToNfa(alphabet_size).Determinize().Minimize() builds (that composition
  // is the test oracle). It is determinized and minimized over symbol
  // classes: one per symbol the regex names, plus one shared by all the
  // others. So its cost grows with the symbols named, not with the
  // alphabet, except for the final expansion into dense rows.
  Dfa ToDfa(int alphabet_size) const;

  // Renders with `name` supplying symbol names.
  std::string ToString(const std::function<std::string(int)>& name) const;

 private:
  enum class Op { kEmpty, kEpsilon, kSymbol, kAny, kConcat, kUnion, kStar };

  struct Node {
    Op op;
    int symbol = -1;
    std::shared_ptr<const Node> left;
    std::shared_ptr<const Node> right;
  };

  explicit Regex(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  // Recursive Thompson construction helper over `nfa`'s letters: symbol s
  // becomes letter `letter_of[s]`, and '.' every letter. Returns (start,
  // accept).
  std::pair<int, int> Build(const Node& node,
                            const std::vector<int>& letter_of,
                            Nfa& nfa) const;

  std::shared_ptr<const Node> node_;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_REGEX_H_
