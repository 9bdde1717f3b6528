#ifndef RAV_AUTOMATA_LASSO_H_
#define RAV_AUTOMATA_LASSO_H_

#include <string>
#include <vector>

#include "base/logging.h"

namespace rav {

// An ultimately periodic ω-word u·v^ω over an integer alphabet: `prefix`
// is u and `cycle` is v (nonempty for a genuine ω-word). Lassos are the
// universal currency of the library's decision procedures: Büchi emptiness
// returns them, run checkers consume them, and the constraint closures of
// Theorems 9/13/24 are computed on their pumped unrollings.
struct LassoWord {
  std::vector<int> prefix;
  std::vector<int> cycle;

  // The symbol at position n of u·v^ω.
  int SymbolAt(size_t n) const {
    if (n < prefix.size()) return prefix[n];
    RAV_CHECK(!cycle.empty());
    return cycle[(n - prefix.size()) % cycle.size()];
  }

  // The first `n` symbols, materialized.
  std::vector<int> Unroll(size_t n) const {
    std::vector<int> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(SymbolAt(i));
    return out;
  }

  // An equivalent lasso whose cycle is repeated `times` times (same
  // ω-word, longer period representation).
  LassoWord PumpCycle(size_t times) const;

  // Positions p ≥ prefix.size() with (p - prefix.size()) % cycle.size()
  // == (q - prefix.size()) % cycle.size() carry the same symbol; this
  // returns the canonical position (< prefix.size() + cycle.size()) of n.
  size_t CanonicalPosition(size_t n) const {
    if (n < prefix.size()) return n;
    RAV_CHECK(!cycle.empty());
    return prefix.size() + (n - prefix.size()) % cycle.size();
  }

  size_t period_start() const { return prefix.size(); }
  size_t period() const { return cycle.size(); }

  bool operator==(const LassoWord&) const = default;

  std::string ToString() const;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_LASSO_H_
