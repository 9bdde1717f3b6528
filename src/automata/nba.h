#ifndef RAV_AUTOMATA_NBA_H_
#define RAV_AUTOMATA_NBA_H_

#include <optional>
#include <vector>

#include "automata/dfa.h"
#include "automata/lasso.h"
#include "base/logging.h"

namespace rav {

// Why a bounded lasso enumeration ended. Only kExhausted makes a negative
// result ("no enumerated lasso satisfied the caller") definitive; every
// other reason means candidates may exist beyond the point reached.
enum class LassoEnumStop {
  kExhausted = 0,      // full space within the bounds explored, nothing cut
  kLengthClipped = 1,  // some DFS paths were cut at the length bound
  kMaxCount = 2,       // stopped after delivering max_count lassos
  kMaxSteps = 3,       // stopped by the step budget
  kVisitBound = 4,     // some DFS paths were cut at a state's third visit
};

// Stable human-readable name ("exhausted", "length-clipped", ...).
const char* LassoEnumStopName(LassoEnumStop stop);

// Nondeterministic Büchi automaton over a dense integer alphabet, with
// state-based acceptance: a run is accepting iff it visits an accepting
// state infinitely often. NBAs represent the ω-regular envelopes the paper
// works with: SControl(A), LTL properties, and position selectors.
class Nba {
 public:
  explicit Nba(int alphabet_size) : alphabet_size_(alphabet_size) {
    RAV_CHECK_GE(alphabet_size, 0);
  }

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return static_cast<int>(transitions_.size()); }
  int num_transitions() const;

  int AddState();
  void AddTransition(int from, int symbol, int to);
  void SetInitial(int state);
  void SetAccepting(int state, bool accepting = true);

  const std::vector<int>& initial() const { return initial_; }
  bool IsAccepting(int state) const { return accepting_[state]; }
  // (symbol, target) pairs leaving `state`.
  const std::vector<std::pair<int, int>>& TransitionsFrom(int state) const {
    return transitions_[state];
  }

  // Emptiness check with witness: returns an accepting lasso word, or
  // nullopt iff the language is empty.
  std::optional<LassoWord> FindAcceptingLasso() const;
  bool IsEmpty() const { return !FindAcceptingLasso().has_value(); }

  // Membership of the ultimately periodic word u·v^ω.
  bool AcceptsLasso(const LassoWord& word) const;

  // Language intersection (generalized-Büchi product, degeneralized).
  Nba Intersect(const Nba& other) const;

  // Language union (disjoint sum).
  Nba Union(const Nba& other) const;

  // Lifts a DFA to the NBA accepting { w ∈ Σ^ω : every finite prefix of w
  // stays... } — not a language operation we need; instead we provide:
  // the NBA accepting (L(dfa) ∩ Σ^+)^ω-ish is nontrivial, so we only
  // expose the word-lasso automaton below.

  // The single-word NBA accepting exactly {u·v^ω}.
  static Nba FromLassoWord(int alphabet_size, const LassoWord& word);

 private:
  int alphabet_size_;
  std::vector<std::vector<std::pair<int, int>>> transitions_;
  std::vector<bool> accepting_;
  std::vector<int> initial_;
};

// Enumerates accepting lassos (paths q0 →u f-cycle) of total length
// (prefix + cycle) at most `max_length`, delivering at most `max_count`.
// The enumeration is a bounded DFS that visits a state at most 3 times on
// one path; it may deliver the same ω-word under several decompositions.
// `max_steps` bounds the total DFS node expansions (the path space is
// exponential in max_length; the budget keeps worst cases tractable).
// Callers that turn "no lasso passed" into a verdict must check `stop()`:
// only an exhausted space is definitive (a `max_count` of 0 delivers
// nothing and stops with kMaxCount). The DFS is pull-style, paused
// between lassos, so a consumer (in particular the parallel lasso-search
// engine) can drain candidates in batches. Each delivered lasso carries
// its 0-based enumeration rank; ranks are the deterministic tie-breaker of
// the parallel search. The enumerator borrows `nba`, which must outlive
// it.
class LassoEnumerator {
 public:
  LassoEnumerator(const Nba& nba, size_t max_length, size_t max_count,
                  size_t max_steps);

  // Produces the next accepting lasso and its enumeration rank. Returns
  // false when the enumeration has ended; `stop()` then says why.
  bool Next(LassoWord* out, size_t* index);

  // Why the enumeration ended (meaningful once Next returned false; while
  // lassos are still being produced it reflects the state so far).
  LassoEnumStop stop() const;

  size_t delivered() const { return delivered_; }
  size_t steps() const { return steps_; }

 private:
  struct Frame {
    int state;
    size_t next_edge;
  };

  // Runs one DFS micro-step (node entry or frame retirement).
  void Step();
  // Entry processing of `state`: charges a step, emits cycle closings into
  // pending_, and either opens a frame (returns true) or prunes.
  bool EnterNode(int state);

  const Nba& nba_;
  size_t max_length_;
  size_t max_count_;
  size_t max_steps_;
  std::vector<Frame> stack_;
  std::vector<int> path_states_;
  // Occurrences of each NBA state on the current path, and how many of
  // the path's states are accepting: kept in step with path_states_, so
  // a node entry scans the path only when it can close a lasso.
  std::vector<int> visits_;
  size_t accepting_on_path_ = 0;
  std::vector<int> path_symbols_;
  std::vector<LassoWord> pending_;  // closings of the current node, FIFO
  size_t pending_head_ = 0;
  size_t init_index_ = 0;
  size_t delivered_ = 0;
  size_t steps_ = 0;
  bool done_ = false;
  bool steps_capped_ = false;
  bool count_capped_ = false;
  bool length_clipped_ = false;
  bool visit_bounded_ = false;
};

// Generalized Büchi automaton: acceptance requires visiting each of
// `num_accept_sets` sets infinitely often. Used as the intermediate form
// of the LTL tableau translation and of NBA intersection.
class GeneralizedNba {
 public:
  GeneralizedNba(int alphabet_size, int num_accept_sets)
      : alphabet_size_(alphabet_size), num_accept_sets_(num_accept_sets) {
    RAV_CHECK_GE(num_accept_sets, 0);
    in_accept_set_.resize(num_accept_sets > 0 ? num_accept_sets : 1);
  }

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return static_cast<int>(transitions_.size()); }
  int num_accept_sets() const { return num_accept_sets_; }

  int AddState();
  void AddTransition(int from, int symbol, int to);
  void SetInitial(int state) { initial_.push_back(state); }
  void AddToAcceptSet(int set_index, int state);

  // Counter construction: states (q, i); the counter advances past set i
  // when the current state belongs to set i; acceptance = (·, 0) states in
  // set 0. With zero accept sets every run is accepting (one dummy set of
  // all states is used).
  Nba Degeneralize() const;

 private:
  int alphabet_size_;
  int num_accept_sets_;
  std::vector<std::vector<std::pair<int, int>>> transitions_;
  std::vector<std::vector<bool>> in_accept_set_;  // [set][state]
  std::vector<int> initial_;
};

}  // namespace rav

#endif  // RAV_AUTOMATA_NBA_H_
