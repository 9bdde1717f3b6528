#ifndef RAV_SERVICE_COMPILED_SPEC_H_
#define RAV_SERVICE_COMPILED_SPEC_H_

// The immutable compiled form of one spec: parse → lint → strip →
// complete → control-alphabet construction paid exactly once, so a
// long-lived service (tools/rav_serve, `rav_cli batch`) can answer many
// emptiness / LTL-FO / LR-boundedness queries against the same spec
// without recompiling (docs/serving.md). A CompiledSpec is keyed by the
// content hash of its spec text and shared across request threads via
// shared_ptr<const CompiledSpec>. The decision procedures take the
// artifacts by const reference, exactly as the parallel search workers
// already do. The one thing built after Compile returns is each
// subject's SControl NBA: on the first query that needs it, exactly once
// (std::call_once), and read-only from then on.
//
// This is the explicit spec → compiled-artifact boundary the ROADMAP's
// compiled guard tables and theory plugins will attach to.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/lint.h"
#include "base/status.h"
#include "era/extended_automaton.h"
#include "ra/control.h"

namespace rav::service {

// Stable content hash of a spec text (FNV-1a 64 with a nonstandard but
// frozen offset basis, 16 hex digits). Two byte-identical texts always
// share a hash; the cache key.
std::string SpecContentHash(std::string_view text);

class CompiledSpec {
 public:
  // Compiles `text` end to end. Fails only when the spec cannot be
  // compiled at all (parse error, completion blow-up past
  // `max_completed_transitions`); lint findings — errors included — are
  // recorded, not fatal: a contradictory spec is still decidable (its
  // language is empty) and the service reports the diagnostics alongside
  // every verdict.
  static Result<std::shared_ptr<const CompiledSpec>> Compile(
      std::string text, size_t max_completed_transitions = 1u << 20);

  // --- identity ---
  const std::string& hash() const { return hash_; }
  const std::string& text() const { return text_; }

  // --- lint (computed once; the `lint` op answers from here) ---
  const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  analysis::Severity worst_severity() const { return worst_severity_; }

  // --- query subjects ---
  // The spec as parsed (info / print-style queries).
  const ExtendedAutomaton& era() const { return era_; }
  // Stripped original-form automaton + its alphabet: the subject of
  // LR-boundedness and LTL-FO queries. Queries run with
  // analyze_and_strip=false — the strip already happened here.
  const ExtendedAutomaton& analysis_subject() const {
    return analysis_subject_;
  }
  const ControlAlphabet& analysis_alphabet() const {
    return analysis_alphabet_;
  }
  // Completed-and-stripped automaton + its alphabet: the subject of
  // emptiness queries (CheckEraEmptiness requires completeness).
  const ExtendedAutomaton& emptiness_subject() const {
    return emptiness_subject_;
  }
  const ControlAlphabet& emptiness_alphabet() const {
    return emptiness_alphabet_;
  }

  // --- SControl NBAs (paper §2), one per query subject ---
  // BuildSControlNba of the subject, built by the first caller and shared
  // by every later one; `built`, when non-null, reports whether this call
  // was the one that built it. Thread-safe.
  const Nba& emptiness_scontrol(bool* built = nullptr) const {
    return emptiness_scontrol_.Get(emptiness_subject_, emptiness_alphabet_,
                                   built);
  }
  const Nba& analysis_scontrol(bool* built = nullptr) const {
    return analysis_scontrol_.Get(analysis_subject_, analysis_alphabet_,
                                  built);
  }

  // --- compiled guard tables (docs/compilation.md) ---
  // Table stats of the compiled alphabets; `info` reports them and
  // charges the bytes to the request governor. Both alphabets compile
  // their own table set, so the byte total sums the two.
  int distinct_guards() const {
    return analysis_alphabet_.num_distinct_guards();
  }
  size_t guard_table_bytes() const {
    return analysis_alphabet_.guard_table_bytes() +
           emptiness_alphabet_.guard_table_bytes();
  }

  // --- compile-time accounting (reported per response) ---
  double compile_ms() const { return compile_ms_; }
  int states_stripped() const { return states_stripped_; }
  int transitions_stripped() const { return transitions_stripped_; }
  int constraints_stripped() const { return constraints_stripped_; }

 private:
  // An SControl NBA built on first use.
  class LazySControl {
   public:
    const Nba& Get(const ExtendedAutomaton& subject,
                   const ControlAlphabet& alphabet, bool* built) const;

   private:
    mutable std::once_flag once_;
    mutable std::optional<Nba> nba_;
  };

  CompiledSpec(std::string text, std::string hash, ExtendedAutomaton era,
               ExtendedAutomaton analysis_subject,
               ExtendedAutomaton emptiness_subject);

  std::string text_;
  std::string hash_;
  std::vector<analysis::Diagnostic> diagnostics_;
  analysis::Severity worst_severity_ = analysis::Severity::kNote;
  ExtendedAutomaton era_;
  ExtendedAutomaton analysis_subject_;
  ControlAlphabet analysis_alphabet_;
  ExtendedAutomaton emptiness_subject_;
  ControlAlphabet emptiness_alphabet_;
  LazySControl analysis_scontrol_;
  LazySControl emptiness_scontrol_;
  double compile_ms_ = 0;
  int states_stripped_ = 0;
  int transitions_stripped_ = 0;
  int constraints_stripped_ = 0;
};

// A bounded, thread-safe content-addressed cache of compiled specs.
// GetOrCompile is the request path: hash the text, return the cached
// artifact on a hit, compile outside the lock on a miss (two racing
// misses both compile; the first insertion wins and both requests get
// the same verdicts — compilation is deterministic). Eviction is
// least-recently-used; entries handed out stay alive through their
// shared_ptr even after eviction.
class SpecCache {
 public:
  explicit SpecCache(size_t capacity = 64);

  // `cache_hit`, when non-null, reports whether compilation was skipped.
  Result<std::shared_ptr<const CompiledSpec>> GetOrCompile(
      const std::string& text, bool* cache_hit = nullptr);

  // Lookup by content hash (requests may send spec_hash instead of
  // re-uploading the text). nullptr when absent.
  std::shared_ptr<const CompiledSpec> FindByHash(const std::string& hash);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledSpec> spec;
    uint64_t last_used = 0;
  };

  void EvictIfNeededLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::unordered_map<std::string, Entry> entries_;  // key: content hash
};

}  // namespace rav::service

#endif  // RAV_SERVICE_COMPILED_SPEC_H_
