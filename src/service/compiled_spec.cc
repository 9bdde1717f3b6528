#include "service/compiled_spec.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "base/metrics.h"
#include "base/trace.h"
#include "io/text_format.h"
#include "ra/transform.h"

namespace rav::service {

std::string SpecContentHash(std::string_view text) {
  // FNV-1a 64: stable across platforms and processes (std::hash is
  // neither), cheap, and collision-safe enough for a content-addressed
  // cache whose values are verified by construction.
  //
  // The offset basis is one digit short of standard FNV-1a's
  // (14695981039346656037). Leave it: every spec_hash a client holds —
  // and perfbench/workloads.py's copy of this function — was computed
  // with this value, so "fixing" it would turn each of those requests
  // into a NotFound cache miss. tests/service_test.cc pins two hashes.
  uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

namespace {

// Rebuilds an era around a completed automaton, carrying the global
// constraints over — the same preparation rav_cli's `empty` performs.
Result<ExtendedAutomaton> CompletedEra(const ExtendedAutomaton& era,
                                       size_t max_completed_transitions) {
  RegisterAutomaton completed = era.automaton();
  if (!completed.IsComplete()) {
    RAV_ASSIGN_OR_RETURN(completed,
                         Completed(completed, max_completed_transitions));
  }
  ExtendedAutomaton subject(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    RAV_RETURN_IF_ERROR(subject.AddConstraintDfa(
        RegisterPair{c.i, c.j}, c.is_equality, c.dfa, c.description));
  }
  return subject;
}

// AnalyzeAndStrip as a total function: the unchanged case returns a copy
// of the input (CompiledSpec owns its subjects).
ExtendedAutomaton StrippedOrSame(const ExtendedAutomaton& era,
                                 analysis::StripResult* result) {
  *result = analysis::AnalyzeAndStrip(era, analysis::StripEffort::kFull);
  return result->changed() ? std::move(*result->era) : era;
}

}  // namespace

CompiledSpec::CompiledSpec(std::string text, std::string hash,
                           ExtendedAutomaton era,
                           ExtendedAutomaton analysis_subject,
                           ExtendedAutomaton emptiness_subject)
    : text_(std::move(text)),
      hash_(std::move(hash)),
      era_(std::move(era)),
      analysis_subject_(std::move(analysis_subject)),
      analysis_alphabet_(analysis_subject_.automaton()),
      emptiness_subject_(std::move(emptiness_subject)),
      emptiness_alphabet_(emptiness_subject_.automaton()) {}

Result<std::shared_ptr<const CompiledSpec>> CompiledSpec::Compile(
    std::string text, size_t max_completed_transitions) {
  RAV_TRACE_SPAN("service/compile");
  const auto start = std::chrono::steady_clock::now();
  std::string hash = SpecContentHash(text);

  RAV_ASSIGN_OR_RETURN(ExtendedAutomaton era, ParseExtendedAutomaton(text));

  // One full-effort analysis covers both the cached lint diagnostics and
  // the stripped analysis subject; queries then run with
  // analyze_and_strip=false (see docs/serving.md — strip preserves every
  // verdict, so per-query re-analysis would buy nothing).
  analysis::StripResult strip;
  ExtendedAutomaton analysis_subject = StrippedOrSame(era, &strip);

  // Emptiness wants a complete automaton; completing the *stripped*
  // subject keeps the completion small (dead structure would otherwise be
  // completed too, then re-stripped on every query).
  RAV_ASSIGN_OR_RETURN(
      ExtendedAutomaton emptiness_subject,
      CompletedEra(analysis_subject, max_completed_transitions));

  auto spec = std::shared_ptr<CompiledSpec>(new CompiledSpec(
      std::move(text), std::move(hash), std::move(era),
      std::move(analysis_subject), std::move(emptiness_subject)));
  spec->diagnostics_ = std::move(strip.diagnostics);
  spec->worst_severity_ = analysis::MaxSeverity(spec->diagnostics_);
  spec->states_stripped_ = strip.states_removed;
  spec->transitions_stripped_ = strip.transitions_removed;
  spec->constraints_stripped_ = strip.constraints_removed;
  spec->compile_ms_ = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  RAV_METRIC_COUNT("service/compiles", 1);
  return std::shared_ptr<const CompiledSpec>(std::move(spec));
}

const Nba& CompiledSpec::LazySControl::Get(const ExtendedAutomaton& subject,
                                           const ControlAlphabet& alphabet,
                                           bool* built) const {
  bool built_here = false;
  std::call_once(once_, [&] {
    RAV_TRACE_SPAN("service/scontrol");
    nba_.emplace(BuildSControlNba(subject.automaton(), alphabet));
    RAV_METRIC_COUNT("service/scontrol_builds", 1);
    built_here = true;
  });
  if (built != nullptr) *built = built_here;
  return *nba_;
}

// ---------------------------------------------------------------------------
// SpecCache

SpecCache::SpecCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<std::shared_ptr<const CompiledSpec>> SpecCache::GetOrCompile(
    const std::string& text, bool* cache_hit) {
  const std::string hash = SpecContentHash(text);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(hash);
    if (it != entries_.end()) {
      it->second.last_used = ++tick_;
      ++hits_;
      RAV_METRIC_COUNT("service/cache_hits", 1);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second.spec;
    }
  }
  // Compile outside the lock: a slow compile must not serialize requests
  // for other (cached) specs.
  RAV_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledSpec> spec,
                       CompiledSpec::Compile(text));
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  RAV_METRIC_COUNT("service/cache_misses", 1);
  if (cache_hit != nullptr) *cache_hit = false;
  auto [it, inserted] = entries_.emplace(hash, Entry{spec, ++tick_});
  if (!inserted) {
    // A racing request compiled the same text first; keep its artifact so
    // every holder shares one copy.
    it->second.last_used = tick_;
    return it->second.spec;
  }
  EvictIfNeededLocked();
  return spec;
}

std::shared_ptr<const CompiledSpec> SpecCache::FindByHash(
    const std::string& hash) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(hash);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  ++hits_;
  RAV_METRIC_COUNT("service/cache_hits", 1);
  return it->second.spec;
}

size_t SpecCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t SpecCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t SpecCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void SpecCache::EvictIfNeededLocked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
  }
  RAV_METRIC_SET("service/cached_specs", entries_.size());
}

}  // namespace rav::service
