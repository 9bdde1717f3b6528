#ifndef RAV_BASE_GOVERNOR_H_
#define RAV_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "base/status.h"

namespace rav {

// Why a governed computation was stopped. kNone means "keep going".
// Ordered by severity of the caller's obligation: a cancellation is a
// user decision and outranks the resource trips when several race.
enum class GovernorTrip {
  kNone = 0,
  kDeadline = 1,      // the wall-clock deadline passed
  kMemoryBudget = 2,  // accounted live bytes exceeded the budget
  kCancelled = 3,     // cooperative cancellation was requested
};

// Stable human-readable name ("none", "deadline", ...).
const char* GovernorTripName(GovernorTrip trip);

// Resource governor for the long-running decision procedures: a
// wall-clock deadline, a budget on accounted live memory, and a
// cooperative cancellation token. The governed procedures take a
// `const ExecutionGovernor*` (nullptr = unlimited) and poll `Check()` at
// their existing safe points — lasso-pool rung boundaries, per-candidate
// closure builds, complement state expansions — so a trip always leaves
// a truthful partial result, never a torn one.
//
// Thread model: one governor may be shared by the producer, every search
// worker, and any number of outside threads (including a signal handler —
// RequestCancel is a single relaxed atomic store and is async-signal
// safe). All members are atomics; the object itself is logically const
// while governed work runs, which is why the accounting methods are
// const (the counters are mutable by design, like a mutex).
//
// The first trip is sticky: once Check() observes a limit it records the
// reason, every later Check() returns it, and procedures report it in
// their SearchStats / Status. Memory accounting tracks *live* accounted
// bytes (Charge/Release pairs, e.g. from the coarse node counters of the
// hot structures, see ScopedMemoryCharge) plus the peak.
class ExecutionGovernor {
 public:
  using Clock = std::chrono::steady_clock;

  // Unlimited by default: no deadline, no memory budget, not cancelled.
  ExecutionGovernor() = default;

  ExecutionGovernor(const ExecutionGovernor&) = delete;
  ExecutionGovernor& operator=(const ExecutionGovernor&) = delete;

  // --- configuration (set before handing the governor to workers) ---

  void set_deadline(Clock::time_point deadline) {
    deadline_.store(deadline.time_since_epoch().count(),
                    std::memory_order_relaxed);
  }
  // Deadline `budget` from now.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    set_deadline(Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(budget));
  }
  void set_memory_budget(size_t bytes) {
    memory_budget_.store(bytes, std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline_.load(std::memory_order_relaxed) != kNoDeadline;
  }
  bool has_memory_budget() const {
    return memory_budget_.load(std::memory_order_relaxed) != SIZE_MAX;
  }

  // --- cancellation (thread- and async-signal-safe) ---

  void RequestCancel() const {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // --- memory accounting (thread-safe; pairs must balance) ---

  void ChargeBytes(size_t bytes) const;
  void ReleaseBytes(size_t bytes) const;
  size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  // --- polling ---

  // The safe-point check: returns the sticky first trip, probing the
  // cancellation flag, the accounted bytes, and (last — it costs a clock
  // read) the deadline. Cheap enough for per-candidate polling; the
  // governed hot paths call it at rung boundaries, not per node.
  GovernorTrip Check() const;

  // The sticky trip without re-probing the limits. kNone while untripped.
  GovernorTrip trip() const {
    return static_cast<GovernorTrip>(trip_.load(std::memory_order_relaxed));
  }

  // Check() as a Status: OK, or ResourceExhausted naming the trip and
  // `what` (the procedure at the safe point). Every limit — including
  // cancellation — maps to kResourceExhausted, keeping the library's
  // error taxonomy small; the precise reason is in the message and in
  // trip().
  Status CheckStatus(const char* what) const;

  // Forces the sticky trip (fault injection via base/failpoints, tests).
  void ForceTrip(GovernorTrip trip) const { RecordTrip(trip); }

 private:
  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  // Records `trip` as the sticky reason if none is recorded yet.
  void RecordTrip(GovernorTrip trip) const;

  std::atomic<int64_t> deadline_{kNoDeadline};  // Clock duration ticks
  std::atomic<size_t> memory_budget_{SIZE_MAX};
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<size_t> live_bytes_{0};
  mutable std::atomic<size_t> peak_bytes_{0};
  mutable std::atomic<int> trip_{0};
};

// Polls a possibly-null governor: nullptr is the unlimited governor.
inline GovernorTrip GovernorCheck(const ExecutionGovernor* governor) {
  return governor == nullptr ? GovernorTrip::kNone : governor->Check();
}

// Status-returning counterpart for construction-style procedures.
inline Status GovernorCheckStatus(const ExecutionGovernor* governor,
                                  const char* what) {
  return governor == nullptr ? Status::OK() : governor->CheckStatus(what);
}

// RAII charge of `bytes` of accounted memory against a possibly-null
// governor — the coarse node counters of the hot structures (constraint
// closures, complement rank-state sets, product automata).
// Charges in the constructor, releases the full accumulated amount in
// the destructor; Add() grows the charge as the structure grows.
class ScopedMemoryCharge {
 public:
  explicit ScopedMemoryCharge(const ExecutionGovernor* governor,
                              size_t bytes = 0)
      : governor_(governor) {
    Add(bytes);
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;
  ~ScopedMemoryCharge() {
    if (governor_ != nullptr && charged_ > 0) {
      governor_->ReleaseBytes(charged_);
    }
  }

  void Add(size_t bytes) {
    if (governor_ == nullptr || bytes == 0) return;
    governor_->ChargeBytes(bytes);
    charged_ += bytes;
  }
  size_t charged() const { return charged_; }

 private:
  const ExecutionGovernor* governor_;
  size_t charged_ = 0;
};

}  // namespace rav

#endif  // RAV_BASE_GOVERNOR_H_
