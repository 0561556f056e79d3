// Per-slot health: the one state machine that decides whether an
// accelerator slot's hardware may serve or its traffic is pinned to the
// golden software model. It tracks two trip causes under one mutex
// (diagram: docs/robustness.md, "Slot health"):
//
// * attributed KAT failures — the circuit breaker, closed -> open ->
//   half-open -> closed;
// * verified shadow mismatches — the quarantine, healthy -> quarantined
//   -> probation-full -> probation-ramp -> healthy. A mismatch proves the
//   unit corrupted live output while its KATs were green, so the rejoin
//   bar is higher than a half-open trial.
//
// allow() is false while either cause holds the slot (breaker open or
// slot quarantined). Every transition is reported through one callback,
// fired under the mutex (keep it cheap and non-reentrant), so the
// service can log it and bump its counters atomically with the change.
#pragma once

#include <functional>
#include <mutex>
#include <string>

#include "common/types.h"

namespace lacrv::service {

enum class BreakerState : u8 { kClosed, kOpen, kHalfOpen };

enum class QuarantineState : u8 {
  kHealthy = 0,
  kQuarantined = 1,
  kProbationFull = 2,
  kProbationRamp = 3,
};

const char* breaker_state_name(BreakerState s);
const char* quarantine_state_name(QuarantineState s);

/// The quarantine walk lengths (the breaker's are fixed constants).
struct HealthPolicy {
  /// Consecutive health-probe KAT passes required to leave quarantined
  /// for probation (a single failing probe resets the count).
  int rejoin_probes = 3;
  /// Clean shadow verifications (at 100% sampling) required to step from
  /// probation-full down to probation-ramp.
  int probation_full_clean = 16;
  /// Clean shadow verifications (at the ramped rate) required to rejoin
  /// healthy from probation-ramp.
  int probation_ramp_clean = 16;
  /// Shadow-verification rate applied to requests that used the slot
  /// while it is in probation-ramp (probation-full forces 1000).
  u32 ramp_sample_per_mille = 250;
};

/// Both causes' states, read together under the one lock.
struct HealthState {
  BreakerState breaker = BreakerState::kClosed;
  QuarantineState quarantine = QuarantineState::kHealthy;
  friend bool operator==(HealthState, HealthState) = default;
};

class SlotHealth {
 public:
  /// Consecutive attributed failures that trip a closed breaker.
  static constexpr int kFailureThreshold = 3;
  /// Successes (traffic through the unit, or passing probes) needed in
  /// half-open before the breaker closes again.
  static constexpr int kHalfOpenSuccesses = 2;

  /// `on_transition(slot, from, to, detail)`: exactly one of the two
  /// causes differs between `from` and `to`.
  using TransitionFn = std::function<void(
      const char* slot, HealthState from, HealthState to,
      const std::string& detail)>;

  /// SlotHealth is unmovable (mutex): configure arrays of it in place,
  /// before any concurrent use.
  void configure(const char* slot, HealthPolicy policy,
                 TransitionFn on_transition);

  /// May the slot's hardware path serve the next operation?
  bool allow() const;
  HealthState state() const;

  /// Shadow-verification floor for requests that used the slot: 1000 in
  /// probation-full, ramp_sample_per_mille in probation-ramp, else 0.
  u32 sample_override_per_mille() const;

  // ---- attributed KAT failures --------------------------------------
  /// A per-unit KAT run after a fault-indicating status came back red.
  void record_failure(const std::string& detail);
  /// An operation served through the unit's hardware completed cleanly.
  void record_success();

  // ---- verified shadow mismatches -----------------------------------
  /// A shadow-verified request that used the slot diverged from golden.
  /// Quarantines from any state.
  void record_mismatch(const std::string& detail);
  /// A verified mismatch whose KAT failed too: charges the breaker with
  /// `kat_detail`, then quarantines with `mismatch_detail`.
  void record_attributed_mismatch(const std::string& kat_detail,
                                  const std::string& mismatch_detail);
  /// A shadow-verified request that used this slot compared clean.
  /// Advances probation; a no-op in healthy and quarantined.
  void record_clean_verify();

  // ---- health probes (both causes) ----------------------------------
  /// A pass half-opens an open breaker or counts toward closing a
  /// half-open one, and walks a quarantined slot toward probation
  /// (rejoin itself still needs clean *traffic* verification).
  void probe_passed();
  /// A failure counts against the breaker (catching faults traffic
  /// cannot see fail, e.g. a stuck-at multiplier that only corrupts
  /// encapsulations) and restarts the quarantine's probe walk.
  void probe_failed(const std::string& detail);

 private:
  void fail_locked(const std::string& detail);
  void succeed_locked();
  void set_breaker_locked(BreakerState to, const std::string& detail);
  void set_quarantine_locked(QuarantineState to, const std::string& detail);

  const char* slot_ = "?";
  HealthPolicy policy_;
  TransitionFn on_transition_;

  mutable std::mutex mutex_;
  HealthState state_;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int probe_passes_ = 0;
  int clean_verifies_ = 0;
};

}  // namespace lacrv::service
