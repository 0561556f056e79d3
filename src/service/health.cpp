#include "service/health.h"

namespace lacrv::service {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

const char* quarantine_state_name(QuarantineState s) {
  switch (s) {
    case QuarantineState::kHealthy: return "healthy";
    case QuarantineState::kQuarantined: return "quarantined";
    case QuarantineState::kProbationFull: return "probation-full";
    case QuarantineState::kProbationRamp: return "probation-ramp";
  }
  return "unknown";
}

void SlotHealth::configure(const char* slot, HealthPolicy policy,
                           TransitionFn on_transition) {
  slot_ = slot;
  policy_ = policy;
  on_transition_ = std::move(on_transition);
}

bool SlotHealth::allow() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.breaker != BreakerState::kOpen &&
         state_.quarantine != QuarantineState::kQuarantined;
}

HealthState SlotHealth::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

u32 SlotHealth::sample_override_per_mille() const {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_.quarantine) {
    case QuarantineState::kProbationFull: return 1000;
    case QuarantineState::kProbationRamp: return policy_.ramp_sample_per_mille;
    default: return 0;
  }
}

void SlotHealth::set_breaker_locked(BreakerState to,
                                    const std::string& detail) {
  const HealthState from = state_;
  if (from.breaker == to) return;
  state_.breaker = to;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  if (on_transition_) on_transition_(slot_, from, state_, detail);
}

void SlotHealth::set_quarantine_locked(QuarantineState to,
                                       const std::string& detail) {
  const HealthState from = state_;
  if (from.quarantine == to) return;
  state_.quarantine = to;
  probe_passes_ = 0;
  clean_verifies_ = 0;
  if (on_transition_) on_transition_(slot_, from, state_, detail);
}

void SlotHealth::fail_locked(const std::string& detail) {
  switch (state_.breaker) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= kFailureThreshold)
        set_breaker_locked(BreakerState::kOpen,
                           "tripped after " +
                               std::to_string(consecutive_failures_) +
                               " consecutive failures (" + detail +
                               "); traffic rerouted to software fallback");
      break;
    case BreakerState::kHalfOpen:
      // The recovery trial failed — a new (or still-present) fault raced
      // the half-open window. Back to open; only a fresh probe pass
      // re-opens the trial.
      set_breaker_locked(BreakerState::kOpen,
                         "half-open trial failed (" + detail + ")");
      break;
    case BreakerState::kOpen:
      break;  // already rerouted
  }
}

void SlotHealth::succeed_locked() {
  if (state_.breaker == BreakerState::kClosed) {
    consecutive_failures_ = 0;
  } else if (state_.breaker == BreakerState::kHalfOpen &&
             ++half_open_successes_ >= kHalfOpenSuccesses) {
    set_breaker_locked(BreakerState::kClosed,
                       "recovered; accelerator traffic restored");
  }
}

void SlotHealth::record_failure(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_locked(detail);
}

void SlotHealth::record_success() {
  // An open breaker's successes came from the fallback and say nothing
  // about the unit; succeed_locked() ignores them.
  std::lock_guard<std::mutex> lock(mutex_);
  succeed_locked();
}

void SlotHealth::record_mismatch(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  set_quarantine_locked(QuarantineState::kQuarantined, detail);
}

void SlotHealth::record_attributed_mismatch(
    const std::string& kat_detail, const std::string& mismatch_detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_locked(kat_detail);
  set_quarantine_locked(QuarantineState::kQuarantined, mismatch_detail);
}

void SlotHealth::record_clean_verify() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_.quarantine == QuarantineState::kProbationFull) {
    if (++clean_verifies_ >= policy_.probation_full_clean)
      set_quarantine_locked(QuarantineState::kProbationRamp,
                            std::to_string(clean_verifies_) +
                                " clean verifications at full sampling");
  } else if (state_.quarantine == QuarantineState::kProbationRamp) {
    if (++clean_verifies_ >= policy_.probation_ramp_clean)
      set_quarantine_locked(QuarantineState::kHealthy,
                            std::to_string(clean_verifies_) +
                                " clean verifications at ramped sampling");
  }
}

void SlotHealth::probe_passed() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_.breaker == BreakerState::kOpen)
    set_breaker_locked(BreakerState::kHalfOpen,
                       "health probe KAT passed; trialing accelerator");
  else
    succeed_locked();
  if (state_.quarantine == QuarantineState::kQuarantined &&
      ++probe_passes_ >= policy_.rejoin_probes)
    set_quarantine_locked(QuarantineState::kProbationFull,
                          std::to_string(probe_passes_) +
                              " consecutive probe passes");
}

void SlotHealth::probe_failed(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_locked("probe: " + detail);
  // For the quarantine a failing KAT only proves the unit is not ready
  // to rejoin.
  probe_passes_ = 0;
}

}  // namespace lacrv::service
