// The per-slot health machine (src/service/health.h) driven directly:
// the attributed-failure cause (the circuit breaker walk), and how it
// combines with the verified-mismatch cause (the quarantine walk, whose
// own transitions verify_test.cpp covers) into one allow() verdict.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/health.h"

namespace lacrv::service {
namespace {

HealthPolicy short_walk() {
  HealthPolicy p;
  p.rejoin_probes = 1;
  p.probation_full_clean = 1;
  p.probation_ramp_clean = 1;
  return p;
}

struct Logged {
  HealthState from;
  HealthState to;
  std::string detail;
};

/// A SlotHealth whose transitions are appended to `log`.
void configure_logged(SlotHealth& h, std::vector<Logged>& log,
                      HealthPolicy policy = {}) {
  h.configure("mul_ter", policy,
              [&log](const char*, HealthState from, HealthState to,
                     const std::string& detail) {
                log.push_back({from, to, detail});
              });
}

TEST(SlotHealth, TripsAfterThreeConsecutiveFailuresAndSuccessResets) {
  SlotHealth h;
  std::vector<Logged> log;
  configure_logged(h, log);

  h.record_failure("kat");
  h.record_failure("kat");
  h.record_success();  // resets the consecutive count
  h.record_failure("kat");
  h.record_failure("kat");
  EXPECT_EQ(h.state().breaker, BreakerState::kClosed);
  EXPECT_TRUE(h.allow());
  EXPECT_TRUE(log.empty());

  h.record_failure("kat red");
  EXPECT_EQ(h.state().breaker, BreakerState::kOpen);
  EXPECT_FALSE(h.allow());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].from.breaker, BreakerState::kClosed);
  EXPECT_EQ(log[0].to.breaker, BreakerState::kOpen);
  EXPECT_EQ(log[0].from.quarantine, log[0].to.quarantine);
  EXPECT_EQ(log[0].detail,
            "tripped after 3 consecutive failures (kat red); traffic "
            "rerouted to software fallback");

  // Open: further failures and fallback successes change nothing.
  h.record_failure("again");
  h.record_success();
  EXPECT_EQ(h.state().breaker, BreakerState::kOpen);
  EXPECT_EQ(log.size(), 1u);
}

TEST(SlotHealth, ProbePassHalfOpensTwoSuccessesCloseAndFailureReopens) {
  SlotHealth h;
  std::vector<Logged> log;
  configure_logged(h, log);
  for (int i = 0; i < SlotHealth::kFailureThreshold; ++i)
    h.record_failure("kat");
  ASSERT_EQ(h.state().breaker, BreakerState::kOpen);

  h.probe_passed();
  EXPECT_EQ(h.state().breaker, BreakerState::kHalfOpen);
  EXPECT_TRUE(h.allow());  // half-open traffic is the recovery trial
  h.record_success();
  EXPECT_EQ(h.state().breaker, BreakerState::kHalfOpen);
  h.probe_passed();  // a passing probe counts as a success too
  EXPECT_EQ(h.state().breaker, BreakerState::kClosed);
  EXPECT_EQ(log.back().detail, "recovered; accelerator traffic restored");

  // Trip again; a failure inside the half-open window re-opens at once.
  for (int i = 0; i < SlotHealth::kFailureThreshold; ++i)
    h.record_failure("kat");
  h.probe_passed();
  ASSERT_EQ(h.state().breaker, BreakerState::kHalfOpen);
  h.record_failure("raced");
  EXPECT_EQ(h.state().breaker, BreakerState::kOpen);
  EXPECT_EQ(log.back().from.breaker, BreakerState::kHalfOpen);
  EXPECT_EQ(log.back().detail, "half-open trial failed (raced)");
}

TEST(SlotHealth, ProbeFailureCountsAsFailureWhileClosed) {
  SlotHealth h;
  std::vector<Logged> log;
  configure_logged(h, log);
  h.probe_failed("stuck");
  h.record_failure("kat");
  EXPECT_EQ(h.state().breaker, BreakerState::kClosed);
  h.probe_failed("stuck");
  EXPECT_EQ(h.state().breaker, BreakerState::kOpen);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].detail.find("(probe: stuck)"), std::string::npos);
  // The probe never touched the quarantine cause.
  EXPECT_EQ(h.state().quarantine, QuarantineState::kHealthy);
}

TEST(SlotHealth, EitherCauseBlocksAndTheSlotRejoinsOnlyWhenBothClear) {
  // Quarantine alone blocks.
  {
    SlotHealth h;
    h.configure("chien", short_walk(), nullptr);
    h.record_mismatch("diverged");
    EXPECT_EQ(h.state().breaker, BreakerState::kClosed);
    EXPECT_FALSE(h.allow());
  }
  // Breaker alone blocks.
  {
    SlotHealth h;
    h.configure("chien", short_walk(), nullptr);
    for (int i = 0; i < SlotHealth::kFailureThreshold; ++i)
      h.record_failure("kat");
    EXPECT_EQ(h.state().quarantine, QuarantineState::kHealthy);
    EXPECT_FALSE(h.allow());
  }
  // Both: an attributed mismatch trips both causes, breaker first.
  SlotHealth h;
  std::vector<Logged> log;
  configure_logged(h, log, short_walk());
  h.record_failure("kat");
  h.record_failure("kat");
  h.record_attributed_mismatch("kat red", "served != golden");
  EXPECT_EQ((h.state()), (HealthState{BreakerState::kOpen,
                                      QuarantineState::kQuarantined}));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log[0].from.breaker, log[0].to.breaker);
  EXPECT_EQ(log[1].to.quarantine, QuarantineState::kQuarantined);
  EXPECT_EQ(log[1].detail, "served != golden");

  // One passing probe half-opens the breaker and (rejoin_probes == 1)
  // moves the quarantine to probation: both trials admit traffic.
  h.probe_passed();
  EXPECT_EQ((h.state()), (HealthState{BreakerState::kHalfOpen,
                                      QuarantineState::kProbationFull}));
  EXPECT_TRUE(h.allow());

  // A fresh mismatch during probation blocks again even though the
  // breaker is trialing, and the breaker closing alone does not rejoin.
  h.record_mismatch("diverged again");
  h.record_success();
  h.record_success();
  EXPECT_EQ(h.state().breaker, BreakerState::kClosed);
  EXPECT_FALSE(h.allow());

  // Clearing the quarantine walk is what lets the slot serve again.
  h.probe_passed();
  EXPECT_TRUE(h.allow());
  h.record_clean_verify();
  h.record_clean_verify();
  EXPECT_EQ((h.state()), (HealthState{BreakerState::kClosed,
                                      QuarantineState::kHealthy}));
}

TEST(SlotHealth, ConcurrentFeedersKeepOneConsistentState) {
  // Every feeder takes the one mutex; this races them under TSan.
  SlotHealth h;
  std::vector<Logged> log;
  configure_logged(h, log, short_walk());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 200; ++i) {
        switch ((i + t) % 5) {
          case 0: h.record_failure("kat"); break;
          case 1: h.record_success(); break;
          case 2: h.record_mismatch("diverged"); break;
          case 3: h.record_clean_verify(); break;
          default: h.probe_passed(); break;
        }
        (void)h.allow();
        (void)h.sample_override_per_mille();
      }
    });
  for (auto& th : threads) th.join();
  // Transitions chain: each one starts where the previous one ended.
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_EQ(log[i].from, log[i - 1].to) << "transition " << i;
  if (!log.empty()) {
    EXPECT_EQ(log.back().to, h.state());
  }
}

}  // namespace
}  // namespace lacrv::service
