// Deterministic tests for the resilient KEM service: deadline and
// backoff edge cases on an injected ManualClock (no real sleeps, no
// timing assertions), breaker trip/recovery driven by explicit probes,
// and backpressure semantics of the bounded submission queue. The
// concurrent chaos coverage lives in service_soak_test.cpp.
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/stats.h"
#include "common/status.h"
#include "fault/plan.h"
#include "lac/backend.h"
#include "lac/kem.h"
#include "lac/pke.h"
#include "obs/metrics.h"
#include "scheme/lwr.h"
#include "scheme/profile.h"
#include "service/queue.h"
#include "service/retry.h"
#include "service/service.h"

namespace lacrv::service {
namespace {

hash::Seed seed_from(u8 tag) {
  hash::Seed s{};
  s[0] = tag;
  s[31] = static_cast<u8>(tag ^ 0xa5);
  return s;
}

KemResponse ok_response() {
  KemResponse r;
  r.status = Status::kOk;
  return r;
}

KemResponse rejected_response() {
  KemResponse r;
  r.status = Status::kRejected;
  r.detail = "synthetic fault-indicating status";
  return r;
}

/// A job that parks its worker until the test opens the gate, and
/// reports (via `started`) that the worker has actually picked it up —
/// the only synchronization the concurrency-free tests need.
KemService::Job gate_job(std::promise<void>& started,
                         std::shared_future<void> open) {
  return [&started, open](lac::Backend&) {
    started.set_value();
    open.wait();
    return ok_response();
  };
}

ServiceConfig manual_config(ManualClock& clock) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.clock = &clock;
  cfg.enable_prober = false;  // probes driven explicitly via probe_now()
  cfg.retry.jitter_percent = 0;
  return cfg;
}

TEST(KemServiceTest, RoundTripKeyAgreementThroughThePool) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.workers = 2;
  KemService svc(cfg);

  auto enc_future = svc.submit({OpKind::kEncaps, seed_from(1), {}, kNoDeadline});
  KemResponse enc = enc_future.get();
  ASSERT_EQ(enc.status, Status::kOk);
  EXPECT_EQ(enc.attempts, 1);
  EXPECT_FALSE(enc.served_by_fallback);

  // The service's own decapsulation and a golden software decapsulation
  // must both land on the encapsulated key.
  KemRequest dec_req;
  dec_req.op = OpKind::kDecaps;
  dec_req.ct = enc.encaps.ct;
  KemResponse dec = svc.submit(std::move(dec_req)).get();
  ASSERT_EQ(dec.status, Status::kOk);
  EXPECT_EQ(dec.key, enc.encaps.key);
  EXPECT_EQ(lac::decapsulate(svc.params(), lac::Backend::optimized(),
                             svc.keys(), enc.encaps.ct),
            enc.encaps.key);

  CountersSnapshot snap = svc.counters();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.ok, 2u);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(svc.raw_counters().encaps_latency.count(), 1u);
  EXPECT_EQ(svc.raw_counters().decaps_latency.count(), 1u);
}

TEST(KemServiceTest, FullQueueRejectsWithTypedOverload) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.queue_capacity = 1;
  KemService svc(cfg);

  std::promise<void> started, open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();  // worker is parked, queue is empty

  auto queued = svc.submit_job([](lac::Backend&) { return ok_response(); });
  auto shed = svc.submit_job([](lac::Backend&) { return ok_response(); });

  // Backpressure is immediate: the overloaded future is already ready.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  KemResponse r = shed.get();
  EXPECT_EQ(r.status, Status::kOverloaded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(svc.counters().rejected_overload, 1u);

  open.set_value();
  EXPECT_EQ(busy.get().status, Status::kOk);
  EXPECT_EQ(queued.get().status, Status::kOk);
  EXPECT_EQ(svc.counters().rejected_overload, 1u);
}

TEST(KemServiceTest, SubmitAfterStopIsUnavailable) {
  ManualClock clock;
  KemService svc(manual_config(clock));
  svc.stop();
  KemResponse r = svc.submit({OpKind::kEncaps, seed_from(2), {}, kNoDeadline})
                      .get();
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_EQ(svc.counters().shed_at_shutdown, 1u);
}

TEST(KemServiceTest, ZeroDeadlineIsShedBeforeExecution) {
  ManualClock clock;
  KemService svc(manual_config(clock));
  bool executed = false;
  KemResponse r = svc.submit_job(
                         [&executed](lac::Backend&) {
                           executed = true;
                           return ok_response();
                         },
                         /*deadline_micros=*/0)
                      .get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_FALSE(executed);
  EXPECT_EQ(svc.counters().rejected_deadline, 1u);
}

TEST(KemServiceTest, DeadlineExpiringWhileQueuedShedsWithoutExecution) {
  ManualClock clock;
  KemService svc(manual_config(clock));

  std::promise<void> started, open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();

  bool executed = false;
  auto target = svc.submit_job(
      [&executed](lac::Backend&) {
        executed = true;
        return ok_response();
      },
      clock.now_micros() + 1'000);

  // The deadline passes while the request sits in the queue behind the
  // gated job; the worker must shed it without running it.
  clock.advance(2'000);
  open.set_value();

  EXPECT_EQ(busy.get().status, Status::kOk);
  KemResponse r = target.get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_FALSE(executed);
  EXPECT_NE(r.detail.find("while queued"), std::string::npos);
}

TEST(KemServiceTest, DeadlineExpiringDuringBackoffEndsTheRetryLoop) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.retry.max_attempts = 5;
  cfg.retry.base_backoff_micros = 1'000;
  KemService svc(cfg);

  int runs = 0;
  // First backoff (1000us) already overshoots the 500us budget: exactly
  // one attempt executes, then the request is shed mid-retry.
  KemResponse r = svc.submit_job(
                         [&runs](lac::Backend&) {
                           ++runs;
                           return rejected_response();
                         },
                         clock.now_micros() + 500)
                      .get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(runs, 1);
  EXPECT_NE(r.detail.find("during retry backoff"), std::string::npos);
  EXPECT_NE(r.detail.find("rejected"), std::string::npos);
  EXPECT_EQ(svc.counters().retries, 0u);
  EXPECT_EQ(svc.counters().rejected_deadline, 1u);
}

TEST(KemServiceTest, RetryBudgetExhaustionReturnsTheLastTypedStatus) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.retry.max_attempts = 3;
  KemService svc(cfg);

  const u64 before = clock.now_micros();
  int runs = 0;
  KemResponse r = svc.submit_job([&runs](lac::Backend&) {
                       ++runs;
                       return rejected_response();
                     }).get();
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(runs, 3);

  CountersSnapshot snap = svc.counters();
  EXPECT_EQ(snap.failed_attempts, 3u);
  EXPECT_EQ(snap.retries, 2u);
  EXPECT_EQ(snap.ok, 0u);
  EXPECT_EQ(snap.completed, 1u);
  // Backoffs consumed virtual time only: 1000 + 2000 microseconds.
  EXPECT_EQ(clock.now_micros() - before, 3'000u);
}

TEST(RetryPolicyTest, BackoffIsCappedMonotoneAndDeterministic) {
  RetryPolicy p;
  p.base_backoff_micros = 1'000;
  p.max_backoff_micros = 8'000;
  p.jitter_percent = 0;
  EXPECT_EQ(p.backoff_micros(1, 7), 1'000u);
  EXPECT_EQ(p.backoff_micros(2, 7), 2'000u);
  EXPECT_EQ(p.backoff_micros(3, 7), 4'000u);
  EXPECT_EQ(p.backoff_micros(4, 7), 8'000u);
  EXPECT_EQ(p.backoff_micros(5, 7), 8'000u);   // capped
  EXPECT_EQ(p.backoff_micros(63, 7), 8'000u);  // shift saturates safely

  p.jitter_percent = 25;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const u64 base = RetryPolicy{p.max_attempts, p.base_backoff_micros,
                                 p.max_backoff_micros, 0, p.jitter_seed}
                         .backoff_micros(attempt, 42);
    const u64 jittered = p.backoff_micros(attempt, 42);
    EXPECT_GE(jittered, base);                    // jitter only adds
    EXPECT_LE(jittered, base + base / 4);         // bounded amplitude
    EXPECT_EQ(jittered, p.backoff_micros(attempt, 42));  // reproducible
  }
  // Different requests draw different jitter streams.
  EXPECT_NE(p.backoff_micros(1, 1), p.backoff_micros(1, 2));
}

TEST(KemServiceTest, AttributedFaultTripsBreakerAndReroutesToFallback) {
  fault::FaultPlan plan;
  plan.add({fault::Unit::kMulTer, rtl::FaultKind::kStuckAtOne, 0, 5, 3});

  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.retry.max_attempts = 3;  // one request = three attributed failures
  KemService svc(cfg);
  svc.arm_faults(plan);

  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kClosed);
  KemResponse r = svc.submit_job([](lac::Backend&) {
                       return rejected_response();
                     }).get();
  EXPECT_EQ(r.status, Status::kRejected);

  // Each failed attempt re-ran the per-unit KATs; only the faulted
  // multiplier failed them, so only its breaker tripped.
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kOpen);
  EXPECT_EQ(svc.breaker_state(fault::Unit::kChien), BreakerState::kClosed);
  EXPECT_EQ(svc.breaker_state(fault::Unit::kSha256), BreakerState::kClosed);
  EXPECT_EQ(svc.counters().breaker_trips, 1u);

  DegradeReport report = svc.degrade_report();
  ASSERT_TRUE(report.degraded());
  EXPECT_STREQ(report.entries[0].unit, "mul_ter");
  EXPECT_EQ(report.entries[0].status, Status::kUnavailable);
  EXPECT_NE(report.entries[0].detail.find("closed -> open"),
            std::string::npos);

  // With the breaker open the stuck-at multiplier is out of the path:
  // encapsulation succeeds on the software fallback and still agrees
  // with a golden decapsulation.
  KemResponse enc =
      svc.submit({OpKind::kEncaps, seed_from(9), {}, kNoDeadline}).get();
  ASSERT_EQ(enc.status, Status::kOk);
  EXPECT_TRUE(enc.served_by_fallback);
  EXPECT_EQ(lac::decapsulate(svc.params(), lac::Backend::optimized(),
                             svc.keys(), enc.encaps.ct),
            enc.encaps.key);
  EXPECT_GE(svc.counters().served_degraded, 1u);
}

TEST(KemServiceTest, ProbeWalksBreakerThroughHalfOpenToClosed) {
  fault::FaultPlan plan;
  plan.add({fault::Unit::kMulTer, rtl::FaultKind::kStuckAtOne, 0, 5, 3});

  ManualClock clock;
  KemService svc(manual_config(clock));
  svc.arm_faults(plan);
  (void)svc.submit_job([](lac::Backend&) { return rejected_response(); })
      .get();
  ASSERT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kOpen);

  // While the fault is present the probe keeps the breaker open.
  EXPECT_FALSE(svc.probe_now());
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kOpen);

  // Fault cleared: first passing probe half-opens, the next ones close.
  svc.clear_faults();
  EXPECT_TRUE(svc.probe_now());
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kHalfOpen);
  EXPECT_TRUE(svc.probe_now());
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kHalfOpen);
  EXPECT_TRUE(svc.probe_now());
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kClosed);
  EXPECT_EQ(svc.counters().breaker_recoveries, 1u);

  // Recovered: accelerator traffic restored, no fallback involved.
  KemResponse enc =
      svc.submit({OpKind::kEncaps, seed_from(11), {}, kNoDeadline}).get();
  ASSERT_EQ(enc.status, Status::kOk);
  EXPECT_FALSE(enc.served_by_fallback);
}

TEST(KemServiceTest, HalfOpenRacingANewFaultReopensTheBreaker) {
  fault::FaultPlan plan;
  plan.add({fault::Unit::kMulTer, rtl::FaultKind::kStuckAtOne, 0, 5, 3});

  ManualClock clock;
  KemService svc(manual_config(clock));
  svc.arm_faults(plan);
  (void)svc.submit_job([](lac::Backend&) { return rejected_response(); })
      .get();
  svc.clear_faults();
  ASSERT_TRUE(svc.probe_now());
  ASSERT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kHalfOpen);

  // The fault returns inside the half-open trial window. The next
  // attributed failure must re-open immediately (no threshold grace).
  svc.arm_faults(plan);
  (void)svc.submit_job([](lac::Backend&) { return rejected_response(); })
      .get();
  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kOpen);
  EXPECT_EQ(svc.counters().breaker_trips, 2u);

  DegradeReport report = svc.degrade_report();
  bool saw_half_open_failure = false;
  for (const auto& e : report.entries)
    if (e.detail.find("half-open trial failed") != std::string::npos)
      saw_half_open_failure = true;
  EXPECT_TRUE(saw_half_open_failure);
}

TEST(KemServiceTest, SoftwarePinnedSlotNeverTripsItsBreaker) {
  // mul_ter pinned to software: the faulted multiplier unit is never in
  // the serving path, so neither failing probes nor attributed request
  // failures may trip the slot or log a degradation.
  fault::FaultPlan plan;
  plan.add({fault::Unit::kMulTer, rtl::FaultKind::kStuckAtOne, 0, 5, 3});

  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.slot_use_rtl[0] = false;  // lac::kAllSlots[0] == mul_ter
  cfg.retry.max_attempts = 3;
  KemService svc(cfg);
  svc.arm_faults(plan);

  for (int i = 0; i < 3; ++i) svc.probe_now();
  (void)svc.submit_job([](lac::Backend&) { return rejected_response(); })
      .get();

  EXPECT_EQ(svc.breaker_state(fault::Unit::kMulTer), BreakerState::kClosed);
  EXPECT_EQ(svc.counters().breaker_trips, 0u);
  EXPECT_TRUE(svc.degrade_report().entries.empty());

  KemResponse enc =
      svc.submit({OpKind::kEncaps, seed_from(13), {}, kNoDeadline}).get();
  ASSERT_EQ(enc.status, Status::kOk);
  EXPECT_FALSE(enc.served_by_fallback);
  EXPECT_EQ(lac::decapsulate(svc.params(), lac::Backend::optimized(),
                             svc.keys(), enc.encaps.ct),
            enc.encaps.key);
}

TEST(KemServiceTest, StopShedsQueuedWorkWithTypedStatus) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.queue_capacity = 4;
  KemService svc(cfg);

  std::promise<void> started;
  std::promise<void> open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();
  auto queued = svc.submit_job([](lac::Backend&) { return ok_response(); });

  // stop() closes the queue and joins; release the gate from another
  // thread so the parked worker can finish its in-flight job.
  std::thread releaser([&open] { open.set_value(); });
  svc.stop();
  releaser.join();

  EXPECT_EQ(busy.get().status, Status::kOk);
  // The queued job was either executed before the stop flag landed or
  // shed with a typed status — never dropped, never untyped.
  KemResponse r = queued.get();
  EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kUnavailable);
}

TEST(BoundedQueueTest, BackpressureAndCloseSemantics) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int spill = 3;
  EXPECT_FALSE(q.try_push(std::move(spill)));
  EXPECT_EQ(spill, 3);  // rejected item is not consumed
  EXPECT_EQ(q.depth(), 2u);

  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(std::move(spill)));  // closed queue rejects
  EXPECT_EQ(q.pop(), std::optional<int>(2));   // drains what it holds
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);            // closed and empty
}

TEST(BoundedQueueTest, PushManyAcceptsPrefixUpToCapacity) {
  BoundedQueue<int> q(3);
  std::vector<int> first{10, 11};
  EXPECT_EQ(q.push_many(first), 2u);
  EXPECT_EQ(q.depth(), 2u);

  // Only one free slot: exactly the prefix fits, the rest stay with the
  // caller un-consumed so it can shed them with a typed status.
  std::vector<int> second{20, 21, 22};
  EXPECT_EQ(q.push_many(second), 1u);
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(second[1], 21);
  EXPECT_EQ(second[2], 22);

  // Full queue accepts nothing; closed queue accepts nothing.
  std::vector<int> third{30};
  EXPECT_EQ(q.push_many(third), 0u);
  q.pop();
  q.close();
  EXPECT_EQ(q.push_many(third), 0u);
}

TEST(BoundedQueueTest, PopBatchDrainsFifoWithoutWaitingToFill) {
  BoundedQueue<int> q(8);
  std::vector<int> items{1, 2, 3, 4, 5};
  EXPECT_EQ(q.push_many(items), 5u);

  // Drains up to max in submission order...
  std::vector<int> batch = q.pop_batch(3);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  // ...and never waits for a batch to fill: a partial batch returns
  // immediately with whatever is queued.
  batch = q.pop_batch(8);
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));

  q.close();
  EXPECT_TRUE(q.pop_batch(4).empty());  // closed and empty
}

TEST(LatencyHistogramTest, BucketsCountsAndPercentiles) {
  stats::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(100'000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(h.mean_micros(), 10.0);
  // p50 sits in the 10us bucket, p99 in the 100ms-ish tail bucket.
  EXPECT_LE(h.percentile_micros(50), 16u);
  EXPECT_GE(h.percentile_micros(99), 100'000u / 2);
  EXPECT_FALSE(h.to_string().empty());
}

// ---- callback submission (the async front end's path) ----------------------

TEST(KemServiceTest, CallbackDeliveryMatchesFutureSemantics) {
  ManualClock clock;
  KemService svc(manual_config(clock));

  std::promise<KemResponse> delivered;
  svc.submit_with_callback({OpKind::kEncaps, seed_from(21), {}, kNoDeadline},
                           [&](KemResponse r) {
                             delivered.set_value(std::move(r));
                           });
  KemResponse enc = delivered.get_future().get();
  ASSERT_EQ(enc.status, Status::kOk);
  EXPECT_EQ(enc.attempts, 1);
  // The callback result is the same object submit() would have resolved:
  // the ciphertext decapsulates to the delivered key.
  EXPECT_EQ(lac::decapsulate(svc.params(), lac::Backend::optimized(),
                             svc.keys(), enc.encaps.ct),
            enc.encaps.key);
}

TEST(KemServiceTest, CallbackOverloadRejectionFiresOnCallerThread) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.queue_capacity = 1;
  KemService svc(cfg);

  std::promise<void> started, open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();
  auto queued = svc.submit_job([](lac::Backend&) { return ok_response(); });

  // The queue is full: the rejection callback must fire synchronously,
  // inside submit_with_callback, on this thread.
  const std::thread::id caller = std::this_thread::get_id();
  bool fired = false;
  svc.submit_with_callback({OpKind::kEncaps, seed_from(22), {}, kNoDeadline},
                           [&](KemResponse r) {
                             EXPECT_EQ(std::this_thread::get_id(), caller);
                             EXPECT_EQ(r.status, Status::kOverloaded);
                             EXPECT_EQ(r.attempts, 0);
                             fired = true;
                           });
  EXPECT_TRUE(fired);
  EXPECT_EQ(svc.counters().rejected_overload, 1u);

  open.set_value();
  EXPECT_EQ(busy.get().status, Status::kOk);
  EXPECT_EQ(queued.get().status, Status::kOk);
}

TEST(KemServiceTest, CallbackExceptionIsContained) {
  ManualClock clock;
  KemService svc(manual_config(clock));

  std::promise<void> threw;
  svc.submit_with_callback({OpKind::kEncaps, seed_from(23), {}, kNoDeadline},
                           [&](KemResponse) {
                             threw.set_value();
                             throw std::runtime_error("hostile callback");
                           });
  threw.get_future().wait();
  // The worker survived the throw: it still executes the next request.
  KemResponse r =
      svc.submit({OpKind::kEncaps, seed_from(24), {}, kNoDeadline}).get();
  EXPECT_EQ(r.status, Status::kOk);
}

// ---- drain: the graceful dual of stop() -------------------------------------

TEST(KemServiceTest, DrainExecutesQueuedWorkWhereStopShedsIt) {
  ManualClock clock;
  KemService svc(manual_config(clock));

  std::promise<void> started, open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();
  // Queued behind the parked worker — drain() must *execute* these, not
  // shed them with kUnavailable the way stop() would.
  auto q1 = svc.submit({OpKind::kEncaps, seed_from(31), {}, kNoDeadline});
  auto q2 = svc.submit_job([](lac::Backend&) { return ok_response(); });

  std::thread release([&] {
    // drain() blocks until the queue empties; release the worker from a
    // side thread once the drain gate is known to be down.
    while (!svc.draining()) std::this_thread::yield();
    open.set_value();
  });
  svc.drain();
  release.join();

  EXPECT_EQ(busy.get().status, Status::kOk);
  EXPECT_EQ(q1.get().status, Status::kOk);
  EXPECT_EQ(q2.get().status, Status::kOk);
  const CountersSnapshot snap = svc.counters();
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.ok, 3u);
  EXPECT_EQ(snap.queue_depth, 0u);
}

TEST(KemServiceTest, DrainRejectsNewSubmissionsWithTypedUnavailable) {
  ManualClock clock;
  KemService svc(manual_config(clock));

  // Park the worker so the drain stays in progress while we submit.
  std::promise<void> started, open;
  auto busy = svc.submit_job(gate_job(started, open.get_future().share()));
  started.get_future().wait();

  std::thread drainer([&] { svc.drain(); });
  while (!svc.draining()) std::this_thread::yield();

  // Mid-drain: rejected with the draining detail, synchronously.
  KemResponse r =
      svc.submit({OpKind::kEncaps, seed_from(32), {}, kNoDeadline}).get();
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_EQ(r.detail, "service draining");

  bool fired = false;
  svc.submit_with_callback({OpKind::kEncaps, seed_from(33), {}, kNoDeadline},
                           [&](KemResponse cb) {
                             EXPECT_EQ(cb.status, Status::kUnavailable);
                             fired = true;
                           });
  EXPECT_TRUE(fired);

  open.set_value();
  drainer.join();
  EXPECT_EQ(busy.get().status, Status::kOk);

  // Post-drain the verdict hardens to the stopped detail; drain() and
  // stop() stay idempotent no-ops.
  r = svc.submit({OpKind::kEncaps, seed_from(34), {}, kNoDeadline}).get();
  EXPECT_EQ(r.status, Status::kUnavailable);
  EXPECT_EQ(r.detail, "service stopped");
  svc.drain();
  svc.stop();
}

/// One KemService, two schemes: key id 0 serves LAC-128, key id 1 the
/// LWR-512 profile. Round-trips on both key tables, per-scheme metrics
/// labels, scheme-scoped resilience state, and the typed verdict for a
/// key id the service does not hold.
TEST(KemServiceTest, TwoSchemesShareOneServiceWithScopedState) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.workers = 2;
  cfg.second_params = &scheme::lwr::lwr512();
  cfg.second_key_seed = seed_from(0x42);
  KemService svc(cfg);

  ASSERT_EQ(svc.scheme_count(), 2u);
  EXPECT_STREQ(svc.scheme_name_for_key_id(0), "lac");
  EXPECT_STREQ(svc.scheme_name_for_key_id(1), "lwr");
  EXPECT_EQ(svc.scheme_name_for_key_id(2), nullptr);
  EXPECT_NE(svc.params_for_key_id(0)->ct_bytes(),
            svc.params_for_key_id(1)->ct_bytes());

  for (u32 key_id = 0; key_id < 2; ++key_id) {
    KemRequest enc_req;
    enc_req.op = OpKind::kEncaps;
    enc_req.entropy = seed_from(static_cast<u8>(10 + key_id));
    enc_req.key_id = key_id;
    KemResponse enc = svc.submit(enc_req).get();
    ASSERT_EQ(enc.status, Status::kOk) << "key id " << key_id;

    KemRequest dec_req;
    dec_req.op = OpKind::kDecaps;
    dec_req.ct = enc.encaps.ct;
    dec_req.key_id = key_id;
    KemResponse dec = svc.submit(dec_req).get();
    ASSERT_EQ(dec.status, Status::kOk) << "key id " << key_id;
    EXPECT_EQ(dec.key, enc.encaps.key) << "key id " << key_id;

    // The served transcript is bit-identical to that scheme's golden
    // model under the same key table entry and entropy.
    const scheme::SchemeProfile& prof =
        *scheme::SchemeProfile::for_key_id(key_id);
    const lac::Backend golden = scheme::golden_backend(prof);
    const lac::Params& params = *svc.params_for_key_id(key_id);
    const lac::KemKeyPair& keys = *svc.keys_for_key_id(key_id);
    const lac::EncapsResult want =
        lac::encapsulate(params, golden, keys.pk, enc_req.entropy);
    EXPECT_EQ(lac::serialize(params, want.ct),
              lac::serialize(params, enc.encaps.ct))
        << "key id " << key_id;
    EXPECT_EQ(lac::decapsulate(params, golden, keys, enc.encaps.ct),
              enc.encaps.key)
        << "key id " << key_id;
  }

  // An id outside the key table completes with a non-retryable typed
  // verdict; the service keeps serving afterwards.
  KemRequest bad;
  bad.op = OpKind::kEncaps;
  bad.entropy = seed_from(99);
  bad.key_id = 7;
  KemResponse bad_resp = svc.submit(bad).get();
  EXPECT_EQ(bad_resp.status, Status::kBadArgument);
  KemRequest again;
  again.op = OpKind::kEncaps;
  again.entropy = seed_from(3);
  again.key_id = 1;
  EXPECT_EQ(svc.submit(again).get().status, Status::kOk);

  // Resilience state is keyed scheme x slot; an unknown id reads as
  // fail-safe defaults rather than aliasing a real scheme's state.
  EXPECT_EQ(svc.breaker_state(fault::Unit::kSha256, 0), BreakerState::kClosed);
  EXPECT_EQ(svc.breaker_state(fault::Unit::kSha256, 1), BreakerState::kClosed);
  EXPECT_EQ(svc.quarantine_state(lac::Slot::kSha256, 1),
            QuarantineState::kHealthy);
  EXPECT_EQ(svc.breaker_state(fault::Unit::kSha256, 9), BreakerState::kClosed);

  // Metrics: scheme 0 keeps the exact pre-profile label shape; the
  // second scheme is distinguished by a scheme="<name>" label, and the
  // per-scheme request counters cover both.
  obs::MetricsRegistry metrics;
  svc.register_metrics(metrics);
  const std::string text = metrics.expose_text();
  EXPECT_NE(text.find("lacrv_service_breaker_state{unit=\"mul_ter\"}"),
            std::string::npos);
  EXPECT_NE(text.find("scheme=\"lwr\""), std::string::npos);
  EXPECT_NE(text.find("lacrv_service_scheme_requests_completed_total"),
            std::string::npos);
  EXPECT_NE(text.find("scheme=\"lac\""), std::string::npos);
}

/// Mixed-scheme batched submission: the grouped batch kernels must
/// split by key id and stay bit-identical to each scheme's golden
/// scalar transcript, lane by lane.
TEST(KemServiceTest, BatchedSubmissionsSplitByScheme) {
  ManualClock clock;
  ServiceConfig cfg = manual_config(clock);
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  cfg.second_params = &scheme::lwr::lwr512();
  cfg.second_key_seed = seed_from(0x43);
  ASSERT_TRUE(cfg.use_batched_kernels);
  KemService svc(cfg);

  constexpr std::size_t kLanes = 6;
  std::vector<KemRequest> requests;
  for (std::size_t l = 0; l < kLanes; ++l) {
    KemRequest r;
    r.op = OpKind::kEncaps;
    r.entropy = seed_from(static_cast<u8>(0x20 + l));
    r.key_id = static_cast<u32>(l % 2);  // interleave the two schemes
    requests.push_back(r);
  }
  std::vector<std::future<KemResponse>> futures =
      svc.submit_batch(std::move(requests));
  ASSERT_EQ(futures.size(), kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    KemResponse got = futures[l].get();
    ASSERT_EQ(got.status, Status::kOk) << "lane " << l;
    const u32 key_id = static_cast<u32>(l % 2);
    const lac::Params& params = *svc.params_for_key_id(key_id);
    const lac::Backend golden =
        scheme::golden_backend(*scheme::SchemeProfile::for_key_id(key_id));
    const lac::EncapsResult want =
        lac::encapsulate(params, golden, svc.keys_for_key_id(key_id)->pk,
                         seed_from(static_cast<u8>(0x20 + l)));
    EXPECT_EQ(lac::serialize(params, got.encaps.ct),
              lac::serialize(params, want.ct))
        << "lane " << l;
    EXPECT_EQ(got.encaps.key, want.key) << "lane " << l;
  }
}

TEST(PrintStatusTest, UniformStatusLineFormat) {
  std::ostringstream os;
  print_status(os, "kem-server", Status::kOverloaded, "queue full");
  EXPECT_EQ(os.str(), "[kem-server] overloaded: queue full\n");
  os.str("");
  print_status(os, "keytool", Status::kOk);
  EXPECT_EQ(os.str(), "[keytool] ok\n");
  // The service-layer statuses have stable names for log grepping.
  EXPECT_STREQ(status_name(Status::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(status_name(Status::kUnavailable), "unavailable");
}

}  // namespace
}  // namespace lacrv::service
