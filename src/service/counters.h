// Observable service behaviour: monotonic counters + latency histograms.
//
// Every number here is an atomic the hot path bumps without locks; the
// snapshot is a consistent-enough read for dashboards and tests (each
// counter is individually exact, cross-counter sums may be mid-request
// by one).
#pragma once

#include <atomic>
#include <sstream>
#include <string>

#include "common/stats.h"
#include "common/types.h"

namespace lacrv::service {

struct CountersSnapshot {
  u64 submitted = 0;
  u64 completed = 0;        // fulfilled after execution (any final status)
  u64 ok = 0;               // completed with Status::kOk
  u64 rejected_overload = 0;
  u64 rejected_deadline = 0;
  u64 shed_at_shutdown = 0;
  u64 retries = 0;          // backoff-delayed re-executions
  u64 failed_attempts = 0;  // attempts that returned a retryable status
  u64 served_degraded = 0;  // requests that used >= 1 software fallback
  u64 hash_faults_corrected = 0;
  u64 breaker_trips = 0;
  u64 breaker_recoveries = 0;
  u64 quarantine_trips = 0;    // slots entering quarantined
  u64 quarantine_rejoins = 0;  // slots rejoining healthy from probation
  u64 probes = 0;
  u64 batch_submissions = 0;  // submit_batch() calls
  u64 micro_batches = 0;      // worker-side batches popped (any size)
  u64 batched_micro_batches = 0;  // op-groups run through batched kernels
  u64 batched_lanes = 0;          // requests served by the batched path
  u64 batched_fallback_lanes = 0;  // batched-eligible lanes served scalar
  u64 context_builds = 0;     // KeyContext cache misses (expansions run)
  u64 context_hits = 0;       // KeyContext cache hits (expansions saved)
  std::size_t queue_depth = 0;

  std::string to_string() const {
    std::ostringstream os;
    os << "submitted " << submitted << " | completed " << completed
       << " (ok " << ok << ") | overloaded " << rejected_overload
       << " | deadline-exceeded " << rejected_deadline << " | shed "
       << shed_at_shutdown << " | retries " << retries
       << " | failed-attempts " << failed_attempts << " | degraded "
       << served_degraded << " | hash-faults-corrected "
       << hash_faults_corrected << " | breaker trips " << breaker_trips
       << " / recoveries " << breaker_recoveries << " | quarantine trips "
       << quarantine_trips << " / rejoins " << quarantine_rejoins
       << " | probes " << probes
       << " | batches " << batch_submissions << " / micro " << micro_batches
       << " | batched groups " << batched_micro_batches << " / lanes "
       << batched_lanes << " / fallback " << batched_fallback_lanes
       << " | ctx builds " << context_builds << " / hits " << context_hits
       << " | queue depth " << queue_depth;
    return os.str();
  }
};

class ServiceCounters {
 public:
  std::atomic<u64> submitted{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> ok{0};
  std::atomic<u64> rejected_overload{0};
  std::atomic<u64> rejected_deadline{0};
  std::atomic<u64> shed_at_shutdown{0};
  std::atomic<u64> retries{0};
  std::atomic<u64> failed_attempts{0};
  std::atomic<u64> served_degraded{0};
  std::atomic<u64> hash_faults_corrected{0};
  std::atomic<u64> breaker_trips{0};
  std::atomic<u64> breaker_recoveries{0};
  std::atomic<u64> quarantine_trips{0};
  std::atomic<u64> quarantine_rejoins{0};
  std::atomic<u64> probes{0};
  std::atomic<u64> batch_submissions{0};
  std::atomic<u64> micro_batches{0};
  std::atomic<u64> batched_micro_batches{0};
  std::atomic<u64> batched_lanes{0};
  std::atomic<u64> batched_fallback_lanes{0};

  /// End-to-end latency (submit -> completion), one histogram per op.
  stats::LatencyHistogram encaps_latency;
  stats::LatencyHistogram decaps_latency;

  CountersSnapshot snapshot(std::size_t queue_depth) const {
    CountersSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.ok = ok.load(std::memory_order_relaxed);
    s.rejected_overload = rejected_overload.load(std::memory_order_relaxed);
    s.rejected_deadline = rejected_deadline.load(std::memory_order_relaxed);
    s.shed_at_shutdown = shed_at_shutdown.load(std::memory_order_relaxed);
    s.retries = retries.load(std::memory_order_relaxed);
    s.failed_attempts = failed_attempts.load(std::memory_order_relaxed);
    s.served_degraded = served_degraded.load(std::memory_order_relaxed);
    s.hash_faults_corrected =
        hash_faults_corrected.load(std::memory_order_relaxed);
    s.breaker_trips = breaker_trips.load(std::memory_order_relaxed);
    s.breaker_recoveries = breaker_recoveries.load(std::memory_order_relaxed);
    s.quarantine_trips = quarantine_trips.load(std::memory_order_relaxed);
    s.quarantine_rejoins = quarantine_rejoins.load(std::memory_order_relaxed);
    s.probes = probes.load(std::memory_order_relaxed);
    s.batch_submissions = batch_submissions.load(std::memory_order_relaxed);
    s.micro_batches = micro_batches.load(std::memory_order_relaxed);
    s.batched_micro_batches =
        batched_micro_batches.load(std::memory_order_relaxed);
    s.batched_lanes = batched_lanes.load(std::memory_order_relaxed);
    s.batched_fallback_lanes =
        batched_fallback_lanes.load(std::memory_order_relaxed);
    // context_builds / context_hits live in the service's ContextCache;
    // KemService::counters() fills them after this snapshot.
    s.queue_depth = queue_depth;
    return s;
  }
};

}  // namespace lacrv::service
