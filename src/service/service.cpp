#include "service/service.h"

#include <utility>

#include "fault/selftest.h"
#include "lac/backend.h"
#include "lac/kem_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/rtl_backend.h"

namespace lacrv::service {
namespace {

/// Canonical unit name of breaker i — the registry slot name, shared
/// with trace spans, bench keys and --mix flags.
const char* unit_name(std::size_t i) {
  return lac::slot_name(lac::kAllSlots[i]);
}

constexpr const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kEncaps: return "encaps";
    case OpKind::kDecaps: return "decaps";
    case OpKind::kGeneric: return "generic";
  }
  return "?";
}

/// The modeled registry a parameter set's arithmetic calls for. LAC
/// sets keep the pre-profile construction (including custom-modulus
/// test sets, which parameterize only the modq slot); other schemes
/// build from their SchemeProfile's registry profile.
lac::KernelRegistry registry_for(const lac::Params& p) {
  if (p.scheme != scheme::SchemeId::kLac)
    return lac::KernelRegistry::modeled_profile(
        scheme::SchemeProfile::get(p.scheme).registry);
  return lac::KernelRegistry::modeled(p.q);
}

/// Keygen backend for provisioning a scheme's keypair: the golden
/// software models of that scheme's arithmetic (a faulted accelerator
/// can corrupt requests but never the long-lived key material).
lac::Backend provisioning_backend(const lac::Params& p) {
  if (p.scheme == scheme::SchemeId::kLac) return lac::Backend::optimized();
  return lac::Backend::optimized_from(
      std::make_shared<lac::KernelRegistry>(registry_for(p)));
}

}  // namespace

KemService::KemService(ServiceConfig config)
    : config_(config),
      params_(config.params ? config.params : &lac::Params::lac128()),
      clock_(config.clock ? config.clock : &RealClock::instance()),
      verifier_(config.verify),
      ctx_cache_(config.context_cache_capacity),
      queue_(config.queue_capacity) {
  // The served-scheme table, indexed by wire key id: slot 0 is the
  // primary scheme, slot 1 the optional second one. Each entry carries
  // its own keypair and its own scheme × slot resilience state.
  {
    auto st = std::make_unique<SchemeState>();
    st->params = params_;
    schemes_.push_back(std::move(st));
  }
  if (config_.second_params) {
    auto st = std::make_unique<SchemeState>();
    st->params = config_.second_params;
    schemes_.push_back(std::move(st));
  }
  for (std::size_t s = 0; s < schemes_.size(); ++s) {
    SchemeState& st = *schemes_[s];
    st.profile = &scheme::SchemeProfile::get(st.params->scheme);
    for (std::size_t i = 0; i < kNumUnits; ++i) {
      // A slot serves RTL only when the config asks for it AND the
      // scheme's profile has a datapath for it (the mod-251 units are
      // LAC-only; SHA-256 is scheme-independent).
      st.use_rtl[i] = config_.slot_use_rtl[i] && st.profile->rtl_capable[i];
      // The primary scheme keeps bare slot names in reports and
      // health transitions (pre-profile compatibility); the second
      // scheme's state is labeled "<scheme>:<slot>".
      st.unit_labels[i] =
          s == 0 ? std::string(unit_name(i))
                 : std::string(st.profile->name) + ":" + unit_name(i);
    }
    // The BarrettRtl datapath is built for q = 251 even within the LAC
    // family's custom-modulus test sets.
    if (st.params->q != poly::kQ) st.use_rtl[kModqIdx] = false;
    // Provisioning: each scheme's keypair is generated on its golden
    // software backend, so a faulted accelerator can corrupt requests
    // but never the long-lived key material.
    st.keys = lac::kem_keygen(
        *st.params, provisioning_backend(*st.params),
        s == 0 ? config_.key_seed : config_.second_key_seed);
  }

  // One callback reports both causes of a slot's health transitions.
  // It fires on whatever thread recorded the deciding event, so the
  // thread-local trace id links it to the request that tripped (0 for
  // prober-driven transitions).
  auto on_transition = [this](const char* slot, HealthState from,
                              HealthState to, const std::string& detail) {
    Status status = Status::kOk;
    std::string line;
    if (from.breaker != to.breaker) {
      if (to.breaker == BreakerState::kOpen) {
        counters_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
        status = Status::kUnavailable;
      }
      if (from.breaker == BreakerState::kHalfOpen &&
          to.breaker == BreakerState::kClosed)
        counters_.breaker_recoveries.fetch_add(1, std::memory_order_relaxed);
      obs::instant("breaker.transition", "breaker", {},
                   {{"unit", std::string(slot)},
                    {"from", std::string(breaker_state_name(from.breaker))},
                    {"to", std::string(breaker_state_name(to.breaker))}});
      line = std::string(breaker_state_name(from.breaker)) + " -> " +
             breaker_state_name(to.breaker) + ": " + detail;
    } else {
      if (to.quarantine == QuarantineState::kQuarantined) {
        counters_.quarantine_trips.fetch_add(1, std::memory_order_relaxed);
        status = Status::kIntegrity;
      }
      if (to.quarantine == QuarantineState::kHealthy)
        counters_.quarantine_rejoins.fetch_add(1, std::memory_order_relaxed);
      const char* from_name = quarantine_state_name(from.quarantine);
      const char* to_name = quarantine_state_name(to.quarantine);
      obs::instant("verify.quarantine_transition", "verify", {},
                   {{"slot", std::string(slot)},
                    {"from", std::string(from_name)},
                    {"to", std::string(to_name)}});
      line = std::string("quarantine ") + from_name + " -> " + to_name +
             ": " + detail;
    }
    std::lock_guard<std::mutex> lock(report_mutex_);
    report_.add(slot, status, line);
  };
  for (auto& st : schemes_)
    for (std::size_t i = 0; i < kNumUnits; ++i)
      st->health[i].configure(st->unit_labels[i].c_str(),
                              config_.verify.quarantine, on_transition);

  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  rigs_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    rigs_.push_back(std::make_unique<Rig>());
    build_rig(*rigs_.back());
  }
  prober_rig_ = std::make_unique<Rig>();
  build_rig(*prober_rig_);

  if (config_.use_key_context) {
    // Each scheme key's context: the first call builds (one gen_a + one
    // H(pk) per scheme for the whole service lifetime), the rest hit
    // the scheme-keyed cache and share the same immutable object.
    for (auto& rig : rigs_)
      for (std::size_t s = 0; s < schemes_.size(); ++s)
        rig->schemes[s].key_ctx = ctx_cache_.get_or_build(
            *schemes_[s]->params, rig->schemes[s].backend, schemes_[s]->keys);
  }

  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
  if (config_.enable_prober) prober_ = std::thread([this] { prober_main(); });
}

KemService::~KemService() { stop(); }

void KemService::build_rig(Rig& rig) {
  // One physical PQ-ALU per worker: the unit instances are shared by
  // every served scheme's backend on this rig.
  rig.mul = std::make_shared<rtl::MulTerRtl>(poly::kMulTerLength);
  rig.chien = std::make_shared<rtl::ChienRtl>();
  rig.sha = std::make_shared<rtl::Sha256Rtl>();
  rig.barrett = std::make_shared<rtl::BarrettRtl>();

  for (std::size_t s = 0; s < schemes_.size(); ++s) {
    SchemeState& st = *schemes_[s];
    auto registry =
        std::make_shared<lac::KernelRegistry>(registry_for(*st.params));

    // Health-switched callable for slot i: it consults the scheme × slot
    // health at call time, so a tripped slot reroutes every worker's
    // very next operation — no backend rebuild, no lock on the hot path
    // beyond the slot health's own. It is installed (not injected) into
    // the rig's registry profile: a callable that changes behaviour at
    // runtime by design cannot be gated behind a one-shot construction
    // KAT; the slot health + health probes own its validation instead.
    // One allow() answers for both trip causes.
    auto switched = [&rig, &st](std::size_t i, auto rtl, auto sw) {
      return [&rig, &health = st.health[i], i, rtl, sw](auto&&... args) {
        if (health.allow()) {
          rig.rtl_used[i] = true;
          return rtl(args...);
        }
        rig.fallback_used[i] = true;
        return sw(args...);
      };
    };
    // A slot whose scheme config pins it to software (or whose profile
    // has no RTL datapath for it — use_rtl also folds in the BarrettRtl
    // datapath's q = 251 constraint) keeps the registry's modeled
    // callable: no health switching, no usage flags (config choice, not
    // degradation).
    if (st.use_rtl[kMulIdx])
      registry->mul_ter().install(switched(
          kMulIdx, perf::rtl_mul_ter(rig.mul), lac::modeled_mul_ter()));
    if (st.use_rtl[kChienIdx])
      registry->chien().install(switched(
          kChienIdx, perf::rtl_chien(rig.chien), lac::modeled_chien()));
    if (st.use_rtl[kShaIdx])
      registry->sha256().install(
          switched(kShaIdx, perf::rtl_sha256(rig.sha),
                   [](ByteView data) { return hash::sha256(data); }));
    if (st.use_rtl[kModqIdx])
      registry->modq().install(switched(
          kModqIdx, perf::rtl_modq(rig.barrett), lac::modeled_modq()));

    lac::Backend b = lac::Backend::optimized_from(std::move(registry));
    b.name = "service";
    // The per-digest software cross-check stays on: it is the only
    // defense that catches a transient SHA fault mid-operation.
    b.verify_hash = true;
    rig.schemes[s].backend = std::move(b);

    if (config_.verify.enabled) {
      // The shadow re-execution backend: a fresh modeled registry of
      // the scheme's profile with no installed callables — no RTL
      // units, no fault hooks, no breaker or quarantine switching.
      // Worker-private like the rest of the rig.
      rig.schemes[s].golden = lac::Backend::optimized_from(
          std::make_shared<lac::KernelRegistry>(registry_for(*st.params)));
      rig.schemes[s].golden.name = "golden-shadow";
    }
  }

  // Per-slot KAT re-runs against this rig's own units, indexed like a
  // scheme's health (barrett keyed under the modq slot).
  rig.unit_selftest = {
      [&rig](std::string* d) { return fault::selftest_mul_ter(*rig.mul, d); },
      [&rig](std::string* d) { return fault::selftest_chien(*rig.chien, d); },
      [&rig](std::string* d) { return fault::selftest_sha256(*rig.sha, d); },
      [&rig](std::string* d) {
        return fault::selftest_barrett(*rig.barrett, d);
      },
  };
}

void KemService::resolve(Task& task, KemResponse response) {
  if (task.callback) {
    // The callback path (submit_with_callback) delivers off-promise; a
    // throwing callback must not kill the worker or submitter thread.
    try {
      task.callback(std::move(response));
    } catch (...) {
    }
    return;
  }
  task.promise.set_value(std::move(response));
}

KemService::Task KemService::make_kem_task(KemRequest request) {
  Task task;
  task.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  task.op = request.op;
  task.deadline_micros = request.deadline_micros;
  task.submitted_micros = clock_->now_micros();
  task.request = std::move(request);
  return task;
}

KemResponse KemService::execute_kem(const KemRequest& request, Rig& rig) {
  const std::size_t s = scheme_index(request.key_id);
  if (s == kBadScheme) {
    // Defense in depth behind the net tier's key-table routing: an
    // unknown key id is a terminal (non-retryable) typed verdict.
    KemResponse r;
    r.status = Status::kBadArgument;
    r.detail = "unknown key id " + std::to_string(request.key_id);
    return r;
  }
  SchemeState& st = *schemes_[s];
  Rig::SchemeRig& sr = rig.schemes[s];
  const lac::Params& params = *st.params;
  const lac::KeyContext* ctx = sr.key_ctx.get();
  KemResponse r;
  if (request.op == OpKind::kEncaps) {
    lac::EncapsOutcome out =
        ctx ? lac::encapsulate_checked(params, sr.backend, *ctx,
                                       request.entropy)
            : lac::encapsulate_checked(params, sr.backend, st.keys.pk,
                                       request.entropy);
    r.status = out.status;
    r.encaps = std::move(out.result);
    r.hash_fault_detected = out.hash_fault_detected;
    r.detail = std::move(out.detail);
  } else {
    lac::DecapsOutcome out =
        ctx ? lac::decapsulate_checked(params, sr.backend, *ctx,
                                       request.ct)
            : lac::decapsulate_checked(params, sr.backend, st.keys,
                                       request.ct);
    r.status = out.status;
    r.key = out.key;
    r.hash_fault_detected = out.hash_fault_detected;
    r.detail = std::move(out.detail);
  }
  return r;
}

std::future<KemResponse> KemService::submit(KemRequest request) {
  return enqueue_task(make_kem_task(std::move(request)));
}

std::vector<std::future<KemResponse>> KemService::submit_batch(
    std::vector<KemRequest> requests) {
  counters_.batch_submissions.fetch_add(1, std::memory_order_relaxed);
  std::vector<Task> tasks;
  tasks.reserve(requests.size());
  std::vector<std::future<KemResponse>> futures;
  futures.reserve(requests.size());
  for (KemRequest& request : requests) {
    tasks.push_back(make_kem_task(std::move(request)));
    futures.push_back(tasks.back().promise.get_future());
  }
  counters_.submitted.fetch_add(tasks.size(), std::memory_order_relaxed);

  if (draining()) {
    for (Task& task : tasks) {
      counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
      KemResponse r;
      r.status = Status::kUnavailable;
      r.detail = stopping_.load(std::memory_order_acquire)
                     ? "service stopped"
                     : "service draining";
      resolve(task, std::move(r));
    }
    return futures;
  }

  // One lock round-trip admits the whole burst; whatever exceeds the
  // queue's remaining capacity is rejected per request, exactly like a
  // lone submit() racing a full queue.
  const std::size_t accepted = queue_.push_many(tasks);
  for (std::size_t i = accepted; i < tasks.size(); ++i) {
    counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    obs::instant("service.overloaded", "service", {{"request", tasks[i].id}});
    KemResponse r;
    r.status = Status::kOverloaded;
    r.detail = "submission queue full";
    resolve(tasks[i], std::move(r));
  }
  return futures;
}

void KemService::submit_with_callback(KemRequest request, Completion done) {
  Task task = make_kem_task(std::move(request));
  task.callback = std::move(done);
  // The promise/future pair stays unused; every completion path resolves
  // through the callback instead.
  enqueue_task(std::move(task));
}

std::future<KemResponse> KemService::submit_job(Job job, u64 deadline_micros) {
  Task task;
  task.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  task.op = OpKind::kGeneric;
  task.job = std::move(job);
  task.deadline_micros = deadline_micros;
  task.submitted_micros = clock_->now_micros();
  return enqueue_task(std::move(task));
}

std::future<KemResponse> KemService::enqueue_task(Task task) {
  std::future<KemResponse> future = task.promise.get_future();

  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (draining()) {
    counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
    KemResponse r;
    r.status = Status::kUnavailable;
    r.detail = stopping_.load(std::memory_order_acquire)
                   ? "service stopped"
                   : "service draining";
    resolve(task, std::move(r));
    return future;
  }
  const u64 task_id = task.id;
  if (!queue_.try_push(std::move(task))) {
    KemResponse r;
    if (draining()) {
      // Lost the race with drain()/stop() closing the queue: report the
      // shutdown verdict, not a spurious full-queue one.
      counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
      r.status = Status::kUnavailable;
      r.detail = "service draining";
    } else {
      counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      obs::instant("service.overloaded", "service", {{"request", task_id}});
      r.status = Status::kOverloaded;
      r.detail = "submission queue full";
    }
    resolve(task, std::move(r));
  }
  return future;
}

void KemService::worker_main(std::size_t index) {
  Rig& rig = *rigs_[index];
  const std::size_t max_batch = std::max<std::size_t>(1, config_.max_batch);
  for (;;) {
    std::vector<Task> batch = queue_.pop_batch(max_batch);
    if (batch.empty()) return;  // closed and drained
    counters_.micro_batches.fetch_add(1, std::memory_order_relaxed);
    // The batch span deliberately has no request trace id (it covers
    // several); trace_check matches attempts into batches by tid + time
    // containment.
    obs::TraceSpan batch_span("service.batch", "service");
    batch_span.arg("size", static_cast<u64>(batch.size()));
    if (config_.use_batched_kernels && batch.size() > 1)
      process_batch(std::move(batch), rig);
    else
      for (Task& task : batch) process(std::move(task), rig);
  }
}

void KemService::process_batch(std::vector<Task> batch, Rig& rig) {
  // Partition the micro-batch into same-(op, key id) groups for the
  // data-parallel kernels — a mixed-scheme batch yields up to one group
  // per scheme per op. Generic jobs — and all KEM traffic when the
  // scheme's backend lacks the batched variants or the key context —
  // stay scalar. Completion order within a micro-batch may differ from
  // pop order; the requests are concurrent (each resolves its own
  // future/callback), so only queue admission is FIFO, as before.
  std::array<bool, kMaxSchemes> supported{};
  for (std::size_t s = 0; s < schemes_.size(); ++s)
    supported[s] = rig.schemes[s].key_ctx &&
                   lac::backend_supports_batch(*schemes_[s]->params,
                                               rig.schemes[s].backend);
  std::vector<Task> scalar;
  std::array<std::array<std::vector<Task>, 2>, kMaxSchemes> groups;
  for (Task& task : batch) {
    const std::size_t s =
        task.job ? kBadScheme : scheme_index(task.request.key_id);
    if (s == kBadScheme || !supported[s] ||
        (task.op != OpKind::kEncaps && task.op != OpKind::kDecaps)) {
      scalar.push_back(std::move(task));
      continue;
    }
    groups[s][task.op == OpKind::kEncaps ? 0 : 1].push_back(std::move(task));
  }
  for (std::size_t s = 0; s < schemes_.size(); ++s) {
    run_batched_group(groups[s][0], rig, scalar, s);
    run_batched_group(groups[s][1], rig, scalar, s);
  }
  for (Task& task : scalar) process(std::move(task), rig);
}

void KemService::run_batched_group(std::vector<Task>& group, Rig& rig,
                                   std::vector<Task>& scalar,
                                   std::size_t s) {
  if (group.size() < 2) {
    // A lone lane gains nothing from a kernel launch: scalar path.
    for (Task& task : group) scalar.push_back(std::move(task));
    group.clear();
    return;
  }
  const OpKind op = group.front().op;

  // Per-lane admission (shed checks + queue-wait event), exactly like
  // the scalar path; shed lanes never reach the kernels.
  std::vector<Task> lanes;
  lanes.reserve(group.size());
  for (Task& task : group) {
    obs::TraceContextScope scope(task.id);
    if (admit(task)) lanes.push_back(std::move(task));
  }
  group.clear();
  if (lanes.size() < 2) {
    for (Task& task : lanes) {
      counters_.batched_fallback_lanes.fetch_add(1, std::memory_order_relaxed);
      obs::TraceContextScope scope(task.id);
      process_admitted(std::move(task), rig);
    }
    return;
  }

  rig.rtl_used = {};
  rig.fallback_used = {};

  std::vector<u64> ids;
  ids.reserve(lanes.size());
  for (const Task& task : lanes) ids.push_back(task.id);

  obs::Tracer* tracer = obs::Tracer::active();
  const u64 t0 = tracer ? tracer->now_micros() : 0;

  // One data-parallel invocation per kernel slot for the whole group.
  // The entry points contain CheckError themselves (scalar per-lane
  // fallback inside); this net catches anything else so the whole group
  // can retain its scalar execution instead of killing the worker.
  std::vector<lac::EncapsOutcome> encs;
  std::vector<lac::DecapsOutcome> decs;
  bool batched_ok = true;
  SchemeState& st = *schemes_[s];
  Rig::SchemeRig& sr = rig.schemes[s];
  try {
    if (op == OpKind::kEncaps) {
      std::vector<hash::Seed> entropies;
      entropies.reserve(lanes.size());
      for (const Task& task : lanes)
        entropies.push_back(task.request.entropy);
      encs = lac::encapsulate_batch(*st.params, sr.backend, *sr.key_ctx,
                                    entropies, ids);
      batched_ok = encs.size() == lanes.size();
    } else {
      std::vector<lac::Ciphertext> cts;
      cts.reserve(lanes.size());
      for (const Task& task : lanes) cts.push_back(task.request.ct);
      decs = lac::decapsulate_batch(*st.params, sr.backend, *sr.key_ctx,
                                    cts, ids);
      batched_ok = decs.size() == lanes.size();
    }
  } catch (...) {
    batched_ok = false;
  }
  if (!batched_ok) {
    for (Task& task : lanes) {
      counters_.batched_fallback_lanes.fetch_add(1, std::memory_order_relaxed);
      obs::TraceContextScope scope(task.id);
      process_admitted(std::move(task), rig);
    }
    return;
  }

  const u64 dur = tracer ? tracer->now_micros() - t0 : 0;
  counters_.batched_micro_batches.fetch_add(1, std::memory_order_relaxed);

  // Rig usage flags are group-wide (the per-lane BCH decode of batched
  // decapsulation still drives the breaker-switched chien callable, and
  // any internal scalar fallback lane drives all four): they cannot be
  // attributed to single lanes, so every lane inherits them —
  // conservative for served_by_fallback and the verifier's probation
  // floor.
  const std::array<bool, kNumUnits> group_rtl = rig.rtl_used;
  const std::array<bool, kNumUnits> group_fallback = rig.fallback_used;
  bool group_served_by_fallback = false;
  for (std::size_t i = 0; i < kNumUnits; ++i)
    group_served_by_fallback |= group_fallback[i];

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Task& task = lanes[l];
    obs::TraceContextScope scope(task.id);
    // A retryable lane re-enters process_admitted below, which clears
    // the rig flags per attempt; restore the group's for this lane.
    rig.rtl_used = group_rtl;
    rig.fallback_used = group_fallback;

    KemResponse response;
    if (op == OpKind::kEncaps) {
      response.status = encs[l].status;
      response.encaps = std::move(encs[l].result);
      response.hash_fault_detected = encs[l].hash_fault_detected;
      response.detail = std::move(encs[l].detail);
    } else {
      response.status = decs[l].status;
      response.key = decs[l].key;
      response.hash_fault_detected = decs[l].hash_fault_detected;
      response.detail = std::move(decs[l].detail);
    }
    response.attempts = 1;
    response.served_by_fallback = group_served_by_fallback;

    // One "service.attempt" per lane, all covering the shared kernel
    // window — trace_check nests them into the enclosing service.batch
    // span by tid + time containment, same as scalar attempts.
    if (tracer)
      tracer->complete_event(
          "service.attempt", "service", t0, dur,
          {{"request", task.id}, {"attempt", u64{1}}},
          {{"status", std::string(status_name(response.status))},
           {"batched", "1"}});

    if (response.hash_fault_detected) {
      counters_.hash_faults_corrected.fetch_add(1, std::memory_order_relaxed);
      st.health[kShaIdx].record_failure("runtime hash cross-check mismatch");
    }
    if (retryable(response.status)) {
      // Fault-indicating batched outcome: attribute, then hand the lane
      // to the full scalar retry machinery (fresh attempt count — the
      // response it delivers is entirely scalar-computed).
      counters_.failed_attempts.fetch_add(1, std::memory_order_relaxed);
      attribute_failure(rig, s, response.status);
      counters_.batched_fallback_lanes.fetch_add(1, std::memory_order_relaxed);
      process_admitted(std::move(task), rig);
      continue;
    }
    counters_.batched_lanes.fetch_add(1, std::memory_order_relaxed);
    maybe_shadow_verify(task, rig, response);
    finish(task, std::move(response));
  }
  rig.rtl_used = group_rtl;
  record_successes(rig, s, false);
}

void KemService::process(Task task, Rig& rig) {
  // Every event this worker records while serving the request — service
  // spans, KEM phases, RTL busy windows, breaker transitions — carries
  // the request id as its trace id.
  obs::TraceContextScope trace_ctx(task.id);
  if (!admit(task)) return;
  process_admitted(std::move(task), rig);
}

bool KemService::admit(Task& task) {
  if (stopping_.load(std::memory_order_acquire)) {
    counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
    KemResponse r;
    r.status = Status::kUnavailable;
    r.detail = "service stopping";
    resolve(task, std::move(r));
    return false;
  }
  if (expired(task.deadline_micros)) {
    // Shed while queued: the deadline passed before any execution.
    counters_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    obs::instant("service.deadline_shed", "service",
                 {{"request", task.id}});
    KemResponse r;
    r.status = Status::kDeadlineExceeded;
    r.detail = "deadline expired while queued";
    resolve(task, std::move(r));
    return false;
  }
  if (obs::Tracer* tracer = obs::Tracer::active()) {
    // Queue wait, reconstructed backwards: the service clock knows the
    // wait duration, the tracer's own clock anchors the end at "now".
    const u64 wait = clock_->now_micros() - task.submitted_micros;
    const u64 now = tracer->now_micros();
    tracer->complete_event("service.queued", "service",
                           now > wait ? now - wait : 0, wait,
                           {{"request", task.id}},
                           {{"op", op_name(task.op)}});
  }
  return true;
}

void KemService::process_admitted(Task task, Rig& rig) {
  // Resilience-state attribution scheme: generic jobs run on the primary
  // scheme's backend; an unknown key id never flips rig usage flags
  // (execute_kem returns before touching a backend), so attributing it
  // to scheme 0 is a harmless no-op.
  const std::size_t si = task.job ? 0 : scheme_index(task.request.key_id);
  const std::size_t s = si == kBadScheme ? 0 : si;
  KemResponse response;
  int attempt = 0;
  bool deadline_hit = false;
  for (;;) {
    ++attempt;
    rig.rtl_used = {};
    rig.fallback_used = {};
    {
      obs::TraceSpan attempt_span("service.attempt", "service");
      attempt_span.arg("request", task.id);
      attempt_span.arg("attempt", static_cast<u64>(attempt));
      // The checked KEM entry points already contain CheckError; this
      // last-resort net turns anything else a faulted unit provokes into
      // a typed, retryable status — a worker thread must never die.
      try {
        response = task.job ? task.job(rig.schemes[0].backend)
                            : execute_kem(task.request, rig);
      } catch (const std::exception& e) {
        response = KemResponse{};
        response.status = Status::kInternalError;
        response.detail = std::string("uncaught exception: ") + e.what();
      } catch (...) {
        response = KemResponse{};
        response.status = Status::kInternalError;
        response.detail = "uncaught non-standard exception";
      }
      response.attempts = attempt;
      response.served_by_fallback = false;
      for (std::size_t i = 0; i < kNumUnits; ++i)
        response.served_by_fallback |= rig.fallback_used[i];
      attempt_span.arg("status", std::string(status_name(response.status)));
      if (response.served_by_fallback) attempt_span.arg("fallback", u64{1});
    }
    if (response.hash_fault_detected) {
      counters_.hash_faults_corrected.fetch_add(1, std::memory_order_relaxed);
      schemes_[s]->health[kShaIdx].record_failure(
          "runtime hash cross-check mismatch");
    }

    if (!retryable(response.status)) {
      record_successes(rig, s, response.hash_fault_detected);
      break;
    }

    counters_.failed_attempts.fetch_add(1, std::memory_order_relaxed);
    attribute_failure(rig, s, response.status);
    if (attempt >= config_.retry.max_attempts) break;

    const u64 delay = config_.retry.backoff_micros(attempt, task.id);
    if (task.deadline_micros != kNoDeadline &&
        clock_->now_micros() + delay >= task.deadline_micros) {
      // The next attempt could only start past the deadline: shed now
      // (deadline expired while executing).
      deadline_hit = true;
      break;
    }
    counters_.retries.fetch_add(1, std::memory_order_relaxed);
    obs::instant("service.retry_backoff", "service",
                 {{"request", task.id}, {"delay_micros", delay}});
    clock_->sleep_for(delay, &stopping_);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (expired(task.deadline_micros)) {
      deadline_hit = true;
      break;
    }
  }

  if (deadline_hit) {
    counters_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    obs::instant("service.deadline_shed", "service",
                 {{"request", task.id}, {"attempts", static_cast<u64>(attempt)}});
    KemResponse r;
    r.status = Status::kDeadlineExceeded;
    r.attempts = attempt;
    r.detail = "deadline expired during retry backoff after " +
               std::string(status_name(response.status));
    response = std::move(r);
  }
  maybe_shadow_verify(task, rig, response);
  finish(task, std::move(response));
}

void KemService::maybe_shadow_verify(const Task& task, Rig& rig,
                                     KemResponse& response) {
  if (!verifier_.enabled()) return;
  if (task.op != OpKind::kEncaps && task.op != OpKind::kDecaps) return;
  // Only statuses that delivered an answer are comparable: a shed or
  // refused request returned no bits an accelerator could have
  // corrupted.
  if (task.op == OpKind::kEncaps) {
    if (response.status != Status::kOk) return;
  } else if (response.status != Status::kOk &&
             response.status != Status::kRejected &&
             response.status != Status::kDecodeFailure) {
    return;
  }
  // Answer-bearing statuses above already exclude the unknown-key
  // verdict (kBadArgument); this guard is belt-and-braces.
  const std::size_t s = scheme_index(task.request.key_id);
  if (s == kBadScheme) return;
  SchemeState& st = *schemes_[s];
  Rig::SchemeRig& sr = rig.schemes[s];

  // Probation floor: a slot under suspicion forces its own sampling rate
  // onto every request that used it, over the configured baseline.
  u32 override_rate = 0;
  for (std::size_t i = 0; i < kNumUnits; ++i)
    if (rig.rtl_used[i])
      override_rate = std::max(
          override_rate, st.health[i].sample_override_per_mille());
  if (!verifier_.should_verify(task.id, override_rate)) return;

  obs::TraceSpan span("verify.shadow", "verify");
  span.arg("request", task.id);
  span.arg("op", std::string(op_name(task.op)));
  verifier_.record_checked();
  response.shadow_checked = true;

  const verify::ShadowResult shadow =
      task.op == OpKind::kEncaps
          ? verify::shadow_encaps(*st.params, sr.golden, st.keys.pk,
                                  task.request.entropy, response.status,
                                  response.encaps)
          : verify::shadow_decaps(*st.params, sr.golden, st.keys,
                                  task.request.ct, response.status,
                                  response.key);

  if (!shadow.diverged) {
    for (std::size_t i = 0; i < kNumUnits; ++i)
      if (rig.rtl_used[i]) st.health[i].record_clean_verify();
    return;
  }
  span.arg("diverged", u64{1});

  std::string slots;
  for (std::size_t i = 0; i < kNumUnits; ++i) {
    if (!rig.rtl_used[i]) continue;
    if (!slots.empty()) slots += ",";
    slots += unit_name(i);
  }

  // Attribution: let the KATs try first — a slot whose KAT fails *now*
  // is the proven culprit and also feeds its breaker. When every KAT is
  // green (the evasive-transient case: the fault fired once, the live
  // operation consumed it, nothing is left for a KAT to see), every
  // slot the rig served via RTL in the final attempt is quarantined
  // conservatively; probation rejoins the innocent ones within a probe
  // interval plus a clean-verification window.
  bool attributed = false;
  std::string kat_detail;
  for (std::size_t i = 0; i < kNumUnits; ++i) {
    if (!rig.rtl_used[i]) continue;
    if (rig.unit_selftest[i](&kat_detail)) continue;
    attributed = true;
    st.health[i].record_attributed_mismatch(
        kat_detail + " after verified divergence",
        "KAT-attributed divergence: " + shadow.detail);
  }
  if (!attributed) {
    for (std::size_t i = 0; i < kNumUnits; ++i)
      if (rig.rtl_used[i])
        st.health[i].record_mismatch("unattributed divergence (" +
                                     shadow.detail + ")");
  }

  verify::DivergenceRecord rec;
  rec.trace_id = task.id;
  rec.op = op_name(task.op);
  rec.slots = slots;
  rec.operand_digest =
      task.op == OpKind::kEncaps
          ? verify::encaps_operand_digest(task.request.entropy)
          : verify::decaps_operand_digest(*st.params, task.request.ct);
  rec.detail = shadow.detail;
  verifier_.record_divergence(std::move(rec));
  obs::instant("verify.mismatch", "verify", {{"request", task.id}},
               {{"op", std::string(op_name(task.op))},
                {"slots", slots},
                {"diverged", shadow.detail}});

  if (verifier_.config().serve_golden_on_mismatch) {
    // Zero wrong answers leave the process for a sampled request: the
    // golden re-execution *is* the response.
    verifier_.record_corrected();
    if (task.op == OpKind::kEncaps) {
      response.status = shadow.golden_encaps.status;
      response.encaps = shadow.golden_encaps.result;
      response.hash_fault_detected |=
          shadow.golden_encaps.hash_fault_detected;
    } else {
      response.status = shadow.golden_decaps.status;
      response.key = shadow.golden_decaps.key;
      response.hash_fault_detected |=
          shadow.golden_decaps.hash_fault_detected;
    }
    response.integrity_corrected = true;
    response.detail =
        "shadow divergence corrected from golden (" + shadow.detail + ")";
  } else {
    verifier_.record_integrity_response();
    response.status = Status::kIntegrity;
    response.encaps = {};
    response.key = {};
    response.detail = "shadow divergence: " + shadow.detail;
  }
}

void KemService::attribute_failure(Rig& rig, std::size_t s, Status status) {
  SchemeState& st = *schemes_[s];
  const std::string why = std::string("after ") + status_name(status);
  std::string detail;
  for (std::size_t i = 0; i < kNumUnits; ++i) {
    // Only slots served via RTL have hardware to blame, and an open
    // breaker has nothing left to learn from another failing KAT.
    if (!st.use_rtl[i] ||
        st.health[i].state().breaker == BreakerState::kOpen)
      continue;
    if (!rig.unit_selftest[i](&detail))
      st.health[i].record_failure(detail + " " + why);
  }
}

void KemService::record_successes(const Rig& rig, std::size_t s,
                                  bool hash_fault) {
  SchemeState& st = *schemes_[s];
  for (std::size_t i = 0; i < kNumUnits; ++i) {
    if (!rig.rtl_used[i]) continue;
    // A corrected digest is not a sha256 success even though the op
    // completed — the failure was already recorded.
    if (i == kShaIdx && hash_fault) continue;
    st.health[i].record_success();
  }
}

void KemService::finish(Task& task, KemResponse response) {
  counters_.completed.fetch_add(1, std::memory_order_relaxed);
  if (response.status == Status::kOk)
    counters_.ok.fetch_add(1, std::memory_order_relaxed);
  if (!task.job) {
    const std::size_t s = scheme_index(task.request.key_id);
    if (s != kBadScheme) {
      schemes_[s]->completed.fetch_add(1, std::memory_order_relaxed);
      if (response.status == Status::kOk)
        schemes_[s]->ok.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (response.served_by_fallback)
    counters_.served_degraded.fetch_add(1, std::memory_order_relaxed);
  const u64 latency = clock_->now_micros() - task.submitted_micros;
  if (task.op == OpKind::kEncaps) counters_.encaps_latency.record(latency);
  if (task.op == OpKind::kDecaps) counters_.decaps_latency.record(latency);
  resolve(task, std::move(response));
}

bool KemService::probe_now() {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  counters_.probes.fetch_add(1, std::memory_order_relaxed);
  bool all_passed = true;
  std::string detail;
  for (std::size_t i = 0; i < kNumUnits; ++i) {
    // One physical KAT per slot; its verdict feeds the slot's health in
    // every scheme that serves the slot via RTL — a software-pinned slot
    // has no hardware to trip or recover.
    const bool passed = prober_rig_->unit_selftest[i](&detail);
    for (auto& st : schemes_) {
      if (!st->use_rtl[i]) continue;
      if (passed)
        st->health[i].probe_passed();
      else
        st->health[i].probe_failed(detail);
    }
    if (!passed) all_passed = false;
  }
  return all_passed;
}

void KemService::prober_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    clock_->sleep_for(config_.probe_interval_micros, &stopping_);
    if (stopping_.load(std::memory_order_acquire)) break;
    probe_now();
  }
}

void KemService::arm_faults(fault::FaultPlan& plan) {
  for (auto& rig : rigs_) {
    plan.arm(*rig->mul);
    plan.arm(*rig->chien);
    plan.arm(*rig->sha);
    plan.arm(*rig->barrett);
  }
  plan.arm(*prober_rig_->mul);
  plan.arm(*prober_rig_->chien);
  plan.arm(*prober_rig_->sha);
  plan.arm(*prober_rig_->barrett);
}

void KemService::clear_faults() {
  for (auto& rig : rigs_) {
    fault::FaultPlan::disarm(*rig->mul);
    fault::FaultPlan::disarm(*rig->chien);
    fault::FaultPlan::disarm(*rig->sha);
    fault::FaultPlan::disarm(*rig->barrett);
  }
  fault::FaultPlan::disarm(*prober_rig_->mul);
  fault::FaultPlan::disarm(*prober_rig_->chien);
  fault::FaultPlan::disarm(*prober_rig_->sha);
  fault::FaultPlan::disarm(*prober_rig_->barrett);
}

void KemService::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  if (prober_.joinable()) prober_.join();
  // Anything the workers did not reach is shed with a typed status.
  while (auto task = queue_.try_pop()) {
    counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
    KemResponse r;
    r.status = Status::kUnavailable;
    r.detail = "service stopped before execution";
    resolve(*task, std::move(r));
  }
}

void KemService::drain() {
  if (stopped_.exchange(true)) return;
  // New submissions are rejected from here on; stopping_ stays false so
  // the workers *execute* (not shed) everything already queued,
  // including retry backoffs of in-flight requests.
  draining_.store(true, std::memory_order_release);
  queue_.close();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  stopping_.store(true, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
  // The workers drained the closed queue to empty before exiting; this
  // loop only matters if a future refactor breaks that invariant.
  while (auto task = queue_.try_pop()) {
    counters_.shed_at_shutdown.fetch_add(1, std::memory_order_relaxed);
    KemResponse r;
    r.status = Status::kUnavailable;
    r.detail = "service drained before execution";
    resolve(*task, std::move(r));
  }
}

void KemService::register_metrics(obs::MetricsRegistry& registry) {
  const struct {
    const char* name;
    const char* help;
    const std::atomic<u64>* value;
  } kCounters[] = {
      {"lacrv_service_requests_submitted_total", "Requests submitted",
       &counters_.submitted},
      {"lacrv_service_requests_completed_total",
       "Requests fulfilled after execution (any final status)",
       &counters_.completed},
      {"lacrv_service_requests_ok_total", "Requests completed with kOk",
       &counters_.ok},
      {"lacrv_service_rejected_overload_total",
       "Submissions rejected with a full queue", &counters_.rejected_overload},
      {"lacrv_service_rejected_deadline_total",
       "Requests shed past their deadline", &counters_.rejected_deadline},
      {"lacrv_service_shed_at_shutdown_total",
       "Requests shed by stop()", &counters_.shed_at_shutdown},
      {"lacrv_service_retries_total", "Backoff-delayed re-executions",
       &counters_.retries},
      {"lacrv_service_failed_attempts_total",
       "Attempts that returned a retryable status",
       &counters_.failed_attempts},
      {"lacrv_service_served_degraded_total",
       "Requests served by >= 1 software fallback",
       &counters_.served_degraded},
      {"lacrv_service_hash_faults_corrected_total",
       "Accelerator digests caught by the software cross-check",
       &counters_.hash_faults_corrected},
      {"lacrv_service_breaker_trips_total", "Breaker closed/half-open -> open",
       &counters_.breaker_trips},
      {"lacrv_service_breaker_recoveries_total",
       "Breaker half-open -> closed", &counters_.breaker_recoveries},
      {"lacrv_service_probes_total", "Health-probe passes",
       &counters_.probes},
      {"lacrv_service_batch_submissions_total", "submit_batch() calls",
       &counters_.batch_submissions},
      {"lacrv_service_micro_batches_total",
       "Worker-side micro-batches popped", &counters_.micro_batches},
      {"lacrv_service_batched_micro_batches_total",
       "Op-groups executed through the data-parallel batched kernels",
       &counters_.batched_micro_batches},
      {"lacrv_service_batched_lanes_total",
       "Requests whose final response came from the batched path",
       &counters_.batched_lanes},
      {"lacrv_service_batched_fallback_lanes_total",
       "Batched-eligible lanes ultimately served by the scalar path",
       &counters_.batched_fallback_lanes},
      {"lacrv_service_context_builds_total",
       "KeyContext cache misses (seed expansions run)",
       &ctx_cache_.builds()},
      {"lacrv_service_context_hits_total",
       "KeyContext cache hits (seed expansions amortized away)",
       &ctx_cache_.hits()},
      {"lacrv_service_context_corruptions_total",
       "Cached KeyContexts failing checkout checksum validation "
       "(dropped and rebuilt, never served)",
       &ctx_cache_.corruptions()},
      {"lacrv_verify_checked_total",
       "Requests shadow-verified against the golden models",
       &verifier_.checked()},
      {"lacrv_verify_mismatches_total",
       "Shadow verifications that diverged bit-for-bit from golden",
       &verifier_.mismatches()},
      {"lacrv_verify_corrected_total",
       "Diverged answers replaced by the golden re-execution",
       &verifier_.corrected()},
      {"lacrv_verify_integrity_responses_total",
       "Diverged answers withheld with kIntegrity",
       &verifier_.integrity_responses()},
      {"lacrv_verify_quarantine_trips_total",
       "Slot transitions into quarantined (verified mismatch)",
       &counters_.quarantine_trips},
      {"lacrv_verify_rejoins_total",
       "Slots rejoining healthy after a clean probation",
       &counters_.quarantine_rejoins},
  };
  for (const auto& c : kCounters)
    registry.add_counter(c.name, c.help, c.value);

  registry.add_gauge("lacrv_service_queue_depth",
                     "Requests waiting in the submission queue",
                     [this] { return static_cast<double>(queue_.depth()); });
  // Both views of the slot health — the breaker-state and slot-state
  // gauges — are per scheme × slot. The primary
  // scheme keeps the pre-profile label set (bare unit="...") so existing
  // scrapes and the trace_check assertions are unchanged; secondary
  // schemes add a scheme="..." label.
  for (std::size_t s = 0; s < schemes_.size(); ++s) {
    SchemeState* st = schemes_[s].get();
    const std::string scheme_label =
        s == 0 ? std::string()
               : std::string(",scheme=\"") + st->profile->name + "\"";
    for (std::size_t i = 0; i < kNumUnits; ++i) {
      registry.add_gauge(
          "lacrv_service_breaker_state",
          "Per-unit breaker state (0 closed, 1 open, 2 half-open)",
          [st, i] {
            return static_cast<double>(
                static_cast<int>(st->health[i].state().breaker));
          },
          std::string("unit=\"") + unit_name(i) + "\"" + scheme_label);
    }
    for (std::size_t i = 0; i < kNumUnits; ++i) {
      registry.add_gauge(
          "lacrv_verify_slot_state",
          "Per-slot quarantine state (0 healthy, 1 quarantined, "
          "2 probation-full, 3 probation-ramp)",
          [st, i] {
            return static_cast<double>(
                static_cast<int>(st->health[i].state().quarantine));
          },
          std::string("unit=\"") + unit_name(i) + "\"" + scheme_label);
    }
    registry.add_counter(
        "lacrv_service_scheme_requests_completed_total",
        "Requests fulfilled per served scheme (any final status)",
        &st->completed,
        std::string("scheme=\"") + st->profile->name + "\"");
    registry.add_counter(
        "lacrv_service_scheme_requests_ok_total",
        "Requests completed with kOk per served scheme", &st->ok,
        std::string("scheme=\"") + st->profile->name + "\"");
  }
  registry.add_histogram("lacrv_service_latency_micros",
                         "End-to-end request latency (submit -> completion)",
                         &counters_.encaps_latency, "op=\"encaps\"");
  registry.add_histogram("lacrv_service_latency_micros",
                         "End-to-end request latency (submit -> completion)",
                         &counters_.decaps_latency, "op=\"decaps\"");
}

DegradeReport KemService::degrade_report() const {
  std::lock_guard<std::mutex> lock(report_mutex_);
  return report_;
}

QuarantineState KemService::quarantine_state(lac::Slot slot,
                                             u32 key_id) const {
  const std::size_t s = scheme_index(key_id);
  if (s == kBadScheme) return QuarantineState::kHealthy;
  for (std::size_t i = 0; i < kNumUnits; ++i)
    if (lac::kAllSlots[i] == slot)
      return schemes_[s]->health[i].state().quarantine;
  return QuarantineState::kHealthy;
}

BreakerState KemService::breaker_state(fault::Unit unit, u32 key_id) const {
  const std::size_t s = scheme_index(key_id);
  if (s == kBadScheme) return BreakerState::kClosed;
  const SchemeState& st = *schemes_[s];
  switch (unit) {
    case fault::Unit::kMulTer: return st.health[kMulIdx].state().breaker;
    case fault::Unit::kChien: return st.health[kChienIdx].state().breaker;
    case fault::Unit::kSha256: return st.health[kShaIdx].state().breaker;
    case fault::Unit::kBarrett: return st.health[kModqIdx].state().breaker;
    default: return BreakerState::kClosed;
  }
}

const lac::KemKeyPair& KemService::keys() const {
  return schemes_.front()->keys;
}

std::size_t KemService::scheme_count() const { return schemes_.size(); }

const lac::Params* KemService::params_for_key_id(u32 key_id) const {
  const std::size_t s = scheme_index(key_id);
  return s == kBadScheme ? nullptr : schemes_[s]->params;
}

const lac::KemKeyPair* KemService::keys_for_key_id(u32 key_id) const {
  const std::size_t s = scheme_index(key_id);
  return s == kBadScheme ? nullptr : &schemes_[s]->keys;
}

const char* KemService::scheme_name_for_key_id(u32 key_id) const {
  const std::size_t s = scheme_index(key_id);
  return s == kBadScheme ? nullptr : schemes_[s]->profile->name;
}

}  // namespace lacrv::service
