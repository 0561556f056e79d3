// KemService — a resilient, concurrent front door over the PQ-ALU
// backends.
//
// A fixed worker pool consumes a bounded MPMC queue of KEM requests;
// when the queue is full, submission is rejected with a typed
// Status::kOverloaded (backpressure, never unbounded growth). Each
// request may carry an absolute deadline in the service clock's domain;
// work whose deadline has passed is shed with kDeadlineExceeded before
// execution and between retry attempts. Operations that come back with
// a fault-indicating Status are retried under RetryPolicy (capped
// exponential backoff, deterministic jitter); each failed attempt is
// *attributed* by re-running the per-unit self-test KATs on the
// worker's own accelerator units, and attributed failures feed the
// per-slot health machine's circuit breaker (service/health.h), whose
// second cause is a shadow-verified mismatch. A tripped breaker
// atomically reroutes that unit's
// traffic — on every worker — to the modeled software fallback (the
// construction-time degradation ladder of docs/robustness.md, applied
// at runtime and reversible); a background health prober re-runs the
// KATs and walks the breaker back through half-open to closed when the
// unit recovers. Every transition lands in the service-level
// DegradeReport; every behaviour is countable via ServiceCounters.
//
// Threading model: each worker owns a private set of RTL units (one
// "physical PQ-ALU" per hardware thread), so units never race; the only
// cross-thread state is the slot health (mutex), the queue (mutex), the
// counters (atomics) and the fault-hook slots (atomic pointers — see
// rtl::FaultHookSlot), which is what lets a fault campaign arm and
// clear plans against a *live* service.
#pragma once

#include <array>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "fault/plan.h"
#include "lac/context.h"
#include "lac/kem.h"
#include "scheme/profile.h"
#include "service/counters.h"
#include "service/health.h"
#include "service/queue.h"
#include "service/retry.h"
#include "verify/verifier.h"

namespace lacrv::obs {
class MetricsRegistry;
}  // namespace lacrv::obs

namespace lacrv::service {

/// Absolute deadline value meaning "no deadline".
inline constexpr u64 kNoDeadline = ~u64{0};

enum class OpKind : u8 { kEncaps, kDecaps, kGeneric };

/// One KEM request against the service keypair: clients encapsulate to
/// the service's public key, the service decapsulates ciphertexts — the
/// two halves of a KEM handshake terminator.
struct KemRequest {
  OpKind op = OpKind::kEncaps;
  /// Encapsulation entropy (caller-provided for determinism).
  hash::Seed entropy{};
  /// Ciphertext to decapsulate (op == kDecaps).
  lac::Ciphertext ct;
  /// Absolute deadline in the service clock's now_micros() domain.
  u64 deadline_micros = kNoDeadline;
  /// Which served scheme's keypair the request addresses (the wire
  /// header's key-id field, routed through the service key table):
  /// 0 is the primary scheme, 1 the second one when configured. An id
  /// the service does not hold completes with Status::kBadArgument.
  u32 key_id = 0;
};

struct KemResponse {
  /// Final typed verdict. kOk/kRejected/kDecodeFailure come from the
  /// checked KEM path; kOverloaded/kDeadlineExceeded/kUnavailable are
  /// service verdicts (the request was shed, not executed to
  /// completion).
  Status status = Status::kOk;
  /// Ciphertext + shared key (op == kEncaps, status == kOk).
  lac::EncapsResult encaps;
  /// Decapsulated key (op == kDecaps): the real shared secret on kOk,
  /// the implicit-rejection key on kRejected/kDecodeFailure — the FO
  /// contract survives the service layer.
  lac::SharedKey key{};
  /// Execution attempts consumed (0 if shed before the first).
  int attempts = 0;
  /// True iff any accelerator unit's traffic was served by the modeled
  /// software fallback during the final attempt.
  bool served_by_fallback = false;
  /// True iff the runtime hash cross-check caught (and corrected) a
  /// faulty accelerator digest.
  bool hash_fault_detected = false;
  /// True iff this response was re-executed on the golden models and
  /// compared bit-for-bit by the shadow verifier (clean or not).
  bool shadow_checked = false;
  /// True iff the shadow comparison diverged and the response carries
  /// the golden re-execution instead of the served answer
  /// (VerifyConfig::serve_golden_on_mismatch). With the policy off, the
  /// divergence surfaces as status == kIntegrity instead.
  bool integrity_corrected = false;
  std::string detail;
};

struct ServiceConfig {
  /// Parameter set (null: LAC-128).
  const lac::Params* params = nullptr;
  std::size_t workers = 4;
  std::size_t queue_capacity = 128;
  RetryPolicy retry;
  /// Spawn the background health prober (tests that drive probes
  /// manually via probe_now() turn this off for determinism).
  bool enable_prober = true;
  u64 probe_interval_micros = 20'000;
  /// Injected time authority (null: the process-wide RealClock).
  Clock* clock = nullptr;
  /// Seed for the service keypair (generated on the golden software
  /// backend — provisioning runs on verified hardware).
  hash::Seed key_seed{};
  /// Serve a second scheme's parameter set under wire key id 1 (null:
  /// single-scheme service, the pre-SchemeProfile behaviour). Point at
  /// scheme::lwr::lwr512() to serve the LWR KEM concurrently with LAC:
  /// one worker pool, one queue, per-scheme rigs and slot health.
  const lac::Params* second_params = nullptr;
  /// Seed for the second scheme's keypair.
  hash::Seed second_key_seed{};
  /// Serve KEM requests from per-key precomputed contexts (lac/context.h):
  /// the service key's expansion of a and H(pk) are built once per worker
  /// start instead of re-derived on every request. False restores the
  /// paper-faithful per-request path (the bench's baseline column).
  bool use_key_context = true;
  /// Worker-side micro-batch limit: one queue lock round-trip drains up
  /// to this many already-queued requests. 1 disables batching.
  std::size_t max_batch = 8;
  /// Serve multi-request micro-batches through the data-parallel SoA
  /// kernel variants (lac/kem_batch.h): one kernel invocation per slot
  /// per op-group instead of one per request. Requires the backend's
  /// batched variants and the key context; singleton batches, generic
  /// jobs and retryable batched outcomes always take the scalar path.
  /// False pins every request to the scalar path regardless of batch
  /// size (bit-identical results either way — tests pin it).
  bool use_batched_kernels = true;
  /// Capacity of the KeyContext LRU (the service key plus client keys).
  std::size_t context_cache_capacity = 8;
  /// Per-slot implementation mix, indexed like lac::kAllSlots
  /// (mul_ter, chien, sha256, modq): true serves the slot from the
  /// worker's RTL unit behind its slot health, false pins it to the
  /// modeled software implementation outright (no health switching, and
  /// the slot health is never fed — the slot keeps the registry's
  /// modeled callable). Parse "mul_ter=rtl,..."
  /// specs with lac::parse_slot_mix; note a spec defaults unlisted slots
  /// to software, while this default is all-RTL.
  std::array<bool, lac::kNumSlots> slot_use_rtl = {true, true, true, true};
  /// Shadow verification + slot quarantine (src/verify/). Disabled by
  /// default: the service is bit- and cycle-identical to the
  /// pre-verification stack until switched on.
  verify::VerifyConfig verify;
};

class KemService {
 public:
  explicit KemService(ServiceConfig config = {});
  ~KemService();

  KemService(const KemService&) = delete;
  KemService& operator=(const KemService&) = delete;

  /// Enqueue a request. The returned future always completes with a
  /// typed status: immediately with kOverloaded when the queue is full
  /// (backpressure) or kUnavailable after stop(); otherwise when a
  /// worker finishes or sheds the request.
  std::future<KemResponse> submit(KemRequest request);

  /// Enqueue a request whose completion is delivered by invoking `done`
  /// instead of resolving a future — the event-driven submission path
  /// the async TCP front end (src/net/) rides on: an epoll loop cannot
  /// block on futures, a callback can enqueue the reply and wake it.
  /// The callback fires exactly once, with the same typed-status
  /// guarantees as submit(): immediately (on the caller's thread) for
  /// kOverloaded / kUnavailable rejections, on a worker thread
  /// otherwise. It must be thread-safe against the caller and must not
  /// throw (exceptions are swallowed so a worker thread never dies).
  using Completion = std::function<void(KemResponse)>;
  void submit_with_callback(KemRequest request, Completion done);

  /// Enqueue a whole burst under one queue lock acquisition. Futures are
  /// returned in request order; requests that do not fit the queue's
  /// remaining capacity complete immediately with kOverloaded (the same
  /// backpressure contract as submit(), decided per request).
  std::vector<std::future<KemResponse>> submit_batch(
      std::vector<KemRequest> requests);

  /// Low-level submission of an arbitrary job, executed on a worker
  /// thread with the worker's breaker-switched backend and the same
  /// deadline/retry machinery. Exists for the service tests (gate jobs,
  /// synthetic failures); production traffic uses submit().
  using Job = std::function<KemResponse(lac::Backend& backend)>;
  std::future<KemResponse> submit_job(Job job,
                                      u64 deadline_micros = kNoDeadline);

  /// Arm `plan` on every worker's and the prober's accelerator units —
  /// safe while requests are in flight (atomic hook installation). The
  /// plan must outlive the service or a clear_faults() call.
  void arm_faults(fault::FaultPlan& plan);
  /// Detach all fault hooks (ends the campaign; units heal unless the
  /// fault corrupted persistent unit state).
  void clear_faults();

  /// One synchronous health-probe pass: re-run the per-unit self-test
  /// KATs on the prober's units and feed the slot health. Returns true iff
  /// every KAT passed. The background prober calls exactly this.
  bool probe_now();

  /// Stop accepting work, cancel in-flight backoffs, join all threads
  /// and shed everything still queued with kUnavailable. Idempotent;
  /// the destructor calls it.
  void stop();

  /// Graceful shutdown: stop accepting new submissions (they are
  /// rejected with kUnavailable, detail "service draining"), let the
  /// workers *execute* everything already queued — in-flight retries
  /// and backoffs included — then join. The dual of stop(), which sheds
  /// queued work unexecuted. Idempotent, and stop() after drain() is a
  /// no-op; concurrent submitters never lose a completion either way.
  void drain();

  /// True once drain() or stop() has begun: new submissions are being
  /// rejected with kUnavailable.
  bool draining() const {
    return draining_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  }

  const lac::Params& params() const { return *params_; }
  /// The service keypair (pk is what clients encapsulate against).
  /// Key id 0's keys — see keys_for_key_id() for the full key table.
  const lac::KemKeyPair& keys() const;
  Clock& clock() { return *clock_; }

  // ---- scheme key table -----------------------------------------------
  // The net tier routes the request header's key-id field through these:
  // a null return is an unknown key id (typed kBadKeyId wire reply).

  /// Number of schemes served (1, or 2 with config.second_params).
  std::size_t scheme_count() const;
  /// Parameter set served under `key_id`, or null for an unknown id.
  const lac::Params* params_for_key_id(u32 key_id) const;
  /// Keypair served under `key_id`, or null for an unknown id.
  const lac::KemKeyPair* keys_for_key_id(u32 key_id) const;
  /// Metrics/diagnostics label of the scheme under `key_id` ("lac",
  /// "lwr"), or null for an unknown id.
  const char* scheme_name_for_key_id(u32 key_id) const;

  CountersSnapshot counters() const {
    CountersSnapshot s = counters_.snapshot(queue_.depth());
    s.context_builds =
        ctx_cache_.builds().load(std::memory_order_relaxed);
    s.context_hits = ctx_cache_.hits().load(std::memory_order_relaxed);
    return s;
  }
  /// The per-key context LRU (service key + client keys).
  const lac::ContextCache& context_cache() const { return ctx_cache_; }
  /// Register every service counter, the queue-depth and per-unit
  /// breaker-state gauges, and the per-op latency histograms with
  /// `registry` (non-owning: the service must outlive the registry's
  /// expose() calls).
  void register_metrics(obs::MetricsRegistry& registry);
  const ServiceCounters& raw_counters() const { return counters_; }
  /// Copy of the service-level transition log (breaker and quarantine
  /// transitions).
  DegradeReport degrade_report() const;
  /// Breaker state for one of the four accelerator units (kMulTer,
  /// kChien, kSha256, kBarrett — the campaign name of the modq slot);
  /// other units report kClosed (no breaker). Breakers are keyed
  /// scheme × slot: `key_id` selects the scheme (default: primary).
  BreakerState breaker_state(fault::Unit unit, u32 key_id = 0) const;

  /// The shadow verifier: sampling counters and the bounded divergence
  /// log (see src/verify/verifier.h).
  const verify::ShadowVerifier& verifier() const { return verifier_; }
  /// Quarantine state of one registry slot, keyed scheme × slot like
  /// the breakers.
  QuarantineState quarantine_state(lac::Slot slot, u32 key_id = 0) const;
  /// Copy of the retained divergence records.
  std::vector<verify::DivergenceRecord> divergences() const {
    return verifier_.divergences();
  }

 private:
  // Slot indices mirror the registry slot order (lac::kAllSlots), so
  // a scheme's health[i] belongs to slot lac::kAllSlots[i] and metric
  // labels come from lac::slot_name.
  static constexpr std::size_t kMulIdx = 0;
  static constexpr std::size_t kChienIdx = 1;
  static constexpr std::size_t kShaIdx = 2;
  static constexpr std::size_t kModqIdx = 3;
  static constexpr std::size_t kNumUnits = lac::kNumSlots;
  static constexpr std::size_t kMaxSchemes = 2;
  static constexpr std::size_t kBadScheme = ~std::size_t{0};

  /// Everything the service holds per served scheme, indexed by wire
  /// key id: the parameter set, the keypair, and the resilience state.
  /// Slot health is keyed scheme × slot — the physical
  /// units are shared per worker, but which slot a scheme trusts (and
  /// how its traffic degrades) is scheme-local state.
  struct SchemeState {
    const scheme::SchemeProfile* profile = nullptr;
    const lac::Params* params = nullptr;
    lac::KemKeyPair keys;
    /// config.slot_use_rtl ∧ profile->rtl_capable (∧ the modq datapath's
    /// q = 251 constraint): may slot i's RTL path ever serve this
    /// scheme? False keeps the registry's modeled callable outright.
    std::array<bool, kNumUnits> use_rtl{};
    std::array<SlotHealth, kNumUnits> health;
    /// Scheme-qualified unit labels for reports and transitions (the
    /// primary scheme keeps the bare slot names for compatibility).
    std::array<std::string, kNumUnits> unit_labels;
    /// Per-scheme request counters (metrics label scheme="<name>").
    std::atomic<u64> completed{0};
    std::atomic<u64> ok{0};
  };

  /// One worker's private PQ-ALU: RTL unit instances plus the per-scheme
  /// breaker-switched backends that drive them. The physical units are
  /// one set per worker (one PQ-ALU per hardware thread); each served
  /// scheme gets its own registry/backend over them, wired per its
  /// profile. Usage flags are written only by the owning worker thread,
  /// inside one attempt.
  struct Rig {
    std::shared_ptr<rtl::MulTerRtl> mul;
    std::shared_ptr<rtl::ChienRtl> chien;
    std::shared_ptr<rtl::Sha256Rtl> sha;
    std::shared_ptr<rtl::BarrettRtl> barrett;
    std::array<bool, kNumUnits> rtl_used{};
    std::array<bool, kNumUnits> fallback_used{};
    /// Per-slot KAT re-run against this rig's own units, indexed like a
    /// scheme's health (the one loop body attribute_failure /
    /// probe_now iterate instead of per-unit copies).
    std::array<std::function<bool(std::string*)>, kNumUnits> unit_selftest;
    struct SchemeRig {
      lac::Backend backend;
      /// Golden scalar backend for shadow re-execution (built only when
      /// verification is enabled): pure modeled registry of the
      /// scheme's profile, no fault hooks, no breaker switching, owned
      /// by this rig's worker thread alone.
      lac::Backend golden;
      /// The scheme key's precomputed context (null when
      /// config.use_key_context is off): shared, immutable, read-only
      /// on the hot path.
      std::shared_ptr<const lac::KeyContext> key_ctx;
    };
    std::array<SchemeRig, kMaxSchemes> schemes;
  };

  struct Task {
    u64 id = 0;
    OpKind op = OpKind::kGeneric;
    /// Generic payload (submit_job). KEM traffic leaves this empty and
    /// runs through execute_kem() so workers can use their cached
    /// KeyContext — the Job signature predates the context layer.
    Job job;
    KemRequest request;
    u64 deadline_micros = kNoDeadline;
    u64 submitted_micros = 0;
    std::promise<KemResponse> promise;
    /// Set on submit_with_callback() tasks: the completion is delivered
    /// here and the promise is left untouched.
    Completion callback;
  };

  Task make_kem_task(KemRequest request);
  /// Deliver the final response: invoke the callback (exceptions
  /// contained) or resolve the promise. Every completion site funnels
  /// through here so the two delivery modes cannot drift.
  static void resolve(Task& task, KemResponse response);
  /// Stamp id/clock, handle the stopping_ fast path, try_push, resolve
  /// the overload rejection — the single-submission tail shared by
  /// submit() and submit_job().
  std::future<KemResponse> enqueue_task(Task task);
  /// Scheme-state index of a request key id (== the key id when held),
  /// or kBadScheme for an id the service does not serve.
  std::size_t scheme_index(u32 key_id) const {
    return key_id < schemes_.size() ? key_id : kBadScheme;
  }
  /// Run one KEM request on the addressed scheme's breaker-switched
  /// backend, through its KeyContext when enabled.
  KemResponse execute_kem(const KemRequest& request, Rig& rig);
  void build_rig(Rig& rig);
  void worker_main(std::size_t index);
  void prober_main();
  void process(Task task, Rig& rig);
  /// Shed checks (stopping, queued-deadline) plus the queue-wait trace
  /// event — the per-task preamble shared by the scalar and batched
  /// paths. Must run under the task's TraceContextScope. Returns false
  /// iff the task was resolved (shed) and must not execute.
  bool admit(Task& task);
  /// The scalar attempt/retry/verify/finish tail of process(), entered
  /// after admit(). Also the fallback landing for batched lanes whose
  /// data-parallel outcome was retryable.
  void process_admitted(Task task, Rig& rig);
  /// Serve one popped micro-batch: partition into encaps/decaps groups
  /// for the data-parallel kernels, everything else scalar.
  void process_batch(std::vector<Task> batch, Rig& rig);
  /// Run one same-op same-scheme group through lac::encapsulate_batch /
  /// decapsulate_batch; lanes that cannot run batched (too few
  /// survivors, wholesale failure) are moved to `scalar` or re-enter the
  /// scalar machinery directly.
  void run_batched_group(std::vector<Task>& group, Rig& rig,
                         std::vector<Task>& scalar, std::size_t s);
  /// Run per-unit KATs on the rig after a fault-indicating status and
  /// feed attributed failures to scheme s's slot health.
  void attribute_failure(Rig& rig, std::size_t s, Status status);
  void record_successes(const Rig& rig, std::size_t s, bool hash_fault);
  /// Post-execution shadow verification: sample, re-execute on the
  /// rig's golden backend, compare, quarantine + correct/refuse on
  /// divergence. Mutates `response` per VerifyConfig policy.
  void maybe_shadow_verify(const Task& task, Rig& rig,
                           KemResponse& response);
  bool expired(u64 deadline_micros) {
    return deadline_micros != kNoDeadline &&
           clock_->now_micros() >= deadline_micros;
  }
  void finish(Task& task, KemResponse response);

  ServiceConfig config_;
  const lac::Params* params_;
  Clock* clock_;

  /// The served-scheme table, indexed by wire key id (slot 0: the
  /// primary scheme; slot 1: config.second_params when set).
  /// SchemeState holds atomics and mutexes, so entries are
  /// heap-anchored and never move after construction.
  std::vector<std::unique_ptr<SchemeState>> schemes_;
  verify::ShadowVerifier verifier_;
  mutable std::mutex report_mutex_;
  DegradeReport report_;

  ServiceCounters counters_;
  lac::ContextCache ctx_cache_;
  BoundedQueue<Task> queue_;
  std::atomic<u64> next_id_{1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::vector<std::unique_ptr<Rig>> rigs_;  // one per worker
  std::unique_ptr<Rig> prober_rig_;
  std::mutex probe_mutex_;  // probe_now() may race the prober thread
  std::vector<std::thread> workers_;
  std::thread prober_;
};

}  // namespace lacrv::service
