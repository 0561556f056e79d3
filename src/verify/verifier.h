// Shadow verification — the silent-data-corruption (SDC) detector.
//
// Every defense below this layer is *predictive*: construction KATs and
// health-probe KATs check an accelerator against known answers, and the
// per-digest hash cross-check guards one primitive. None of them can see
// a transient fault that fires during a live operation and is consumed
// by it — the unit computes one wrong answer, every subsequent KAT is
// green, and the corrupted ciphertext or shared key goes out the door.
// The shadow verifier closes exactly that gap: a configurable fraction
// of live requests (plus every request that used a slot under probation)
// is re-executed on the golden scalar models and compared bit-for-bit
// against the served answer.
//
// The golden re-execution is deliberately independent of the entire
// acceleration stack: a fresh modeled registry (pure software, no fault
// hooks, no breaker switching) driven through the *keyed* KEM entry
// points — not the KeyContext-amortized ones — with a null ledger. That
// buys three properties at once: a corrupted KeyContext cannot corrupt
// its own verdict, the shadow path charges zero cycles to any ledger
// (the paper-faithful Tables I–III accounting is untouched), and a
// divergence is attributable to the serving stack alone.
//
// Sampling is deterministic on the request id (splitmix64 keyed by a
// salt), so a given request is either always or never verified for a
// fixed config — reproducible test runs, no RNG on the hot path.
//
// On a mismatch the verifier records a DivergenceRecord (trace id, op,
// slots in use, an operand digest for offline reproduction) and the
// service quarantines the slots involved; policy decides whether the
// caller receives the golden re-execution result (default — zero wrong
// answers leave the process once sampling catches the fault) or a typed
// Status::kIntegrity refusal.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "lac/context.h"
#include "service/health.h"

namespace lacrv::verify {

struct VerifyConfig {
  /// Master switch. Disabled, the service skips every shadow branch —
  /// bit- and cycle-identical to the pre-verification service.
  bool enabled = false;
  /// Baseline fraction of requests to shadow-verify, in permille
  /// (0 = only quarantine-probation overrides sample, 1000 = every
  /// request).
  u32 sample_per_mille = 0;
  /// On a verified mismatch, serve the golden re-execution result as the
  /// response (true: the caller sees a correct answer and the quarantine
  /// handles the unit) or withhold the answer with Status::kIntegrity
  /// (false: the caller is told the answer could not be trusted).
  bool serve_golden_on_mismatch = true;
  /// Bound on retained DivergenceRecords (oldest kept — the first
  /// divergences are the forensically interesting ones).
  std::size_t max_divergence_records = 64;
  /// Salt for the deterministic request-id sampler.
  u64 sample_salt = 0x5eed5a170c0ffee1ull;
  /// Quarantine walk lengths for the service's per-slot health machine
  /// (service/health.h is a leaf header: no link dependency).
  service::HealthPolicy quarantine;
};

/// Forensic record of one verified divergence.
struct DivergenceRecord {
  /// Request id == trace id: joins the record to the request's spans.
  u64 trace_id = 0;
  /// "encaps" or "decaps".
  const char* op = "?";
  /// Comma-joined registry slots the serving rig used via RTL during the
  /// final attempt — the quarantined suspects.
  std::string slots;
  /// SHA-256 over the operation's input operand (encaps: the entropy
  /// seed; decaps: the serialized ciphertext) — enough to re-run the
  /// divergent operation offline without retaining key material.
  hash::Digest operand_digest{};
  /// What diverged (status, ciphertext, shared key).
  std::string detail;
};

/// Outcome of one golden re-execution + comparison.
struct ShadowResult {
  bool diverged = false;
  /// Which fields diverged, human-readable.
  std::string detail;
  /// The golden outcome, for serve_golden_on_mismatch substitution.
  lac::EncapsOutcome golden_encaps;
  lac::DecapsOutcome golden_decaps;
};

/// Re-execute an encapsulation on `golden` (keyed path, null ledger) and
/// compare status + ciphertext + shared key bit-for-bit with what was
/// served. Only statuses that produced a served answer are comparable;
/// callers gate on that.
ShadowResult shadow_encaps(const lac::Params& params,
                           const lac::Backend& golden,
                           const lac::PublicKey& pk,
                           const hash::Seed& entropy, Status served_status,
                           const lac::EncapsResult& served);

/// Re-execute a decapsulation on `golden` and compare status + shared
/// key (the FO transform always yields a key — implicit rejection keys
/// must match bit-for-bit too, or the rejection path itself is
/// corrupt).
ShadowResult shadow_decaps(const lac::Params& params,
                           const lac::Backend& golden,
                           const lac::KemKeyPair& keys,
                           const lac::Ciphertext& ct, Status served_status,
                           const lac::SharedKey& served_key);

/// Operand digests for DivergenceRecords.
hash::Digest encaps_operand_digest(const hash::Seed& entropy);
hash::Digest decaps_operand_digest(const lac::Params& params,
                                   const lac::Ciphertext& ct);

/// Thread-safe sampling decision + counters + bounded divergence log.
/// One per service; the golden backends live in the per-worker rigs.
class ShadowVerifier {
 public:
  ShadowVerifier() = default;
  explicit ShadowVerifier(VerifyConfig config) : config_(config) {}

  const VerifyConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// Deterministic per-request decision. `override_per_mille` is the max
  /// probation floor of the slots the request used (0 when none).
  bool should_verify(u64 request_id, u32 override_per_mille = 0) const;

  void record_checked() {
    checked_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_corrected() {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    corrected_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_integrity_response() {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    integrity_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_divergence(DivergenceRecord record);

  std::vector<DivergenceRecord> divergences() const;

  /// Monotonic counters, exposed by reference so MetricsRegistry samples
  /// them without locking (the ContextCache idiom).
  const std::atomic<u64>& checked() const { return checked_; }
  const std::atomic<u64>& mismatches() const { return mismatches_; }
  const std::atomic<u64>& corrected() const { return corrected_; }
  const std::atomic<u64>& integrity_responses() const {
    return integrity_responses_;
  }

 private:
  VerifyConfig config_;
  std::atomic<u64> checked_{0};
  std::atomic<u64> mismatches_{0};
  std::atomic<u64> corrected_{0};
  std::atomic<u64> integrity_responses_{0};
  mutable std::mutex mutex_;
  std::vector<DivergenceRecord> records_;
};

}  // namespace lacrv::verify
