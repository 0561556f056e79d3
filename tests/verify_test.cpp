// The silent-data-corruption defense (src/verify/): the quarantine
// state machine, the deterministic shadow sampler, the golden
// re-execution comparators, and their KemService integration.
//
// The service-level tests pin the end-to-end contract of
// docs/robustness.md: an *evasive* transient fault — one that fires
// during a live operation and leaves every subsequent KAT green — is
// caught by shadow verification, the implicated slots are quarantined,
// and (under the default policy) the caller still receives the golden
// answer: zero wrong answers leave the process once sampling catches
// the fault. With verification disabled or sampled at zero, responses
// are bit-identical to the pre-verification service.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/status.h"
#include "fault/plan.h"
#include "lac/backend.h"
#include "lac/kem.h"
#include "service/health.h"
#include "service/service.h"
#include "verify/verifier.h"

namespace lacrv::service {
namespace {

hash::Seed seed_from(u8 tag) {
  hash::Seed s{};
  s[0] = tag;
  s[31] = static_cast<u8>(tag ^ 0x3c);
  return s;
}

HealthPolicy small_policy() {
  HealthPolicy p;
  p.rejoin_probes = 2;
  p.probation_full_clean = 2;
  p.probation_ramp_clean = 2;
  p.ramp_sample_per_mille = 500;
  return p;
}

struct Transition {
  QuarantineState from;
  QuarantineState to;
};

TEST(Quarantine, MismatchTripsFromHealthyAndBlocksHardware) {
  SlotHealth q;
  std::vector<Transition> log;
  q.configure("mul_ter", small_policy(),
              [&](const char*, HealthState from, HealthState to,
                  const std::string&) {
                log.push_back({from.quarantine, to.quarantine});
              });

  EXPECT_TRUE(q.allow());
  EXPECT_EQ(q.state().quarantine, QuarantineState::kHealthy);
  EXPECT_EQ(q.sample_override_per_mille(), 0u);

  q.record_mismatch("served != golden");
  EXPECT_FALSE(q.allow());
  EXPECT_EQ(q.state().quarantine, QuarantineState::kQuarantined);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].from, QuarantineState::kHealthy);
  EXPECT_EQ(log[0].to, QuarantineState::kQuarantined);

  // Already quarantined: further mismatches are absorbed, not re-logged.
  q.record_mismatch("again");
  EXPECT_EQ(log.size(), 1u);
}

TEST(Quarantine, ProbeWalkThenCleanTrafficRejoins) {
  SlotHealth q;
  std::vector<Transition> log;
  q.configure("chien", small_policy(),
              [&](const char*, HealthState from, HealthState to,
                  const std::string&) {
                log.push_back({from.quarantine, to.quarantine});
              });
  q.record_mismatch("diverged");

  // A failing probe resets the consecutive-pass walk.
  q.probe_passed();
  q.probe_failed("kat failed");
  q.probe_passed();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kQuarantined);
  q.probe_passed();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kProbationFull);
  EXPECT_TRUE(q.allow());  // hardware serves again, under full sampling
  EXPECT_EQ(q.sample_override_per_mille(), 1000u);

  // Clean verified traffic steps probation-full -> probation-ramp.
  q.record_clean_verify();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kProbationFull);
  q.record_clean_verify();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kProbationRamp);
  EXPECT_EQ(q.sample_override_per_mille(), 500u);

  // And probation-ramp -> healthy.
  q.record_clean_verify();
  q.record_clean_verify();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kHealthy);
  EXPECT_EQ(q.sample_override_per_mille(), 0u);

  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.back().to, QuarantineState::kHealthy);
}

TEST(Quarantine, MismatchDuringProbationRestartsTheWalk) {
  SlotHealth q;
  q.configure("sha256", small_policy(), nullptr);
  q.record_mismatch("diverged");
  q.probe_passed();
  q.probe_passed();
  ASSERT_EQ(q.state().quarantine, QuarantineState::kProbationFull);

  q.record_mismatch("diverged again under probation");
  EXPECT_EQ(q.state().quarantine, QuarantineState::kQuarantined);
  EXPECT_FALSE(q.allow());

  // The probe walk starts over — one pass is no longer enough.
  q.probe_passed();
  EXPECT_EQ(q.state().quarantine, QuarantineState::kQuarantined);
}

TEST(Quarantine, CleanVerifyAndProbesAreNoOpsOutsideTheirStates) {
  SlotHealth q;
  q.configure("modq", small_policy(), nullptr);
  q.record_clean_verify();
  q.probe_passed();
  q.probe_failed("noise");
  EXPECT_EQ(q.state().quarantine, QuarantineState::kHealthy);
  EXPECT_TRUE(q.allow());
}

TEST(ShadowVerifier, SamplingIsDeterministicAndBounded) {
  verify::VerifyConfig cfg;
  cfg.enabled = true;
  cfg.sample_per_mille = 0;
  verify::ShadowVerifier off(cfg);
  for (u64 id = 0; id < 64; ++id) EXPECT_FALSE(off.should_verify(id));
  // The probation override forces sampling even at a zero baseline.
  EXPECT_TRUE(off.should_verify(7, 1000));

  cfg.sample_per_mille = 1000;
  verify::ShadowVerifier full(cfg);
  for (u64 id = 0; id < 64; ++id) EXPECT_TRUE(full.should_verify(id));

  cfg.sample_per_mille = 500;
  verify::ShadowVerifier half(cfg);
  std::size_t hits = 0;
  for (u64 id = 0; id < 10'000; ++id) {
    const bool first = half.should_verify(id);
    EXPECT_EQ(first, half.should_verify(id));  // decision is a pure function
    if (first) ++hits;
  }
  EXPECT_GT(hits, 4'000u);
  EXPECT_LT(hits, 6'000u);

  cfg.enabled = false;
  verify::ShadowVerifier disabled(cfg);
  EXPECT_FALSE(disabled.should_verify(1, 1000));  // master switch wins
}

TEST(ShadowVerifier, DivergenceLogKeepsTheOldestRecords) {
  verify::VerifyConfig cfg;
  cfg.max_divergence_records = 2;
  verify::ShadowVerifier v(cfg);
  for (u64 i = 0; i < 5; ++i) {
    verify::DivergenceRecord r;
    r.trace_id = i;
    v.record_divergence(std::move(r));
  }
  const auto records = v.divergences();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 0u);
  EXPECT_EQ(records[1].trace_id, 1u);
}

TEST(ShadowCompare, CleanAndTamperedServedAnswers) {
  const lac::Params& params = lac::Params::lac128();
  const lac::Backend golden = lac::Backend::optimized();
  const lac::KemKeyPair keys = lac::kem_keygen(params, golden, seed_from(1));
  const hash::Seed entropy = seed_from(2);
  const lac::EncapsResult enc =
      lac::encapsulate(params, golden, keys.pk, entropy);

  // Served == golden: clean.
  EXPECT_FALSE(verify::shadow_encaps(params, golden, keys.pk, entropy,
                                     Status::kOk, enc)
                   .diverged);

  // One flipped shared-key bit: diverged, named.
  lac::EncapsResult bad_key = enc;
  bad_key.key[0] ^= 0x01;
  const verify::ShadowResult key_diff = verify::shadow_encaps(
      params, golden, keys.pk, entropy, Status::kOk, bad_key);
  EXPECT_TRUE(key_diff.diverged);
  EXPECT_NE(key_diff.detail.find("shared-key"), std::string::npos);

  // One flipped ciphertext byte: diverged, named.
  lac::EncapsResult bad_ct = enc;
  bad_ct.ct.v[0] = static_cast<u8>(bad_ct.ct.v[0] ^ 0x01);
  const verify::ShadowResult ct_diff = verify::shadow_encaps(
      params, golden, keys.pk, entropy, Status::kOk, bad_ct);
  EXPECT_TRUE(ct_diff.diverged);
  EXPECT_NE(ct_diff.detail.find("ciphertext"), std::string::npos);

  // Decaps: the served key must match bit-for-bit, and a served status
  // that disagrees with the golden verdict is itself a divergence.
  const lac::SharedKey dec = lac::decapsulate(params, golden, keys, enc.ct);
  EXPECT_FALSE(verify::shadow_decaps(params, golden, keys, enc.ct,
                                     Status::kOk, dec)
                   .diverged);
  const verify::ShadowResult status_diff = verify::shadow_decaps(
      params, golden, keys, enc.ct, Status::kDecodeFailure, dec);
  EXPECT_TRUE(status_diff.diverged);
  EXPECT_NE(status_diff.detail.find("status"), std::string::npos);
}

ServiceConfig verified_config(ManualClock& clock) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.clock = &clock;
  cfg.enable_prober = false;
  cfg.retry.jitter_percent = 0;
  cfg.verify.enabled = true;
  cfg.verify.sample_per_mille = 1000;
  cfg.verify.quarantine = small_policy();
  return cfg;
}

TEST(VerifyService, CleanTrafficIsCheckedWithoutMismatches) {
  ManualClock clock;
  KemService svc(verified_config(clock));

  for (u8 i = 0; i < 4; ++i) {
    KemResponse enc =
        svc.submit({OpKind::kEncaps, seed_from(i), {}, kNoDeadline}).get();
    ASSERT_EQ(enc.status, Status::kOk);
    EXPECT_TRUE(enc.shadow_checked);
    EXPECT_FALSE(enc.integrity_corrected);

    KemRequest dec_req;
    dec_req.op = OpKind::kDecaps;
    dec_req.ct = enc.encaps.ct;
    KemResponse dec = svc.submit(std::move(dec_req)).get();
    ASSERT_EQ(dec.status, Status::kOk);
    EXPECT_TRUE(dec.shadow_checked);
    EXPECT_EQ(dec.key, enc.encaps.key);
  }

  EXPECT_EQ(svc.verifier().checked().load(), 8u);
  EXPECT_EQ(svc.verifier().mismatches().load(), 0u);
  for (lac::Slot slot : lac::kAllSlots)
    EXPECT_EQ(svc.quarantine_state(slot), QuarantineState::kHealthy);
  EXPECT_TRUE(svc.divergences().empty());
}

TEST(VerifyService, SampleZeroChecksNothingAndMatchesDisabledBitForBit) {
  ManualClock clock_a, clock_b;
  ServiceConfig off_cfg;
  off_cfg.workers = 1;
  off_cfg.clock = &clock_a;
  off_cfg.enable_prober = false;
  KemService off(off_cfg);

  ServiceConfig zero_cfg = off_cfg;
  zero_cfg.clock = &clock_b;
  zero_cfg.verify.enabled = true;
  zero_cfg.verify.sample_per_mille = 0;
  KemService zero(zero_cfg);

  for (u8 i = 0; i < 4; ++i) {
    KemResponse a =
        off.submit({OpKind::kEncaps, seed_from(i), {}, kNoDeadline}).get();
    KemResponse b =
        zero.submit({OpKind::kEncaps, seed_from(i), {}, kNoDeadline}).get();
    ASSERT_EQ(a.status, Status::kOk);
    ASSERT_EQ(b.status, Status::kOk);
    EXPECT_EQ(a.encaps.ct.u, b.encaps.ct.u);
    EXPECT_EQ(a.encaps.ct.v, b.encaps.ct.v);
    EXPECT_EQ(a.encaps.key, b.encaps.key);
    EXPECT_FALSE(b.shadow_checked);
  }
  EXPECT_EQ(zero.verifier().checked().load(), 0u);
}

/// Drive encaps traffic into an armed evasive storm until the shadow
/// sampler sees a divergence (or `limit` requests pass clean). Every
/// kOk response is compared against an independent golden re-execution
/// — the zero-wrong-answers assertion — when `expect_golden` is set.
std::size_t drive_until_divergence(KemService& svc, std::size_t limit,
                                   bool expect_golden) {
  const lac::Backend golden = lac::Backend::optimized();
  for (std::size_t i = 0; i < limit; ++i) {
    const hash::Seed entropy = seed_from(static_cast<u8>(i));
    KemResponse r =
        svc.submit({OpKind::kEncaps, entropy, {}, kNoDeadline}).get();
    if (expect_golden && r.status == Status::kOk) {
      const lac::EncapsResult want =
          lac::encapsulate(svc.params(), golden, svc.keys().pk, entropy);
      EXPECT_EQ(r.encaps.ct.u, want.ct.u);
      EXPECT_EQ(r.encaps.ct.v, want.ct.v);
      EXPECT_EQ(r.encaps.key, want.key);
    }
    if (svc.verifier().mismatches().load() > 0) return i + 1;
  }
  return 0;
}

TEST(VerifyService, EvasiveStormIsCaughtCorrectedAndQuarantined) {
  ManualClock clock;
  KemService svc(verified_config(clock));

  // A dense transient-bit-flip storm on the ternary multiplier: fires
  // once per drawn edge, is consumed by live multiplies, and leaves
  // KATs green — invisible to every layer below the shadow verifier.
  fault::FaultPlan storm =
      fault::FaultPlan::storm(fault::Unit::kMulTer, 0x5dc0ffee, 400, 60'000);
  svc.arm_faults(storm);

  const std::size_t detected_at =
      drive_until_divergence(svc, 200, /*expect_golden=*/true);
  ASSERT_GT(detected_at, 0u) << "storm never produced a divergence";
  EXPECT_GE(svc.verifier().mismatches().load(), 1u);
  EXPECT_GE(svc.verifier().corrected().load(), 1u);
  EXPECT_EQ(svc.verifier().integrity_responses().load(), 0u);
  EXPECT_EQ(svc.quarantine_state(lac::Slot::kMulTer),
            QuarantineState::kQuarantined);
  EXPECT_GE(svc.counters().quarantine_trips, 1u);

  const auto records = svc.divergences();
  ASSERT_FALSE(records.empty());
  EXPECT_STREQ(records[0].op, "encaps");
  EXPECT_NE(records[0].slots.find("mul_ter"), std::string::npos);

  // After the trip the multiplier slot is pinned to software: traffic
  // keeps flowing, correct, marked as degraded.
  svc.clear_faults();
  KemResponse after =
      svc.submit({OpKind::kEncaps, seed_from(0xee), {}, kNoDeadline}).get();
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_TRUE(after.served_by_fallback);
  EXPECT_EQ(after.encaps.key,
            lac::encapsulate(svc.params(), lac::Backend::optimized(),
                             svc.keys().pk, seed_from(0xee))
                .key);
}

TEST(VerifyService, IntegrityRefusalPolicyWithholdsTheAnswer) {
  ManualClock clock;
  ServiceConfig cfg = verified_config(clock);
  cfg.verify.serve_golden_on_mismatch = false;
  KemService svc(cfg);

  fault::FaultPlan storm =
      fault::FaultPlan::storm(fault::Unit::kMulTer, 0x5dc0ffee, 400, 60'000);
  svc.arm_faults(storm);

  for (std::size_t i = 0; i < 200; ++i) {
    KemResponse r =
        svc.submit({OpKind::kEncaps, seed_from(static_cast<u8>(i)), {},
                    kNoDeadline})
            .get();
    if (r.status == Status::kIntegrity) {
      // The answer is withheld, not substituted.
      EXPECT_TRUE(r.encaps.ct.u.empty());
      EXPECT_EQ(r.key, lac::SharedKey{});
      EXPECT_GE(svc.verifier().integrity_responses().load(), 1u);
      EXPECT_EQ(svc.verifier().corrected().load(), 0u);
      return;
    }
    ASSERT_EQ(r.status, Status::kOk);
  }
  FAIL() << "storm never produced an integrity refusal";
}

TEST(VerifyService, ProbationRampRejoinsAfterCleanTraffic) {
  ManualClock clock;
  KemService svc(verified_config(clock));

  fault::FaultPlan storm =
      fault::FaultPlan::storm(fault::Unit::kMulTer, 0x5dc0ffee, 400, 60'000);
  svc.arm_faults(storm);
  ASSERT_GT(drive_until_divergence(svc, 200, /*expect_golden=*/true), 0u);
  ASSERT_EQ(svc.quarantine_state(lac::Slot::kMulTer),
            QuarantineState::kQuarantined);

  // Campaign over: the fault hooks detach and the transients are gone.
  svc.clear_faults();

  // rejoin_probes consecutive KAT passes walk quarantined -> probation.
  EXPECT_TRUE(svc.probe_now());
  EXPECT_TRUE(svc.probe_now());
  EXPECT_EQ(svc.quarantine_state(lac::Slot::kMulTer),
            QuarantineState::kProbationFull);

  // Clean shadow-verified traffic (still at 100% sampling) completes
  // the ramp back to healthy; the hardware path serves throughout.
  for (u8 i = 0; i < 8; ++i) {
    KemResponse r =
        svc.submit({OpKind::kEncaps, seed_from(static_cast<u8>(0x40 + i)), {},
                    kNoDeadline})
            .get();
    ASSERT_EQ(r.status, Status::kOk);
    if (svc.quarantine_state(lac::Slot::kMulTer) == QuarantineState::kHealthy)
      break;
  }
  EXPECT_EQ(svc.quarantine_state(lac::Slot::kMulTer),
            QuarantineState::kHealthy);

  // Healthy again: hardware serves without the fallback flag.
  KemResponse healed =
      svc.submit({OpKind::kEncaps, seed_from(0xfe), {}, kNoDeadline}).get();
  ASSERT_EQ(healed.status, Status::kOk);
  EXPECT_FALSE(healed.served_by_fallback);
}

}  // namespace
}  // namespace lacrv::service
