// Fault-campaign recall for the SDC defense: armed evasive plans must
// be *detected* (shadow divergence + quarantine trip) within the
// request budget, and — detection or not — no wrong answer may ever
// reach a caller while shadow verification samples at 100% with the
// serve-golden policy.
//
// Each trial arms a deterministic plan (an evasive transient-bit-flip
// storm on one unit, or a mixed random plan) on a fresh single-worker
// service and drives alternating encaps/decaps traffic. Every response
// is compared against an independently computed golden answer:
//
//   * encaps kOk  -> ciphertext and shared key must equal the golden
//                    re-execution of the same entropy;
//   * decaps of a well-formed golden ciphertext -> kOk with the golden
//                    shared key (a fault-corrupted decode that served
//                    kRejected would be a *wrong verdict* — the shadow
//                    verifier must have corrected it).
//
// A plan may legitimately go undetected only by being harmless: every
// drawn edge either missed the traffic window or never propagated into
// an output bit (and for sha256, the runtime hash cross-check corrects
// the digest below the shadow layer). What cannot happen is the
// in-between: a corrupted answer that ships. If any divergence was
// recorded, the implicated slot must have left the healthy state.
//
// LACRV_CAMPAIGN_TRIALS widens the sweep (more seeds per unit) for
// soak runs; the default keeps tier-1 fast.
#include <cstdlib>
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

namespace lacrv::service {
namespace {

std::size_t env_trials(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

hash::Seed entropy_for(u64 i) {
  hash::Seed s{};
  for (std::size_t b = 0; b < 8; ++b)
    s[b] = static_cast<u8>((i * 0x9E3779B97F4A7C15ull) >> (8 * b));
  return s;
}

ServiceConfig campaign_config(ManualClock& clock) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.clock = &clock;
  cfg.enable_prober = false;
  cfg.retry.jitter_percent = 0;
  cfg.verify.enabled = true;
  cfg.verify.sample_per_mille = 1000;  // every request is shadow-verified
  return cfg;
}

/// Run one campaign: arm `plan`, drive up to `budget` alternating
/// encaps/decaps requests, assert the golden contract on every reply.
/// `require_ok` demands every request complete kOk — right for evasive
/// transients, which never produce a fault-indicating status (the
/// shadow layer corrects even a served kRejected misverdict back to the
/// golden kOk). Stuck-at plans may exhaust the retry budget first and
/// surface a *typed refusal*; that is correct layered behaviour, not a
/// wrong answer, so mixed campaigns pass require_ok = false and the
/// golden contract applies to every answer that was served.
/// Returns the number of shadow mismatches observed.
u64 run_campaign(fault::FaultPlan& plan, std::size_t budget, bool require_ok,
                 const std::string& label) {
  ManualClock clock;
  KemService svc(campaign_config(clock));
  const lac::Backend golden = lac::Backend::optimized();
  svc.arm_faults(plan);

  // A few extra requests after the first detection prove the
  // post-detection regime (quarantined slot pinned to software) also
  // ships only correct answers.
  std::size_t confirm_left = 8;
  for (std::size_t i = 0; i < budget; ++i) {
    const hash::Seed entropy = entropy_for(i);
    const lac::EncapsResult want =
        lac::encapsulate(svc.params(), golden, svc.keys().pk, entropy);

    if (i % 2 == 0) {
      KemResponse r =
          svc.submit({OpKind::kEncaps, entropy, {}, kNoDeadline}).get();
      if (r.status == Status::kOk) {
        EXPECT_EQ(r.encaps.ct.u, want.ct.u) << label << " request " << i;
        EXPECT_EQ(r.encaps.ct.v, want.ct.v) << label << " request " << i;
        EXPECT_EQ(r.encaps.key, want.key) << label << " request " << i;
      } else if (require_ok) {
        ADD_FAILURE() << label << " request " << i << ": status "
                      << status_name(r.status) << " (" << r.detail << ")";
      }
    } else {
      KemRequest req;
      req.op = OpKind::kDecaps;
      req.ct = want.ct;  // well-formed: the golden verdict is kOk
      KemResponse r = svc.submit(std::move(req)).get();
      if (r.status == Status::kOk) {
        EXPECT_EQ(r.key, want.key) << label << " request " << i;
      } else if (require_ok) {
        ADD_FAILURE() << label << " request " << i << ": status "
                      << status_name(r.status) << " (" << r.detail << ")";
      }
    }

    if (svc.verifier().mismatches().load() > 0 && confirm_left-- == 0) break;
  }

  const u64 mismatches = svc.verifier().mismatches().load();
  if (mismatches > 0) {
    // Detection must have consequences: at least one slot left healthy.
    bool any_quarantined = false;
    for (lac::Slot slot : lac::kAllSlots)
      any_quarantined |= svc.quarantine_state(slot) !=
                         QuarantineState::kHealthy;
    EXPECT_TRUE(any_quarantined)
        << label << ": " << mismatches << " mismatches but no quarantine";
    EXPECT_FALSE(svc.divergences().empty()) << label;
    EXPECT_EQ(svc.verifier().corrected().load(), mismatches) << label;
  }
  svc.clear_faults();
  return mismatches;
}

TEST(VerifyRecallCampaign, EvasiveStormsNeverShipAWrongAnswer) {
  const std::size_t seeds_per_unit = env_trials("LACRV_CAMPAIGN_TRIALS", 1);
  constexpr std::size_t kBudget = 1000;

  // Dense storms on the two units where a single consumed flip most
  // directly corrupts an answer; soak runs widen to every RTL unit.
  struct Target {
    fault::Unit unit;
    std::size_t count;
    u64 max_edge;
  };
  std::vector<Target> targets = {
      {fault::Unit::kMulTer, 400, 60'000},
      {fault::Unit::kChien, 64, 2'000},
  };
  if (seeds_per_unit > 1) {
    targets.push_back({fault::Unit::kGfMul, 400, 200'000});
    targets.push_back({fault::Unit::kSha256, 400, 60'000});
    targets.push_back({fault::Unit::kBarrett, 64, 2'000});
  }

  u64 detected_campaigns = 0;
  for (const Target& t : targets) {
    for (std::size_t s = 0; s < seeds_per_unit; ++s) {
      const u64 seed = 0xca11ab1e + 0x1000 * s + static_cast<u64>(t.unit);
      fault::FaultPlan plan =
          fault::FaultPlan::storm(t.unit, seed, t.count, t.max_edge);
      const std::string label = std::string("storm:") +
                                fault::unit_name(t.unit) + ":" +
                                std::to_string(seed);
      if (run_campaign(plan, kBudget, /*require_ok=*/true, label) > 0)
        ++detected_campaigns;
    }
  }
  // The dense mul_ter/chien storms corrupt outputs within the budget;
  // a sweep where *nothing* was ever detected means the sampler is
  // blind, not that every storm was harmless.
  EXPECT_GT(detected_campaigns, 0u);
}

TEST(VerifyRecallCampaign, MixedRandomPlansNeverShipAWrongAnswer) {
  // Random plans mix stuck-ats (KAT-visible: the breaker tier catches
  // them and reroutes) with transients (shadow tier). Whichever layer
  // fires, the per-response golden contract must hold throughout.
  const std::size_t trials = env_trials("LACRV_CAMPAIGN_TRIALS", 2);
  for (std::size_t t = 0; t < trials; ++t) {
    fault::FaultPlan plan = fault::FaultPlan::random(0xfa117 + t, 6);
    run_campaign(plan, 64, /*require_ok=*/false,
                 "random:" + std::to_string(0xfa117 + t));
  }
}

}  // namespace
}  // namespace lacrv::service
