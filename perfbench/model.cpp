// perfbench_model — the paper-model workload, in process.
//
//   perfbench_model --mode setup
//   perfbench_model --mode run --seconds S --seed N
//
// setup: calls the first table (perf::table1), prints "ready" and exits;
//   the caller times process start to that line.
// run: prints "ready" after the first table call, then
//   1. regenerates Tables I-III and runs the ISS kernels (iss_mul_ter,
//      iss_split_mul_1024, iss_bch_decode) on seeded operands, repeatedly
//      for S/2 seconds (at least five times). Every ISS output must be
//      bit-identical to the host golden result, and every modeled cycle
//      count must be identical across repeats;
//   2. runs seeded LAC-128 handshakes through the cost-model backend of
//      Table II's "opt." rows for S/2 seconds, each op charging a
//      CycleLedger and timed in thread CPU time. Both keys of every
//      handshake must agree.
//   Any mismatch fails the run. Prints one JSON line, then waits for
//   stdin to close so the caller can read the process's peak RSS before
//   it exits. S = 0 runs the five regenerations only.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bch/decoder.h"
#include "common/rng.h"
#include "lac/kem.h"
#include "perf/iss_bch.h"
#include "perf/iss_kernels.h"
#include "perf/tables.h"
#include "poly/ring.h"

namespace {

using namespace lacrv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// This thread's CPU time in microseconds. The modeled handshakes have no
/// queue, so a wall-clock tail would only show host preemptions.
double thread_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// The modeled quantities the paper reports; all must repeat exactly.
struct Sim {
  u64 keygen = 0, encaps = 0, decaps = 0;  // Table II, LAC-128 opt.
  u64 lac256_decaps = 0;                   // Table II, LAC-256 opt.
  u64 bch_decode = 0;                      // Table I, Walters et al., 0 fails
  u64 core_luts = 0;                       // Table III, RISC-V core total
  u64 mul_ter = 0;                         // ISS: one n=512 pq.mul_ter call
  u64 split_mul = 0;                       // ISS: n=1024 split multiply

  bool operator==(const Sim&) const = default;
};

const perf::Table2Row* find_row(const std::vector<perf::Table2Row>& rows,
                                const std::string& name) {
  for (const auto& r : rows)
    if (r.scheme == name) return &r;
  return nullptr;
}

/// FNV-1a over every seeded operand, so a seed change is visible.
u64 g_payload_digest = 0xcbf29ce484222325ull;
void digest(const void* data, std::size_t n) {
  const u8* p = static_cast<const u8*>(data);
  for (std::size_t i = 0; i < n; ++i)
    g_payload_digest = (g_payload_digest ^ p[i]) * 0x100000001b3ull;
}

poly::Ternary ternary(Xoshiro256& rng, std::size_t n) {
  poly::Ternary t(n);
  for (auto& v : t) v = static_cast<i8>(static_cast<int>(rng.next_below(3)) - 1);
  digest(t.data(), t.size());
  return t;
}

poly::Coeffs coeffs(Xoshiro256& rng, std::size_t n) {
  poly::Coeffs c(n);
  for (auto& v : c) v = static_cast<u8>(rng.next_below(poly::kQ));
  digest(c.data(), c.size());
  return c;
}

/// One full regeneration. Returns false (with a reason) on any output
/// that differs from its host golden value.
bool regenerate(Xoshiro256& rng, Sim* sim, u64* iss_instructions,
                std::string* why) {
  const auto t1 = perf::table1();
  bool found = false;
  for (const auto& r : t1)
    if (r.scheme == "Walters et al." && r.fails == 0) {
      sim->bch_decode = r.decode;
      found = true;
    }
  const auto t2 = perf::table2();
  const perf::Table2Row* lac128 = find_row(t2, "LAC-128 opt.");
  const perf::Table2Row* lac256 = find_row(t2, "LAC-256 opt.");
  const auto t3 = perf::table3();
  for (const auto& r : t3)
    if (r.area.name == "RISC-V core total") sim->core_luts = r.area.luts;
  if (!found || !lac128 || !lac256 || sim->core_luts == 0) {
    *why = "a table row the benchmark reads is missing";
    return false;
  }
  sim->keygen = lac128->keygen;
  sim->encaps = lac128->encaps;
  sim->decaps = lac128->decaps;
  sim->lac256_decaps = lac256->decaps;

  const poly::Ternary a512 = ternary(rng, 512);
  const poly::Coeffs b512 = coeffs(rng, 512);
  const perf::IssRunResult mul = perf::iss_mul_ter(a512, b512, true);
  if (mul.result != poly::mul_ter_sw(a512, b512, true)) {
    *why = "iss_mul_ter differs from the host golden product";
    return false;
  }
  sim->mul_ter = mul.cycles;

  const poly::Ternary a1024 = ternary(rng, 1024);
  const poly::Coeffs b1024 = coeffs(rng, 1024);
  const perf::IssRunResult split = perf::iss_split_mul_1024(a1024, b1024);
  if (split.result != poly::mul_ter_sw(a1024, b1024, true)) {
    *why = "iss_split_mul_1024 differs from the host golden product";
    return false;
  }
  sim->split_mul = split.cycles;

  // A seeded message with 8 seeded bit errors through the firmware
  // decoder, against the library's constant-time decoder.
  const bch::CodeSpec& spec = bch::CodeSpec::bch_511_367_16();
  bch::Message msg{};
  rng.fill(msg.data(), msg.size());
  digest(msg.data(), msg.size());
  bch::BitVec word = bch::encode(spec, msg);
  std::set<int> flips;
  while (flips.size() < 8)
    flips.insert(static_cast<int>(rng.next_below(spec.length())));
  for (int p : flips) word[static_cast<std::size_t>(p)] ^= 1;
  const perf::IssBchResult fw = perf::iss_bch_decode(spec, word);
  const bch::DecodeResult lib =
      bch::decode(spec, word, bch::Flavor::kConstantTime);
  if (!lib.ok || lib.message != msg ||
      bch::extract_message(spec, fw.corrected) != msg ||
      fw.syndromes !=
          bch::syndromes(spec, word, bch::Flavor::kConstantTime)) {
    *why = "iss_bch_decode differs from the host decoder";
    return false;
  }
  *iss_instructions += mul.instructions + split.instructions + fw.instructions;
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * sorted.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct HandshakeTally {
  u64 attempted = 0, failed = 0, handshakes = 0;
  double seconds = 0;
  std::vector<double> latency_us;    // per request
  std::vector<double> handshake_us;  // encaps start to decaps end
};

/// Seeded LAC-128 handshakes on the Table II "opt." cost-model backend,
/// each op charging a CycleLedger, for `seconds`. A handshake fails when
/// its keys disagree.
HandshakeTally run_handshakes(Xoshiro256& rng, double seconds) {
  const lac::Params& params = lac::Params::lac128();
  const lac::Backend backend = lac::Backend::optimized();
  hash::Seed master{};
  rng.fill(master.data(), master.size());
  digest(master.data(), master.size());
  const lac::KemKeyPair keys = lac::kem_keygen(params, backend, master);
  HandshakeTally t;
  const auto t0 = Clock::now();
  auto record = [&](double cpu0, bool ok) {
    const double us = thread_cpu_us() - cpu0;
    ++t.attempted;
    t.latency_us.push_back(us);
    if (!ok) ++t.failed;
  };
  while (seconds_since(t0) < seconds) {
    hash::Seed entropy{};
    rng.fill(entropy.data(), entropy.size());
    digest(entropy.data(), entropy.size());
    CycleLedger enc_ledger, dec_ledger;
    const double e0 = thread_cpu_us();
    const lac::EncapsResult enc =
        lac::encapsulate(params, backend, keys.pk, entropy, &enc_ledger);
    record(e0, enc_ledger.total() > 0);
    const double d0 = thread_cpu_us();
    const lac::SharedKey key =
        lac::decapsulate(params, backend, keys, enc.ct, &dec_ledger);
    const bool agreed = key == enc.key && dec_ledger.total() > 0;
    record(d0, agreed);
    if (agreed) {
      ++t.handshakes;
      t.handshake_us.push_back(thread_cpu_us() - e0);
    }
  }
  t.seconds = seconds_since(t0);
  std::sort(t.latency_us.begin(), t.latency_us.end());
  std::sort(t.handshake_us.begin(), t.handshake_us.end());
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "run";
  double seconds = 5;
  u64 seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--mode") mode = argv[i + 1];
    else if (arg == "--seconds") seconds = std::stod(argv[i + 1]);
    else if (arg == "--seed") seed = std::stoull(argv[i + 1]);
    else {
      std::cerr << "perfbench_model: unknown option " << arg << "\n";
      return 2;
    }
  }

  // Set-up ends when the first table call returns.
  if (perf::table1().empty()) return 1;
  std::cout << "ready" << std::endl;
  if (mode == "setup") return 0;

  Xoshiro256 rng(seed);
  std::vector<double> host_s;
  Sim first;
  u64 iss_instructions = 0;
  const auto t0 = Clock::now();
  bool correct = true;
  std::string why;
  // At least five repeats, so the median and the repeat check both mean
  // something even on a slow host.
  while (correct && (host_s.size() < 5 || seconds_since(t0) < seconds / 2)) {
    Sim sim;
    const auto r0 = Clock::now();
    correct = regenerate(rng, &sim, &iss_instructions, &why);
    host_s.push_back(seconds_since(r0));
    if (correct && host_s.size() == 1) first = sim;
    if (correct && !(sim == first)) {
      correct = false;
      why = "modeled cycles changed between repeats";
    }
  }
  HandshakeTally hs;
  if (correct && seconds > 0) {
    hs = run_handshakes(rng, seconds / 2);
    if (hs.failed) {
      correct = false;
      why = "a modeled handshake's keys disagreed";
    }
  }
  std::printf(
      "{\"correct\": %s, \"why\": \"%s\", \"repeats\": %zu, "
      "\"host_s\": %.6f, \"host_s_min\": %.6f, \"host_s_max\": %.6f, "
      "\"sim_keygen_cycles\": %llu, \"sim_encaps_cycles\": %llu, "
      "\"sim_decaps_cycles\": %llu, \"sim_lac256_decaps_cycles\": %llu, "
      "\"sim_bch_decode_cycles\": %llu, \"sim_core_luts\": %llu, "
      "\"iss_mul_ter_cycles\": %llu, \"iss_split_mul_cycles\": %llu, "
      "\"iss_instructions\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"handshakes_ok\": %llu, \"handshake_s\": %.6f, "
      "\"latency_count\": %zu, \"latency_p50_us\": %.3f, "
      "\"latency_p90_us\": %.3f, \"latency_p99_us\": %.3f, \"handshake_count\": %zu, "
      "\"handshake_p50_us\": %.3f, \"handshake_p99_us\": %.3f, "
      "\"payload_digest\": \"%016llx\"}\n",
      correct ? "true" : "false", why.c_str(), host_s.size(), median(host_s),
      *std::min_element(host_s.begin(), host_s.end()),
      *std::max_element(host_s.begin(), host_s.end()),
      static_cast<unsigned long long>(first.keygen),
      static_cast<unsigned long long>(first.encaps),
      static_cast<unsigned long long>(first.decaps),
      static_cast<unsigned long long>(first.lac256_decaps),
      static_cast<unsigned long long>(first.bch_decode),
      static_cast<unsigned long long>(first.core_luts),
      static_cast<unsigned long long>(first.mul_ter),
      static_cast<unsigned long long>(first.split_mul),
      static_cast<unsigned long long>(iss_instructions),
      static_cast<unsigned long long>(hs.attempted),
      static_cast<unsigned long long>(hs.failed),
      static_cast<unsigned long long>(hs.handshakes), hs.seconds,
      hs.latency_us.size(), percentile(hs.latency_us, 0.50),
      percentile(hs.latency_us, 0.90), percentile(hs.latency_us, 0.99), hs.handshake_us.size(),
      percentile(hs.handshake_us, 0.50), percentile(hs.handshake_us, 0.99),
      static_cast<unsigned long long>(g_payload_digest));
  std::fflush(stdout);
  // Hold the process open until the caller has read its peak RSS.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  return correct ? 0 : 1;
}
