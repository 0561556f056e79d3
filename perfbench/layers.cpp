// perfbench_layers — the traced layer walk.
//
//   perfbench_layers --seed N [--trace-out spans.json]
//
// Replays a seeded sample of LAC-128 handshakes in process and
// times every call into a module's public functions from here, with a
// span per call: name (module.fn), start, end, parent span and request
// id, plus the counts seen at that boundary (bytes, lanes, CycleLedger
// cycles). Spans stay in memory and are written to --trace-out at the
// end. After a warm-up pass the replay runs three times traced and three
// times untraced, in turn; the ratio of the two totals is the tracing
// overhead.
//
// The backends are built the way kem_server builds its worker rigs (RTL
// MUL TER, Chien, SHA-256 and Barrett units installed into the scheme's
// modeled registry), and the in-process KemService gets kem_server's
// --listen config (2 workers, both schemes, its key seeds). LWR-512, which
// the sample lacks, is timed on calibration handshakes, marked as request
// id 0.
//
// Prints one JSON line: correct, attempted, failed, per-layer metrics
// and a per-span summary (calls, total, self time, counts).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bch/decoder.h"
#include "common/rng.h"
#include "gf/gf512.h"
#include "hash/sha256.h"
#include "lac/context.h"
#include "lac/gen_a.h"
#include "lac/kem_batch.h"
#include "lac/sampler.h"
#include "net/protocol.h"
#include "perf/iss_kernels.h"
#include "perf/rtl_backend.h"
#include "perf/tables.h"
#include "poly/batch.h"
#include "poly/split_mul.h"
#include "scheme/lwr.h"
#include "scheme/profile.h"
#include "service/service.h"

namespace {

using namespace lacrv;

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  u64 start = 0, end = 0;
  int parent = -1;
  u64 request = 0;
  u64 bytes = 0, lanes = 0, cycles = 0;
};

class Tracer {
 public:
  bool enabled = true;
  std::vector<Span> spans;

  /// Open a span; returns its index, or -1 when tracing is off.
  int open(const std::string& name, u64 request) {
    if (!enabled) return -1;
    spans.push_back({name, now_ns(), 0, current_, request});
    current_ = static_cast<int>(spans.size()) - 1;
    return current_;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans[static_cast<std::size_t>(idx)].end = now_ns();
    current_ = spans[static_cast<std::size_t>(idx)].parent;
  }
  void count(int idx, u64 bytes, u64 lanes, u64 cycles) {
    if (idx < 0) return;
    Span& s = spans[static_cast<std::size_t>(idx)];
    s.bytes += bytes;
    s.lanes += lanes;
    s.cycles += cycles;
  }

 private:
  int current_ = -1;
};

Tracer g_tracer;

/// Time one call: a span around `f`. Returns f's result.
template <class F>
auto traced(const std::string& name, u64 request, F&& f, u64 bytes = 0,
            u64 lanes = 0) {
  const int idx = g_tracer.open(name, request);
  auto result = f();
  g_tracer.close(idx);
  g_tracer.count(idx, bytes, lanes, 0);
  return result;
}

/// Like traced(), for calls that charge a CycleLedger: the span counts
/// the cycles charged.
template <class F>
auto traced_cycles(const std::string& name, u64 request, F&& f) {
  CycleLedger ledger;
  const int idx = g_tracer.open(name, request);
  auto result = f(&ledger);
  g_tracer.close(idx);
  g_tracer.count(idx, 0, 0, ledger.total());
  return result;
}

struct Scope {
  int idx;
  Scope(const std::string& name, u64 request)
      : idx(g_tracer.open(name, request)) {}
  ~Scope() { g_tracer.close(idx); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

// ---- the served configuration ----------------------------------------------

hash::Seed lwr_key_seed() {
  hash::Seed s{};
  s[0] = 0x4c;  // kem_server's key id 1 seed
  s[1] = 0x57;
  s[2] = 0x52;
  return s;
}

std::size_t slot(lac::Slot s) { return static_cast<std::size_t>(s); }

/// A worker rig's backend for one scheme, built as KemService builds it
/// (without the breaker switching, which is not on the measured path).
lac::Backend served_backend(const scheme::SchemeProfile& profile) {
  auto registry = std::make_shared<lac::KernelRegistry>(
      profile.id == scheme::SchemeId::kLac
          ? lac::KernelRegistry::modeled()
          : lac::KernelRegistry::modeled_profile(profile.registry));
  if (profile.rtl_capable[slot(lac::Slot::kMulTer)])
    registry->mul_ter().install(
        perf::rtl_mul_ter(std::make_shared<rtl::MulTerRtl>(poly::kMulTerLength)));
  if (profile.rtl_capable[slot(lac::Slot::kChien)])
    registry->chien().install(perf::rtl_chien(std::make_shared<rtl::ChienRtl>()));
  if (profile.rtl_capable[slot(lac::Slot::kSha256)])
    registry->sha256().install(perf::rtl_sha256(std::make_shared<rtl::Sha256Rtl>()));
  if (profile.rtl_capable[slot(lac::Slot::kModq)] && profile.params->q == poly::kQ)
    registry->modq().install(perf::rtl_modq(std::make_shared<rtl::BarrettRtl>()));
  lac::Backend b = lac::Backend::optimized_from(std::move(registry));
  b.verify_hash = true;  // as the service runs it
  return b;
}

struct Served {
  const lac::Params* params;
  lac::Backend backend;
  lac::KemKeyPair keys;
  lac::KeyContext ctx;
  u32 key_id;
};

// ---- the walk --------------------------------------------------------------

constexpr int kPolyEvalPoints = 64;  // gf::poly_eval calls per span

struct Request {
  u64 id;
  u32 key_id;
  hash::Seed entropy;
};

struct Tally {
  u64 attempted = 0, failed = 0;
};

void check(Tally& t, bool ok) {
  ++t.attempted;
  if (!ok) ++t.failed;
}

Bytes frame_roundtrip(const net::RequestFrame& req,
                      const net::ResponseFrame& resp) {
  const Bytes wire_req = net::encode_request(req);
  const Bytes wire_resp = net::encode_response(resp);
  net::FrameParser fp;
  fp.feed(wire_req);
  net::RequestFrame back_req;
  net::ResponseParser rp;
  rp.feed(wire_resp);
  net::ResponseFrame back_resp;
  if (fp.next(&back_req) != net::ParseResult::kFrame ||
      rp.next(&back_resp) != net::ParseResult::kFrame)
    return {};
  return back_resp.payload;
}

/// One handshake through the scheme's KEM, the wire codec and every
/// kernel on the request's own data.
void walk(const Request& r, Served& sv, Tally& tally, Xoshiro256& rng) {
  const bool is_lac = sv.params->scheme == scheme::SchemeId::kLac;
  const std::string kem = is_lac ? "lac." : "scheme.lwr_";
  Scope request("request", r.id);

  const lac::EncapsResult enc =
      traced_cycles(kem + "encaps", r.id, [&](CycleLedger* l) {
        return lac::encapsulate(*sv.params, sv.backend, sv.ctx, r.entropy, l);
      });
  const lac::SharedKey key =
      traced_cycles(kem + "decaps", r.id, [&](CycleLedger* l) {
        return lac::decapsulate(*sv.params, sv.backend, sv.ctx, enc.ct, l);
      });
  check(tally, key == enc.key);

  // The four frames of a handshake at this scheme's sizes.
  const Bytes ct = lac::serialize(*sv.params, enc.ct);
  Bytes enc_reply = ct;
  enc_reply.insert(enc_reply.end(), enc.key.begin(), enc.key.end());
  const Bytes key_bytes(enc.key.begin(), enc.key.end());
  const Bytes codec_ok = traced(
      "net.codec", r.id,
      [&] {
        Bytes a = frame_roundtrip(
            {net::WireOp::kEncaps, r.id, r.key_id, Bytes(r.entropy.begin(), r.entropy.end())},
            {net::WireStatus::kOk, r.id, enc_reply});
        Bytes b = frame_roundtrip({net::WireOp::kDecaps, r.id, r.key_id, ct},
                                  {net::WireStatus::kOk, r.id, key_bytes});
        return a == enc_reply && b == key_bytes ? a : Bytes{};
      },
      2 * (net::kRequestHeaderSize + net::kResponseHeaderSize) + 32 +
          enc_reply.size() + ct.size() + key_bytes.size(),
      4);
  check(tally, !codec_ok.empty());

  traced("hash.sha256", r.id, [&] { return hash::sha256(enc_reply); },
         enc_reply.size());
  traced("hash.gen_a", r.id, [&] {
    return lac::gen_a(r.entropy, *sv.params, sv.backend.hash_impl);
  });
  traced("hash.sample", r.id, [&] {
    return lac::sample_fixed_weight(r.entropy, *sv.params, sv.backend.hash_impl);
  });

  if (!is_lac) return;

  // The n = 512 product of this request's decryption: u * s.
  const poly::Ternary& s = sv.ctx.s;
  const poly::Coeffs& u = enc.ct.u;
  const poly::Coeffs golden = traced("poly.mul_ter", r.id, [&] {
    return poly::software_mul_ter()(s, u, true, nullptr);
  });
  const poly::Coeffs rtl_prod =
      traced_cycles("rtl.mul_ter512", r.id, [&](CycleLedger* l) {
        return sv.backend.mul_unit(s, u, true, l);
      });
  check(tally, rtl_prod == golden);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
    poly::Ternary a;
    poly::Coeffs b;
    for (std::size_t l = 0; l < lanes; ++l) {
      a.insert(a.end(), s.begin(), s.end());
      b.insert(b.end(), u.begin(), u.end());
    }
    const poly::Coeffs out = traced(
        "poly.mul_ter_batch" + std::to_string(lanes), r.id,
        [&] { return poly::mul_ter_sw_batch(a, b, lanes, s.size(), true); }, 0,
        lanes);
    check(tally, std::equal(golden.begin(), golden.end(), out.end() - golden.size()));
  }

  // BCH on a codeword of this request's key, with seeded bit errors.
  const bch::CodeSpec& spec = *sv.params->code;
  bch::Message msg{};
  std::copy(enc.key.begin(), enc.key.end(), msg.begin());
  bch::BitVec word = traced("bch.encode", r.id, [&] { return bch::encode(spec, msg); });
  const int errors = static_cast<int>(rng.next_below(static_cast<u64>(spec.t) + 1));
  std::set<int> flips;
  while (static_cast<int>(flips.size()) < errors)
    flips.insert(static_cast<int>(rng.next_below(spec.length())));
  for (int p : flips) word[static_cast<std::size_t>(p)] ^= 1;
  const auto synd = traced("bch.syndrome", r.id, [&] {
    return bch::syndromes(spec, word, bch::Flavor::kConstantTime);
  });
  const bch::Locator loc = traced("bch.berlekamp", r.id, [&] {
    return bch::berlekamp_massey(spec, synd, bch::Flavor::kConstantTime);
  });
  const bch::ChienResult sw = traced("bch.chien", r.id, [&] {
    return bch::chien_search(spec, loc, bch::Flavor::kConstantTime);
  });
  const bch::ChienResult hw = traced_cycles("rtl.chien", r.id, [&](CycleLedger* l) {
    return sv.backend.chien(spec, loc, l);
  });
  check(tally, sw.error_degrees == hw.error_degrees);
  const bch::DecodeResult dec = traced("bch.decode", r.id, [&] {
    return bch::decode_with_chien(spec, word, sv.backend.bch_flavor, sv.backend.chien);
  });
  check(tally, dec.ok && dec.message == msg);
  traced(
      "gf.poly_eval", r.id,
      [&] {
        gf::Element x = 0;
        for (int i = 0; i < kPolyEvalPoints; ++i)
          x ^= gf::poly_eval(loc.lambda, gf::alpha_pow(static_cast<u32>(i)),
                             gf::MulKind::kShiftAdd);
        return x;
      },
      0, kPolyEvalPoints);
}

// ---- reporting -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median duration in microseconds of the spans named `name`, divided by
/// `per` (lanes or points per call).
double span_us(const std::string& name, double per = 1) {
  std::vector<double> d;
  for (const Span& s : g_tracer.spans)
    if (s.name == name) d.push_back(static_cast<double>(s.end - s.start) / 1e3 / per);
  return median(d);
}

u64 span_cycles(const std::string& name) {
  for (const Span& s : g_tracer.spans)
    if (s.name == name) return s.cycles;
  return 0;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"bytes\": " << s.bytes
        << ", \"lanes\": " << s.lanes << ", \"cycles\": " << s.cycles << "}"
        << (i + 1 < g_tracer.spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

/// Per span name: calls, total and self time (duration minus children).
std::string summary_json() {
  struct Agg {
    u64 calls = 0, total = 0, self = 0, bytes = 0, lanes = 0, cycles = 0;
  };
  std::vector<u64> child(g_tracer.spans.size(), 0);
  for (const Span& s : g_tracer.spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    Agg& a = agg[s.name];
    ++a.calls;
    a.total += s.end - s.start;
    a.self += s.end - s.start - std::min(child[i], s.end - s.start);
    a.bytes += s.bytes;
    a.lanes += s.lanes;
    a.cycles += s.cycles;
  }
  std::string out = "{";
  char buf[512];
  for (const auto& [name, a] : agg) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"calls\": %llu, \"total_us\": %.1f, "
                  "\"self_us\": %.1f, \"bytes\": %llu, \"lanes\": %llu, "
                  "\"cycles\": %llu}",
                  out.size() > 1 ? ", " : "", name.c_str(),
                  static_cast<unsigned long long>(a.calls), a.total / 1e3,
                  a.self / 1e3, static_cast<unsigned long long>(a.bytes),
                  static_cast<unsigned long long>(a.lanes),
                  static_cast<unsigned long long>(a.cycles));
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  u64 seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--seed") seed = std::stoull(argv[i + 1]);
    else if (arg == "--trace-out") trace_out = argv[i + 1];
    else {
      std::cerr << "perfbench_layers: unknown option " << arg << "\n";
      return 2;
    }
  }
  Xoshiro256 rng(seed);
  Tally tally;

  // Key material and contexts, as kem_server provisions them.
  std::vector<Served> served;
  for (const scheme::SchemeProfile* p : scheme::SchemeProfile::all()) {
    const bool is_lac = p->id == scheme::SchemeId::kLac;
    Served sv{p->params, served_backend(*p), {}, {}, is_lac ? 0u : 1u};
    const lac::Backend provisioning = scheme::golden_backend(*p);
    sv.keys = lac::kem_keygen(*p->params, provisioning,
                              is_lac ? hash::Seed{} : lwr_key_seed());
    for (int i = 0; i < 3; ++i)
      sv.ctx = traced(is_lac ? "lac.context_build" : "scheme.lwr_context_build", 0,
                      [&] { return lac::build_kem_context(*sv.params, sv.backend, sv.keys); });
    served.push_back(std::move(sv));
  }

  // The sample: LAC-128 handshakes, as the wire workload sends them.
  auto draw = [&](u64 id, u32 key_id) {
    Request r{id, key_id, {}};
    rng.fill(r.entropy.data(), r.entropy.size());
    return r;
  };
  std::vector<Request> sample;
  constexpr std::size_t kSample = 24;
  for (u64 i = 1; i <= kSample; ++i) sample.push_back(draw(i, 0));
  // Calibration handshakes (request id 0) for LWR-512 (key id 1).
  for (int i = 0; i < 4; ++i) sample.push_back(draw(0, 1));

  // A warm-up pass, then traced and untraced passes in turn; the ratio
  // of their summed times is the tracing overhead. Every pass replays the
  // same requests with the same bit errors.
  constexpr int kPasses = 3;
  u64 traced_ns = 0, untraced_ns = 0;
  Tally untraced_tally;
  for (int pass = 0; pass <= 2 * kPasses; ++pass) {
    const bool on = pass % 2 == 1;
    g_tracer.enabled = on;
    Xoshiro256 walk_rng(seed ^ 0x5a5a);
    const u64 t0 = now_ns();
    for (const Request& r : sample)
      walk(r, served[r.key_id], on ? tally : untraced_tally, walk_rng);
    if (pass > 0) (on ? traced_ns : untraced_ns) += now_ns() - t0;
  }
  g_tracer.enabled = true;

  // Batched KEM at max_batch lanes on LAC-128.
  Served& lac128 = served[0];
  constexpr std::size_t kLanes = 8;
  std::vector<hash::Seed> entropies;
  for (std::size_t i = 0; i < kLanes; ++i) entropies.push_back(draw(0, 0).entropy);
  for (int rep = 0; rep < 3; ++rep) {
    const auto encs = traced(
        "lac.encaps_batch", 0,
        [&] { return lac::encapsulate_batch(*lac128.params, lac128.backend, lac128.ctx, entropies); },
        0, kLanes);
    std::vector<lac::Ciphertext> cts;
    for (const auto& e : encs) cts.push_back(e.result.ct);
    const auto decs = traced(
        "lac.decaps_batch", 0,
        [&] { return lac::decapsulate_batch(*lac128.params, lac128.backend, lac128.ctx, cts); },
        0, kLanes);
    for (std::size_t i = 0; i < kLanes; ++i)
      check(tally, encs[i].status == Status::kOk && decs[i].key == encs[i].result.key);
  }

  // n = 1024 split multiply on the software unit.
  {
    poly::Ternary a(1024);
    poly::Coeffs b(1024);
    for (auto& v : a) v = static_cast<i8>(static_cast<int>(rng.next_below(3)) - 1);
    for (auto& v : b) v = static_cast<u8>(rng.next_below(poly::kQ));
    for (int rep = 0; rep < 3; ++rep) {
      const poly::Coeffs c = traced("poly.split_mul_1024", 0, [&] {
        return poly::mul_with_unit(a, b, poly::software_mul_ter());
      });
      check(tally, c == poly::mul_ter_sw(a, b, true));
    }
    // The same product as RV32 machine code on the ISS.
    const int idx = g_tracer.open("riscv.iss_split_mul_1024", 0);
    const perf::IssRunResult iss = perf::iss_split_mul_1024(a, b);
    g_tracer.close(idx);
    g_tracer.count(idx, 0, 0, iss.cycles);
    check(tally, iss.result == poly::mul_ter_sw(a, b, true));
  }

  // Service: submit -> ready, paired with the direct KEM call on the
  // same payload, on kem_server's --listen configuration.
  std::vector<double> overhead_us;
  {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 2 * 64 + 8;
    cfg.probe_interval_micros = 5'000;
    cfg.second_params = &scheme::lwr::lwr512();
    cfg.second_key_seed = lwr_key_seed();
    service::KemService svc(cfg);
    for (const Request& r : sample) {
      Served& sv = served[r.key_id];
      service::KemRequest req;
      req.op = service::OpKind::kEncaps;
      req.entropy = r.entropy;
      req.key_id = r.key_id;
      const u64 s0 = now_ns();
      const service::KemResponse er = traced("service.submit", r.id, [&] {
        return svc.submit(req).get();
      });
      const u64 s1 = now_ns();
      lac::encapsulate(*sv.params, sv.backend, sv.ctx, r.entropy);
      const u64 s2 = now_ns();
      service::KemRequest dreq;
      dreq.op = service::OpKind::kDecaps;
      dreq.ct = er.encaps.ct;
      dreq.key_id = r.key_id;
      const u64 d0 = now_ns();
      const service::KemResponse dr = traced("service.submit", r.id, [&] {
        return svc.submit(dreq).get();
      });
      const u64 d1 = now_ns();
      const lac::SharedKey direct = lac::decapsulate(*sv.params, sv.backend, sv.ctx, er.encaps.ct);
      const u64 d2 = now_ns();
      check(tally, er.status == Status::kOk && dr.status == Status::kOk &&
                       dr.key == er.encaps.key && direct == er.encaps.key);
      overhead_us.push_back((static_cast<double>(s1 - s0) - static_cast<double>(s2 - s1)) / 1e3);
      overhead_us.push_back((static_cast<double>(d1 - d0) - static_cast<double>(d2 - d1)) / 1e3);
    }
    svc.stop();
  }

  // The paper model: Tables I-III and an ISS mul_ter for the ISS speed.
  traced("perf.table1", 0, [] { return perf::table1(); });
  traced("perf.table2", 0, [] { return perf::table2(); });
  traced("perf.table3", 0, [] { return perf::table3(); });
  double iss_mips = 0;
  {
    poly::Ternary a(512);
    poly::Coeffs b(512);
    for (auto& v : a) v = static_cast<i8>(static_cast<int>(rng.next_below(3)) - 1);
    for (auto& v : b) v = static_cast<u8>(rng.next_below(poly::kQ));
    u64 instructions = 0;
    const u64 i0 = now_ns();
    for (int rep = 0; rep < 8; ++rep) {
      const perf::IssRunResult run = traced("riscv.iss_mul_ter", 0, [&] {
        return perf::iss_mul_ter(a, b, true);
      });
      instructions += run.instructions;
      check(tally, run.result == poly::mul_ter_sw(a, b, true));
    }
    iss_mips = static_cast<double>(instructions) / (static_cast<double>(now_ns() - i0) / 1e3);
  }

  if (!trace_out.empty()) write_spans(trace_out);

  const std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics = {
      {"net.codec_ns", {span_us("net.codec", 4) * 1e3, "ns"}},
      {"service.submit_overhead_us", {median(overhead_us), "us"}},
      {"lac.encaps_us", {span_us("lac.encaps"), "us"}},
      {"lac.decaps_us", {span_us("lac.decaps"), "us"}},
      {"lac.encaps_lane_us", {span_us("lac.encaps_batch", kLanes), "us"}},
      {"lac.decaps_lane_us", {span_us("lac.decaps_batch", kLanes), "us"}},
      {"lac.context_build_us", {span_us("lac.context_build"), "us"}},
      {"lac.decaps_cycles", {static_cast<double>(span_cycles("lac.decaps")), "cycles"}},
      {"scheme.lwr_encaps_us", {span_us("scheme.lwr_encaps"), "us"}},
      {"scheme.lwr_decaps_us", {span_us("scheme.lwr_decaps"), "us"}},
      {"bch.decode_us", {span_us("bch.decode"), "us"}},
      {"bch.syndrome_us", {span_us("bch.syndrome"), "us"}},
      {"bch.chien_us", {span_us("bch.chien"), "us"}},
      {"bch.encode_us", {span_us("bch.encode"), "us"}},
      {"gf.poly_eval_ns", {span_us("gf.poly_eval", kPolyEvalPoints) * 1e3, "ns"}},
      {"poly.mul_ter_us", {span_us("poly.mul_ter"), "us"}},
      {"poly.mul_ter_batch1_lane_us", {span_us("poly.mul_ter_batch1", 1), "us"}},
      {"poly.mul_ter_batch8_lane_us", {span_us("poly.mul_ter_batch8", 8), "us"}},
      {"poly.split_mul_1024_us", {span_us("poly.split_mul_1024"), "us"}},
      {"hash.sha256_us", {span_us("hash.sha256"), "us"}},
      {"hash.gen_a_us", {span_us("hash.gen_a"), "us"}},
      {"hash.sample_us", {span_us("hash.sample"), "us"}},
      {"rtl.mul_ter512_us", {span_us("rtl.mul_ter512"), "us"}},
      {"rtl.chien_us", {span_us("rtl.chien"), "us"}},
      {"rtl.mul_ter512_cycles", {static_cast<double>(span_cycles("rtl.mul_ter512")), "cycles"}},
      {"riscv.iss_mips", {iss_mips, "MIPS"}},
      {"riscv.iss_split_mul_cycles",
       {static_cast<double>(span_cycles("riscv.iss_split_mul_1024")), "cycles"}},
      {"perf.table1_s", {span_us("perf.table1") / 1e6, "s"}},
      {"perf.table2_s", {span_us("perf.table2") / 1e6, "s"}},
      {"perf.table3_s", {span_us("perf.table3") / 1e6, "s"}},
      {"trace.overhead_ratio",
       {static_cast<double>(traced_ns) / static_cast<double>(untraced_ns), "ratio"}},
  };
  const bool correct = tally.failed == 0 && untraced_tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted + untraced_tally.attempted),
              static_cast<unsigned long long>(tally.failed + untraced_tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": [%.6f, \"%s\"]", i ? ", " : "", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  std::printf("}, \"summary\": %s}\n", summary_json().c_str());
  return correct ? 0 : 1;
}
