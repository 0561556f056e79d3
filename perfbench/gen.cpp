// perfbench_gen — the benchmark's wire load generator.
//
// One single-threaded process drives four connections against
// `kem_server --listen` and prints one JSON object on stdout.
//
//   perfbench_gen --port P --seconds S --seed N [--slo-us L] [--ping 0|1]
//
// A closed loop on LAC-128 (wire key id 0): every connection runs
// handshakes back to back — encaps, then decaps of the returned
// ciphertext, then a check that both shared keys agree. The seed drives
// every payload; a digest of them is reported.
// --ping adds a kPing every 5 ms on connection 0 (traced runs only).
//
// Every request is counted: when issuing stops, the generator waits up
// to 5 s (kDrainNs) for outstanding replies, and whatever is still
// unanswered counts as failed. Latency samples are all kept, per request
// and per handshake (encaps sent to decaps reply), so the percentiles
// are exact.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"

namespace {

using namespace lacrv;

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 splitmix(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Options {
  int port = 0;
  double seconds = 5;
  u64 seed = 1;
  u64 slo_us = 0;
  bool ping = false;
};

constexpr std::size_t kConnections = 4;
/// Wire key id of LAC-128, the scheme the loop drives.
constexpr u32 kKeyId = 0;
/// Bounded wait for outstanding replies after issuing stops.
constexpr u64 kDrainNs = 5'000'000'000;
/// Length of the windows whose medians are reported; see report().
constexpr u64 kWindowNs = 2'000'000'000;

enum class Kind : u8 { kEncaps, kDecaps, kPing };

struct Pending {
  Kind kind = Kind::kEncaps;
  u32 key_id = 0;
  u64 due_ns = 0;
  u64 handshake_due_ns = 0;  // when the handshake's encaps was due
  Bytes expect_key;  // decaps: the key the encaps reply carried
};

/// Samples of one full window of the issuing period.
struct Window {
  std::vector<u64> request_ns, handshake_ns;
  u64 requests = 0;         // sent in this window
  u64 slo_ok = 0;           // of those, kOk within the latency limit
  u64 handshakes_done = 0;  // handshakes whose keys agreed in this window
};

struct Conn {
  int fd = -1;
  bool dead = false;
  net::ResponseParser parser;
  Bytes out;
  std::size_t out_head = 0;
  std::unordered_map<u64, Pending> outstanding;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<u64>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * sorted.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

class Generator {
 public:
  explicit Generator(Options opt) : opt_(std::move(opt)), rng_(opt_.seed) {}

  int run() {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn c;
      c.fd = connect_one();
      if (c.fd < 0) return 2;
      conns_.push_back(std::move(c));
    }
    start_ns_ = now_ns();
    stop_ns_ = start_ns_ + static_cast<u64>(opt_.seconds * 1e9);
    windows_.resize((stop_ns_ - start_ns_) / kWindowNs);
    u64 next_ping = start_ns_;
    for (std::size_t i = 0; i < conns_.size(); ++i) start_encaps(i, now_ns());

    for (;;) {
      const u64 now = now_ns();
      const bool issuing = now < stop_ns_;
      if (issuing && opt_.ping && next_ping <= now && !conns_[0].dead) {
        send_request(0, net::WireOp::kPing, 0, {}, Pending{Kind::kPing, 0, now, now, {}});
        next_ping = now + 5'000'000;
      }
      if (!issuing && outstanding() == 0) break;
      if (!issuing && drain_deadline_ns_ == 0)
        drain_deadline_ns_ = now + kDrainNs;
      if (!issuing && now >= drain_deadline_ns_) break;

      u64 wake = issuing ? stop_ns_ : drain_deadline_ns_;
      if (issuing && opt_.ping) wake = std::min(wake, next_ping);
      if (!poll_once(wake > now ? wake - now : 0)) return 2;
    }
    end_ns_ = now_ns();
    for (Conn& c : conns_) {
      for (auto& [id, p] : c.outstanding) {
        if (p.kind == Kind::kPing) continue;
        ++unanswered_;
        ++failed_;
      }
      if (c.fd >= 0) ::close(c.fd);
    }
    report();
    return 0;
  }

 private:
  int connect_one() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<u16>(opt_.port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      std::cerr << "perfbench_gen: connect: " << std::strerror(errno) << "\n";
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.dead ? 0 : c.outstanding.size();
    return n;
  }

  void start_encaps(std::size_t c, u64 due) {
    Bytes entropy(32);
    for (std::size_t i = 0; i < entropy.size(); i += 8) {
      const u64 draw = splitmix(rng_);
      for (std::size_t k = 0; k < 8; ++k)
        entropy[i + k] = static_cast<u8>(draw >> (8 * k));
    }
    for (u8 b : entropy) payload_digest_ = (payload_digest_ ^ b) * 0x100000001b3ull;
    ++handshakes_started_;
    send_request(c, net::WireOp::kEncaps, kKeyId, std::move(entropy),
                 Pending{Kind::kEncaps, kKeyId, due, due, {}});
  }

  void send_request(std::size_t c, net::WireOp op, u32 key_id, Bytes payload,
                    Pending pending) {
    Conn& conn = conns_[c];
    net::RequestFrame frame;
    frame.op = op;
    frame.request_id = next_id_++;
    frame.key_id = key_id;
    frame.payload = std::move(payload);
    const Bytes wire = net::encode_request(frame);
    conn.out.insert(conn.out.end(), wire.begin(), wire.end());
    if (pending.kind != Kind::kPing) {
      ++attempted_;
      if (Window* w = window_at(pending.due_ns)) ++w->requests;
    }
    conn.outstanding.emplace(frame.request_id, std::move(pending));
    flush(conn);
  }

  void flush(Conn& conn) {
    while (!conn.dead && conn.out_head < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_head,
                               conn.out.size() - conn.out_head,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out_head += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        kill(conn);
        return;
      }
    }
    conn.out.clear();
    conn.out_head = 0;
  }

  /// A lost connection fails every request still outstanding on it.
  void kill(Conn& conn) {
    if (conn.dead) return;
    conn.dead = true;
    for (auto& [id, p] : conn.outstanding) {
      if (p.kind == Kind::kPing) continue;
      ++failed_;
      ++lost_;
    }
    conn.outstanding.clear();
    ::close(conn.fd);
    conn.fd = -1;
  }

  bool poll_once(u64 timeout_ns) {
    std::vector<pollfd> fds;
    for (Conn& c : conns_) {
      pollfd p{};
      p.fd = c.dead ? -1 : c.fd;
      p.events = POLLIN;
      if (c.out_head < c.out.size()) p.events |= POLLOUT;
      fds.push_back(p);
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0) {
      if (errno == EINTR) return true;
      std::cerr << "perfbench_gen: ppoll: " << std::strerror(errno) << "\n";
      return false;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].fd < 0) continue;
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(i);
    }
    return true;
  }

  void read_conn(std::size_t c) {
    Conn& conn = conns_[c];
    u8 buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn.parser.feed(ByteView(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      drain_frames(c);
      kill(conn);  // EOF or error
      return;
    }
    drain_frames(c);
  }

  void drain_frames(std::size_t c) {
    Conn& conn = conns_[c];
    net::ResponseFrame frame;
    for (;;) {
      const net::ParseResult r = conn.parser.next(&frame);
      if (r == net::ParseResult::kNeedMore) return;
      if (r == net::ParseResult::kError) {
        ++protocol_errors_;
        kill(conn);
        return;
      }
      on_reply(c, frame, now_ns());
      if (conn.dead) return;
    }
  }

  void on_reply(std::size_t c, const net::ResponseFrame& frame, u64 now) {
    Conn& conn = conns_[c];
    auto it = conn.outstanding.find(frame.request_id);
    if (it == conn.outstanding.end()) {
      ++protocol_errors_;  // a reply nobody asked for
      return;
    }
    Pending p = std::move(it->second);
    conn.outstanding.erase(it);
    const u64 latency = now - p.due_ns;
    if (p.kind == Kind::kPing) {
      if (frame.status == net::WireStatus::kOk) ping_ns_.push_back(latency);
      return;
    }
    ++replies_;
    Window* w = window_at(p.due_ns);
    if (w) w->request_ns.push_back(latency);
    const bool within_slo = opt_.slo_us && latency <= opt_.slo_us * 1000;
    const bool ok = frame.status == net::WireStatus::kOk;
    if (!ok) {
      ++failed_;
      if (frame.status == net::WireStatus::kOverloaded ||
          frame.status == net::WireStatus::kUnavailable ||
          frame.status == net::WireStatus::kDeadlineExceeded)
        ++shed_;
      else
        ++other_errors_;
      latency_ns_.push_back(latency);
      next_after(c, now);
      return;
    }
    if (p.kind == Kind::kEncaps) {
      if (frame.payload.size() <= 32) {
        ++failed_;
        ++other_errors_;
        next_after(c, now);
        return;
      }
      latency_ns_.push_back(latency);
      if (within_slo) {
        ++slo_ok_;
        if (w) ++w->slo_ok;
      }
      const std::size_t ct_len = frame.payload.size() - 32;
      Bytes ct(frame.payload.begin(), frame.payload.begin() + ct_len);
      Bytes key(frame.payload.begin() + ct_len, frame.payload.end());
      send_request(c, net::WireOp::kDecaps, p.key_id, std::move(ct),
                   Pending{Kind::kDecaps, p.key_id, now, p.handshake_due_ns,
                           std::move(key)});
      return;
    }
    // Decaps: the handshake completes only if both sides hold one key.
    latency_ns_.push_back(latency);
    if (frame.payload != p.expect_key) {
      ++failed_;
      ++mismatches_;
    } else {
      if (within_slo) {
        ++slo_ok_;
        if (w) ++w->slo_ok;
      }
      handshake_ns_.push_back(now - p.handshake_due_ns);
      if (Window* hw = window_at(p.handshake_due_ns))
        hw->handshake_ns.push_back(now - p.handshake_due_ns);
      if (Window* cw = window_at(now)) ++cw->handshakes_done;
      ++handshakes_ok_;
      if (now <= stop_ns_) ++handshakes_ok_in_window_;
    }
    next_after(c, now);
  }

  /// The connection's next handshake starts as soon as the previous one
  /// ended, until issuing stops.
  void next_after(std::size_t c, u64 now) {
    if (now < stop_ns_) start_encaps(c, now);
  }

  /// The full window holding time `t`, or null outside every window.
  Window* window_at(u64 t) {
    if (t < start_ns_) return nullptr;
    const u64 i = (t - start_ns_) / kWindowNs;
    return i < windows_.size() ? &windows_[i] : nullptr;
  }

  void report() {
    for (auto* v : {&latency_ns_, &handshake_ns_, &ping_ns_})
      std::sort(v->begin(), v->end());

    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    bool first = true;
    auto field = [&](const char* name) -> std::ostream& {
      os << (first ? "{\"" : ", \"") << name << "\": ";
      first = false;
      return os;
    };
    auto us = [](double ns) { return ns / 1000.0; };
    // p50 and p99 with the sample count; p99.9 only when at least ten
    // samples lie beyond it, else null.
    auto percentiles = [&](const char* prefix, const std::vector<u64>& v) {
      const std::string p(prefix);
      const std::size_t beyond =
          v.size() - std::min(v.size(), static_cast<std::size_t>(0.999 * v.size() + 0.999999));
      field((p + "_count").c_str()) << v.size();
      field((p + "_p50_us").c_str()) << us(percentile(v, 0.50));
      field((p + "_p90_us").c_str()) << us(percentile(v, 0.90));
      field((p + "_p99_us").c_str()) << us(percentile(v, 0.99));
      if (beyond >= 10)
        field((p + "_p999_us").c_str()) << us(percentile(v, 0.999));
      else
        field((p + "_p999_us").c_str()) << "null";
      field((p + "_beyond_p999").c_str()) << beyond;
    };
    field("seed") << opt_.seed;
    field("issuing_s") << static_cast<double>(stop_ns_ - start_ns_) / 1e9;
    field("wall_s") << static_cast<double>(end_ns_ - start_ns_) / 1e9;
    field("attempted") << attempted_;
    field("failed") << failed_;
    field("replies") << replies_;
    field("shed") << shed_;
    field("other_errors") << other_errors_;
    field("protocol_errors") << protocol_errors_;
    field("mismatches") << mismatches_;
    field("lost") << lost_;
    field("unanswered") << unanswered_;
    field("handshakes_started") << handshakes_started_;
    field("handshakes_ok") << handshakes_ok_;
    field("handshakes_ok_in_window") << handshakes_ok_in_window_;
    field("slo_ok") << slo_ok_;
    percentiles("latency", latency_ns_);
    percentiles("handshake", handshake_ns_);
    field("ping_count") << ping_ns_.size();
    field("ping_p50_us") << us(percentile(ping_ns_, 0.50));
    // Medians over the run's 2-s windows: a host stall that covers less
    // than half of the run moves them little, where it would set the
    // run-wide p99. Requests fall in the window they were sent in,
    // completed handshakes in the window they completed in.
    std::vector<double> w_rate, w_p50, w_p90, w_p99, w_slo;
    std::size_t w_min_requests = windows_.empty() ? 0 : ~std::size_t{0};
    for (Window& w : windows_) {
      std::sort(w.request_ns.begin(), w.request_ns.end());
      std::sort(w.handshake_ns.begin(), w.handshake_ns.end());
      w_rate.push_back(static_cast<double>(w.handshakes_done) * 1e9 / kWindowNs);
      w_p50.push_back(us(percentile(w.handshake_ns, 0.50)));
      w_p90.push_back(us(percentile(w.request_ns, 0.90)));
      w_p99.push_back(us(percentile(w.request_ns, 0.99)));
      w_slo.push_back(w.requests ? static_cast<double>(w.slo_ok) / w.requests : 0);
      w_min_requests = std::min(w_min_requests, w.request_ns.size());
    }
    field("windows") << windows_.size();
    field("window_min_requests") << w_min_requests;
    field("window_handshakes_per_s") << median(w_rate);
    field("window_handshake_p50_us") << median(w_p50);
    field("window_latency_p90_us") << median(w_p90);
    field("window_latency_p99_us") << median(w_p99);
    os << std::setprecision(6);
    field("window_slo_ok_ratio") << median(w_slo);
    os << std::setprecision(3);
    field("payload_digest") << "\"" << std::hex << payload_digest_ << std::dec << "\"";
    os << "}";
    std::cout << os.str() << std::endl;
  }

  Options opt_;
  u64 rng_;
  std::vector<Conn> conns_;
  u64 next_id_ = 1;
  u64 start_ns_ = 0, stop_ns_ = 0, end_ns_ = 0, drain_deadline_ns_ = 0;

  u64 attempted_ = 0, failed_ = 0, replies_ = 0, shed_ = 0;
  u64 other_errors_ = 0, protocol_errors_ = 0, mismatches_ = 0;
  u64 lost_ = 0, unanswered_ = 0;
  u64 handshakes_started_ = 0, handshakes_ok_ = 0;
  u64 handshakes_ok_in_window_ = 0;
  u64 slo_ok_ = 0;
  u64 payload_digest_ = 0xcbf29ce484222325ull;  // FNV-1a of every entropy seed
  std::vector<u64> latency_ns_, handshake_ns_, ping_ns_;
  std::vector<Window> windows_;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string val = argv[i + 1];
    if (arg == "--port") opt.port = std::stoi(val);
    else if (arg == "--seconds") opt.seconds = std::stod(val);
    else if (arg == "--seed") opt.seed = std::stoull(val);
    else if (arg == "--slo-us") opt.slo_us = std::stoull(val);
    else if (arg == "--ping") opt.ping = val == "1";
    else {
      std::cerr << "perfbench_gen: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opt.port <= 0) {
    std::cerr << "perfbench_gen: --port is required\n";
    return 2;
  }
  return Generator(std::move(opt)).run();
}
