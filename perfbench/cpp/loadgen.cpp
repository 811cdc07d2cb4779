#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "pbio/encode.hpp"
#include "transport/port.hpp"
#include "transport/tcp.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace morph;

namespace {

constexpr size_t kMaxBatch = 64;  // events coalesced into one publisher write

// The rate ladder: rung i offers ladder_start_eps * kLadderRatio^i events/s
// for one step, and a passing step keeps lat_p99 under kLimitUs.
constexpr double kLadderRatio = 1.07;
constexpr int kLadderSteps = 12;
constexpr double kLimitUs = 50'000;
// A rate fails for good after this many failed tries in a row.
constexpr int kStepTries = 3;
// A passing step's backlog grows by at most this share of the step's events
// between the middle and the end of the step: about 10 ms of arrivals with
// one-second steps, independent of the latency limit.
constexpr double kMaxBacklogGrowth = 0.01;

// The nominal phase: kChunks chunks, interleaved with the ladder.
constexpr int kChunks = 10;

// Self-test rate: slow enough that a few hundred microseconds of injected
// delay per event never queues up behind itself.
constexpr double kSelfTestEps = 400;

/// Per-event timeline of one session, indexed by event number. rx[j] and
/// ondata[j] are written by sink j's receive thread and read by the main
/// thread after a drain (acquire on the delivered counters).
struct EventLog {
  EventLog(uint64_t n, bool traced) : capacity(n), sched(n), sent(n) {
    for (int j = 0; j < kMaxSinks; ++j) {
      rx[j].assign(n, 0);
      if (traced) ondata[j].assign(n, 0);
    }
  }
  uint64_t capacity;
  std::vector<uint64_t> sched;  // scheduled send time
  std::vector<uint64_t> sent;   // handed to the publisher's connection
  std::vector<uint64_t> rx[kMaxSinks];      // subscriber handler entry
  std::vector<uint64_t> ondata[kMaxSinks];  // subscriber on_data (traced)
};

/// Publisher-side link. Frames queue in memory and leave in one
/// non-blocking write per batch of due events; whatever the socket does not
/// take stays queued here and is written while the generator waits for its
/// next event. The generator is never blocked by a slow broker, so its
/// lateness measures only itself (open loop), and a backlog shows up as
/// ingress wait and latency instead.
class BatchLink final : public transport::Link {
 public:
  BatchLink(const BatchLink&) = delete;
  BatchLink& operator=(const BatchLink&) = delete;
  explicit BatchLink(transport::TcpLink& inner) : inner_(inner) {
    inner_.set_on_data([this](const uint8_t* d, size_t n) {
      if (on_data_) on_data_(d, n);
    });
  }
  void send(const void* data, size_t size) override { out_.append(data, size); }
  bool connected() const override { return inner_.connected(); }

  /// Write as much of the queue as the socket takes now.
  void try_flush() {
    while (head_ < out_.size()) {
      ssize_t n = ::send(inner_.fd(), out_.data() + head_, out_.size() - head_,
                         MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          die(std::string("publisher send failed: ") + std::strerror(errno));
        }
        break;
      }
      head_ += static_cast<size_t>(n);
    }
    if (head_ == out_.size()) {
      out_.clear();
      head_ = 0;
    }
  }

  /// Wait until `deadline_ns`, writing queued bytes whenever the socket
  /// can take them.
  void wait_until(uint64_t deadline_ns) {
    for (;;) {
      try_flush();
      const uint64_t now = now_ns();
      if (now >= deadline_ns) return;
      if (pending() == 0) {
        perfbench::wait_until(deadline_ns);
        return;
      }
      pollfd pfd{inner_.fd(), POLLOUT, 0};
      const uint64_t left_ms = (deadline_ns - now) / 1'000'000;
      poll(&pfd, 1, static_cast<int>(std::min<uint64_t>(left_ms, 100)));
    }
  }

  /// Block until every queued byte is written.
  void flush_all() {
    try_flush();
    while (pending() > 0) {
      pollfd pfd{inner_.fd(), POLLOUT, 0};
      poll(&pfd, 1, 100);
      try_flush();
    }
  }

  size_t pending() const { return out_.size() - head_; }

 private:
  transport::TcpLink& inner_;
  ByteBuffer out_;
  size_t head_ = 0;
};

struct Subscriber;

/// Subscriber-side link decorator: counts wire bytes and stamps the
/// on_data call that carries each frame (traced runs).
class SubLink final : public transport::Link {
 public:
  SubLink(transport::TcpLink& inner, Subscriber& sub);
  SubLink(const SubLink&) = delete;
  SubLink& operator=(const SubLink&) = delete;
  void send(const void* data, size_t size) override { inner_.send(data, size); }
  bool connected() const override { return inner_.connected(); }

 private:
  transport::TcpLink& inner_;
};

struct Subscriber {
  Subscriber(int slot_, const SinkSpec& spec_, const Workload& w_, EventLog& log_, uint16_t broker_port)
      : slot(slot_),
        spec(spec_),
        w(w_),
        log(log_),
        link(transport::TcpLink::connect("127.0.0.1", broker_port)),
        slink(*link, *this),
        port(slink, &rx) {
    rx.register_handler(spec.format, [this](const core::Delivery& d) {
      const uint64_t t = now_ns();
      const uint64_t k = count++;
      if (k < log.capacity) {
        log.rx[slot][k] = t;
        if (tracing.load(std::memory_order_relaxed)) log.ondata[slot][k] = cur_ondata;
      }
      // Reference check: re-encode what arrived and compare with the
      // oracle's encoding of the same event.
      auto& enc = encoders[d.format->fingerprint()];
      if (!enc) enc = std::make_unique<pbio::Encoder>(d.format);
      scratch.clear();
      enc->encode(d.record, scratch);
      bool ok = k < w.prepared();
      if (ok) {
        const ByteBuffer& want = w.expected(static_cast<size_t>(slot), k);
        ok = want.size() == scratch.size() &&
             std::memcmp(want.data(), scratch.data(), want.size()) == 0;
      }
      if (!ok) {
        note_bad(k);
        mismatched.fetch_add(1, std::memory_order_relaxed);
      }
      delivered.store(k + 1, std::memory_order_release);
    });
    rx.set_default_handler([this](const void*, size_t) {
      const uint64_t k = count++;
      note_bad(k);
      defaulted.fetch_add(1, std::memory_order_relaxed);
      delivered.store(k + 1, std::memory_order_release);
    });
    port.set_on_control(
        [this](const uint8_t* d, size_t n) { reply.assign(reinterpret_cast<const char*>(d), n); });
  }

  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  void note_bad(uint64_t k) {
    int64_t none = -1;
    first_bad.compare_exchange_strong(none, static_cast<int64_t>(k), std::memory_order_relaxed);
  }

  /// Subscribe (on the caller's thread, before the receive thread starts).
  void subscribe() {
    if (spec.encoding == echo::SinkEncoding::kPbuf) port.announce_pbuf();
    char cmd[64];
    std::snprintf(cmd, sizeof cmd, "SUB %" PRIx64 " %s", spec.format->fingerprint(),
                  spec.encoding == echo::SinkEncoding::kPbuf ? "pbuf" : "pbio");
    port.send_control(cmd, std::strlen(cmd));
    const uint64_t deadline = now_ns() + 10'000'000'000ull;
    while (reply.empty() && now_ns() < deadline) {
      if (!link->pump(50)) break;
    }
    if (reply.rfind("SUBOK", 0) != 0) die("subscriber " + spec.label + ": no SUBOK (" + reply + ")");
  }

  int slot;
  SinkSpec spec;
  const Workload& w;
  EventLog& log;
  std::unique_ptr<transport::TcpLink> link;
  SubLink slink;
  core::Receiver rx;
  transport::MessagePort port;

  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> mismatched{0};
  std::atomic<uint64_t> defaulted{0};
  std::atomic<bool> tracing{false};
  uint64_t cur_ondata = 0;  // receive thread only
  uint64_t count = 0;
  std::atomic<int64_t> first_bad{-1};  // first failed event, for diagnostics
  std::unordered_map<uint64_t, std::unique_ptr<pbio::Encoder>> encoders;
  ByteBuffer scratch;
  std::string reply;
};

SubLink::SubLink(transport::TcpLink& inner, Subscriber& sub) : inner_(inner) {
  inner_.set_on_data([this, &sub](const uint8_t* d, size_t n) {
    if (sub.tracing.load(std::memory_order_relaxed)) sub.cur_ondata = now_ns();
    sub.bytes.fetch_add(n, std::memory_order_relaxed);
    if (on_data_) on_data_(d, n);
  });
}

struct PhaseResult {
  uint64_t first = 0;
  uint64_t count = 0;
  bool aborted = false;
  double lag_mid = 0;
  double lag_end = 0;
  double offered_eps = 0;  // events / scheduled span
};

/// Seeded Poisson arrivals at `rate` over `duration_s`: offsets in ns.
std::vector<uint64_t> poisson_schedule(uint64_t seed, double rate, double duration_s) {
  Rng rng(seed);
  std::vector<uint64_t> offs;
  offs.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0;
  for (;;) {
    double u = (static_cast<double>(rng.next_u64() >> 11) + 0.5) / 9007199254740992.0;
    t += -std::log(u) / rate;
    if (t >= duration_s) break;
    offs.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return offs;
}

/// Failure and attempt tally across the sessions of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  void fail(uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    notes.push_back(why + ": " + std::to_string(n));
  }
};

/// One broker + format service + four connections, from spawn to teardown.
class Session {
 public:
  Session(const RunConfig& cfg, Workload& w, uint64_t capacity, const std::string& trace_out)
      : w_(w), log(capacity, cfg.trace) {
    // Set-up time starts here, after the event log is allocated: zeroing
    // the log is the generator's cost, not the system's.
    started_ns_ = now_ns();
    fmtsvc_ = spawn_role(cfg.self, {"_fmtsvc", cfg.workload, std::to_string(cfg.seed)});
    std::string line = read_line(fmtsvc_.stdout_fd, 30'000);
    if (line.rfind("PORT ", 0) != 0) die("format service did not start: " + line);
    std::string fmtsvc_port = line.substr(5);

    char fp[32];
    std::snprintf(fp, sizeof fp, "%" PRIx64, w.reader()->fingerprint());
    broker_ = spawn_role(cfg.self, {"_broker", "--fmtsvc-port", fmtsvc_port, "--reader-fp", fp,
                                    "--verify", w.enforce_verify() ? "enforce" : "off",
                                    "--trace-out", trace_out, "--delay-ns",
                                    std::to_string(cfg.delay_ns), "--drop-at",
                                    std::to_string(cfg.drop_at), "--corrupt-at",
                                    std::to_string(cfg.corrupt_at), "--span-shift",
                                    std::to_string(cfg.span_shift)});
    line = read_line(broker_.stdout_fd, 30'000);
    if (line.rfind("PORT ", 0) != 0) die("broker did not start: " + line);
    const auto port = static_cast<uint16_t>(std::stoul(line.substr(5)));

    for (size_t j = 0; j < w.sinks().size(); ++j) {
      subs_.push_back(std::make_unique<Subscriber>(static_cast<int>(j), w.sinks()[j], w, log, port));
      subs_.back()->subscribe();
    }
    pub_link_ = transport::TcpLink::connect("127.0.0.1", port);
    pub_blink_ = std::make_unique<BatchLink>(*pub_link_);
    // Data frames are pre-built (Workload::frame) and go straight to the
    // link: their formats and transforms are already registered with the
    // format service, so nothing travels inline. The port carries only
    // control frames.
    pub_port_ = std::make_unique<transport::MessagePort>(*pub_blink_, nullptr);
    pub_port_->set_on_control([this](const uint8_t* d, size_t n) {
      reply_.assign(reinterpret_cast<const char*>(d), n);
    });
    control("PUB");
    // One receive thread per subscriber connection (four threads in all,
    // with the publisher).
    for (auto& sub : subs_) {
      Subscriber* sp = sub.get();
      rx_threads_.emplace_back([this, sp] {
        place_thread(Placement::kSubscribers);
        while (!rx_stop_.load(std::memory_order_relaxed)) {
          try {
            if (!sp->link->pump(20)) break;
          } catch (const std::exception& e) {
            // The connection is gone; its missing deliveries are counted
            // as failures when the session finishes.
            std::fprintf(stderr, "perfbench: subscriber %s: %s\n", sp->spec.label.c_str(), e.what());
            break;
          }
        }
      });
    }
  }

  ~Session() { close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Send one command to the broker over the publisher connection.
  void control(const std::string& cmd) {
    pub_port_->send_control(cmd.data(), cmd.size());
    pub_blink_->flush_all();
  }

  /// The broker's counters. A barrier too: the reply follows every event
  /// published before it.
  StatMap stats() {
    reply_.clear();
    control("STATS");
    const uint64_t deadline = now_ns() + 30'000'000'000ull;
    while (reply_.empty() && now_ns() < deadline) {
      if (!pub_link_->pump(50)) break;
    }
    if (reply_.rfind("STATS\n", 0) != 0) die("broker did not answer STATS");
    return decode_stats(reply_.substr(6));
  }

  uint64_t min_delivered() const {
    uint64_t m = UINT64_MAX;
    for (const auto& s : subs_) m = std::min(m, s->delivered.load(std::memory_order_acquire));
    return m;
  }

  /// Wait until every sink has every published event. Gives up after
  /// `timeout_ms`, or after a second without any delivery: a lost frame
  /// never arrives, and finish() counts it as missing.
  bool drain(uint64_t timeout_ms) {
    const uint64_t deadline = now_ns() + timeout_ms * 1'000'000;
    uint64_t seen = total_delivered();
    uint64_t last_progress = now_ns();
    while (min_delivered() < next_k) {
      const uint64_t now = now_ns();
      if (now >= deadline || now - last_progress > 1'000'000'000) return false;
      if (const uint64_t total = total_delivered(); total != seen) {
        seen = total;
        last_progress = now;
      }
      usleep(100);
    }
    return true;
  }

  uint64_t total_delivered() const {
    uint64_t n = 0;
    for (const auto& s : subs_) n += s->delivered.load(std::memory_order_acquire);
    return n;
  }

  uint64_t mismatches() const {
    uint64_t n = 0;
    for (const auto& s : subs_) {
      n += s->mismatched.load(std::memory_order_relaxed) + s->defaulted.load(std::memory_order_relaxed);
    }
    return n;
  }

  uint64_t wire_bytes() const {
    uint64_t n = 0;
    for (const auto& s : subs_) n += s->bytes.load(std::memory_order_relaxed);
    return n;
  }

  void set_tracing(bool on) {
    for (auto& s : subs_) s->tracing.store(on);
  }

  /// Publish one event now (its scheduled time is its send time).
  void send_now() {
    std::vector<uint64_t> one{0};
    run_phase(one, 1e-3, 1e18);
  }

  /// Drive one open-loop phase from `offs` (ns offsets from phase start).
  /// Events coalesce into one write when several are due at once; a
  /// backlog over `abort_lag` events ends the phase early.
  PhaseResult run_phase(const std::vector<uint64_t>& offs, double duration_s, double abort_lag) {
    PhaseResult r;
    r.first = next_k;
    const double duration_ns = duration_s * 1e9;
    const uint64_t t0 = now_ns() + 500'000;
    double mid_sum = 0, mid_n = 0, end_sum = 0, end_n = 0;
    size_t i = 0;
    while (i < offs.size() && next_k < log.capacity) {
      pub_blink_->wait_until(t0 + offs[i]);
      const uint64_t now = now_ns();
      const uint64_t batch_first = next_k;
      size_t j = i;
      while (j < offs.size() && t0 + offs[j] <= now && j - i < kMaxBatch && next_k < log.capacity) {
        const ByteBuffer& frame = w_.frame(next_k);
        log.sched[next_k] = t0 + offs[j];
        pub_blink_->send(frame.data(), frame.size());
        ++next_k;
        ++j;
      }
      // The batch is handed to the connection: that ends its lateness.
      const uint64_t t = now_ns();
      for (uint64_t k = batch_first; k < next_k; ++k) log.sent[k] = t;
      pub_blink_->try_flush();
      i = j;

      const double lag = static_cast<double>(next_k - min_delivered());
      const double frac = static_cast<double>(t - t0) / duration_ns;
      if (frac >= 0.4 && frac < 0.6) {
        mid_sum += lag;
        mid_n += 1;
      } else if (frac >= 0.8) {
        end_sum += lag;
        end_n += 1;
      }
      if (lag > abort_lag) {
        r.aborted = true;
        break;
      }
    }
    pub_blink_->flush_all();
    if (i < offs.size() && !r.aborted) die("event log full: the run needs more events than were planned");
    r.count = next_k - r.first;
    r.lag_mid = mid_n > 0 ? mid_sum / mid_n : 0;
    r.lag_end = end_n > 0 ? end_sum / end_n : 0;
    if (r.count > 1) {
      const double span =
          static_cast<double>(log.sched[next_k - 1] - log.sched[r.first]) / 1e9;
      r.offered_eps = span > 0 ? static_cast<double>(r.count - 1) / span : 0;
    }
    return r;
  }

  /// Stop everything and add this session's deliveries to the tally.
  void finish(Tally& tally) {
    if (closed_) return;
    const bool drained = drain(10'000);
    StatMap st = stats();
    const uint64_t sinks = subs_.size();
    tally.attempted += next_k * sinks;
    if (!drained) std::fprintf(stderr, "perfbench: deliveries still missing at teardown\n");
    for (const auto& s : subs_) {
      const uint64_t got = s->delivered.load(std::memory_order_acquire);
      tally.fail(got < next_k ? next_k - got : 0, "missing deliveries on " + s->spec.label);
      tally.fail(s->mismatched.load(), "mismatched records on " + s->spec.label +
                                           " (first at event " + std::to_string(s->first_bad.load()) + ")");
      tally.fail(s->defaulted.load(), "defaulted/rejected records on " + s->spec.label);
    }
    auto stat = [&](const char* k) { return static_cast<uint64_t>(st[k]); };
    tally.fail(stat("reactor.send_drops"), "broker send drops");
    tally.fail(stat("reactor.backpressure_closes"), "broker backpressure closes");
    tally.fail(stat("rx.rejected") + stat("rx.defaulted"), "broker receiver rejections");
    tally.fail(stat("echo.fallbacks"), "broker fan-out fallbacks");
    // Conservation: every published event is one frame the broker took in.
    const uint64_t frames_in = stat("rx.messages");
    tally.fail(frames_in > next_k ? frames_in - next_k : next_k - frames_in,
               "broker frames in != events published");
    close();
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    rx_stop_.store(true);
    for (auto& t : rx_threads_) t.join();
    rx_threads_.clear();
    if (pub_link_) pub_link_->close();
    for (auto& s : subs_) s->link->close();
    if (stop_child(broker_, 10'000) != 0) std::fprintf(stderr, "perfbench: broker exited abnormally\n");
    stop_child(fmtsvc_, 10'000);
  }

  const std::vector<std::unique_ptr<Subscriber>>& subs() const { return subs_; }
  uint64_t started_ns() const { return started_ns_; }

  uint64_t next_k = 0;
  EventLog log;

 private:
  Workload& w_;
  uint64_t started_ns_ = 0;
  Child fmtsvc_;
  Child broker_;
  std::vector<std::unique_ptr<Subscriber>> subs_;
  std::unique_ptr<transport::TcpLink> pub_link_;
  std::unique_ptr<BatchLink> pub_blink_;
  std::unique_ptr<transport::MessagePort> pub_port_;
  std::string reply_;
  std::atomic<bool> rx_stop_{false};
  std::vector<std::thread> rx_threads_;
  bool closed_ = false;
};

/// Latency (scheduled send -> subscriber handler) of every delivery in
/// events [first, first+count), all sinks pooled, in microseconds.
std::vector<double> latencies_us(const Session& s, uint64_t first, uint64_t count) {
  std::vector<double> out;
  out.reserve(count * s.subs().size());
  for (uint64_t k = first; k < first + count; ++k) {
    for (size_t j = 0; j < s.subs().size(); ++j) {
      const uint64_t rx = s.log.rx[j][k];
      if (rx != 0) out.push_back(static_cast<double>(rx - s.log.sched[k]) / 1e3);
    }
  }
  return out;
}

std::vector<double> lateness_us(const Session& s, uint64_t first, uint64_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (uint64_t k = first; k < first + count; ++k) {
    out.push_back(static_cast<double>(s.log.sent[k] - s.log.sched[k]) / 1e3);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream o;
  o.precision(12);
  o << v;
  return o.str();
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted deliveries %" PRIu64 ", failed %" PRIu64 "\n", tally.attempted,
              tally.failed);
  for (const auto& n : tally.notes) std::printf("  FAILURE %s\n", n.c_str());
  std::ostringstream out;
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Capacity for a session: warm-up + nominal + every ladder step, with
/// headroom for Poisson variation.
uint64_t capacity_for(double events) { return static_cast<uint64_t>(events * 1.1) + 1024; }

/// Latency, in milliseconds, of every delivery of a revision's first event
/// among events [0, end): on revision-churn each fresh revision, elsewhere
/// the warm-up event, which reaches a freshly started broker.
std::vector<double> cold_latencies_ms(const Session& s, const Workload& w, uint64_t end) {
  std::vector<double> out;
  for (uint64_t k = 0; k < end; ++k) {
    if (w.churn() ? !w.fresh_revision(k) : k != 0) continue;
    for (double us : latencies_us(s, k, 1)) out.push_back(us / 1e3);
  }
  return out;
}

/// One set-up: spawn, connect, subscribe, and deliver the first event to
/// every sink. Records its duration.
std::unique_ptr<Session> set_up(const RunConfig& cfg, Workload& w, uint64_t cap,
                                const std::string& trace_out, std::vector<double>& setup_s) {
  auto s = std::make_unique<Session>(cfg, w, cap, trace_out);
  s->send_now();
  if (!s->drain(30'000)) die("warm-up event never delivered");
  setup_s.push_back(static_cast<double>(now_ns() - s->started_ns()) / 1e9);
  return s;
}

/// The rate ladder, one step at a time. A step passes when its p99 meets
/// the limit, its backlog does not grow, it has no failures and the
/// generator kept up (a step where it did not is invalid and fails). A
/// failed step runs again at the same rate, so that a preemption stall or
/// a second of host noise does not end the ladder; the ladder stops at the
/// first rate that fails kStepTries times in a row, and max_rate() is the
/// highest rate that passed before it. A lucky pass above a confirmed
/// failure never counts.
class Ladder {
 public:
  Ladder(const RunConfig& cfg, const Workload& w, double step_s)
      : seed_(cfg.seed), step_s_(step_s) {
    for (int i = 0; i < kLadderSteps; ++i) {
      rates_.push_back(w.ladder_start_eps() * std::pow(kLadderRatio, i));
    }
    std::printf("%-10s %10s %10s %10s %10s %10s %7s %8s\n", "step_eps", "offered", "p99_us",
                "late_p99", "lag_mid", "lag_end", "steal%", "verdict");
  }

  bool done() const { return stopped_ || next_ >= rates_.size(); }
  double max_rate() const { return max_rate_; }
  double planned_events() const {
    double n = 0;
    for (double r : rates_) n += kStepTries * r * step_s_;
    return n;
  }

  void step(Session& s) {
    const size_t i = next_;
    const uint64_t bad0 = s.mismatches();
    StealMeter steal;
    auto st = s.run_phase(poisson_schedule(seed_ * 7919 + 100 + attempts_++, rates_[i], step_s_),
                          step_s_, rates_[i] * 0.25 + 100);
    const bool drained = s.drain(10'000);
    const double steal_pct = steal.percent();
    const double p99 = quantile(latencies_us(s, st.first, st.count), 0.99);
    const double late99 = quantile(lateness_us(s, st.first, st.count), 0.99);
    const double slack = std::max(4.0, kMaxBacklogGrowth * rates_[i] * step_s_);
    const bool valid = late99 <= kLimitUs / 4;
    const bool passed = valid && drained && !st.aborted && p99 < kLimitUs &&
                        st.lag_end <= st.lag_mid + slack && s.mismatches() == bad0;
    std::printf("%-10.0f %10.1f %10.1f %10.1f %10.1f %10.1f %7.2f %8s\n", rates_[i], st.offered_eps,
                p99, late99, st.lag_mid, st.lag_end, steal_pct,
                !valid ? "invalid" : passed ? "pass" : "fail");
    if (passed) {
      max_rate_ = std::max(max_rate_, st.offered_eps);
      fails_ = 0;
      ++next_;
    } else if (++fails_ == kStepTries) {
      stopped_ = true;
    }
  }

 private:
  uint64_t seed_;
  double step_s_;
  std::vector<double> rates_;
  size_t next_ = 0;
  uint64_t attempts_ = 0;
  int fails_ = 0;  // failed tries in a row at the current rate
  bool stopped_ = false;
  double max_rate_ = 0;
};

int run_e2e(const RunConfig& cfg, Workload& w) {
  // The nominal phase runs as chunks interleaved with the ladder's steps,
  // and set-ups happen at both ends of the run: every metric is a median
  // over samples spread across the whole run, so a burst of host noise
  // lasting a few seconds moves none of them.
  const bool ladder_on = !cfg.self_test;
  const double nominal_eps = cfg.self_test ? kSelfTestEps : w.nominal_eps();
  const double nominal_s = ladder_on ? cfg.seconds * 0.45 : cfg.seconds;
  const double chunk_s = nominal_s / kChunks;
  const double step_s = cfg.seconds * 0.5 * 0.8 / kLadderSteps;
  Ladder ladder(cfg, w, step_s);
  const double planned =
      1 + nominal_eps * chunk_s * kChunks + (ladder_on ? ladder.planned_events() : 0);
  const uint64_t cap = std::min(capacity_for(planned), w.max_events());
  w.prepare(cap);

  Tally tally;
  StealMeter steal;
  std::vector<double> setup_s;
  // Only the last set-up before the measurement keeps its session; the
  // others publish their warm-up event alone.
  const uint64_t warm_up_cap = capacity_for(1);
  const int setups_before = (cfg.setups + 1) / 2;
  std::unique_ptr<Session> s;
  for (int i = 0; i < setups_before; ++i) {
    if (s) s->finish(tally);
    s = set_up(cfg, w, i + 1 == setups_before ? cap : warm_up_cap, "", setup_s);
  }

  std::vector<double> chunk_p50, chunk_cpu, chunk_steal;
  std::vector<double> lat;
  double rss_mb = 0;
  double events = 0;
  uint64_t bytes = 0;
  int chunks_run = 0;
  while (chunks_run < kChunks || (ladder_on && !ladder.done())) {
    if (chunks_run < kChunks) {
      StealMeter chunk_steal_meter;
      StatMap before = s->stats();
      const uint64_t bytes0 = s->wire_bytes();
      auto ph = s->run_phase(poisson_schedule(cfg.seed * 7919 + 1 + chunks_run, nominal_eps, chunk_s),
                             chunk_s, nominal_eps * 2.0 + 1000);
      if (!s->drain(20'000)) std::fprintf(stderr, "perfbench: nominal chunk did not drain\n");
      StatMap after = s->stats();
      const double steal_pct = chunk_steal_meter.percent();
      const double n = after["handled"] - before["handled"];
      events += n;
      bytes += s->wire_bytes() - bytes0;
      if (chunks_run++ == 0) rss_mb = after["maxrss_kb"] / 1024.0;
      chunk_steal.push_back(steal_pct);
      auto chunk_lat = latencies_us(*s, ph.first, ph.count);
      chunk_p50.push_back(quantile(chunk_lat, 0.5));
      chunk_cpu.push_back(ratio(after["cpu_us"] - before["cpu_us"], n));
      lat.insert(lat.end(), chunk_lat.begin(), chunk_lat.end());
    }
    if (ladder_on && !ladder.done()) ladder.step(*s);
  }
  s->finish(tally);
  s.reset();
  for (int i = setups_before; i < cfg.setups; ++i) {
    s = set_up(cfg, w, warm_up_cap, "", setup_s);
    s->finish(tally);
  }

  std::printf("nominal: %.0f events in %d chunks, %zu latency samples\n", events, chunks_run,
              lat.size());
  std::printf("host steal during the run: %.2f%% of CPU time\n", steal.percent());
  std::printf("chunk steal %%:");
  for (double v : chunk_steal) std::printf(" %.1f", v);
  std::printf("\nchunk p50 us:");
  for (double v : chunk_p50) std::printf(" %.0f", v);
  std::printf("\n");
  std::printf("nominal latency us: p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f max %.1f\n",
              quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 0.999),
              quantile(lat, 1.0));
  std::vector<Metric> m;
  m.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
  m.push_back({"max_rate_eps", ladder.max_rate(), "1/s"});
  m.push_back({"broker_cpu_us_evt", quantile(chunk_cpu, 0.5), "us"});
  m.push_back({"broker_rss_mb", rss_mb, "MB"});
  m.push_back({"wire_bytes_evt", ratio(static_cast<double>(bytes), events), "B"});
  print_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

// --- traced run (--trace 1) ----------------------------------------------------

std::vector<BrokerSpan> read_spans(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<BrokerSpan> spans;
  BrokerSpan sp;
  while (in.read(reinterpret_cast<char*>(&sp), sizeof sp)) spans.push_back(sp);
  return spans;
}

int run_traced(const RunConfig& cfg, Workload& w) {
  const double nominal_eps = cfg.self_test ? kSelfTestEps : w.nominal_eps();
  const double phase_s = cfg.seconds * 0.45;
  const uint64_t cap = capacity_for(1 + 2 * nominal_eps * phase_s);
  w.prepare(cap);
  const std::string trace_out = cfg.scratch_dir + "/broker-spans-" + std::to_string(getpid()) + ".bin";

  Tally tally;
  StealMeter steal;
  std::vector<double> setup_s;
  auto s = set_up(cfg, w, cap, trace_out, setup_s);

  // Untraced, then traced, at the nominal rate: the CPU difference is the
  // tracing overhead.
  StatMap u0 = s->stats();
  auto plain = s->run_phase(poisson_schedule(cfg.seed * 7919 + 1, nominal_eps, phase_s), phase_s,
                            nominal_eps * 2.0 + 1000);
  s->drain(20'000);
  StatMap u1 = s->stats();

  s->set_tracing(true);
  s->control("TRACE ON " + std::to_string(capacity_for(nominal_eps * phase_s)));
  auto traced = s->run_phase(poisson_schedule(cfg.seed * 7919 + 2, nominal_eps, phase_s), phase_s,
                             nominal_eps * 2.0 + 1000);
  s->drain(20'000);
  StatMap t1 = s->stats();
  s->control("TRACE OFF");
  s->set_tracing(false);
  const StatMap& t0 = u1;
  s->finish(tally);  // the broker exits and writes its spans

  std::vector<BrokerSpan> spans = read_spans(trace_out);
  std::remove(trace_out.c_str());

  // Each delivery's six segments (generator lateness, ingress wait, broker
  // frame, publish up to this sink's send_shared call, egress wait,
  // subscriber rx) are consecutive differences of its timestamps, so they
  // sum to its latency by construction. What can go wrong is the join: a
  // span matched to the wrong generator event, or stamps out of causal
  // order, show up as a negative segment, and any such delivery fails the
  // run. Egress starts at the send_shared call, not its return: on the loop
  // thread the reactor writes to the socket inside send_shared, so a
  // subscriber can read the frame before the call returns.
  const size_t sinks = s->subs().size();
  std::vector<double> late, ingress, frame, publish_self, enqueue, egress, subrx;
  uint64_t joined = 0;
  uint64_t unjoined = 0;
  uint64_t out_of_order = 0;
  const EventLog& log = s->log;
  auto seg_ns = [](uint64_t later, uint64_t earlier) {
    return static_cast<double>(static_cast<int64_t>(later - earlier));
  };
  for (const BrokerSpan& sp : spans) {
    const uint64_t k = sp.index;
    if (k < traced.first || k >= traced.first + traced.count) continue;
    const double seg_late = seg_ns(log.sent[k], log.sched[k]);
    const double seg_ingress = seg_ns(sp.ondata, log.sent[k]);
    const double seg_frame = seg_ns(sp.handler, sp.ondata);
    const bool broker_ordered = seg_late >= 0 && seg_ingress >= 0 && seg_frame >= 0;
    late.push_back(seg_late / 1e3);
    ingress.push_back(seg_ingress / 1e3);
    frame.push_back(seg_frame);
    double enq_total = 0;
    for (size_t j = 0; j < sinks; ++j) {
      enq_total += seg_ns(sp.enq_end[j], sp.enq_start[j]);
      enqueue.push_back(seg_ns(sp.enq_end[j], sp.enq_start[j]));
      const uint64_t on = log.ondata[j][k];
      const uint64_t rx = log.rx[j][k];
      if (on == 0 || rx == 0 || sp.enq_start[j] == 0) {
        ++unjoined;
        continue;
      }
      ++joined;
      const double seg_publish = seg_ns(sp.enq_start[j], sp.handler);
      const double seg_egress = seg_ns(on, sp.enq_start[j]);
      const double seg_rx = seg_ns(rx, on);
      if (!broker_ordered || seg_publish < 0 || seg_egress < 0 || seg_rx < 0) {
        if (++out_of_order <= 3) {
          std::fprintf(stderr,
                       "perfbench: event %" PRIu64 " sink %zu: negative segment (ns: late %.0f "
                       "ingress %.0f frame %.0f publish %.0f egress %.0f rx %.0f)\n",
                       k, j, seg_late, seg_ingress, seg_frame, seg_publish, seg_egress, seg_rx);
        }
      }
      egress.push_back(seg_egress / 1e3);
      subrx.push_back(seg_rx / 1e3);
    }
    publish_self.push_back((seg_ns(sp.pub_end, sp.handler) - enq_total) / 1e3);
  }
  const uint64_t expected_joins = traced.count * sinks;
  if (joined != expected_joins || unjoined != 0) {
    tally.fail(std::max<uint64_t>(1, expected_joins - std::min(expected_joins, joined)),
               "traced deliveries without a complete span");
  }
  tally.fail(out_of_order, "traced deliveries with a negative segment");

  auto d = [&](const char* k) { return t1.at(k) - t0.at(k); };
  const double events = d("handled");
  const double plain_events = u1.at("handled") - u0.at("handled");
  const double cpu_plain = ratio(u1.at("cpu_us") - u0.at("cpu_us"), plain_events);
  const double cpu_traced = ratio(d("cpu_us"), events);
  double revisions = 0;
  for (uint64_t k = traced.first; k < traced.first + traced.count; ++k) revisions += w.fresh_revision(k);
  revisions = std::max(1.0, revisions);
  const double decodes = d("pbio.convert_decodes") + d("pbio.zero_copy_decodes");

  std::vector<Metric> m;
  // Latencies from the untraced phase. Reported here, unbounded: on a
  // shared host they follow the host's wake-up latency and preemption
  // stalls more than the broker (see perfbench/README.md).
  const std::vector<double> plain_lat = latencies_us(*s, plain.first, plain.count);
  m.push_back({"lat_p50_us", quantile(plain_lat, 0.5), "us"});
  m.push_back({"lat_p99_us", quantile(plain_lat, 0.99), "us"});
  const std::vector<double> cold = cold_latencies_ms(*s, w, plain.first + plain.count);
  m.push_back({"cold_p50_ms", quantile(cold, 0.5), "ms"});
  m.push_back({"loadgen.late_p99_us", quantile(late, 0.99), "us"});
  m.push_back({"transport.ingress_wait_us_p50", quantile(ingress, 0.5), "us"});
  m.push_back({"transport.frames_per_dispatch",
               ratio(d("rx.messages"), hist_count(t0, t1, "morph_reactor_dispatch_ns")), "count"});
  // A wakeup is an event-loop iteration that did work (epoll returned
  // ready connections or posted tasks): morph_reactor_loop_ns's count.
  m.push_back({"transport.wakeups_per_kevt",
               ratio(hist_count(t0, t1, "morph_reactor_loop_ns"), events / 1000), "count"});
  m.push_back({"transport.enqueue_ns_p50", quantile(enqueue, 0.5), "ns"});
  m.push_back({"transport.egress_wait_us_p50", quantile(egress, 0.5), "us"});
  m.push_back({"transport.egress_wait_us_p99", quantile(egress, 0.99), "us"});
  m.push_back({"transport.outbox_peak_kb", t1.at("transport.outbox_peak") / 1024.0, "KiB"});
  m.push_back({"core.rx_frame_ns_p50", quantile(frame, 0.5), "ns"});
  m.push_back({"core.rx_cache_hit_ratio",
               ratio(d("rx.cache_hits"), d("rx.cache_hits") + d("rx.cache_misses")), "ratio"});
  m.push_back({"core.rx_build_ms_p50", hist_quantile(t0, t1, "morph_rx_decision_build_ns", 0.5) / 1e6, "ms"});
  m.push_back({"core.plan_builds_per_revision", d("plan.built") / revisions, "count"});
  m.push_back({"core.plan_cache_hit_ratio", ratio(d("plan.cache_hits"), d("plan.requested")), "ratio"});
  m.push_back({"ecode.compile_us_p50", hist_quantile(t0, t1, "morph_ecode_compile_ns", 0.5) / 1e3, "us"});
  m.push_back({"ecode.jit_us_p50", hist_quantile(t0, t1, "morph_ecode_jit_ns", 0.5) / 1e3, "us"});
  m.push_back({"ecode.verify_us_p50", hist_quantile(t0, t1, "morph_ecode_verify_ns", 0.5) / 1e3, "us"});
  m.push_back({"ecode.fusion_bailouts", t1.at("rx.fusion_bailouts") + t1.at("plan.fusion_bailouts"), "count"});
  m.push_back({"fmtsvc.resolve_us_p50", hist_quantile(t0, t1, "resolve_ns", 0.5) / 1e3, "us"});
  m.push_back({"fmtsvc.resolves_per_revision", d("fmtsvc.rpcs") / revisions, "count"});
  m.push_back({"echo.publish_us_p50", quantile(publish_self, 0.5), "us"});
  m.push_back({"echo.morphs_per_evt", ratio(d("echo.morphs"), events), "count"});
  m.push_back({"echo.morph_reuses_per_evt", ratio(d("echo.morph_reuses"), events), "count"});
  m.push_back({"echo.encodes_per_evt", ratio(d("echo.encodes"), events), "count"});
  m.push_back({"echo.pbuf_encodes_per_evt", ratio(d("echo.pbuf_encodes"), events), "count"});
  m.push_back({"echo.fallbacks_per_evt", ratio(d("echo.fallbacks"), events), "count"});
  m.push_back({"pbio.encodes_per_evt", ratio(d("pbio.encodes"), events), "count"});
  m.push_back({"pbio.decodes_per_evt", ratio(decodes, events), "count"});
  m.push_back({"pbio.zero_copy_share", ratio(d("pbio.zero_copy_decodes"), decodes), "ratio"});
  m.push_back({"sub.rx_us_p50", quantile(subrx, 0.5), "us"});
  // Over the untraced phase: the traced one grows the span buffer.
  m.push_back({"broker.rss_growth_kb_per_kevt",
               ratio(u1.at("maxrss_kb") - u0.at("maxrss_kb"), plain_events / 1000), "KiB"});
  m.push_back({"host.steal_pct", steal.percent(), "%"});
  m.push_back({"obs.trace_overhead_pct", ratio(cpu_traced - cpu_plain, cpu_plain) * 100.0, "%"});
  std::printf("traced: %" PRIu64 " events (%zu spans, %" PRIu64 " joined deliveries, %" PRIu64
              " with a negative segment), untraced: %" PRIu64
              " events; cpu/evt %.3f us traced vs %.3f us untraced\n",
              traced.count, spans.size(), joined, out_of_order, plain.count, cpu_traced, cpu_plain);
  print_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int run_loadgen(const RunConfig& cfg) {
  // The publisher (this thread) sleeps between events: without this the
  // kernel's default 50 us timer slack shows up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  place_thread(Placement::kPublisher);
  Workload w(cfg.workload, cfg.seed);
  return cfg.trace ? run_traced(cfg, w) : run_e2e(cfg, w);
}

}  // namespace perfbench
