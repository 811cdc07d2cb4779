// The benchmark's broker and format-service processes.
//
// The broker is assembled from the library's public pieces, like
// morph-trace's _broker role but on the reactor: one ReactorServer loop,
// a MessagePort per accepted AsyncTcpLink, a core::Receiver that resolves
// unknown formats through a fmtsvc::FormatResolver, and FanoutRegistry +
// FanoutPlanner + GroupPublisher for delivery. It knows nothing about the
// workload: it learns the reader format's fingerprint from its arguments
// and everything else from the format service and its peers.
//
// Layer timing is bench-local. Three decorators sit on the library's
// public seams — BenchLink (a transport::Link around each AsyncTcpLink:
// ingress on_data and egress send_shared), TimedSource (a
// core::FormatSource around the resolver), and the receiver handler that
// calls GroupPublisher::publish — and record one span per event while the
// load generator has tracing switched on. Spans stay in memory and are
// written to the --trace-out file when the broker exits.
//
// Control frames on any connection (text, one command per frame):
//   PUB                  this connection is the publisher
//   SUB <fp-hex> <enc>   subscribe this connection (enc: pbio|pbuf);
//                        answered with SUBOK <slot>
//   STATS                answered with "STATS\n" + a StatMap
//   TRACE ON <n>         start recording spans (reserve n)
//   TRACE OFF            stop recording spans
#include "broker.hpp"

#include <sys/resource.h>

#include <cinttypes>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/fanout.hpp"
#include "core/receiver.hpp"
#include "echo/fanout.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "fmtsvc/store.hpp"
#include "transport/port.hpp"
#include "transport/reactor.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace morph;

namespace {

struct BrokerState;

/// Decorator over the reactor's link: stamps the ingress callback, times
/// each egress send_shared, and hosts the self-test's fault injection.
class BenchLink final : public transport::Link {
 public:
  BenchLink(transport::AsyncTcpLink& inner, BrokerState& st);
  BenchLink(const BenchLink&) = delete;
  BenchLink& operator=(const BenchLink&) = delete;

  void send(const void* data, size_t size) override { inner_.send(data, size); }
  void send_shared(transport::SharedPayload payload) override;
  bool connected() const override { return inner_.connected(); }

  int slot = -1;  // subscriber slot, -1 for the publisher

 private:
  transport::AsyncTcpLink& inner_;
  BrokerState& st_;
};

/// Decorator over the resolver: times every resolve and teaches the fan-out
/// planner whatever the format service returned, so the planner can build
/// chains to subscriber revisions.
class TimedSource final : public core::FormatSource {
 public:
  TimedSource(fmtsvc::FormatResolver& inner, core::FanoutPlanner& planner)
      : inner_(inner), planner_(planner) {}

  std::optional<core::ResolvedFormat> resolve(uint64_t fingerprint) override {
    const uint64_t t0 = now_ns();
    auto r = inner_.resolve(fingerprint);
    resolve_ns.record(now_ns() - t0);
    if (r) {
      planner_.learn_format(r->format);
      for (const auto& spec : r->transforms) planner_.learn_transform(spec);
    }
    return r;
  }

  obs::Histogram resolve_ns;

 private:
  fmtsvc::FormatResolver& inner_;
  core::FanoutPlanner& planner_;
};

struct Conn {
  Conn(transport::AsyncTcpLink& l, BrokerState& st, core::Receiver* rx)
      : link(l, st), port(link, rx) {}
  BenchLink link;
  transport::MessagePort port;
  echo::SinkId id = 0;
};

struct BrokerState {
  BrokerOptions opt;
  std::unique_ptr<fmtsvc::FormatResolver> resolver;
  std::unique_ptr<core::FanoutPlanner> planner;
  std::unique_ptr<TimedSource> source;
  std::unique_ptr<core::Receiver> rx;
  echo::FanoutRegistry registry;
  std::unique_ptr<echo::GroupPublisher> publisher;
  std::unordered_map<echo::SinkId, transport::MessagePort*> sinks;
  int next_slot = 0;
  transport::ReactorServer* server = nullptr;

  // Loop-thread state.
  uint64_t handled = 0;  // publisher events that reached the handler
  echo::PublishCounts totals;
  uint64_t cur_ondata_ns = 0;
  bool tracing = false;
  std::vector<BrokerSpan> spans;
  BrokerSpan* cur_span = nullptr;
  size_t outbox_peak = 0;

  const std::string key = echo::FanoutRegistry::key("bench", "events");
};

BenchLink::BenchLink(transport::AsyncTcpLink& inner, BrokerState& st) : inner_(inner), st_(st) {
  inner_.set_on_data([this](const uint8_t* data, size_t size) {
    const uint64_t t = st_.tracing || st_.opt.delay_ns > 0 ? now_ns() : 0;
    st_.cur_ondata_ns = t;
    // Self-test fault: a fixed busy-wait inside the ingress decorator,
    // which the trace must charge to the broker-frame segment alone.
    if (st_.opt.delay_ns > 0 && slot < 0) spin_until(t + st_.opt.delay_ns);
    if (on_data_) on_data_(data, size);
  });
}

void BenchLink::send_shared(transport::SharedPayload payload) {
  const bool traced = st_.tracing && st_.cur_span != nullptr && slot >= 0 && slot < kMaxSinks;
  const uint64_t t0 = traced ? now_ns() : 0;
  if (slot == 0) {
    // Self-test faults, on the first subscriber only, keyed by the
    // publisher event being delivered (1-based so the warm-up survives).
    const auto k = static_cast<int64_t>(st_.handled);
    if (k == st_.opt.drop_at) return;
    if (k == st_.opt.corrupt_at) {
      auto copy = std::make_shared<ByteBuffer>(*payload);
      copy->data()[copy->size() - 1] ^= 0x5A;
      payload = std::move(copy);
    }
  }
  inner_.send_shared(std::move(payload));
  if (traced) {
    st_.cur_span->enq_start[slot] = t0;
    st_.cur_span->enq_end[slot] = now_ns();
    st_.outbox_peak = std::max(st_.outbox_peak, inner_.outbox_bytes());
  }
}

void add_rusage(StatMap& m) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  m["cpu_us"] = us(ru.ru_utime) + us(ru.ru_stime);
  // Peak RSS of this image. Not ru_maxrss: that keeps the high-water mark
  // of the address space replaced by exec, i.e. of the load generator.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) m["maxrss_kb"] = std::strtod(line.c_str() + 6, nullptr);
  }
}

StatMap collect_stats(BrokerState& st) {
  StatMap m;
  add_rusage(m);
  m["handled"] = static_cast<double>(st.handled);

  auto rs = st.server->stats();
  m["reactor.send_drops"] = static_cast<double>(rs.send_drops);
  m["reactor.backpressure_closes"] = static_cast<double>(rs.backpressure_closes);

  auto rx = st.rx->stats();
  m["rx.messages"] = static_cast<double>(rx.messages);
  m["rx.cache_hits"] = static_cast<double>(rx.cache_hits);
  m["rx.cache_misses"] = static_cast<double>(rx.cache_misses);
  m["rx.rejected"] = static_cast<double>(rx.rejected);
  m["rx.defaulted"] = static_cast<double>(rx.defaulted);
  m["rx.fusion_bailouts"] = static_cast<double>(rx.fusion_bailouts);

  auto ps = st.planner->stats();
  m["plan.requested"] = static_cast<double>(ps.plans_requested);
  m["plan.cache_hits"] = static_cast<double>(ps.cache_hits);
  m["plan.built"] = static_cast<double>(ps.plans_built);
  m["plan.fusion_bailouts"] = static_cast<double>(ps.fusion_bailouts);

  m["fmtsvc.rpcs"] = static_cast<double>(st.resolver->stats().rpcs);
  {
    auto h = st.source->resolve_ns.snapshot();
    for (const auto& [upper, count] : h.buckets) {
      m["h:resolve_ns:" + std::to_string(upper)] = static_cast<double>(count);
    }
  }

  m["echo.morphs"] = static_cast<double>(st.totals.morphs);
  m["echo.morph_reuses"] = static_cast<double>(st.totals.morph_reuses);
  m["echo.encodes"] = static_cast<double>(st.totals.encodes);
  m["echo.pbuf_encodes"] = static_cast<double>(st.totals.pbuf_encodes);
  m["echo.fallbacks"] = static_cast<double>(st.totals.fallbacks);
  m["transport.outbox_peak"] = static_cast<double>(st.outbox_peak);

  auto snap = obs::metrics().snapshot();
  m["pbio.encodes"] = sum_counters(snap, "morph_pbio_encoded_messages_total");
  m["pbio.convert_decodes"] = sum_counters(snap, "morph_pbio_convert_decodes_total");
  m["pbio.zero_copy_decodes"] = sum_counters(snap, "morph_pbio_zero_copy_decodes_total");
  for (const char* h : {"morph_reactor_dispatch_ns", "morph_reactor_loop_ns",
                        "morph_rx_decision_build_ns",
                        "morph_ecode_compile_ns", "morph_ecode_jit_ns", "morph_ecode_verify_ns"}) {
    add_histograms(snap, h, m);
  }
  return m;
}

void on_control(BrokerState& st, Conn& conn, const uint8_t* data, size_t size) {
  std::string cmd(reinterpret_cast<const char*>(data), size);
  auto reply = [&](const std::string& text) { conn.port.send_control(text.data(), text.size()); };
  if (cmd == "PUB") return;
  if (cmd.rfind("SUB ", 0) == 0) {
    char enc[16] = {0};
    uint64_t fp = 0;
    if (std::sscanf(cmd.c_str() + 4, "%" SCNx64 " %15s", &fp, enc) != 2) return;
    // The subscriber's revision comes from the format service like any
    // other format; the planner learns it through TimedSource.
    if (!st.source->resolve(fp)) {
      reply("SUBFAIL");
      return;
    }
    int slot = st.next_slot++;
    conn.link.slot = slot;
    conn.id = static_cast<echo::SinkId>(slot + 1);
    st.sinks[conn.id] = &conn.port;
    st.registry.subscribe(st.key, conn.id, fp,
                          std::strcmp(enc, "pbuf") == 0 ? echo::SinkEncoding::kPbuf
                                                        : echo::SinkEncoding::kPbio);
    reply("SUBOK " + std::to_string(slot));
    return;
  }
  if (cmd == "STATS") {
    reply("STATS\n" + encode_stats(collect_stats(st)));
    return;
  }
  if (cmd.rfind("TRACE ON", 0) == 0) {
    st.spans.reserve(std::strtoull(cmd.c_str() + 8, nullptr, 10));
    st.outbox_peak = 0;
    st.tracing = true;
    return;
  }
  if (cmd == "TRACE OFF") {
    st.tracing = false;
    st.cur_span = nullptr;
    return;
  }
}

}  // namespace

int broker_main(const BrokerOptions& opt) {
  place_thread(Placement::kBroker);  // before any thread starts: they inherit it
  BrokerState st;
  st.opt = opt;

  fmtsvc::ResolverOptions ro;
  ro.port = opt.fmtsvc_port;
  ro.lint = core::LintPolicy::kOff;
  st.resolver = std::make_unique<fmtsvc::FormatResolver>(ro);

  core::FanoutPlannerOptions po;
  po.verify = opt.enforce_verify ? core::VerifyPolicy::kEnforce : core::VerifyPolicy::kOff;
  st.planner = std::make_unique<core::FanoutPlanner>(po);
  st.source = std::make_unique<TimedSource>(*st.resolver, *st.planner);
  st.publisher = std::make_unique<echo::GroupPublisher>(*st.planner);

  core::ReceiverOptions rxo;
  rxo.format_source = st.source.get();
  rxo.resolve = core::ResolvePolicy::kFetch;
  rxo.verify = po.verify;
  st.rx = std::make_unique<core::Receiver>(rxo);

  auto reader = st.source->resolve(opt.reader_fp);
  if (!reader) die("broker: reader format not in the format service");
  st.rx->register_handler(reader->format, [&st](const core::Delivery& d) {
    const uint64_t k = st.handled++;
    BrokerSpan* span = nullptr;
    if (st.tracing) {
      span = &st.spans.emplace_back();
      // Self-test fault: a shifted label joins the span to the wrong
      // generator event, which the trace check must catch.
      span->index = k + static_cast<uint64_t>(st.opt.span_shift);
      span->ondata = st.cur_ondata_ns;
      span->handler = now_ns();
    }
    st.cur_span = span;
    auto snap = st.registry.snapshot(st.key);
    auto counts = st.publisher->publish(
        d.format, d.record, *snap,
        [&st](echo::SinkId id) -> transport::MessagePort* {
          auto it = st.sinks.find(id);
          return it == st.sinks.end() ? nullptr : it->second;
        },
        [](echo::SinkId) {});
    st.totals.morphs += counts.morphs;
    st.totals.morph_reuses += counts.morph_reuses;
    st.totals.encodes += counts.encodes;
    st.totals.pbuf_encodes += counts.pbuf_encodes;
    st.totals.fallbacks += counts.fallbacks;
    if (span != nullptr) span->pub_end = now_ns();
    st.cur_span = nullptr;
  });

  transport::TcpListener listener(0);
  transport::ReactorOptions reo;
  reo.loops = 1;
  // Generous: an overloaded ladder step must show up as latency and lag,
  // not as a backpressure close.
  reo.max_outbox_bytes = 256u << 20;
  core::Receiver* rx = st.rx.get();
  auto server = std::make_unique<transport::ReactorServer>(
      listener, reo,
      [&st, rx](transport::AsyncTcpLink& link) {
        auto conn = std::make_shared<Conn>(link, st, rx);
        Conn* c = conn.get();
        c->port.set_on_control(
            [&st, c](const uint8_t* data, size_t size) { on_control(st, *c, data, size); });
        link.set_user(std::move(conn));
      },
      [&st](transport::AsyncTcpLink& link) {
        if (Conn* c = link.user<Conn>(); c != nullptr && c->id != 0) {
          st.registry.unsubscribe_all(c->id);
          st.sinks.erase(c->id);
        }
      });
  st.server = server.get();
  std::printf("PORT %u\n", listener.port());
  std::fflush(stdout);

  wait_for_parent_eof();
  server.reset();  // joins the loop: spans are final from here on

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out, std::ios::binary);
    out.write(reinterpret_cast<const char*>(st.spans.data()),
              static_cast<std::streamsize>(st.spans.size() * sizeof(BrokerSpan)));
    if (!out) die("broker: cannot write " + opt.trace_out);
  }
  return 0;
}

int fmtsvc_main(const std::string& workload, uint64_t seed) {
  place_thread(Placement::kSubscribers);  // off the publisher's and broker's CPUs
  Workload w(workload, seed);
  fmtsvc::FormatStore store;
  for (const auto& entry : w.catalog()) store.put(entry);
  fmtsvc::ServiceOptions so;
  so.lint = core::LintPolicy::kOff;
  so.transport = transport::TransportMode::kReactor;
  fmtsvc::FormatService service(store, so);
  std::printf("PORT %u\n", service.port());
  std::fflush(stdout);
  wait_for_parent_eof();
  return 0;
}

}  // namespace perfbench
