#include "echo/fanout.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbuf/schema.hpp"

namespace morph::echo {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Process-wide fan-out metrics, resolved once. echo_fanout_events_total
/// counts publishes that reached at least one grouped sink; the gauges hold
/// the most recent event's shape (morphs per event == number of distinct
/// non-identity formats, the O(formats)-not-O(subscribers) invariant).
struct FanoutMetrics {
  obs::Counter& events = obs::metrics().counter("echo_fanout_events_total");
  obs::Counter& groups = obs::metrics().counter("echo_fanout_groups_total");
  obs::Counter& morphs = obs::metrics().counter("echo_fanout_morphs_total");
  obs::Counter& morph_reuses = obs::metrics().counter("echo_fanout_morph_reuses_total");
  obs::Counter& encodes = obs::metrics().counter("echo_fanout_encodes_total");
  obs::Counter& pbuf_encodes = obs::metrics().counter("echo_fanout_pbuf_encodes_total");
  obs::Counter& deliveries = obs::metrics().counter("echo_fanout_deliveries_total");
  obs::Counter& fallbacks = obs::metrics().counter("echo_fanout_fallback_total");
  obs::Gauge& event_morphs = obs::metrics().gauge("echo_fanout_event_morphs");
  obs::Gauge& event_groups = obs::metrics().gauge("echo_fanout_event_groups");
  obs::Histogram& group_sinks = obs::metrics().histogram("echo_fanout_group_sinks");
  obs::Gauge& reg_groups = obs::metrics().gauge("echo_fanout_groups");
  obs::Gauge& reg_subscribers = obs::metrics().gauge("echo_fanout_subscribers");
};

FanoutMetrics& fm() {
  static FanoutMetrics* m = new FanoutMetrics();  // leaked: outlives all users
  return *m;
}
}  // namespace

// ---------------------------------------------------------------------------
// FanoutRegistry
// ---------------------------------------------------------------------------

void FanoutRegistry::subscribe(const std::string& key, SinkId sink, uint64_t target_fp,
                               SinkEncoding encoding) {
  Shard& shard = shard_for(key);
  WriterLock lock(shard.mutex);
  Entry& entry = shard.entries[key];
  auto it = entry.members.find(sink);
  if (it != entry.members.end() && it->second.target_fp == target_fp &&
      it->second.encoding == encoding) {
    return;  // no churn
  }
  entry.members[sink] = Sub{target_fp, encoding};
  entry.snap = nullptr;  // invalidate; rebuilt on next snapshot()
  subscribes_.fetch_add(1, kRelaxed);
}

void FanoutRegistry::unsubscribe(const std::string& key, SinkId sink) {
  Shard& shard = shard_for(key);
  WriterLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  if (it->second.members.erase(sink) == 0) return;
  it->second.snap = nullptr;
  unsubscribes_.fetch_add(1, kRelaxed);
}

void FanoutRegistry::unsubscribe_all(SinkId sink) {
  for (auto& shard : shards_) {
    WriterLock lock(shard.mutex);
    for (auto& [key, entry] : shard.entries) {
      if (entry.members.erase(sink) != 0) {
        entry.snap = nullptr;
        unsubscribes_.fetch_add(1, kRelaxed);
      }
    }
  }
}

std::shared_ptr<const GroupSnapshot> FanoutRegistry::build_snapshot(const Entry& entry) {
  auto snap = std::make_shared<GroupSnapshot>();
  // members is ordered by SinkId; bucket by (fingerprint, encoding), then
  // sort groups. Same-format groups land adjacent regardless of encoding,
  // which is what lets the publisher reuse one morph across both.
  std::map<std::pair<uint64_t, SinkEncoding>, std::vector<SinkId>> by_fp;
  for (const auto& [sink, sub] : entry.members) {
    by_fp[{sub.target_fp, sub.encoding}].push_back(sink);
  }
  snap->groups.reserve(by_fp.size());
  for (auto& [key, sinks] : by_fp) {
    snap->total_sinks += sinks.size();
    snap->groups.push_back(FanoutGroup{key.first, key.second, std::move(sinks)});
  }
  return snap;
}

std::shared_ptr<const GroupSnapshot> FanoutRegistry::snapshot(const std::string& key) const {
  static const auto kEmpty = std::make_shared<const GroupSnapshot>();
  Shard& shard = shard_for(key);
  {
    ReaderLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return kEmpty;
    if (it->second.snap != nullptr) {
      snapshot_hits_.fetch_add(1, kRelaxed);
      return it->second.snap;
    }
  }
  WriterLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return kEmpty;
  if (it->second.snap == nullptr) {
    it->second.snap = build_snapshot(it->second);
    rebuilds_.fetch_add(1, kRelaxed);
    // Gauges track the most recently rebuilt key — a live view of the
    // grouping shape under churn, not a sum across keys.
    fm().reg_groups.set(static_cast<double>(it->second.snap->groups.size()));
    fm().reg_subscribers.set(static_cast<double>(it->second.snap->total_sinks));
  } else {
    snapshot_hits_.fetch_add(1, kRelaxed);
  }
  return it->second.snap;
}

FanoutRegistryStats FanoutRegistry::stats() const {
  FanoutRegistryStats s;
  s.subscribes = subscribes_.load(kRelaxed);
  s.unsubscribes = unsubscribes_.load(kRelaxed);
  s.rebuilds = rebuilds_.load(kRelaxed);
  s.snapshot_hits = snapshot_hits_.load(kRelaxed);
  return s;
}

// ---------------------------------------------------------------------------
// GroupPublisher
// ---------------------------------------------------------------------------

PublishCounts GroupPublisher::publish(const pbio::FormatPtr& fmt, const void* record,
                                      const GroupSnapshot& snapshot, const ResolvePort& resolve,
                                      const Fallback& fallback) {
  PublishCounts out;
  if (snapshot.groups.empty()) return out;

  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  if (obs::tracing_enabled()) {
    trace_id = obs::current_trace().trace_id;
    if (trace_id == 0) {
      trace_id = obs::new_trace_id();
    } else {
      // Inherit the caller's active span: when the broker republishes from
      // inside a delivery, fan-out spans parent under port.deliver.
      parent_span = obs::current_trace().span_id;
    }
  }
  obs::TraceScope trace_scope(obs::TraceContext{trace_id, parent_span});

  // The single wire encode of the publisher's record: morph input for every
  // group, and the payload itself for the identity group.
  auto enc = encoders_.find(fmt->fingerprint());
  if (enc == encoders_.end()) {
    enc = encoders_.emplace(fmt->fingerprint(), std::make_unique<pbio::Encoder>(fmt)).first;
  }
  wire_.clear();
  enc->second->encode(record, wire_);
  arena_.reset();

  // Morph cache across adjacent groups: snapshots sort groups by
  // (fingerprint, encoding), so "protobuf sinks of F" directly follows
  // "native sinks of F" and reuses its morphed record (morph once per
  // format, encode once per group).
  uint64_t morphed_fp = 0;
  void* morphed_cached = nullptr;

  for (const auto& group : snapshot.groups) {
    auto plan = planner_.plan(fmt, group.target_fp);
    if (!plan->reachable()) {
      for (SinkId sink : group.sinks) fallback(sink);
      out.fallbacks += group.sinks.size();
      continue;
    }
    const pbio::FormatPtr& send_fmt = plan->identity() ? fmt : plan->target();

    pbuf::EncodePlan* pbuf_plan = nullptr;
    if (group.encoding == SinkEncoding::kPbuf) {
      pbuf_plan = pbuf_encoder_for(send_fmt);
      if (pbuf_plan == nullptr) {
        // Sinks asked for protobuf but the target cannot express it (no
        // field numbers): keep the legacy contract instead of going dark.
        for (SinkId sink : group.sinks) fallback(sink);
        out.fallbacks += group.sinks.size();
        continue;
      }
    }

    // Resolve ports before morphing: a group whose sinks all fell back
    // must cost no morph/encode, keeping morphs <= encodes <= deliveries
    // exact (the morph-stat conservation check).
    ports_.clear();
    for (SinkId sink : group.sinks) {
      transport::MessagePort* port = resolve(sink);
      if (port == nullptr) {
        fallback(sink);
        ++out.fallbacks;
      } else {
        ports_.push_back(port);
      }
    }
    if (ports_.empty()) continue;

    void* morphed = nullptr;
    if (!plan->identity()) {
      if (morphed_cached != nullptr && morphed_fp == group.target_fp) {
        morphed = morphed_cached;
        ++out.morph_reuses;
      } else {
        const uint64_t t0 = obs::monotonic_ns();
        morphed = plan->morph(wire_.data(), wire_.size(), arena_);
        const uint64_t morph_dur = obs::monotonic_ns() - t0;
        ++out.morphs;
        morphed_cached = morphed;
        morphed_fp = group.target_fp;
        // One span per format morph, tagged with the target format: the
        // collector's attribution table reconciles these against
        // echo_fanout_morphs_total (the conservation check).
        obs::record_span("fanout.morph", plan->target()->name(), t0, morph_dur);
        if (morph_dur >= obs::flight_slow_ns()) {
          obs::flight_record(obs::FlightKind::kSlowMorph, trace_id,
                             "fanout: slow morph to " + plan->target()->name() + " (" +
                                 std::to_string(morph_dur) + " ns)");
        }
      }
    }

    transport::SharedPayload frame;
    if (pbuf_plan != nullptr) {
      frame = transport::make_shared_pbuf_frame(*pbuf_plan, plan->identity() ? record : morphed,
                                                pbuf_scratch_, trace_id);
      ++out.pbuf_encodes;
    } else if (plan->identity()) {
      frame = transport::make_shared_frame(wire_.data(), wire_.size(), trace_id);
    } else {
      scratch_.clear();
      plan->encode(morphed, scratch_);
      frame = transport::make_shared_frame(scratch_.data(), scratch_.size(), trace_id);
    }
    ++out.encodes;

    for (transport::MessagePort* port : ports_) port->send_shared(send_fmt, frame);
    ++out.groups;
    out.deliveries += ports_.size();
    fm().group_sinks.record(ports_.size());
  }

  if (out.deliveries > 0) {
    fm().events.inc();
    fm().groups.add(out.groups);
    fm().morphs.add(out.morphs);
    fm().morph_reuses.add(out.morph_reuses);
    fm().encodes.add(out.encodes);
    fm().pbuf_encodes.add(out.pbuf_encodes);
    fm().deliveries.add(out.deliveries);
    fm().event_morphs.set(static_cast<double>(out.morphs));
    fm().event_groups.set(static_cast<double>(out.groups));
  }
  if (out.fallbacks > 0) {
    fm().fallbacks.add(out.fallbacks);
    obs::flight_record(obs::FlightKind::kFanoutFallback, trace_id,
                       "fanout: " + std::to_string(out.fallbacks) +
                           " sink(s) fell back to unmorphed delivery");
  }
  return out;
}

pbuf::EncodePlan* GroupPublisher::pbuf_encoder_for(const pbio::FormatPtr& target) {
  auto it = pbuf_encoders_.find(target->fingerprint());
  if (it == pbuf_encoders_.end()) {
    std::unique_ptr<pbuf::EncodePlan> plan;
    if (pbuf::pbuf_encodable(*target)) plan = std::make_unique<pbuf::EncodePlan>(target);
    it = pbuf_encoders_.emplace(target->fingerprint(), std::move(plan)).first;
  }
  return it->second.get();
}

}  // namespace morph::echo
