#include "core/fanout.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::core {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Process-wide planner metrics, resolved once (registry pointers are valid
/// forever; metrics are never erased).
struct PlannerMetrics {
  obs::Counter& unreachable =
      obs::metrics().counter("morph_fanout_plans_total{result=\"unreachable\"}");
  obs::Counter& fused = obs::metrics().counter("morph_fanout_chain_fusion_total{result=\"fused\"}");
  obs::Counter& bailout =
      obs::metrics().counter("morph_fanout_chain_fusion_total{result=\"bailout\"}");
  obs::Counter& verify_rejected = obs::metrics().counter("morph_fanout_verify_rejected_total");
  obs::Histogram& build_ns = obs::metrics().histogram("morph_span_ns{span=\"fanout.plan_build\"}");
};

PlannerMetrics& pm() {
  static PlannerMetrics* m = new PlannerMetrics();  // leaked: outlives all planners
  return *m;
}
}  // namespace

void* GroupPlan::morph(const void* wire, size_t size, RecordArena& arena) const {
  void* rec = decode_->execute(wire, size, arena);
  if (chain_ == nullptr) return rec;
  return chain_->apply(rec, arena);
}

void* GroupPlan::morph_hopwise(const void* wire, size_t size, RecordArena& arena) const {
  void* rec = decode_->execute(wire, size, arena);
  if (chain_ == nullptr) return rec;
  return chain_->apply_hopwise(rec, arena);
}

size_t GroupPlan::encode(const void* record, ByteBuffer& out) const {
  return encoder_->encode(record, out);
}

void FanoutPlanner::learn_transform(TransformSpec spec) {
  formats_.register_format(spec.src);
  formats_.register_format(spec.dst);
  {
    std::unique_lock lock(config_mutex_);
    transforms_.add(std::move(spec));
  }
  // New chains may supersede cached plans (e.g. a formerly unreachable
  // target becomes reachable). Plans already handed out stay valid — they
  // are shared_ptr-owned — they are just no longer returned.
  cache_.flush();
}

pbio::FormatPtr FanoutPlanner::learn_format(pbio::FormatPtr fmt) {
  return formats_.register_format(std::move(fmt));
}

std::shared_ptr<const GroupPlan> FanoutPlanner::plan(const pbio::FormatPtr& source,
                                                     uint64_t target_fp) {
  auto build = [&](std::shared_ptr<const GroupPlan>& plan) {
    // The first plan() of any key builds, so every source is registered
    // before a lookup can need it; cache hits skip the registry lock.
    formats_.register_format(source);
    uint64_t t0 = obs::monotonic_ns();
    plan = build_plan(source, target_fp);
    pm().build_ns.record(obs::monotonic_ns() - t0);
    if (!plan->reachable()) {
      unreachable_.fetch_add(1, kRelaxed);
      pm().unreachable.inc();
    }
  };
  return cache_.get(PlanKey{source->fingerprint(), target_fp}, build).entry->value;
}

std::shared_ptr<const GroupPlan> FanoutPlanner::build_plan(const pbio::FormatPtr& source,
                                                           uint64_t target_fp) {
  auto plan = std::make_shared<GroupPlan>();
  plan->source_ = source;

  if (target_fp == source->fingerprint()) {
    // Identity group: subscribers registered the publish format itself.
    // The broker reuses the publisher's wire encoding, but the plan can
    // still decode/encode for callers that want a materialized record.
    plan->target_ = source;
    plan->decode_ = std::make_unique<pbio::ConversionPlan>(source, source);
    plan->encoder_ = std::make_unique<pbio::Encoder>(source);
    plan->reachable_ = true;
    return plan;
  }

  std::shared_lock config_lock(config_mutex_);
  pbio::FormatPtr target = formats_.by_fingerprint(target_fp);
  if (target == nullptr) {
    MORPH_LOG_DEBUG("fanout") << "no format definition for target fingerprint " << target_fp;
    return plan;
  }
  auto specs = transforms_.chain(source->fingerprint(), target_fp);
  if (!specs || specs->empty()) {
    MORPH_LOG_DEBUG("fanout") << "no transform chain " << source->name() << " -> "
                              << target->name() << " (" << target_fp << ")";
    return plan;
  }

  ecode::CompileOptions copts;
  copts.backend = options_.backend;
  copts.verify = options_.verify;
  copts.fuel_limit = options_.verify_fuel_limit;
  try {
    plan->chain_ = std::make_shared<MorphChain>(*specs, copts, options_.fuse);
  } catch (const ecode::VerifyError& e) {
    verify_rejected_.fetch_add(1, kRelaxed);
    pm().verify_rejected.inc();
    std::ostringstream msg;
    msg << "fan-out chain for target fingerprint " << target_fp
        << " rejected by the static verifier:";
    for (const auto& f : e.result().findings) msg << "\n  " << f.to_string();
    MORPH_LOG_WARN("fanout") << msg.str();
    return plan;
  }
  if (plan->chain_->fused()) {
    chains_fused_.fetch_add(1, kRelaxed);
    pm().fused.inc();
  } else if (plan->chain_->hops() > 1) {
    fusion_bailouts_.fetch_add(1, kRelaxed);
    pm().bailout.inc();
  }

  // The chain compiles against host-native relayouts; decode the publisher's
  // wire bytes straight into the chain's input layout (decode-into-morph),
  // and encode from the chain's output layout.
  plan->target_ = plan->chain_->dst_format();
  plan->decode_ = std::make_unique<pbio::ConversionPlan>(source, plan->chain_->src_format());
  plan->encoder_ = std::make_unique<pbio::Encoder>(plan->target_);
  plan->reachable_ = true;
  return plan;
}

FanoutPlannerStats FanoutPlanner::stats() const {
  FanoutPlannerStats s;
  const auto cs = cache_.stats();
  s.plans_requested = cs.hits + cs.builds;
  s.cache_hits = cs.hits;
  s.plans_built = cs.builds;
  s.unreachable = unreachable_.load(kRelaxed);
  s.chains_fused = chains_fused_.load(kRelaxed);
  s.fusion_bailouts = fusion_bailouts_.load(kRelaxed);
  s.verify_rejected = verify_rejected_.load(kRelaxed);
  s.cache_flushes = cs.flushes;
  return s;
}

}  // namespace morph::core
