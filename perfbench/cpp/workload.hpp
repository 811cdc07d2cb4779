// The benchmark's workloads: formats, transforms, event inputs, and the
// reference output every delivered record is checked against.
//
// Everything here is a pure function of (workload name, seed), so the load
// generator and the format-service child build identical catalogs without
// talking to each other. The broker receives none of it: it resolves
// formats and transforms from the format service like any other broker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "core/transform.hpp"
#include "echo/fanout.hpp"
#include "fmtsvc/protocol.hpp"
#include "pbio/format.hpp"

namespace perfbench {

struct SinkSpec {
  std::string label;             // for diagnostics
  morph::pbio::FormatPtr format;  // the revision the subscriber reads
  morph::echo::SinkEncoding encoding = morph::echo::SinkEncoding::kPbio;
};

class Workload {
 public:
  /// Names: "telemetry-small", "response-10k-pbuf", "revision-churn".
  /// Throws on an unknown name.
  Workload(const std::string& name, uint64_t seed);
  ~Workload();

  const std::string& name() const { return name_; }

  /// Fixed open-loop rate of the latency and CPU measurements (events/s),
  /// set at about half of the seed's max_rate_eps (a quarter for
  /// response-10k-pbuf, whose latency doubled in some runs at a half), and
  /// the first rung of the rate ladder, just under the seed's max_rate_eps.
  double nominal_eps() const { return nominal_eps_; }
  double ladder_start_eps() const { return ladder_start_eps_; }

  /// The format the broker's receiver registers its handler for, and
  /// whether peer transforms must pass the static verifier.
  const morph::pbio::FormatPtr& reader() const { return reader_; }
  bool enforce_verify() const { return churn_; }

  const std::vector<SinkSpec>& sinks() const { return sinks_; }

  /// What the format service is pre-loaded with.
  const std::vector<morph::fmtsvc::FormatEntry>& catalog() const { return catalog_; }

  /// Make inputs and reference outputs available for events [0, n).
  /// Everything after this is read-only and safe to share across threads.
  void prepare(uint64_t n);
  uint64_t prepared() const { return prepared_; }

  /// Event k as the publisher sends it: a complete kData frame around the
  /// PBIO encoding of the event's input record, built once per pool entry
  /// so the generator spends no time encoding.
  const morph::ByteBuffer& frame(uint64_t k) const;
  /// PBIO encoding of the record sink `j` must receive for event `k`.
  const morph::ByteBuffer& expected(size_t j, uint64_t k) const;

  /// revision-churn only: events per fresh revision, the rotation window,
  /// the revision of event k, and whether k is its revision's first event.
  static constexpr uint64_t kChurnEventsPerRevision = 1000;
  static constexpr uint64_t kChurnWindow = 8;
  static constexpr uint64_t kChurnMaxRevisions = 1000;  // < max_cached_decisions
  bool churn() const { return churn_; }
  /// Events a session may publish: revision-churn runs out of catalog
  /// revisions after kChurnMaxRevisions * kChurnEventsPerRevision.
  uint64_t max_events() const {
    return churn_ ? kChurnMaxRevisions * kChurnEventsPerRevision : UINT64_MAX;
  }
  uint64_t revision_of(uint64_t k) const;
  bool fresh_revision(uint64_t k) const {
    return churn_ && k % kChurnEventsPerRevision == 0;
  }

 private:
  struct Revision;  // one publisher-side format with its inputs/outputs

  void build_telemetry();
  void build_response();
  void build_churn_catalog();
  void prepare_revision(Revision& rev);
  void add_input(Revision& rev, const void* record);
  void add_pool_entry(Revision& rev, const void* record);

  std::string name_;
  uint64_t seed_;
  bool churn_ = false;
  double nominal_eps_ = 0;
  double ladder_start_eps_ = 0;
  morph::pbio::FormatPtr reader_;
  std::vector<SinkSpec> sinks_;
  std::vector<morph::fmtsvc::FormatEntry> catalog_;
  std::vector<std::unique_ptr<Revision>> revisions_;
  uint64_t prepared_ = 0;
  morph::RecordArena arena_;
};

/// Pool entries per revision: event k uses entry k % kPool, so in-order
/// matching catches a dropped or reordered delivery on the next event.
inline constexpr uint64_t kPool = 8;

}  // namespace perfbench
