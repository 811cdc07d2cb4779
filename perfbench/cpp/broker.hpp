// The broker and format-service roles (hidden subcommands of the bench
// binary, spawned by the load generator). See broker.cpp.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

inline constexpr int kMaxSinks = 3;

struct BrokerOptions {
  uint16_t fmtsvc_port = 0;
  uint64_t reader_fp = 0;       // the format the receiver registers
  bool enforce_verify = false;  // VerifyPolicy::kEnforce for peer transforms
  std::string trace_out;        // span file written at exit (empty: none)
  // Self-test faults, injected in the bench-side decorators.
  uint64_t delay_ns = 0;    // busy-wait in every publisher-link on_data call
  int64_t drop_at = -1;     // first subscriber: skip this (1-based) event
  int64_t corrupt_at = -1;  // first subscriber: flip a byte of this event
  int64_t span_shift = 0;   // label each traced span with its index + shift
};

/// One traced publisher event, as the broker saw it. All times are host
/// CLOCK_MONOTONIC ns. Written verbatim to the span file.
struct BrokerSpan {
  uint64_t index = 0;    // publisher event index (handler invocation order)
  uint64_t ondata = 0;   // ingress on_data call that completed the frame
  uint64_t handler = 0;  // receiver handler entry (= publish call)
  uint64_t pub_end = 0;  // GroupPublisher::publish returned
  uint64_t enq_start[kMaxSinks] = {};  // send_shared call per sink slot
  uint64_t enq_end[kMaxSinks] = {};
};

int broker_main(const BrokerOptions& opt);
int fmtsvc_main(const std::string& workload, uint64_t seed);

}  // namespace perfbench
