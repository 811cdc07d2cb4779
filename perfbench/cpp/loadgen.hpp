// The load generator: one process with one publisher connection and three
// subscriber connections (four threads, four connections). It spawns the
// format service and the broker, drives the broker open-loop from a seeded
// schedule, checks every delivery against the workload's reference output,
// and prints the metrics as the last line of stdout.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Set-ups per run; setup_s is their median.
inline constexpr int kDefaultSetups = 21;

struct RunConfig {
  std::string self;  // path of this binary (re-exec'd for the children)
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // where the broker writes its span file
  int setups = kDefaultSetups;

  // Self-test: the nominal phase only, at a slow fixed rate, so that an
  // injected delay cannot queue up behind itself. The faults are forwarded
  // to the broker's decorators.
  bool self_test = false;
  uint64_t delay_ns = 0;
  int64_t drop_at = -1;
  int64_t corrupt_at = -1;
  int64_t span_shift = 0;  // broker labels each traced span with index + shift
};

int run_loadgen(const RunConfig& cfg);

}  // namespace perfbench
