// Shared plumbing for the end-to-end broker benchmark: clock, percentiles,
// child processes, and the small text protocol the load generator and the
// broker speak over control frames.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <ctime>

#include "obs/metrics.hpp"

namespace perfbench {

/// Host CLOCK_MONOTONIC in nanoseconds: every timestamp of every process in
/// the benchmark comes from this one clock, so cross-process differences
/// are meaningful. (obs::monotonic_ns counts from process start, so it
/// cannot be compared across processes.)
inline uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

/// Spin (no syscall) until `deadline_ns`.
inline void spin_until(uint64_t deadline_ns) {
  while (now_ns() < deadline_ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

/// Sleep most of the way to `deadline_ns`, then spin the rest: keeps the
/// publisher's send times within a few microseconds of its schedule
/// without burning a core between widely spaced events.
void wait_until(uint64_t deadline_ns);

/// Host CPU time the hypervisor gave to other guests ("steal" in
/// /proc/stat) over an interval, as a share of all CPU time. A validity
/// signal: latency figures from a run with high steal say more about the
/// host than about the program.
class StealMeter {
 public:
  StealMeter() { read(start_); }
  double percent() const;

 private:
  struct Sample {
    double total = 0;
    double steal = 0;
  };
  static void read(Sample& out);
  Sample start_;
};

/// Quantile q in [0,1] of `v` (sorts a copy; nearest-rank). 0 when empty.
double quantile(std::vector<double> v, double q);

[[noreturn]] void die(const std::string& msg);

/// CPU placement of the benchmark's busy threads on a host with at least
/// four CPUs: the publisher, the broker and the subscribers each get their
/// own CPUs, so the scheduler never time-slices two of them on one CPU (a
/// producer waking its consumer tends to pull it onto its own CPU). The
/// calling thread, and threads it creates afterwards, stay on `cpus`. A
/// no-op on smaller hosts.
enum class Placement { kPublisher, kBroker, kSubscribers };
void place_thread(Placement where);

/// Flat string->number map: the payload of a broker STATS reply. Histogram
/// buckets travel as "h:<name>:<upper>" keys so the load generator can
/// diff two snapshots bucket-wise.
using StatMap = std::map<std::string, double>;

std::string encode_stats(const StatMap& m);
StatMap decode_stats(const std::string& text);

/// Quantile of the histogram delta `after - before` for `name`, in the
/// histogram's own unit (ns for every latency series here). 0 when empty.
double hist_quantile(const StatMap& before, const StatMap& after, const std::string& name,
                     double q);
/// Sample count of the histogram delta.
double hist_count(const StatMap& before, const StatMap& after, const std::string& name);

/// Add every histogram of `snap` whose name (before any label block)
/// equals `base`, bucket-wise, into `out` under `base`.
void add_histograms(const morph::obs::MetricsSnapshot& snap, const std::string& base,
                    StatMap& out);
/// Sum every counter whose base name equals `base` (all label sets).
double sum_counters(const morph::obs::MetricsSnapshot& snap, const std::string& base);

/// A spawned child running a hidden role of this binary. Its stdin is a
/// pipe the parent holds open: the child exits when it reads EOF, so a
/// parent that dies never leaves a broker behind.
struct Child {
  int pid = -1;
  int stdin_fd = -1;   // write end held by the parent
  int stdout_fd = -1;  // read end: the child's PORT line, then nothing
};

Child spawn_role(const std::string& self, const std::vector<std::string>& args);
/// Read one line from the child's stdout (blocking, bounded by timeout).
std::string read_line(int fd, int timeout_ms);
/// Close the child's stdin, wait for it to exit (SIGKILL after
/// `grace_ms`). Returns the exit status (128+signal when killed).
int stop_child(Child& child, int grace_ms);

/// Block until stdin reaches EOF (the parent closed it or died).
void wait_for_parent_eof();

}  // namespace perfbench
