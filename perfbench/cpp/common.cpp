#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>

namespace perfbench {

void wait_until(uint64_t deadline_ns) {
  constexpr uint64_t kSpinNs = 30'000;
  uint64_t now = now_ns();
  if (deadline_ns > now + kSpinNs) {
    uint64_t sleep_ns = deadline_ns - now - kSpinNs;
    timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                static_cast<long>(sleep_ns % 1'000'000'000)};
    nanosleep(&ts, nullptr);
  }
  spin_until(deadline_ns);
}

void StealMeter::read(Sample& out) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate line: user nice system idle iowait irq softirq steal ...
  double v = 0;
  out = Sample{};
  for (int i = 0; i < 8 && in >> v; ++i) {
    out.total += v;
    if (i == 7) out.steal = v;
  }
}

double StealMeter::percent() const {
  Sample now;
  read(now);
  return now.total > start_.total ? 100.0 * (now.steal - start_.steal) / (now.total - start_.total)
                                   : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
// Children alive right now, so that die() can stop and reap them.
std::mutex g_children_mutex;
std::vector<pid_t> g_children;
}  // namespace

void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::vector<pid_t> children;
  {
    std::lock_guard<std::mutex> lock(g_children_mutex);
    children.swap(g_children);
  }
  for (pid_t pid : children) kill(pid, SIGKILL);
  for (pid_t pid : children) waitpid(pid, nullptr, 0);
  std::_Exit(2);
}

void place_thread(Placement where) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  switch (where) {
    case Placement::kPublisher:
      CPU_SET(0, &set);
      break;
    case Placement::kBroker:
      CPU_SET(1, &set);
      break;
    case Placement::kSubscribers:
      CPU_SET(2, &set);
      CPU_SET(3, &set);
      break;
  }
  sched_setaffinity(0, sizeof set, &set);  // best effort: placement, not correctness
}

std::string encode_stats(const StatMap& m) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [k, v] : m) out << k << '=' << v << '\n';
  return out.str();
}

StatMap decode_stats(const std::string& text) {
  StatMap m;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.rfind('=');
    if (eq == std::string::npos) continue;
    m[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return m;
}

namespace {

std::string base_name(const std::string& full) { return full.substr(0, full.find('{')); }

/// Bucket-wise delta of histogram `name`, as a snapshot the library's own
/// percentile() can read.
morph::obs::HistogramSnapshot hist_delta(const StatMap& before, const StatMap& after,
                                         const std::string& name) {
  const std::string prefix = "h:" + name + ":";
  morph::obs::HistogramSnapshot h;
  for (auto it = after.lower_bound(prefix); it != after.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    double prev = 0;
    if (auto b = before.find(it->first); b != before.end()) prev = b->second;
    const auto d = static_cast<uint64_t>(it->second - prev);
    if (d == 0) continue;
    h.buckets.emplace_back(std::strtoull(it->first.c_str() + prefix.size(), nullptr, 10), d);
    h.count += d;
  }
  std::sort(h.buckets.begin(), h.buckets.end());
  return h;
}

}  // namespace

double hist_count(const StatMap& before, const StatMap& after, const std::string& name) {
  return static_cast<double>(hist_delta(before, after, name).count);
}

double hist_quantile(const StatMap& before, const StatMap& after, const std::string& name,
                     double q) {
  return static_cast<double>(hist_delta(before, after, name).percentile(q));
}

void add_histograms(const morph::obs::MetricsSnapshot& snap, const std::string& base,
                    StatMap& out) {
  for (const auto& [name, h] : snap.histograms) {
    if (base_name(name) != base) continue;
    for (const auto& [upper, count] : h.buckets) {
      out["h:" + base + ":" + std::to_string(upper)] += static_cast<double>(count);
    }
  }
}

double sum_counters(const morph::obs::MetricsSnapshot& snap, const std::string& base) {
  double sum = 0;
  for (const auto& [name, v] : snap.counters) {
    if (base_name(name) == base) sum += static_cast<double>(v);
  }
  return sum;
}

Child spawn_role(const std::string& self, const std::vector<std::string>& args) {
  int in_fds[2];
  int out_fds[2];
  if (pipe2(in_fds, O_CLOEXEC) != 0 || pipe2(out_fds, O_CLOEXEC) != 0) die("pipe failed");
  // posix_spawn, not fork: the child's cost must not depend on how much
  // memory the load generator holds.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_fds[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(self.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) die(std::string("posix_spawn failed: ") + std::strerror(rc));
  {
    std::lock_guard<std::mutex> lock(g_children_mutex);
    g_children.push_back(pid);
  }
  close(in_fds[0]);
  close(out_fds[1]);
  return Child{pid, in_fds[1], out_fds[0]};
}

std::string read_line(int fd, int timeout_ms) {
  std::string line;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    uint64_t now = now_ns();
    if (now >= deadline) return line;
    pollfd pfd{fd, POLLIN, 0};
    int r = poll(&pfd, 1, static_cast<int>((deadline - now) / 1'000'000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return line;
    char c;
    ssize_t n = read(fd, &c, 1);
    if (n <= 0 || c == '\n') return line;
    line.push_back(c);
  }
}

int stop_child(Child& child, int grace_ms) {
  if (child.pid < 0) return 0;
  if (child.stdin_fd >= 0) close(child.stdin_fd);
  child.stdin_fd = -1;
  int status = 0;
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(grace_ms) * 1'000'000;
  int rc = 0;
  for (;;) {
    pid_t r = waitpid(child.pid, &status, WNOHANG);
    if (r == child.pid) break;
    if (r < 0 && errno != EINTR) break;
    if (now_ns() >= deadline) {
      kill(child.pid, SIGKILL);
      waitpid(child.pid, &status, 0);
      break;
    }
    usleep(2000);
  }
  {
    std::lock_guard<std::mutex> lock(g_children_mutex);
    std::erase(g_children, child.pid);
  }
  if (WIFEXITED(status)) rc = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) rc = 128 + WTERMSIG(status);
  if (child.stdout_fd >= 0) close(child.stdout_fd);
  child.stdout_fd = -1;
  child.pid = -1;
  return rc;
}

void wait_for_parent_eof() {
  char buf[64];
  for (;;) {
    ssize_t n = read(STDIN_FILENO, buf, sizeof buf);
    if (n == 0) return;
    if (n < 0 && errno != EINTR) return;
  }
}

}  // namespace perfbench
