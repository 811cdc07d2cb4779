// perfbench: the end-to-end broker benchmark binary.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--setups N] [--scratch DIR]
//                 [--self-test] [--delay-ns NS] [--drop-at K]
//                 [--corrupt-at K] [--span-shift D]
//
// `run` is the load generator (see loadgen.hpp); the per-workload rates
// live with the workloads (workload.cpp). The hidden `_broker` and
// `_fmtsvc` roles are the processes it spawns.
#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "broker.hpp"
#include "common.hpp"
#include "loadgen.hpp"

using namespace perfbench;

namespace {

std::string self_path() {
  char buf[PATH_MAX];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) die("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<size_t>(n));
}

/// "--key value" pairs (and bare "--flag") after the subcommand.
std::map<std::string, std::string> parse_flags(int argc, char** argv, int from) {
  std::map<std::string, std::string> flags;
  for (int i = from; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) die("unexpected argument: " + a);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[a.substr(2)] = argv[++i];
    } else {
      flags[a.substr(2)] = "1";
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f, const char* key) {
  auto it = f.find(key);
  if (it == f.end()) die(std::string("missing --") + key);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& f, const char* key,
                const std::string& fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "_fmtsvc" && argc == 4) {
      return fmtsvc_main(argv[2], std::strtoull(argv[3], nullptr, 10));
    }
    auto f = parse_flags(argc, argv, 2);
    if (cmd == "_broker") {
      BrokerOptions o;
      o.fmtsvc_port = static_cast<uint16_t>(std::stoul(need(f, "fmtsvc-port")));
      o.reader_fp = std::stoull(need(f, "reader-fp"), nullptr, 16);
      o.enforce_verify = get(f, "verify", "off") == "enforce";
      o.trace_out = get(f, "trace-out", "");
      o.delay_ns = std::stoull(get(f, "delay-ns", "0"));
      o.drop_at = std::stoll(get(f, "drop-at", "-1"));
      o.corrupt_at = std::stoll(get(f, "corrupt-at", "-1"));
      o.span_shift = std::stoll(get(f, "span-shift", "0"));
      return broker_main(o);
    }
    if (cmd == "run") {
      RunConfig c;
      c.self = self_path();
      c.workload = need(f, "workload");
      c.seed = std::stoull(need(f, "seed"));
      c.seconds = std::stod(need(f, "seconds"));
      c.trace = need(f, "trace") == "1";
      c.setups = std::stoi(get(f, "setups", std::to_string(kDefaultSetups)));
      c.scratch_dir = get(f, "scratch", ".");
      c.self_test = f.count("self-test") != 0;
      c.delay_ns = std::stoull(get(f, "delay-ns", "0"));
      c.drop_at = std::stoll(get(f, "drop-at", "-1"));
      c.corrupt_at = std::stoll(get(f, "corrupt-at", "-1"));
      c.span_shift = std::stoll(get(f, "span-shift", "0"));
      if (c.seconds <= 0 || c.setups < 1) die("bad run settings");
      return run_loadgen(c);
    }
    die("unknown command: " + cmd);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
