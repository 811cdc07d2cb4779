// Networked format-metadata service: the paper's third-party format server.
//
// Accepts TCP connections on loopback (TcpListener binds 127.0.0.1) and
// answers fmtsvc protocol requests against a FormatStore. Every connection
// is served by one transport::ReactorServer event loop: a resolver keeps a
// long-lived connection open and pipelines fetches over it, and the loop
// answers them in arrival order. REGISTER work (lint, and the audit when
// its gate is on) runs on that loop thread too, so fetches queued behind a
// REGISTER wait for it.
//
// Failure containment: a malformed frame or request kills only its own
// connection; the acceptor and every other connection keep serving. Lint
// policy mirrors the receiver's VerifyPolicy: under kEnforce a REGISTER
// whose descriptor has error-severity lint findings is answered with
// Status::kRejected (counted in morph_fmtsvc_server_lint_rejected_total)
// and nothing enters the store.
//
// Beyond the per-entry lint, the service can run the fleet-wide evolution
// audit (analysis/audit.hpp) on every REGISTER: the candidate revision is
// checked against everything already in the store plus the declared live
// readers. Under AuditPolicy::kEnforce a revision that would strand a live
// peer — or reach one only through a lossy chain — is rejected before it
// enters the store; under kWarn it is accepted but counted and logged.
#pragma once

#include <atomic>
#include <vector>

#include "analysis/audit.hpp"
#include "core/lint.hpp"
#include "fmtsvc/store.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::fmtsvc {

struct ServiceOptions {
  uint16_t port = 0;  // 0 picks an ephemeral port; read back with port()
  core::LintPolicy lint = core::LintPolicy::kWarn;
  /// Evolution-audit gate on REGISTER (see analysis/audit.hpp). Off by
  /// default: the audit only bites when the operator declares live readers.
  analysis::AuditPolicy audit = analysis::AuditPolicy::kOff;
  /// Fingerprints of revisions deployed peers still read, fed to the audit
  /// as AuditUniverse::declare_live.
  std::vector<uint64_t> live_readers;
  /// Maximum simultaneous connections; further accepts are closed
  /// immediately (the client sees EOF and retries per its backoff).
  size_t max_connections = 64;
  /// Serving engine; reactor is the only one. Kept solely because the
  /// end-to-end benchmark (perfbench/) assigns it; deleted with that
  /// benchmark's next change.
  transport::TransportMode transport = transport::TransportMode::kReactor;
};

struct ServiceStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t registered = 0;      // formats accepted into the store
  uint64_t lint_rejected = 0;   // REGISTER entries refused under kEnforce
  uint64_t audit_rejected = 0;  // REGISTER entries refused by the audit gate
  uint64_t audit_warned = 0;    // entries with breaking audits under kWarn
  uint64_t not_found = 0;       // FETCH fingerprints the store lacked
  uint64_t bad_frames = 0;      // connections killed by malformed input
};

class FormatService {
 public:
  /// Start serving `store` (which must outlive the service) immediately.
  explicit FormatService(FormatStore& store, ServiceOptions options = {});

  FormatService(const FormatService&) = delete;
  FormatService& operator=(const FormatService&) = delete;

  uint16_t port() const { return listener_.port(); }
  ServiceStats stats() const;

 private:
  void serve(transport::AsyncTcpLink& link);
  Reply handle(const Request& req);

  FormatStore& store_;
  ServiceOptions options_;
  transport::TcpListener listener_;

  struct Counters {
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> registered{0};
    std::atomic<uint64_t> lint_rejected{0};
    std::atomic<uint64_t> audit_rejected{0};
    std::atomic<uint64_t> audit_warned{0};
    std::atomic<uint64_t> not_found{0};
    std::atomic<uint64_t> bad_frames{0};
  };
  mutable Counters counters_;

  transport::ReactorServer server_;  // initialized last: serving starts here
};

}  // namespace morph::fmtsvc
