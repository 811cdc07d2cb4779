#include "transport/stats_endpoint.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace morph::transport {

StatsServer::StatsServer(uint16_t port, obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? *registry : obs::MetricsRegistry::global()),
      listener_(port),
      thread_([this] { serve_loop(); }) {}

StatsServer::~StatsServer() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void StatsServer::serve_loop() {
  constexpr int kPollMs = 100;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::unique_ptr<TcpLink> link;
    try {
      link = listener_.accept(kPollMs);
    } catch (const Error&) {
      // EMFILE, ENFILE and friends leave the connection queued, so poll
      // would report it again at once: count the failure and back off one
      // poll interval instead of spinning until an fd frees up.
      registry_.counter("morph_stats_accept_errors_total").inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      continue;
    }
    if (link == nullptr) continue;
    try {
      handle(*link);
    } catch (const Error& e) {
      // A misbehaving client must not take the endpoint down.
      MORPH_LOG_WARN("stats") << "request failed: " << e.what();
    }
  }
}

void StatsServer::handle(TcpLink& link) {
  // Accumulate until the request head is complete; a scraper that dawdles
  // longer than ~2s forfeits its response.
  std::string request;
  link.set_on_data([&](const uint8_t* d, size_t n) {
    request.append(reinterpret_cast<const char*>(d), n);
  });
  for (int rounds = 0; rounds < 20; ++rounds) {
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      break;
    }
    if (!link.pump(100)) return;  // peer went away
    if (stop_.load(std::memory_order_relaxed)) return;
  }

  std::string path = "/";
  if (request.compare(0, 4, "GET ") == 0) {
    size_t end = request.find(' ', 4);
    if (end != std::string::npos) path = request.substr(4, end - 4);
  }

  std::string body;
  const char* content_type;
  if (path == "/metrics") {
    body = obs::to_prometheus(registry_.snapshot());
    content_type = "text/plain; version=0.0.4";
  } else {
    body = obs::to_json(registry_.snapshot(), obs::recent_spans(), obs::flight_events());
    content_type = "application/json";
  }

  char head[256];
  int n = std::snprintf(head, sizeof head,
                        "HTTP/1.0 200 OK\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n\r\n",
                        content_type, body.size());
  link.send(head, static_cast<size_t>(n));
  link.send(body.data(), body.size());
}

}  // namespace morph::transport
