// Reactor transport tests: the epoll event loop, AsyncTcpLink semantics
// (batched reads, write backpressure, idle timeouts), a differential
// against a blocking-link frame echo, accept-error back-off, and the
// EchoTcpNode serving shell.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>
#include <vector>

#include "echo/node.hpp"
#include "obs/metrics.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {
namespace {

using namespace std::chrono_literals;

/// Pump `link` until `done` returns true or ~2s elapse.
template <typename Pred>
bool pump_until(TcpLink& link, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (!link.pump(20)) return done();
  }
  return true;
}

TEST(Reactor, EchoRoundTripAndBatchedDelivery) {
  TcpListener listener(0);
  ReactorOptions opts;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    // Byte echo: whatever arrives goes straight back.
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  std::vector<uint8_t> got;
  client->set_on_data([&](const uint8_t* d, size_t n) { got.insert(got.end(), d, d + n); });

  // One small message round-trips.
  client->send("ping", 4);
  ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= 4; }));
  EXPECT_EQ(std::string(got.begin(), got.end()), "ping");

  // A large burst (many frames' worth, bigger than one read batch) comes
  // back byte-identical: batched reads + outbox draining preserve order.
  got.clear();
  std::vector<uint8_t> blob(700 * 1024);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i * 31 + 7);
  client->send(blob.data(), blob.size());
  ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= blob.size(); }));
  EXPECT_EQ(got, blob);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(Reactor, FramesSurviveDribbleDelivery) {
  // A peer trickling one byte at a time must still assemble whole frames —
  // the reactor's ring + FrameAssembler handle every straddle.
  TcpListener listener(0);
  std::atomic<int> frames{0};
  std::atomic<size_t> payload_bytes{0};
  ReactorOptions opts;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    link.set_user(assembler);
    link.set_on_data([&, a = assembler.get()](const uint8_t* d, size_t n) {
      a->feed(d, n, [&](Frame& f) {
        frames.fetch_add(1);
        payload_bytes.fetch_add(f.payload.size());
      });
    });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  ByteBuffer out;
  write_frame(out, FrameType::kData, "dribbled-frame", 14, 77);
  write_frame(out, FrameType::kControl, "x", 1);
  for (size_t i = 0; i < out.size(); ++i) {
    client->send(out.data() + i, 1);
    std::this_thread::sleep_for(1ms);
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (frames.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(frames.load(), 2);
  EXPECT_EQ(payload_bytes.load(), 15u);
}

TEST(Reactor, IdleTimeoutReapsDribblingPeer) {
  // Hostile peer: sends half a frame header and stalls forever. No frame
  // ever completes, so only the idle timeout can reclaim the connection.
  TcpListener listener(0);
  ReactorOptions opts;
  opts.idle_timeout_ms = 150;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    link.set_user(assembler);
    link.set_on_data([a = assembler.get()](const uint8_t* d, size_t n) {
      a->feed(d, n, [](Frame&) {});
    });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  const uint8_t half_header[2] = {40, 0};  // length field split mid-way
  client->send(half_header, 2);

  // The server must close us; a healthy pump eventually reports EOF.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  bool reaped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client->pump(50)) {
      reaped = true;
      break;
    }
  }
  EXPECT_TRUE(reaped);
  EXPECT_EQ(server.stats().idle_timeouts, 1u);
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.connections(), 0u);
}

TEST(Reactor, ActivePeerSurvivesIdleTimeout) {
  // A peer that keeps sending — even slowly — must NOT be reaped.
  TcpListener listener(0);
  std::atomic<size_t> seen{0};
  ReactorOptions opts;
  opts.idle_timeout_ms = 400;  // generous margin over the 30ms send cadence
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    link.set_on_data([&](const uint8_t*, size_t n) { seen.fetch_add(n); });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    client->send("k", 1);
    std::this_thread::sleep_for(30ms);  // a quarter of the timeout
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (seen.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(seen.load(), 10u);
  EXPECT_EQ(server.stats().idle_timeouts, 0u);
  EXPECT_EQ(server.connections(), 1u);
}

TEST(Reactor, BackpressureOverflowClosesConnection) {
  // A peer that never reads while we keep writing must be closed once the
  // bounded outbox fills — bounded memory, counted, never an unbounded
  // buffer to a dead consumer.
  TcpListener listener(0);
  std::atomic<bool> accepted{false};
  std::shared_ptr<AsyncTcpLink> server_end;
  std::mutex end_mutex;
  ReactorOptions opts;
  opts.max_outbox_bytes = 32 * 1024;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(end_mutex);
    server_end = link.shared();
    accepted.store(true);
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!accepted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(accepted.load());

  // Pump shared payloads at a client that never reads: the kernel buffers
  // absorb some, then the outbox grows past its bound and the link dies.
  ByteBuffer payload_bytes;
  const std::vector<uint8_t> fill(8 * 1024, 0xEE);
  payload_bytes.append(fill.data(), fill.size());
  auto payload = std::make_shared<const ByteBuffer>(std::move(payload_bytes));
  std::shared_ptr<AsyncTcpLink> end;
  {
    std::lock_guard<std::mutex> lock(end_mutex);
    end = server_end;
  }
  for (int i = 0; i < 4096 && end->connected(); ++i) {
    end->send_shared(payload);
  }
  // The overflow latches immediately; the close itself lands on the loop.
  const auto close_deadline = std::chrono::steady_clock::now() + 2s;
  while (end->connected() && std::chrono::steady_clock::now() < close_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(end->connected());
  EXPECT_EQ(server.stats().backpressure_closes, 1u);
  EXPECT_GE(server.stats().send_drops, 1u);

  // Sends after close degrade to counted drops, never throw.
  const uint64_t drops_before = server.stats().send_drops;
  end->send("late", 4);
  EXPECT_GE(server.stats().send_drops, drops_before + 1);
}

TEST(Reactor, SendErrorDuringFlushClosesWithoutDeadlockingLoop) {
  // Regression: flush() used to call request_close() while holding
  // out_mutex_; on the loop thread that synchronously re-locked the same
  // non-recursive mutex in close_conn and deadlocked the entire loop.
  //
  // Drive the flush error branch deterministically: shutdown(SHUT_WR) on
  // the adopted socket latches a write-only failure (sendmsg gets EPIPE
  // while the read side stays quiet, so readv never sees the error first),
  // and sending from the loop thread makes queue_flush run flush()
  // synchronously.
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Reactor loop{ReactorOptions{}};
  std::shared_ptr<AsyncTcpLink> end;
  std::atomic<bool> adopted{false};
  std::mutex end_mutex;
  loop.set_on_accept([&](AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(end_mutex);
    end = link.shared();
    adopted.store(true);
  });
  loop.adopt(sv[0]);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!adopted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(adopted.load());
  ::shutdown(sv[0], SHUT_WR);

  std::shared_ptr<AsyncTcpLink> conn;
  {
    std::lock_guard<std::mutex> lock(end_mutex);
    conn = end;
  }
  loop.post([conn] { conn->send("boom", 4); });

  // The connection dies from the send error...
  while (conn->connected() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(conn->connected());
  EXPECT_EQ(loop.stats().closed, 1u);
  EXPECT_EQ(loop.connections(), 0u);

  // ...and the loop survives it: posted tasks still run.
  std::atomic<bool> alive{false};
  loop.post([&] { alive.store(true); });
  while (!alive.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(alive.load());
  ::close(sv[1]);
}

TEST(Reactor, ThrowingCallbackCostsOnlyItsConnection) {
  TcpListener listener(0);
  std::atomic<int> served{0};
  ReactorOptions opts;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([&, l](const uint8_t* d, size_t n) {
      if (n > 0 && d[0] == 'X') throw TransportError("poisoned");
      served.fetch_add(1);
      l->send(d, n);
    });
  });

  auto bad = TcpLink::connect("127.0.0.1", server.port());
  auto good = TcpLink::connect("127.0.0.1", server.port());
  bad->send("X", 1);
  // The poisoned connection dies...
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  bool bad_closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!bad->pump(20)) {
      bad_closed = true;
      break;
    }
  }
  EXPECT_TRUE(bad_closed);
  // ...while its neighbor keeps round-tripping.
  std::string got;
  good->set_on_data([&](const uint8_t* d, size_t n) {
    got.append(reinterpret_cast<const char*>(d), n);
  });
  good->send("ok", 2);
  ASSERT_TRUE(pump_until(*good, [&] { return got.size() >= 2; }));
  EXPECT_EQ(got, "ok");
  EXPECT_EQ(server.stats().bad_callbacks, 1u);
}

TEST(Reactor, ConnectionChurnSettlesToZero) {
  TcpListener listener(0);
  ReactorOptions opts;
  opts.loops = 2;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
  });

  constexpr int kConns = 64;
  for (int i = 0; i < kConns; ++i) {
    auto client = TcpLink::connect("127.0.0.1", server.port());
    std::string got;
    client->set_on_data([&](const uint8_t* d, size_t n) {
      got.append(reinterpret_cast<const char*>(d), n);
    });
    client->send("hi", 2);
    ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= 2; }));
  }  // client closes here
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.connections(), 0u);
  const Reactor::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.closed, static_cast<uint64_t>(kConns));
}

/// Child side of AcceptErrorsBackOffInsteadOfSpinning. Exits 0 when every
/// check holds; otherwise prints the failed check and exits 1.
[[noreturn]] void run_accept_error_scenario() {
  auto fail = [](const char* what) {
    std::fprintf(stderr, "%s\n", what);
    std::fflush(stderr);
    std::_Exit(1);
  };
  TcpListener listener(0);
  std::atomic<int> accepted{0};
  ReactorServer server(listener, ReactorOptions{},
                       [&](AsyncTcpLink&) { accepted.fetch_add(1); });
  obs::Counter& errors = obs::metrics().counter("morph_reactor_accept_errors_total");
  const uint64_t errors_before = errors.value();

  // UBSan's vptr check needs a spare fd the first time it meets a dynamic
  // type; meet TransportError (what a failed accept throws) while fds last.
  { const TransportError warm_up("warm-up"); }

  // Lower the fd limit and use up every descriptor under it but one, which
  // the client takes: its connection then sits in the listen queue with no
  // fd left for accept(), which fails with EMFILE.
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) fail("getrlimit");
  lim.rlim_cur = std::min<rlim_t>(lim.rlim_cur, 256);
  if (setrlimit(RLIMIT_NOFILE, &lim) != 0) fail("setrlimit");
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) fillers.push_back(fd);
  if (errno != EMFILE || fillers.size() < 2) fail("could not exhaust the fd table");
  ::close(fillers.back());
  fillers.pop_back();
  // A raw socket rather than a TcpLink, for the same UBSan reason.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (client < 0 || ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    fail("client connect");
  }

  auto cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double cpu_start = cpu_ms();
  std::this_thread::sleep_for(300ms);
  if (cpu_ms() - cpu_start >= 30.0) fail("acceptor used >= 10% of a core during EMFILE");
  if (errors.value() <= errors_before) fail("morph_reactor_accept_errors_total did not rise");
  if (accepted.load() != 0) fail("accepted a connection with no fd free");

  // Free the fds: the queued client must now be accepted.
  for (int fd : fillers) ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (accepted.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  if (accepted.load() != 1) fail("pending client was not accepted once fds were freed");
  std::_Exit(0);
}

TEST(Reactor, AcceptErrorsBackOffInsteadOfSpinning) {
  // EMFILE leaves the connection queued, so the listener stays readable:
  // an acceptor that retries at once spins a core. Run in a forked child so
  // the lowered fd limit never touches the rest of the suite.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(run_accept_error_scenario(), ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Differential: byte-identical delivery against a blocking-link frame echo.

/// Scripted client exchange: send a deterministic mix of frames (tiny,
/// large, traced, byte-dribbled) and return the exact reply stream.
std::vector<uint8_t> run_scripted_exchange(uint16_t port) {
  auto client = TcpLink::connect("127.0.0.1", port);
  std::vector<uint8_t> replies;
  client->set_on_data([&](const uint8_t* d, size_t n) {
    replies.insert(replies.end(), d, d + n);
  });

  ByteBuffer script;
  std::vector<uint8_t> big(3000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i ^ (i >> 3));
  write_frame(script, FrameType::kData, "alpha", 5, 1);
  write_frame(script, FrameType::kData, big.data(), big.size(), 2);
  write_frame(script, FrameType::kControl, nullptr, 0);
  write_frame(script, FrameType::kData, "omega", 5, 0xFFFF);

  // Deliver with adversarial chunking: 1, 2, 3, ... byte slices.
  size_t off = 0;
  size_t step = 1;
  while (off < script.size()) {
    const size_t n = std::min(step++, script.size() - off);
    client->send(script.data() + off, n);
    off += n;
  }

  const size_t expected = script.size();  // echo server mirrors frame bytes
  EXPECT_TRUE(pump_until(*client, [&] { return replies.size() >= expected; }));
  return replies;
}

TEST(Reactor, DifferentialByteIdenticalWithThreadedPath) {
  // Frame-echo service in both modes: every completed frame is re-framed
  // and sent back. The reply byte streams must match exactly.
  auto serve_frame = [](Link& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    Link* l = &link;
    link.set_on_data([l, assembler](const uint8_t* d, size_t n) {
      assembler->feed(d, n, [l](Frame& f) {
        ByteBuffer out;
        write_frame(out, f.type, f.payload.data(), f.payload.size(), f.trace_id);
        l->send(out);
      });
    });
  };

  // Reactor mode.
  std::vector<uint8_t> reactor_replies;
  {
    TcpListener listener(0);
    ReactorOptions opts;
    ReactorServer server(listener, opts, [&](AsyncTcpLink& link) { serve_frame(link); });
    reactor_replies = run_scripted_exchange(server.port());
  }

  // Threaded oracle: accept + pump on a dedicated thread.
  std::vector<uint8_t> threaded_replies;
  {
    TcpListener listener(0);
    std::atomic<bool> stop{false};
    std::thread serving([&] {
      auto conn = listener.accept(2000);
      if (!conn) return;
      serve_frame(*conn);
      try {
        while (!stop.load() && conn->pump(20)) {
        }
      } catch (const Error&) {
      }
    });
    threaded_replies = run_scripted_exchange(listener.port());
    stop.store(true);
    serving.join();
  }

  ASSERT_FALSE(reactor_replies.empty());
  EXPECT_EQ(reactor_replies, threaded_replies);
}

}  // namespace
}  // namespace morph::transport

// ---------------------------------------------------------------------------
// EchoTcpNode: the pub/sub process loop served over the reactor.

namespace morph::echo {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using namespace std::chrono_literals;

FormatPtr reading_format() {
  struct Reading {
    int32_t station;
    double value;
  };
  return FormatBuilder("NodeReading", sizeof(Reading))
      .add_int("station", 4, offsetof(Reading, station))
      .add_float("value", 8, offsetof(Reading, value))
      .build();
}

TEST(EchoTcpNode, ChannelJoinPublishDeliver) {
  EchoTcpNode node("creator");
  node.with_process([](EchoProcess& p) { p.create_channel("sensors"); });

  // A remote subscriber over a real socket.
  auto link = transport::TcpLink::connect("127.0.0.1", node.port());
  EchoProcess sub("sub", EchoVersion::kV2);
  sub.attach_link(*link);

  auto fmt = reading_format();
  int received = 0;
  sub.on_event("sensors", fmt, [&](const Event& ev) {
    EXPECT_EQ(pbio::RecordRef(ev.delivery->record, ev.delivery->format).get_int("station"), 9);
    ++received;
  });

  // The node's HELLO must land before we can route by its contact name.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  for (;;) {
    ASSERT_TRUE(link->pump(20));
    try {
      sub.open_channel("sensors", "creator", /*source=*/false, /*sink=*/true);
      break;
    } catch (const Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "creator HELLO never arrived";
    }
  }
  while (sub.members("sensors").empty() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  ASSERT_EQ(sub.members("sensors").size(), 1u);
  EXPECT_EQ(node.connections(), 1u);

  // Publish from the node (the serving side is also a source here).
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("station", 9);
  r.set_float("value", 3.5);
  size_t sent = 0;
  const auto publish_deadline = std::chrono::steady_clock::now() + 3s;
  while (sent == 0 && std::chrono::steady_clock::now() < publish_deadline) {
    sent = node.publish("sensors", fmt, rec);  // 0 until the EVTSUB arrives
    link->pump(10);
  }
  EXPECT_EQ(sent, 1u);
  while (received == 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  EXPECT_EQ(received, 1);
}

TEST(EchoTcpNode, V1SubscriberMorphsNodeResponses) {
  // The paper's evolution scenario through the serving shell: a v2 node,
  // a v1 subscriber — the v2 open-response must morph at the subscriber.
  NodeOptions opts;
  opts.version = EchoVersion::kV2;
  EchoTcpNode node("creator", opts);
  node.with_process([](EchoProcess& p) { p.create_channel("remote"); });

  auto link = transport::TcpLink::connect("127.0.0.1", node.port());
  EchoProcess old_sub("old-sub", EchoVersion::kV1);
  old_sub.attach_link(*link);

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  for (;;) {
    ASSERT_TRUE(link->pump(20));
    try {
      old_sub.open_channel("remote", "creator", true, true);
      break;
    } catch (const Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "creator HELLO never arrived";
    }
  }
  while (old_sub.members("remote").empty() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  ASSERT_EQ(old_sub.members("remote").size(), 1u);
  EXPECT_EQ(old_sub.members("remote")[0].contact, "old-sub");
  EXPECT_EQ(old_sub.stats().responses_morphed, 1u);
}

}  // namespace
}  // namespace morph::echo
