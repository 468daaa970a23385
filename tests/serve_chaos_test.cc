// Chaos battery for the serving layer's resilience machinery
// (docs/serving.md §6): deterministic socket-fault schedules driven through
// FaultInjectingSocketIo on both sides of the wire, client retry/backoff,
// per-connection and per-request deadlines, connection-cap and
// pending-budget shedding, and graceful drain. The standing invariant the
// sweep enforces: every Call ends in a definite outcome (a response body or
// a typed Status — never a hang), and after Stop() the server holds zero
// connections (active_connections() and the serve/active_connections gauge
// both read 0, i.e. no leaked thread or fd). The sweep also hot-swaps
// snapshots from file while the fleet is mid-traffic. Run under TSan in CI
// (tools/ci.sh) to also catch the races the invariants miss.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/model_artifact.h"
#include "serve/model_snapshot.h"
#include "serve/service.h"
#include "serve/socket_io.h"
#include "serve/wire.h"
#include "util/env.h"
#include "util/metrics.h"

namespace aneci::serve {
namespace {

constexpr int kNodes = 6;
constexpr int kDim = 4;

/// `generation` shifts every embedding value, so each swap target differs
/// from the snapshot it displaces.
ModelArtifact MakeArtifact(int generation = 0) {
  Graph graph = Graph::FromEdges(
      kNodes, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  graph.SetLabels({0, 0, 0, 1, 1, 1});
  Matrix z(kNodes, kDim);
  for (int i = 0; i < kNodes; ++i)
    for (int j = 0; j < kDim; ++j)
      z(i, j) = 0.25 * i - 0.125 * j + 0.0625 + generation;
  const Matrix p = RowSoftmax(z);
  return BuildModelArtifact(graph, z, p, /*head_seed=*/77);
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot() {
  return std::make_shared<const ModelSnapshot>(MakeArtifact(), /*version=*/1,
                                               "chaos-artifact");
}

double ActiveConnectionsGaugeValue() {
  return MetricsRegistry::Global()
      .GetGauge("serve/active_connections", MetricClass::kScheduling)
      ->Value();
}

bool HasCode(const std::string& body, const std::string& code) {
  return body.find("\"code\":\"" + code + "\"") != std::string::npos;
}

// --- The chaos sweep --------------------------------------------------------

/// One seeded chaos round: a faulty server transport, a faulty client
/// transport, a small client fleet hammering it with retries over a mixed
/// op set (knn included), and a swapper publishing new snapshots from file
/// while the fleet is mid-traffic. Calls that do not succeed must end in
/// typed errors or exhausted retries — also definite outcomes.
void RunChaosRound(uint64_t seed) {
  SocketFaultSchedule server_faults;
  server_faults.seed = seed;
  server_faults.short_read = 0.25;     // exercise frame reassembly
  server_faults.delayed_read = 0.15;   // jitter, under the read deadline
  server_faults.delay_ms = 3;
  server_faults.reset_read = 0.05;     // drop connections mid-session
  server_faults.partial_write = 0.05;  // torn responses as seen by clients
  FaultInjectingSocketIo server_io(server_faults);

  SocketFaultSchedule client_faults;
  client_faults.seed = seed ^ 0x9e3779b97f4a7c15ull;
  client_faults.reset_write = 0.10;  // requests die before reaching the wire
  client_faults.short_read = 0.20;
  FaultInjectingSocketIo client_io(client_faults);

  // Swap targets (generations 1..kSwaps), written before traffic starts so
  // the swap path does only load + publish.
  constexpr int kSwaps = 3;
  const std::string dir =
      testing::TempDir() + "/chaos_swaps_" + std::to_string(seed);
  EXPECT_TRUE(Env::Default()->CreateDir(dir).ok());
  std::vector<std::string> swap_paths;
  for (int g = 1; g <= kSwaps; ++g) {
    swap_paths.push_back(dir + "/g" + std::to_string(g) + ".ansv");
    EXPECT_TRUE(SaveModelArtifact(MakeArtifact(g), swap_paths.back()).ok());
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* errors =
      registry.GetCounter("serve/errors", MetricClass::kDeterministic);
  Counter* swaps =
      registry.GetCounter("serve/swaps", MetricClass::kDeterministic);
  const uint64_t errors_before = errors->Value();
  const uint64_t swaps_before = swaps->Value();

  EmbedService service(MakeSnapshot());
  ServerOptions options;
  options.max_connections = 16;
  options.read_deadline_ms = 2000;  // reap stuck peers, tolerate delay_ms
  options.write_deadline_ms = 2000;
  options.max_pending_requests = 32;
  options.drain_timeout_ms = 2000;
  EmbedServer server(&service, options, &server_io);
  EXPECT_TRUE(server.Start(0).ok());

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 10;
  constexpr int kTotalCalls = kClients * kCallsPerClient;
  std::atomic<int> definite{0};
  std::atomic<int> ok_replies{0};

  // Swapper: issues swap g once g/(kSwaps+1) of the calls are definite, so
  // the swaps land spread across the run. Its control connection uses the
  // clean client transport (the server-side faults still apply). Swaps are
  // non-idempotent, so they are retried only through the explicit opt-in,
  // and a lost ack is tolerated rather than gated on.
  int swaps_acked = 0;  // written by the swapper, read after join
  std::thread swapper([&] {
    RetryPolicy policy;
    policy.retry_non_idempotent = true;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 8;
    policy.jitter_seed = seed + 99;
    auto control = ServeClient::Connect(server.port());
    EXPECT_TRUE(control.ok()) << control.status().message();
    if (!control.ok()) return;
    for (int g = 1; g <= kSwaps; ++g) {
      while (definite.load() < kTotalCalls * g / (kSwaps + 1))
        std::this_thread::yield();
      StatusOr<std::string> ack = control.value().CallWithRetry(
          "{\"op\":\"swap\",\"path\":\"" + swap_paths[g - 1] + "\"}",
          policy);
      if (ack.ok() && ack.value().rfind("{\"ok\":true", 0) == 0)
        ++swaps_acked;
    }
  });

  const char* const kOps[] = {"lookup", "knn", "classify", "anomaly",
                              "community"};
  std::vector<std::thread> fleet;
  fleet.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      RetryPolicy policy;
      policy.max_attempts = 5;
      policy.initial_backoff_ms = 1;
      policy.max_backoff_ms = 8;
      policy.jitter_seed = seed * 1000 + static_cast<uint64_t>(c);
      auto client = ServeClient::Connect(server.port(), &client_io);
      for (int i = 0; i < kCallsPerClient; ++i) {
        if (!client.ok()) {
          client = ServeClient::Connect(server.port(), &client_io);
          if (!client.ok()) {
            definite.fetch_add(1);  // typed connect failure is an outcome
            continue;
          }
        }
        const std::string op = kOps[(c + i) % 5];
        const std::string body = "{\"op\":\"" + op + "\",\"id\":" +
                                 std::to_string(i % kNodes) +
                                 (op == "knn" ? ",\"k\":3}" : "}");
        StatusOr<std::string> reply =
            client.value().CallWithRetry(body, policy);
        definite.fetch_add(1);
        if (reply.ok() && reply.value().rfind("{\"ok\":true", 0) == 0)
          ok_replies.fetch_add(1);
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  swapper.join();
  EXPECT_EQ(definite.load(), kTotalCalls)
      << "a Call() hung or vanished under seed " << seed;
  EXPECT_GT(ok_replies.load(), 0) << "no call succeeded under seed " << seed;
  EXPECT_EQ(errors->Value() - errors_before, 0u)
      << "engine errors under seed " << seed;
  EXPECT_GE(swaps->Value() - swaps_before, static_cast<uint64_t>(swaps_acked))
      << "an acked swap never published under seed " << seed;

  server.Stop();
  EXPECT_EQ(server.active_connections(), 0)
      << "leaked connection thread under seed " << seed;
  EXPECT_EQ(ActiveConnectionsGaugeValue(), 0.0);
  EXPECT_GT(server_io.injected_faults() + client_io.injected_faults(), 0)
      << "schedule injected nothing; the round tested only the happy path";
}

TEST(ServeChaos, SweepThreeSeedsEveryCallDefiniteNoLeaks) {
  // Three distinct schedules; with retries most calls should still land.
  for (const uint64_t seed : {7ull, 1337ull, 0xC0FFEEull}) RunChaosRound(seed);
}

// --- Connection-cap admission control (ServerOptions.max_connections) -------

TEST(ServeChaos, OverCapConnectGetsTypedRejectionNotAHang) {
  EmbedService service(MakeSnapshot());
  ServerOptions options;
  options.max_connections = 2;
  EmbedServer server(&service, options);
  ASSERT_TRUE(server.Start(0).ok());

  // Fill the cap. Each Call proves its connection thread is registered.
  auto first = ServeClient::Connect(server.port());
  auto second = ServeClient::Connect(server.port());
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(first.value().Call("{\"op\":\"stats\"}").ok());
  ASSERT_TRUE(second.value().Call("{\"op\":\"stats\"}").ok());

  // The cap+1-th connect is answered immediately: one "overloaded" frame,
  // then EOF — a typed rejection, not a hang and not a silent reset.
  auto shed = ServeClient::Connect(server.port());
  ASSERT_TRUE(shed.ok()) << shed.status().message();
  StatusOr<std::string> frame = shed.value().ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_TRUE(HasCode(frame.value(), "overloaded")) << frame.value();
  StatusOr<std::string> after = shed.value().ReadFrame();
  EXPECT_FALSE(after.ok());  // orderly close behind the rejection

  // Capacity frees up once a capped connection finishes.
  ASSERT_TRUE(first.value().FinishRequests().ok());
  EXPECT_FALSE(first.value().ReadFrame().ok());  // server closed its side
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto retry = ServeClient::Connect(server.port());
    ASSERT_TRUE(retry.ok());
    if (retry.value().Call("{\"op\":\"stats\"}").ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot never freed after a capped connection closed";
}

// --- Read deadlines (slow-loris reaping) ------------------------------------

TEST(ServeChaos, SlowLorisReaderIsReapedWithTypedFrame) {
  EmbedService service(MakeSnapshot());
  ServerOptions options;
  options.read_deadline_ms = 50;
  EmbedServer server(&service, options);
  ASSERT_TRUE(server.Start(0).ok());

  // Dribble two bytes of a length prefix, then stall. The server must not
  // park a thread on us forever: it answers with "deadline_exceeded" and
  // drops the connection.
  auto client = ServeClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().SendRaw(std::string("\x08\x00", 2)).ok());
  StatusOr<std::string> frame = client.value().ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_TRUE(HasCode(frame.value(), "deadline_exceeded")) << frame.value();
  EXPECT_FALSE(client.value().ReadFrame().ok());  // connection is gone

  server.Stop();
  EXPECT_EQ(server.active_connections(), 0);
}

// --- Request deadlines (wire-carried deadline_ms) ---------------------------

TEST(ServeChaos, ExpiredRequestDeadlineAnswersTypedErrorInOrder) {
  EmbedService service(MakeSnapshot());
  // Fake clock: every observation advances 20 ms, so a request stamped on
  // arrival has "aged" 20+ ms by the time FlushBatch checks it.
  double now_ms = 0.0;
  SessionOptions session_options;
  session_options.now_ms = [&now_ms] { return now_ms += 20.0; };
  ServeSession session(&service, session_options);

  // Two pipelined queries: generous budget (survives), tight budget
  // (expires). Responses must come back in request order — the expired
  // request's error frame holds its slot.
  session.Consume(
      EncodeFrame("{\"op\":\"lookup\",\"id\":0,\"deadline_ms\":10000}") +
      EncodeFrame("{\"op\":\"lookup\",\"id\":1,\"deadline_ms\":10}"));
  FrameDecoder decoder;
  decoder.Feed(session.TakeOutput());
  std::vector<std::string> bodies;
  std::string body;
  while (decoder.Next(&body)) bodies.push_back(body);
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0].rfind("{\"ok\":true", 0), 0u) << bodies[0];
  EXPECT_TRUE(HasCode(bodies[1], "deadline_exceeded")) << bodies[1];
  EXPECT_NE(bodies[1].find("expired before execution"), std::string::npos);
}

TEST(ServeChaos, UnexpiredDeadlineExecutesNormally) {
  EmbedService service(MakeSnapshot());
  ServeSession session(&service);  // real clock; 10 s will not expire
  session.Consume(
      EncodeFrame("{\"op\":\"lookup\",\"id\":2,\"deadline_ms\":10000}"));
  const std::string out = session.TakeOutput();
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
}

// --- Pending-request budget shedding ----------------------------------------

TEST(ServeChaos, BudgetExhaustionShedsTypedOverloadedInOrder) {
  EmbedService service(MakeSnapshot());
  AdmissionController admission(/*budget=*/1);
  SessionOptions session_options;
  session_options.admission = &admission;
  ServeSession session(&service, session_options);

  // Three pipelined queries against a budget of one. The first is admitted;
  // the second finds the budget full, forces the pending batch to flush
  // (restoring the budget), and sheds; the third is admitted again. Order
  // is preserved: ok, overloaded, ok.
  session.Consume(EncodeFrame("{\"op\":\"lookup\",\"id\":0}") +
                  EncodeFrame("{\"op\":\"lookup\",\"id\":1}") +
                  EncodeFrame("{\"op\":\"lookup\",\"id\":2}"));
  FrameDecoder decoder;
  decoder.Feed(session.TakeOutput());
  std::vector<std::string> bodies;
  std::string body;
  while (decoder.Next(&body)) bodies.push_back(body);
  ASSERT_EQ(bodies.size(), 3u);
  EXPECT_EQ(bodies[0].rfind("{\"ok\":true", 0), 0u) << bodies[0];
  EXPECT_TRUE(HasCode(bodies[1], "overloaded")) << bodies[1];
  EXPECT_NE(bodies[1].find("request shed"), std::string::npos);
  EXPECT_EQ(bodies[2].rfind("{\"ok\":true", 0), 0u) << bodies[2];
  EXPECT_EQ(admission.in_flight(), 0);
}

// --- Client retry/backoff ---------------------------------------------------

TEST(ServeChaos, RetryReconnectsAndRecoversFromInjectedReset) {
  EmbedService service(MakeSnapshot());
  EmbedServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  // The client's very first write is reset; the retry loop must tear the
  // connection down, reconnect, and land the request on attempt two.
  SocketFaultSchedule faults;
  faults.reset_write_at = 0;
  FaultInjectingSocketIo client_io(faults);
  auto client = ServeClient::Connect(server.port(), &client_io);
  ASSERT_TRUE(client.ok());
  StatusOr<std::string> reply =
      client.value().CallWithRetry("{\"op\":\"lookup\",\"id\":3}");
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_EQ(reply.value().rfind("{\"ok\":true", 0), 0u) << reply.value();
  EXPECT_EQ(client_io.injected_faults(), 1);
  EXPECT_GE(client_io.writes(), 2);  // the faulted write plus the retry
}

TEST(ServeChaos, TransportErrorOnSwapIsNotRetriedByDefault) {
  EmbedService service(MakeSnapshot());
  EmbedServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  SocketFaultSchedule faults;
  faults.reset_write_at = 0;
  FaultInjectingSocketIo client_io(faults);
  auto client = ServeClient::Connect(server.port(), &client_io);
  ASSERT_TRUE(client.ok());
  // A swap that dies in flight may have executed server-side, so the
  // default policy gives it exactly one transport attempt.
  const std::string swap = "{\"op\":\"swap\",\"path\":\"/nonexistent.ansv\"}";
  StatusOr<std::string> reply = client.value().CallWithRetry(swap);
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("non-idempotent"),
            std::string::npos)
      << reply.status().message();
  EXPECT_EQ(client_io.writes(), 1);  // no second attempt went out

  // Opting in retries it; the server then answers (with a typed load error
  // for the bogus path — a definite reply, which is the point).
  RetryPolicy opt_in;
  opt_in.retry_non_idempotent = true;
  SocketFaultSchedule retry_faults;
  retry_faults.reset_write_at = 0;
  FaultInjectingSocketIo retry_io(retry_faults);
  auto second = ServeClient::Connect(server.port(), &retry_io);
  ASSERT_TRUE(second.ok());
  StatusOr<std::string> retried =
      second.value().CallWithRetry(swap, opt_in);
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  EXPECT_NE(retried.value().find("\"ok\":false"), std::string::npos);
}

TEST(ServeChaos, RetriesExhaustIntoTypedStatusNotAHang) {
  EmbedService service(MakeSnapshot());
  EmbedServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());

  // Every client write is reset, so every attempt fails. The loop must give
  // up after max_attempts and report the count plus the last transport
  // error — a definite outcome, promptly.
  SocketFaultSchedule faults;
  faults.reset_write = 1.0;
  FaultInjectingSocketIo client_io(faults);
  auto client = ServeClient::Connect(server.port(), &client_io);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  StatusOr<std::string> reply =
      client.value().CallWithRetry("{\"op\":\"lookup\",\"id\":0}", policy);
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("exhausted 3 attempts"),
            std::string::npos)
      << reply.status().message();
  EXPECT_GE(client_io.injected_faults(), 3);
}

// --- Graceful drain and Stop() lifecycle ------------------------------------

TEST(ServeChaos, StopDrainsIdleConnectionsAndZeroesTheGauge) {
  EmbedService service(MakeSnapshot());
  ServerOptions options;
  options.drain_timeout_ms = 2000;
  auto server = std::make_unique<EmbedServer>(&service, options);
  ASSERT_TRUE(server->Start(0).ok());

  // Three live connections, all answered, then left idle (threads parked in
  // recv with no deadline). Stop() must drain them via read half-close —
  // not wait out the full drain window, not leak a thread.
  std::vector<ServeClient> clients;
  for (int i = 0; i < 3; ++i) {
    auto client = ServeClient::Connect(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().Call("{\"op\":\"stats\"}").ok());
    clients.push_back(std::move(client).value());
  }
  EXPECT_EQ(server->active_connections(), 3);
  const double before_ms = MonotonicMs();
  server->Stop();
  EXPECT_LT(MonotonicMs() - before_ms, options.drain_timeout_ms)
      << "drain waited out the full window on idle connections";
  EXPECT_EQ(server->active_connections(), 0);
  EXPECT_EQ(ActiveConnectionsGaugeValue(), 0.0);
  server.reset();  // destructor after Stop() must be a no-op
}

TEST(ServeChaos, StopIsIdempotentAndSafeBeforeStart) {
  EmbedService service(MakeSnapshot());
  {
    EmbedServer never_started(&service);
    never_started.Stop();  // Stop() before Start(): no hang, no crash
    never_started.Stop();  // and twice
  }                        // destructor after Stop(): no double unwind
  {
    EmbedServer server(&service);
    ASSERT_TRUE(server.Start(0).ok());
    server.Stop();
    server.Stop();  // second Stop() waits for / observes the first
    EXPECT_EQ(server.active_connections(), 0);
  }
}

TEST(ServeChaos, ConcurrentStopsAllComplete) {
  EmbedService service(MakeSnapshot());
  EmbedServer server(&service);
  ASSERT_TRUE(server.Start(0).ok());
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i)
    stoppers.emplace_back([&server] { server.Stop(); });
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(server.active_connections(), 0);
}

// --- serve --probe exit discipline (satellite c) ----------------------------

#ifdef ANECI_CLI_PATH

/// Runs the CLI binary and returns its exit code (-1 on popen failure).
int RunCli(const std::string& args) {
  const std::string cmd =
      std::string(ANECI_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  const int raw = pclose(pipe);
  return (raw >= 0 && WIFEXITED(raw)) ? WEXITSTATUS(raw) : -1;
}

TEST(ServeProbe, ExitsNonzeroOnMissingModel) {
  EXPECT_NE(RunCli("serve --model=/definitely/not/a/model.ansv --probe"), 0);
}

TEST(ServeProbe, ExitsNonzeroWhenPortIsTaken) {
  // Occupy a port, then ask the CLI to bind it: Start() must fail and the
  // probe must exit nonzero instead of wedging.
  int taken_port = 0;
  auto blocker = SocketIo::Default()->Listen(0, &taken_port);
  ASSERT_TRUE(blocker.ok());

  const std::string dir = testing::TempDir() + "/chaos_probe";
  ASSERT_TRUE(Env::Default()->CreateDir(dir).ok());
  const std::string model_path = dir + "/m.ansv";
  ASSERT_TRUE(SaveModelArtifact(MakeArtifact(), model_path).ok());
  EXPECT_NE(RunCli("serve --model=" + model_path +
                   " --port=" + std::to_string(taken_port) + " --probe"),
            0);
  // Control: the same artifact on a free port probes clean.
  EXPECT_EQ(RunCli("serve --model=" + model_path + " --port=0 --probe"), 0);
}

#endif  // ANECI_CLI_PATH

}  // namespace
}  // namespace aneci::serve
