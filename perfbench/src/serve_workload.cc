// serve-mixed: open-loop traffic over loopback against a synthetic
// 19,717 x 16 ANSV snapshot (the Pubmed node count), generated the way
// bench_serve_load generates its artifacts.
//
// Independent users send requests whatever the server's state, so the load
// is an open loop: a fixed schedule of evenly spaced requests, round-robin
// over at most nproc - 1 connections, point ops uniform plus one knn (k=10)
// in 16, and three swaps from file at the reference rate on one more
// connection. Latency is timed at the client from each request's due time,
// so a stall also charges the requests queued behind it. max_qps_at_slo is
// found by bisection over the fixed ladder of offered rates above the
// reference rate, between the highest rung that meets the p99 limit with a
// steady backlog and the next rung up, which misses it.
//
// The traced pass replays request bodies in process: each request runs
// through the public layer calls (parse, execute, render, frame) untraced,
// then again with a span around each call, then through
// ServeSession::Consume inside a "request" span. Coverage is the layer
// spans' share of the Consume time; overhead is the traced calls against
// the untraced ones. It also times artifact load and swap from file.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_artifact.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aneci::serve::QueryOp;

constexpr int kNodes = 19717;
constexpr int kDim = 16;
// Queries share all but one connection; swaps travel on the last one.
constexpr int kConnections = 4;
constexpr int kKnnEvery = 16;
constexpr int kSwaps = 3;
// The reference rate runs in this many segments spread through the run, one
// swap in each, so that its one-second windows sample the host's load over
// the whole run rather than one stretch of it.
constexpr int kReferenceSegments = kSwaps;
// Every 64th lookup reply is compared with an offline render.
constexpr int kCheckEvery = 64;
constexpr int kSetupRepeats = 5;
// Requests the traced pass replays in process.
constexpr size_t kReplayRequests = 20000;

constexpr QueryOp kPointOps[] = {QueryOp::kLookup, QueryOp::kClassify,
                                 QueryOp::kAnomaly, QueryOp::kCommunity};
constexpr QueryOp kAllOps[] = {QueryOp::kLookup, QueryOp::kKnn,
                               QueryOp::kClassify, QueryOp::kAnomaly,
                               QueryOp::kCommunity};

/// Deterministic synthetic artifact, as in bench_serve_load; `generation`
/// shifts every value so each swap target differs from the last.
aneci::serve::ModelArtifact MakeArtifact(int nodes, int dim, int generation,
                                         uint64_t seed) {
  aneci::serve::ModelArtifact artifact;
  artifact.num_nodes = nodes;
  artifact.embed_dim = dim;
  artifact.num_classes = 5;
  artifact.z = aneci::Matrix(nodes, dim);
  artifact.p = aneci::Matrix(nodes, dim);
  artifact.proba = aneci::Matrix(nodes, artifact.num_classes);
  aneci::Rng rng(seed * 1000003ULL + generation);
  for (int i = 0; i < nodes; ++i) {
    for (int j = 0; j < dim; ++j) {
      artifact.z(i, j) = rng.NextDouble() + generation;
      artifact.p(i, j) = 1.0 / dim;
    }
    for (int c = 0; c < artifact.num_classes; ++c)
      artifact.proba(i, c) = 1.0 / artifact.num_classes;
  }
  artifact.community.assign(nodes, 0);
  artifact.anomaly.assign(nodes, 0.5);
  return artifact;
}

/// One scheduled request. Its wire body is built when it is sent, so that a
/// rung's schedule and results stay small: peak memory then measures the
/// server, not how many requests the client has queued up.
struct Request {
  double due_s = 0.0;  ///< Offset from the start of the rung.
  int id = 0;          ///< Node id of a query; index into Rung::swap_to of a swap.
  int conn = 0;
  QueryOp op = QueryOp::kStats;
  bool swap = false;
  bool check = false;  ///< Compare the reply with an offline render.
};

struct Rung {
  double qps = 0.0;
  std::vector<std::string> swap_to;  ///< Files the swaps load, in order.
  std::vector<Request> requests;
  // Filled by RunRung.
  std::vector<double> latency_ms;  ///< Completion minus due time.
  std::vector<double> due_s;       ///< Due offset of each latency sample.
  std::vector<double> rtt_ms;      ///< Completion minus send time.
  std::vector<double> late_ms;     ///< Send time minus due time.
  std::vector<std::string> checked_replies;
  uint64_t failed = 0;
  double achieved_qps = 0.0;
  bool backlog_grew = false;
};

std::string Body(const Rung& rung, const Request& r) {
  if (r.swap)
    return "{\"op\":\"swap\",\"path\":\"" + rung.swap_to[r.id] + "\"}";
  return std::string("{\"op\":\"") + aneci::serve::QueryOpName(r.op) +
         "\",\"id\":" + std::to_string(r.id) +
         (r.op == QueryOp::kKnn ? ",\"k\":10}" : "}");
}

/// The rung's schedule: evenly spaced requests at `qps` for `seconds`, with
/// one swap to each file of `swap_to`, in order, spread evenly through it.
void BuildSchedule(Rung* rung, double seconds, int conns, int nodes,
                   std::vector<std::string> swap_to, aneci::Rng& rng) {
  const int n = std::max(1, static_cast<int>(rung->qps * seconds));
  rung->swap_to = std::move(swap_to);
  const int64_t swaps = static_cast<int64_t>(rung->swap_to.size());
  int64_t next_swap = 0;
  int lookups = 0;
  rung->requests.reserve(n + swaps);
  for (int i = 0; i < n; ++i) {
    Request r;
    r.due_s = i / rung->qps;
    if (next_swap < swaps && i == n * (next_swap + 1) / (swaps + 1)) {
      Request s;
      s.swap = true;
      s.due_s = r.due_s;
      s.id = static_cast<int>(next_swap++);
      rung->requests.push_back(s);
    }
    r.op = i % kKnnEvery == 0 ? QueryOp::kKnn : kPointOps[rng.NextU64() % 4];
    r.id = static_cast<int>(rng.NextU64() % nodes);
    r.check = r.op == QueryOp::kLookup && lookups++ % kCheckEvery == 0;
    rung->requests.push_back(r);
  }
  // Swaps travel on their own control connection, as an operator's would;
  // queries share the others round-robin.
  const int traffic = conns > 1 ? conns - 1 : 1;
  int next_conn = 0;
  for (Request& r : rung->requests)
    r.conn = r.swap && conns > 1 ? conns - 1 : next_conn++ % traffic;
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void WaitUntil(double t) {
  double now = NowSeconds();
  if (t - now > 120e-6)
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now - 80e-6));
  while (NowSeconds() < t) {
  }
}

/// Plays one rung: a generator thread sends each frame at its due time while
/// this thread collects replies, which arrive in request order per
/// connection.
void RunRung(Rung* rung, const std::vector<int>& fds, double limit_ms) {
  const size_t n = rung->requests.size();
  const int conns = static_cast<int>(fds.size());
  std::vector<std::vector<size_t>> order(conns);
  for (size_t i = 0; i < n; ++i) order[rung->requests[i].conn].push_back(i);
  std::vector<double> sent(n, 0.0), done(n, -1.0);

  const double t0 = NowSeconds() + 0.005;
  std::atomic<bool> send_failed{false};
  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      const Request& r = rung->requests[i];
      const std::string frame = aneci::serve::EncodeFrame(Body(*rung, r));
      WaitUntil(t0 + r.due_s);
      if (!SendAll(fds[r.conn], frame)) {
        send_failed = true;
        return;
      }
      sent[i] = NowSeconds();
    }
  });

  std::vector<aneci::serve::FrameDecoder> decoders(conns);
  std::vector<size_t> next(conns, 0);
  std::vector<pollfd> pfds(conns);
  for (int c = 0; c < conns; ++c) pfds[c] = {fds[c], POLLIN, 0};
  const double deadline = t0 + rung->requests.back().due_s + 10.0;
  size_t remaining = n;
  std::vector<char> buf(1 << 16);
  std::string body;
  while (remaining > 0 && NowSeconds() < deadline && !send_failed) {
    if (poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (int c = 0; c < conns; ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t got = recv(fds[c], buf.data(), buf.size(), 0);
      if (got <= 0) {
        pfds[c].fd = -1;  // Closed; its outstanding replies count as failed.
        continue;
      }
      const double now = NowSeconds();
      decoders[c].Feed(std::string_view(buf.data(), static_cast<size_t>(got)));
      while (next[c] < order[c].size() && decoders[c].Next(&body)) {
        const size_t i = order[c][next[c]++];
        --remaining;
        if (body.rfind("{\"ok\":true", 0) != 0) {
          if (++rung->failed <= 3)
            std::fprintf(stderr, "failed request %s -> %s\n",
                         Body(*rung, rung->requests[i]).c_str(), body.c_str());
          continue;
        }
        done[i] = now;
        if (rung->requests[i].check) rung->checked_replies.push_back(body);
      }
    }
  }
  generator.join();

  double first_due = t0, last_done = t0;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = rung->requests[i];
    if (done[i] < 0.0) continue;
    last_done = std::max(last_done, done[i]);
    if (r.swap) continue;
    const double due = t0 + r.due_s;
    rung->latency_ms.push_back((done[i] - due) * 1e3);
    rung->due_s.push_back(r.due_s);
    rung->rtt_ms.push_back((done[i] - sent[i]) * 1e3);
    rung->late_ms.push_back((sent[i] - due) * 1e3);
  }
  rung->failed += remaining;  // Never answered.
  rung->achieved_qps = RatePerWallSecond(static_cast<double>(n - rung->failed),
                                         last_done - first_due);
  // A backlog that grows through the rung shows as the last tenth of the
  // requests waiting longer than the limit.
  const size_t tail = std::max<size_t>(1, rung->latency_ms.size() / 10);
  std::vector<double> last(rung->latency_ms.end() - std::min(tail, rung->latency_ms.size()),
                           rung->latency_ms.end());
  rung->backlog_grew = Median(last) > limit_ms;
}

/// Latency percentiles are medians over one-second windows of the rung.
constexpr double kWindowSeconds = 1.0;

PercentileValue RungPercentile(const Rung& rung, double percentile) {
  return WindowedPercentile(rung.latency_ms, rung.due_s, kWindowSeconds,
                            percentile);
}

bool RungMeetsSlo(const Rung& rung, double limit_ms) {
  return rung.failed == 0 && !rung.backlog_grew &&
         RungPercentile(rung, 99.0).value <= limit_ms;
}

/// The server, its service and the client connections of one set-up.
struct Deployment {
  std::unique_ptr<aneci::serve::EmbedService> service;
  std::unique_ptr<aneci::serve::EmbedServer> server;
  std::vector<int> fds;
  std::vector<std::string> paths;

  ~Deployment() {
    for (int fd : fds) close(fd);
    if (server) server->Stop();
  }
};

std::unique_ptr<Deployment> Deploy(const Options& options, int nodes, int dim,
                                   int swaps, int conns) {
  auto d = std::make_unique<Deployment>();
  for (int g = 0; g <= swaps; ++g) {
    d->paths.push_back(options.work_dir + "/serve-model-g" +
                       std::to_string(g) + ".ansv");
    aneci::Status st = aneci::serve::SaveModelArtifact(
        MakeArtifact(nodes, dim, g, options.seed), d->paths.back());
    if (!st.ok()) throw std::runtime_error(st.ToString());
  }
  auto initial = aneci::serve::ModelSnapshot::Load(d->paths[0], 1);
  if (!initial.ok()) throw std::runtime_error(initial.status().ToString());
  d->service = std::make_unique<aneci::serve::EmbedService>(
      std::move(initial).value());
  d->server = std::make_unique<aneci::serve::EmbedServer>(d->service.get());
  aneci::Status st = d->server->Start(0);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  for (int c = 0; c < conns; ++c)
    d->fds.push_back(ConnectLoopback(d->server->port()));
  return d;
}

/// Checks sampled lookup replies against RenderResponse on the snapshot
/// version each reply names. Version 1 is generation 0; swaps publish
/// generations 1..swaps in turn.
int CountLookupMismatches(const std::vector<std::string>& replies,
                          const std::vector<std::string>& paths, int swaps) {
  std::vector<std::unique_ptr<aneci::serve::QueryEngine>> engines;
  for (const std::string& path : paths) {
    auto artifact = aneci::serve::LoadModelArtifact(path);
    if (!artifact.ok()) return static_cast<int>(replies.size());
    engines.push_back(std::make_unique<aneci::serve::QueryEngine>(
        std::make_shared<const aneci::serve::ModelSnapshot>(
            std::move(artifact).value(), 0, path)));
  }
  int mismatches = 0;
  for (const std::string& reply : replies) {
    const size_t vpos = reply.find("\"version\":");
    const size_t ipos = reply.find("\"id\":");
    if (vpos == std::string::npos || ipos == std::string::npos) {
      ++mismatches;
      continue;
    }
    const uint64_t version = std::stoull(reply.substr(vpos + 10));
    const int id = std::stoi(reply.substr(ipos + 5));
    const int generation =
        version <= 1 ? 0 : static_cast<int>((version - 2) % swaps) + 1;
    aneci::serve::QueryRequest request;
    request.op = QueryOp::kLookup;
    request.id = id;
    aneci::serve::QueryResult result = engines[generation]->Execute(request);
    result.response.snapshot_version = version;
    if (!result.ok() || aneci::serve::RenderResponse(result.response) != reply)
      ++mismatches;
  }
  return mismatches;
}

int Connections() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(kConnections, hw));
}

int Nodes(const Options& options) {
  return std::max(64, static_cast<int>(kNodes * options.scale));
}

Rung MakeRung(const Options& options, double qps, double seconds,
              const std::vector<std::string>& swap_to, aneci::Rng& rng) {
  Rung rung;
  rung.qps = qps;
  BuildSchedule(&rung, seconds, Connections(), Nodes(options), swap_to, rng);
  return rung;
}

/// Appends a rung's samples to `into`, its windows after those already
/// there, so that windowed percentiles treat both as one rung.
void AppendRung(const Rung& rung, Rung* into) {
  const double offset =
      into->due_s.empty() ? 0.0 : std::ceil(into->due_s.back() + 1.0);
  for (double due : rung.due_s) into->due_s.push_back(offset + due);
  into->latency_ms.insert(into->latency_ms.end(), rung.latency_ms.begin(),
                          rung.latency_ms.end());
  into->rtt_ms.insert(into->rtt_ms.end(), rung.rtt_ms.begin(),
                      rung.rtt_ms.end());
  into->late_ms.insert(into->late_ms.end(), rung.late_ms.begin(),
                       rung.late_ms.end());
  into->failed += rung.failed;
  into->backlog_grew = into->backlog_grew || rung.backlog_grew;
  into->qps = rung.qps;
  into->achieved_qps = rung.achieved_qps;
}

/// Counts the rung's requests and checks its sampled lookup replies.
void CheckRung(const Rung& rung, const Deployment& deployment,
               const std::string& what, Result* result) {
  result->CountOps(rung.requests.size(), rung.failed);
  const int mismatches =
      CountLookupMismatches(rung.checked_replies, deployment.paths, kSwaps);
  result->Check(mismatches == 0 && !rung.checked_replies.empty(),
                what + ": " + std::to_string(rung.checked_replies.size()) +
                    " sampled lookups byte-equal to offline RenderResponse (" +
                    std::to_string(mismatches) + " differ)");
}

std::string DescribeRung(const Rung& rung, double limit_ms) {
  char line[220];
  std::snprintf(line, sizeof(line),
                "rung %.0f qps: achieved %.1f, p50 %.4f ms, p99 %.4f ms "
                "(n=%zu), backlog %s, %s",
                rung.qps, rung.achieved_qps, RungPercentile(rung, 50.0).value,
                RungPercentile(rung, 99.0).value, rung.latency_ms.size(),
                rung.backlog_grew ? "grew" : "steady",
                RungMeetsSlo(rung, limit_ms) ? "meets SLO" : "misses SLO");
  return line;
}

/// Runs `fn`, inside a span when `tracer` is set.
template <typename Fn>
auto MaybeSpan(Tracer* tracer, const std::string& name, int64_t id, Fn&& fn) {
  if (tracer == nullptr) return fn();
  ScopedSpan span(tracer, name, id);
  return fn();
}

/// What ServeSession::Consume does with one query frame, rebuilt from the
/// public layer calls. `execute_span` names the execute span of the query's
/// op. Returns false when the request does not parse.
bool ReplayRequest(const aneci::serve::EmbedService& service,
                   const std::string& body, const std::string& execute_span,
                   int64_t id, Tracer* tracer) {
  aneci::StatusOr<aneci::serve::WireRequest> parsed =
      MaybeSpan(tracer, "serve.wire.parse", id,
                [&] { return aneci::serve::ParseWireRequest(body); });
  if (!parsed.ok()) return false;
  const aneci::serve::QueryResult executed =
      MaybeSpan(tracer, execute_span, id, [&] {
        return service.engine().Execute(parsed.value().query);
      });
  const std::string rendered = MaybeSpan(tracer, "serve.wire.render", id, [&] {
    return aneci::serve::RenderResponse(executed.response);
  });
  const std::string frame = MaybeSpan(tracer, "serve.wire.frame", id, [&] {
    return aneci::serve::EncodeFrame(rendered);
  });
  return !frame.empty();
}

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  aneci::MetricsRegistry::Global().set_enabled(false);
  const double limit_ms = options.p99_limit_ms;
  const double ref_qps = options.reference_qps;
  std::vector<double> ladder = options.ladder_qps;
  std::sort(ladder.begin(), ladder.end());
  const auto ref_it = std::find(ladder.begin(), ladder.end(), ref_qps);
  if (ref_it == ladder.end())
    throw std::invalid_argument("the reference rate is not on the ladder");

  std::unique_ptr<Deployment> deployment;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&](int) {
    deployment.reset();
    deployment = Deploy(options, Nodes(options), kDim, kSwaps, Connections());
  });
  result.Note("snapshot " + std::to_string(Nodes(options)) + " x " +
              std::to_string(kDim) + ", " + std::to_string(Connections()) +
              " connections, p99 limit " + std::to_string(limit_ms) + " ms");

  aneci::Rng rng(options.seed ^ 0x5e7e5e7eULL);
  // The reference rate gets 30% of the run and the swaps, in segments
  // before, amid and after the bisection rungs, which share the rest.
  Rung reference;
  int segments = 0;
  auto run_reference_segment = [&] {
    ++segments;
    Rung segment = MakeRung(options, ref_qps,
                            0.3 * options.seconds / kReferenceSegments,
                            {deployment->paths[segments]}, rng);
    RunRung(&segment, deployment->fds, limit_ms);
    CheckRung(segment, *deployment,
              "reference segment " + std::to_string(segments), &result);
    AppendRung(segment, &reference);
  };
  run_reference_segment();

  // Bisection over the ladder above the reference: `lo` meets the SLO,
  // `hi` misses it (one past the top counts as missing).
  size_t lo = static_cast<size_t>(ref_it - ladder.begin());
  size_t hi = ladder.size();
  struct Point {
    double qps = 0.0;
    double p99_ms = 0.0;
  };
  Point pass{reference.achieved_qps, RungPercentile(reference, 99.0).value};
  Point miss;
  std::string missed = "none: the top of the ladder met the SLO";
  const bool bisect = RungMeetsSlo(reference, limit_ms);
  if (bisect) {
    const int probes = static_cast<int>(std::ceil(std::log2(hi - lo))) + 1;
    const double probe_s = 0.7 * options.seconds / std::max(1, probes);
    for (int probe = 0; hi - lo > 1; ++probe) {
      if (segments < kReferenceSegments &&
          probe * (kReferenceSegments - 1) >= segments * probes)
        run_reference_segment();
      const size_t mid = (lo + hi) / 2;
      Rung rung = MakeRung(options, ladder[mid], probe_s, {}, rng);
      RunRung(&rung, deployment->fds, limit_ms);
      CheckRung(rung, *deployment,
                "rung " + std::to_string(static_cast<int>(ladder[mid])),
                &result);
      result.Note(DescribeRung(rung, limit_ms));
      const Point point{rung.achieved_qps, RungPercentile(rung, 99.0).value};
      if (RungMeetsSlo(rung, limit_ms)) {
        lo = mid;
        pass = point;
      } else {
        hi = mid;
        miss = point;
        missed = DescribeRung(rung, limit_ms);
      }
    }
  }
  while (segments < kReferenceSegments) run_reference_segment();
  result.Note(DescribeRung(reference, limit_ms));
  double max_qps = 1e-3;
  if (bisect && RungMeetsSlo(reference, limit_ms)) {
    // The rate at which the p99 reaches the limit, interpolated between the
    // highest rung that meets it and the next rung up, which misses it, so
    // that a move smaller than one rung still shows.
    max_qps = pass.qps;
    if (hi < ladder.size() && miss.p99_ms > pass.p99_ms)
      max_qps += (miss.qps - pass.qps) *
                 std::clamp((limit_ms - pass.p99_ms) / (miss.p99_ms - pass.p99_ms),
                            0.0, 1.0);
  } else {
    result.Note("the reference rate missed the SLO; throughput_per_s reads 0.001");
  }
  result.Note("max_qps_at_slo: highest passing rung " +
              std::to_string(static_cast<int>(ladder[lo])) + " qps; next rung up: " +
              missed);
  if (hi == ladder.size())
    result.Note("warning: max_qps_at_slo is the ladder's ceiling; extend "
                "ladder-qps in perfbench/config.json");
  AddEndToEnd(&result, setup_s, RungPercentile(reference, 50.0),
              RungPercentile(reference, 99.0),
              "request at the reference rate, timed from its due time; "
              "median over one-second windows",
              max_qps,
              "max_qps_at_slo: the rate at which the p99 reaches the limit, "
              "interpolated between the highest ladder rung meeting it with a "
              "steady backlog and the next rung up");
  result.Note("serve.gen_late_ms_p99 = " +
              DescribePercentile(Percentile(reference.late_ms, 99.0)));
  return result;
}

void TraceServe(const Options& options, Tracer* tracer, Result* result) {
  aneci::MetricsRegistry& registry = aneci::MetricsRegistry::Global();
  registry.set_enabled(false);
  const std::unique_ptr<Deployment> deployment =
      Deploy(options, Nodes(options), kDim, kSwaps, Connections());
  aneci::Rng rng(options.seed ^ 0x5e7e5e7eULL);

  // One rung at the reference rate with the registry on, for the counters,
  // the generator's lateness and the client round trip.
  Rung rung = MakeRung(
      options, options.reference_qps, std::max(1.0, 0.3 * options.seconds),
      {deployment->paths.begin() + 1, deployment->paths.end()}, rng);
  registry.ResetValues();
  registry.set_enabled(true);
  RunRung(&rung, deployment->fds, options.p99_limit_ms);
  registry.set_enabled(false);
  CheckRung(rung, *deployment, "traced reference rung", result);
  uint64_t queries = 0;
  for (const Request& r : rung.requests) queries += r.swap ? 0 : 1;
  const uint64_t pf_calls = CounterValue("threadpool/parallel_for/calls",
                                         aneci::MetricClass::kDeterministic);
  result->Add("serve.service.batched_frac",
              static_cast<double>(CounterValue(
                  "serve/batched_queries", aneci::MetricClass::kDeterministic)) /
                  std::max<uint64_t>(1, queries),
              "frac");
  result->Add("util.thread_pool.parallel_for_calls.query",
              static_cast<double>(pf_calls) / std::max<uint64_t>(1, queries),
              "count");
  result->Add("util.thread_pool.serial_fallback_frac.query",
              pf_calls ? static_cast<double>(CounterValue(
                             "threadpool/serial_fallbacks",
                             aneci::MetricClass::kScheduling)) /
                             pf_calls
                       : 0.0,
              "frac");
  result->Add("serve.gen_late_ms_p99", Quantile(rung.late_ms, 0.99), "ms");

  // In-process replay, registry off: per request the untraced layer calls,
  // the traced layer calls, then the real ServeSession::Consume.
  aneci::serve::EmbedService& service = *deployment->service;
  aneci::serve::ServeSession session(&service);
  std::vector<double> plain_ms;
  size_t replayed = 0;
  for (size_t i = 0; i < rung.requests.size() && replayed < kReplayRequests;
       ++i) {
    const Request& r = rung.requests[i];
    if (r.swap) continue;
    ++replayed;
    const int64_t id = static_cast<int64_t>(i);
    const std::string body = Body(rung, r);
    const std::string frame = aneci::serve::EncodeFrame(body);
    const std::string execute_span =
        std::string("serve.query_engine.execute.") +
        aneci::serve::QueryOpName(r.op);
    WallTimer plain;
    const bool parsed = ReplayRequest(service, body, execute_span, id, nullptr);
    plain_ms.push_back(plain.Millis());
    {
      ScopedSpan span(tracer, "serve.replica", id);
      ReplayRequest(service, body, execute_span, id, tracer);
    }
    std::string out;
    {
      ScopedSpan span(tracer, "request", id);
      session.Consume(frame);
      out = session.TakeOutput();
    }
    result->CountOps(1, parsed && out.find("\"ok\":true") != std::string::npos
                            ? 0
                            : 1);
  }

  double layer_ms = 0.0;
  for (QueryOp op : kAllOps) {
    const std::string name = aneci::serve::QueryOpName(op);
    std::vector<double> us =
        tracer->Durations("serve.query_engine.execute." + name);
    for (double ms : us) layer_ms += ms;
    for (double& x : us) x *= 1e3;
    result->Add("serve.query_engine.execute_us_p50." + name, Quantile(us, 0.5),
                "us");
    result->Add("serve.query_engine.execute_us_p99." + name, Quantile(us, 0.99),
                "us");
    result->Note("execute " + name + ": " +
                 DescribePercentile(Percentile(us, 99.0)));
  }
  for (const char* span : {"serve.wire.parse", "serve.wire.render",
                           "serve.wire.frame"}) {
    for (double ms : tracer->Durations(span)) layer_ms += ms;
    result->Add(std::string(span) + "_us", tracer->MedianMs(span) * 1e3, "us");
  }
  double request_ms = 0.0;
  for (double ms : tracer->Durations("request")) request_ms += ms;
  const double consume_us = tracer->MedianMs("request") * 1e3;
  result->Add("serve.service.consume_us", consume_us, "us");
  result->Add("serve.server.socket_residual_us",
              Median(rung.rtt_ms) * 1e3 - consume_us, "us");
  AddTraceQuality(result, "serve",
                  tracer->MedianMs("serve.replica") / Median(plain_ms) - 1.0,
                  request_ms > 0.0 ? layer_ms / request_ms : 0.0,
                  "request (ServeSession::Consume)");

  for (int g = 1; g <= kSwaps; ++g) {
    {
      ScopedSpan s(tracer, "serve.model_artifact.load", -1);
      result->CountOps(
          1, aneci::serve::LoadModelArtifact(deployment->paths[g]).ok() ? 0 : 1);
    }
    ScopedSpan s(tracer, "serve.service.swap", -1);
    result->CountOps(1, service.SwapFromFile(deployment->paths[g]).ok() ? 0 : 1);
  }
  result->Add("serve.model_artifact.load_ms",
              tracer->MedianMs("serve.model_artifact.load"), "ms");
  result->Add("serve.service.swap_ms", tracer->MedianMs("serve.service.swap"),
              "ms");
}

}  // namespace perfbench
