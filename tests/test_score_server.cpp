// ScoreServer / ScoreClient pins: the socket path must be a transparent
// skin over ScoringService — scores bit-identical to in-process submission,
// typed errors passing through un-retried, transport faults retried then
// surfaced as kTransport, per-request deadlines resolving kTimeout through
// the wire, drain/ping/shutdown control semantics, and protocol garbage
// counted without taking the server down.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chem/conformer.h"
#include "models/sgcnn.h"
#include "screen/controller.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace df {
namespace {

using core::Rng;

chem::VoxelConfig tiny_voxel() {
  chem::VoxelConfig cfg;
  cfg.grid_dim = 8;
  return cfg;
}

models::RegressorFactory tiny_sg_factory() {
  return [] {
    Rng rng(42);
    models::SgcnnConfig cfg;
    cfg.covalent_k = 2;
    cfg.noncovalent_k = 2;
    cfg.covalent_gather_width = 8;
    cfg.noncovalent_gather_width = 16;
    return std::make_unique<models::Sgcnn>(cfg, rng);
  };
}

struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

class GatedScorer : public serve::Scorer {
 public:
  explicit GatedScorer(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gated"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    gate_->wait();
    return std::vector<float>(poses.size(), 1.0f);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

std::vector<chem::Atom> make_pocket(uint64_t seed) {
  Rng rng(seed);
  chem::Molecule m = chem::generate_molecule({}, rng);
  chem::embed_conformer(m, rng);
  return m.atoms();
}

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::PoseInput> poses;
  poses.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    serve::PoseInput p;
    p.ligand = std::move(lig);
    p.pocket = pocket;
    poses.push_back(std::move(p));
  }
  return poses;
}

serve::ModelRegistry sg_registry() {
  serve::ModelRegistry reg;
  serve::add_regressor(reg, "sgcnn", tiny_sg_factory(), tiny_voxel());
  return reg;
}

serve::ServiceConfig ordered_config(int workers, int poses_per_batch = 4) {
  serve::ServiceConfig sc;
  sc.workers = workers;
  sc.poses_per_batch = poses_per_batch;
  sc.ordered_stream = true;
  return sc;
}

serve::ClientConfig client_for(const serve::ScoreServer& server) {
  serve::ClientConfig cc;
  cc.port = server.port();
  cc.connect_timeout_ms = 2000;
  cc.backoff_base_ms = 1;
  cc.backoff_max_ms = 10;
  return cc;
}

// ---- hello / identity ---------------------------------------------------

TEST(ScoreServer, HelloAdvertisesServiceShape) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(2));
  serve::ServerConfig cfg;
  cfg.node_id = "test-node";
  serve::ScoreServer server(service, cfg);
  ASSERT_GT(server.port(), 0);

  serve::ScoreClient client(client_for(server));
  serve::wire::HelloPayload hello;
  std::string error;
  ASSERT_TRUE(client.hello(&hello, &error)) << error;
  EXPECT_EQ(hello.node_id, "test-node");
  EXPECT_TRUE(hello.ordered_stream);
  EXPECT_EQ(hello.poses_per_batch, 4u);
  EXPECT_EQ(hello.workers, 2u);
  ASSERT_EQ(hello.scorers.size(), 1u);
  EXPECT_EQ(hello.scorers[0], "sgcnn");
}

// ---- the determinism anchor ---------------------------------------------

TEST(ScoreServer, WireScoresBitIdenticalToInProcess) {
  const std::vector<chem::Atom> pocket = make_pocket(7);
  // 11 poses with batch 4: exercises full and ragged chunks.
  const std::vector<serve::PoseInput> poses = make_poses(11, &pocket, 8);

  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(2));
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = poses;
  const serve::ScoreResponse direct = service.score(req);
  ASSERT_EQ(direct.error, serve::ScoreError::kNone);

  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));
  serve::ScoreRequest wire_req;
  wire_req.scorer = "sgcnn";
  wire_req.poses = poses;
  const serve::ScoreResponse remote = client.score(wire_req);
  ASSERT_EQ(remote.error, serve::ScoreError::kNone) << remote.message;

  ASSERT_EQ(remote.scores.size(), direct.scores.size());
  for (size_t i = 0; i < direct.scores.size(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, &direct.scores[i], 4);
    std::memcpy(&b, &remote.scores[i], 4);
    EXPECT_EQ(a, b) << "pose " << i << " scored differently over the wire";
  }
  EXPECT_EQ(server.stats().requests, 1u);
  EXPECT_EQ(server.stats().poses, 11u);
}

TEST(ScoreServer, OneWireRequestIsOneServiceRequest) {
  // 9 poses at batch 4: the server submits the request once, and the
  // service's ordered slicing makes the three micro-batches.
  const std::vector<chem::Atom> pocket = make_pocket(21);
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(2));
  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));

  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(9, &pocket, 22);
  const serve::ScoreResponse resp = client.score(req);
  ASSERT_EQ(resp.error, serve::ScoreError::kNone) << resp.message;
  EXPECT_EQ(resp.scores.size(), 9u);
  EXPECT_EQ(resp.micro_batches, 3);
  EXPECT_EQ(service.stats().requests, 1u);
  EXPECT_EQ(service.stats().batches, 3u);
}

// ---- typed errors through the wire --------------------------------------

TEST(ScoreServer, UnknownScorerPassesThroughTypedAndUnretried) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));

  const std::vector<chem::Atom> pocket = make_pocket(1);
  serve::ScoreRequest req;
  req.scorer = "nonexistent";
  req.poses = make_poses(2, &pocket, 2);
  const serve::ScoreResponse resp = client.score(req);
  EXPECT_EQ(resp.error, serve::ScoreError::kUnknownScorer);
  EXPECT_TRUE(resp.scores.empty());
  // A server verdict is not a fault: exactly one wire attempt, no retries.
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ScoreClient, DeadEndpointRetriesWithBackoffThenTransport) {
  serve::ClientConfig cc;
  cc.port = 1;  // nothing listens there
  cc.connect_timeout_ms = 200;
  cc.max_retries = 2;
  cc.backoff_base_ms = 1;
  cc.backoff_max_ms = 5;
  serve::ScoreClient client(cc);

  const std::vector<chem::Atom> pocket = make_pocket(3);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(1, &pocket, 4);
  const serve::ScoreResponse resp = client.score(req);
  EXPECT_EQ(resp.error, serve::ScoreError::kTransport);
  const serve::ClientStats stats = client.stats();
  EXPECT_EQ(stats.transport_failures, 3u);  // initial try + 2 retries
  EXPECT_EQ(stats.retries, 2u);
}

TEST(ScoreServer, RequestDeadlineResolvesTimeoutThroughTheWire) {
  auto gate = std::make_shared<Gate>();
  serve::ModelRegistry reg;
  reg.add("gated", [gate] { return std::make_unique<GatedScorer>(gate); });
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));

  const std::vector<chem::Atom> pocket = make_pocket(5);
  // Occupy the single worker with a gated request submitted in-process.
  serve::ScoreRequest blocker;
  blocker.scorer = "gated";
  blocker.poses = make_poses(1, &pocket, 6);
  auto blocked = service.submit(std::move(blocker));

  // The wire request queues behind it with a 50 ms deadline it cannot meet.
  serve::ScoreRequest req;
  req.scorer = "gated";
  req.poses = make_poses(1, &pocket, 7);
  req.deadline_ms = 50;
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    gate->release();
  });
  const serve::ScoreResponse resp = client.score(req);
  releaser.join();
  EXPECT_EQ(resp.error, serve::ScoreError::kTimeout) << resp.message;
  EXPECT_EQ(blocked.get().error, serve::ScoreError::kNone);
  EXPECT_GE(server.stats().timeouts, 1u);
}

// ---- a controller over in-process servers -------------------------------

TEST(ScoreServer, ControllerOverInProcessServersSurvivesANodeStop) {
  // Units of 9 poses at batch 4 span three micro-batches each. One node
  // stops after the first verdict: its in-flight units come back
  // transport-dead and re-dispatch to the survivor, and every verdict must
  // still be ok and bitwise equal to an in-process submit.
  const std::vector<chem::Atom> pocket = make_pocket(19);
  constexpr uint32_t kUnits = 16;
  std::vector<std::vector<serve::PoseInput>> units;
  for (uint32_t u = 0; u < kUnits; ++u) units.push_back(make_poses(9, &pocket, 100 + u));

  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service_a(reg, ordered_config(2));
  serve::ScoringService service_b(reg, ordered_config(2));
  serve::ScoreServer server_a(service_a);
  serve::ScoreServer server_b(service_b);

  screen::ControllerConfig cc;
  cc.scorer = "sgcnn";
  cc.client.connect_timeout_ms = 500;
  cc.heartbeat_interval_ms = 20;
  cc.heartbeat_misses = 2;
  screen::ClusterController cluster(cc);
  std::string error;
  ASSERT_TRUE(cluster.register_node("127.0.0.1", server_a.port(), &error)) << error;
  ASSERT_TRUE(cluster.register_node("127.0.0.1", server_b.port(), &error)) << error;

  for (uint32_t u = 0; u < kUnits; ++u) cluster.submit_unit(u, units[u]);
  std::vector<bool> seen(kUnits, false);
  for (uint32_t i = 0; i < kUnits; ++i) {
    const screen::UnitResult r = cluster.wait_unit();
    if (i == 0) server_b.stop();
    ASSERT_LT(r.unit_id, kUnits);
    EXPECT_FALSE(seen[r.unit_id]) << "unit " << r.unit_id << " delivered twice";
    seen[r.unit_id] = true;
    ASSERT_TRUE(r.ok) << "unit " << r.unit_id << ": " << r.message;

    serve::ScoreRequest req;
    req.scorer = "sgcnn";
    req.poses = units[r.unit_id];
    const serve::ScoreResponse direct = service_a.score(req);
    ASSERT_EQ(direct.error, serve::ScoreError::kNone) << direct.message;
    ASSERT_EQ(r.scores.size(), direct.scores.size());
    const size_t bytes = r.scores.size() * sizeof(float);
    EXPECT_EQ(std::memcmp(r.scores.data(), direct.scores.data(), bytes), 0)
        << "unit " << r.unit_id << " scored differently through the controller";
  }
  // The heartbeat notices the stopped node.
  for (int i = 0; i < 500 && cluster.healthy_count() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster.healthy_count(), 1);
}

// ---- control plane ------------------------------------------------------

TEST(ScoreServer, PingReportsHealthAndDrainFlag) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));

  serve::PingResult ping = client.ping(1000);
  ASSERT_EQ(ping.status, serve::PingResult::Status::kOk) << ping.error;
  EXPECT_FALSE(ping.pong.draining);
  EXPECT_EQ(ping.pong.inflight_requests, 0u);

  std::string error;
  ASSERT_TRUE(client.drain(2000, &error)) << error;
  EXPECT_TRUE(server.draining());
  ping = client.ping(1000);
  ASSERT_EQ(ping.status, serve::PingResult::Status::kOk) << ping.error;
  EXPECT_TRUE(ping.pong.draining);
}

TEST(ScoreServer, DrainingNodeRefusesNewWorkTyped) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);
  server.drain();

  serve::ScoreClient client(client_for(server));
  const std::vector<chem::Atom> pocket = make_pocket(9);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(1, &pocket, 10);
  const serve::ScoreResponse resp = client.score(req);
  EXPECT_EQ(resp.error, serve::ScoreError::kShutdown);
  EXPECT_EQ(client.stats().retries, 0u) << "a drain verdict must not be retried";
}

TEST(ScoreServer, ShutdownRequestRaisesFlagForHostBinary) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);
  EXPECT_FALSE(server.shutdown_requested());

  serve::ScoreClient client(client_for(server));
  ASSERT_TRUE(client.request_shutdown());
  for (int i = 0; i < 100 && !server.shutdown_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(server.shutdown_requested());
}

// ---- robustness ---------------------------------------------------------

TEST(ScoreServer, GarbageBytesCountedAndServerSurvives) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  serve::ScoreServer server(service);

  {
    std::string error;
    serve::net::TcpConn raw = serve::net::tcp_connect("127.0.0.1", server.port(), 1000, &error);
    ASSERT_TRUE(raw.open()) << error;
    // Swallow the Hello, then write 64 bytes of non-protocol noise.
    serve::wire::Frame hello;
    ASSERT_EQ(serve::wire::read_frame(raw, &hello, 2000), serve::wire::WireError::kNone);
    const std::string junk(64, 'Z');
    ASSERT_TRUE(raw.send_all(junk.data(), junk.size(), 1000));
  }
  // A well-behaved client still gets service afterwards.
  serve::ScoreClient client(client_for(server));
  const std::vector<chem::Atom> pocket = make_pocket(11);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(2, &pocket, 12);
  EXPECT_EQ(client.score(req).error, serve::ScoreError::kNone);
  for (int i = 0; i < 100 && server.stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(ScoreServer, LatencyHistogramTracksAnsweredRequests) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(2));
  serve::ScoreServer server(service);
  serve::ScoreClient client(client_for(server));

  const std::vector<chem::Atom> pocket = make_pocket(13);
  for (int i = 0; i < 5; ++i) {
    serve::ScoreRequest req;
    req.scorer = "sgcnn";
    req.poses = make_poses(3, &pocket, 14 + static_cast<uint64_t>(i));
    ASSERT_EQ(client.score(req).error, serve::ScoreError::kNone);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.latency.count(), 5u);
  EXPECT_GT(stats.latency.p50_ms(), 0.0);
  EXPECT_GE(stats.latency.p99_ms(), stats.latency.p50_ms());
  // The service-level histogram ticks too (one entry per request).
  EXPECT_EQ(service.stats().latency.count(), 5u);
}

TEST(ScoreClient, CloseRacingAFailingAttemptIsRaceFree) {
  // A peer that sends Hello and hangs up: every attempt fails and closes its
  // slot's connection while another thread keeps calling close(), which
  // shuts every slot's connection down. Each write to a slot's connection
  // must take the client's lock, or ThreadSanitizer (which runs this suite)
  // reports the failing attempt's close() against close()'s shutdown().
  serve::net::TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.listen("127.0.0.1", 0, 64, &error)) << error;
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    serve::wire::HelloPayload hello;
    hello.node_id = "hello-then-hang-up";
    const std::string payload = hello.encode();
    while (!stop.load()) {
      bool timed_out = false;
      serve::net::TcpConn conn = listener.accept(50, &timed_out, nullptr);
      if (conn.open()) serve::wire::write_frame(conn, serve::wire::FrameType::kHello, payload, 1000);
    }
  });

  serve::ClientConfig cc;
  cc.port = listener.port();
  cc.connections = 4;
  cc.connect_timeout_ms = 1000;
  cc.io_timeout_ms = 1000;
  cc.max_retries = 2;
  cc.backoff_base_ms = 0;
  cc.backoff_max_ms = 0;
  serve::ScoreClient client(cc);
  const std::vector<chem::Atom> pocket = make_pocket(19);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(1, &pocket, 20);

  std::atomic<bool> scoring{true};
  std::thread closer([&] {
    while (scoring.load()) {
      client.close();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> callers;
  std::atomic<int> transport{0};
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (client.score(req).error == serve::ScoreError::kTransport) ++transport;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  scoring = false;
  closer.join();
  stop = true;
  listener.interrupt();
  peer.join();
  EXPECT_EQ(transport.load(), 4 * 20) << "a peer that hangs up must fail every request as transport";
}

TEST(ScoreClient, ReconnectsAfterServerRestartOnSamePort) {
  serve::ModelRegistry reg = sg_registry();
  serve::ScoringService service(reg, ordered_config(1));
  const std::vector<chem::Atom> pocket = make_pocket(17);
  const std::vector<serve::PoseInput> poses = make_poses(3, &pocket, 18);

  auto server = std::make_unique<serve::ScoreServer>(service);
  const int port = server->port();
  serve::ClientConfig cc;
  cc.port = port;
  cc.connect_timeout_ms = 500;
  cc.max_retries = 1;
  cc.backoff_base_ms = 1;
  cc.backoff_max_ms = 5;
  serve::ScoreClient client(cc);

  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = poses;
  const serve::ScoreResponse first = client.score(req);
  ASSERT_EQ(first.error, serve::ScoreError::kNone);

  server->stop();
  server.reset();
  EXPECT_EQ(client.score(req).error, serve::ScoreError::kTransport);

  // Respawn on the same port (SO_REUSEADDR) — the client heals by itself.
  serve::ServerConfig cfg;
  cfg.port = port;
  server = std::make_unique<serve::ScoreServer>(service, cfg);
  const serve::ScoreResponse again = client.score(req);
  ASSERT_EQ(again.error, serve::ScoreError::kNone) << again.message;
  ASSERT_EQ(again.scores.size(), first.scores.size());
  for (size_t i = 0; i < first.scores.size(); ++i) {
    EXPECT_EQ(first.scores[i], again.scores[i]) << "restart changed score bits";
  }
}

}  // namespace
}  // namespace df
