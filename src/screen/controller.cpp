#include "screen/controller.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "io/log.h"

namespace df::screen {

namespace {
bool serves_scorer(const serve::wire::HelloPayload& hello, const std::string& scorer) {
  return std::find(hello.scorers.begin(), hello.scorers.end(), scorer) != hello.scorers.end();
}
}  // namespace

struct ClusterController::Node {
  std::string host;
  int port = 0;
  std::string node_id;
  std::unique_ptr<serve::ScoreClient> client;
  bool healthy = true;
  bool draining = false;
  int ping_misses = 0;
  int inflight = 0;          // dispatches currently on the wire
  uint64_t units_scored = 0;
  std::vector<std::thread> dispatchers;
};

ClusterController::ClusterController(ControllerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.inflight_per_node < 1) cfg_.inflight_per_node = 1;
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
}

ClusterController::~ClusterController() { stop(); }

void ClusterController::stop() {
  std::vector<Node*> nodes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    for (auto& n : nodes_) nodes.push_back(n.get());
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  // Wake dispatchers blocked mid-request on the wire.
  for (Node* n : nodes) {
    if (n->client) n->client->close();
  }
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  for (Node* n : nodes) {
    for (auto& t : n->dispatchers) {
      if (t.joinable()) t.join();
    }
  }
}

bool ClusterController::register_node(const std::string& host, int port, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (error) *error = "controller stopped";
      return false;
    }
    for (const auto& n : nodes_) {
      if (n->host == host && n->port == port && !n->draining) {
        if (error) *error = "node already registered: " + host + ":" + std::to_string(port);
        return false;
      }
    }
  }

  serve::ClientConfig cc = cfg_.client;
  cc.host = host;
  cc.port = port;
  // One wire slot per dispatcher plus one spare so heartbeat pings land on a
  // live connection instead of reporting Busy whenever the node is loaded.
  cc.connections = cfg_.inflight_per_node + 1;
  // The controller IS the retry layer: a failed dispatch re-queues the unit
  // for another node, so the client must fail fast, not mask deaths.
  cc.max_retries = 0;
  auto client = std::make_unique<serve::ScoreClient>(cc);

  serve::wire::HelloPayload hello;
  std::string hello_error;
  if (!client->hello(&hello, &hello_error)) {
    if (error) *error = "node " + host + ":" + std::to_string(port) + ": " + hello_error;
    return false;
  }
  if (!serves_scorer(hello, cfg_.scorer)) {
    if (error) {
      *error = "node " + hello.node_id + " does not serve scorer '" + cfg_.scorer + "'";
    }
    return false;
  }
  if (cfg_.require_ordered && !hello.ordered_stream) {
    if (error) {
      *error = "node " + hello.node_id + " is not in ordered-stream mode; the "
               "campaign determinism contract requires it";
    }
    return false;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (poses_per_batch_ == 0) {
    poses_per_batch_ = static_cast<int>(hello.poses_per_batch);
    ordered_ = hello.ordered_stream;
  } else if (poses_per_batch_ != static_cast<int>(hello.poses_per_batch)) {
    // Mixed batch geometry would split requests differently per node —
    // scores would stay bit-identical (batch-invariance pin) but the
    // checkpoint records one batch size; refuse the confusion.
    if (error) {
      *error = "node " + hello.node_id + " batches " + std::to_string(hello.poses_per_batch) +
               " poses/request but the cluster batches " + std::to_string(poses_per_batch_);
    }
    return false;
  }

  auto node = std::make_unique<Node>();
  node->host = host;
  node->port = port;
  node->node_id = hello.node_id;
  node->client = std::move(client);
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  for (int i = 0; i < cfg_.inflight_per_node; ++i) {
    raw->dispatchers.emplace_back([this, raw] { dispatch_loop(raw); });
  }
  return true;
}

void ClusterController::submit_unit(uint32_t unit_id, std::vector<serve::PoseInput> poses) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) throw std::runtime_error("ClusterController: submit after stop");
    queue_.push_back(Unit{unit_id, std::move(poses)});
    ++outstanding_;
    ++stats_.units_submitted;
  }
  // notify_all, not notify_one: draining/unhealthy dispatchers and the
  // heartbeat's wait_for share this cv. A single notify can land on a waiter
  // whose predicate is false — it re-waits, the signal is consumed, and an
  // eligible dispatcher never learns the queue is non-empty.
  work_cv_.notify_all();
}

UnitResult ClusterController::wait_unit() {
  std::unique_lock<std::mutex> lock(mu_);
  // A stopped controller never hands out verdicts — leftovers belong to an
  // aborted run and must not leak into a resumed one.
  if (stop_) throw std::runtime_error("ClusterController: stopped");
  if (outstanding_ == 0) {
    throw std::runtime_error("ClusterController: wait_unit with nothing outstanding");
  }
  done_cv_.wait(lock, [this] { return !done_.empty() || stop_; });
  if (stop_ || done_.empty()) {
    throw std::runtime_error("ClusterController: stopped while waiting for units");
  }
  UnitResult r = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  return r;
}

size_t ClusterController::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

bool ClusterController::drain_node(const std::string& host, int port) {
  Node* node = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& n : nodes_) {
      if (n->host == host && n->port == port && !n->draining) {
        node = n.get();
        break;
      }
    }
    if (node == nullptr) return false;
    node->draining = true;  // dispatchers stop pulling work for it
    done_cv_.wait(lock, [&] { return node->inflight == 0 || stop_; });
  }
  work_cv_.notify_all();
  // Ask the node itself to stop accepting work — best effort; it may serve
  // other controllers and answers the ack once its own in-flight hits zero.
  std::string error;
  if (!node->client->drain(cfg_.client.io_timeout_ms, &error)) {
    io::log_warn("cluster: drain of " + node->node_id + " not acknowledged: " + error);
  }
  return true;
}

std::vector<NodeStatus> ClusterController::nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NodeStatus> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    NodeStatus s;
    s.host = n->host;
    s.port = n->port;
    s.node_id = n->node_id;
    s.healthy = n->healthy && !n->draining;
    s.draining = n->draining;
    s.units_scored = n->units_scored;
    out.push_back(std::move(s));
  }
  return out;
}

int ClusterController::healthy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& n : nodes_) {
    if (n->healthy && !n->draining) ++count;
  }
  return count;
}

int ClusterController::poses_per_batch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poses_per_batch_;
}

bool ClusterController::ordered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ordered_;
}

ControllerStats ClusterController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ClusterController::mark_unhealthy(Node* node) {
  if (node->healthy) {
    node->healthy = false;
    ++stats_.node_deaths;
    io::log_warn("cluster: node " + node->node_id + " unhealthy; re-queueing its work");
  }
}

void ClusterController::dispatch_loop(Node* node) {
  for (;;) {
    Unit unit;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (!queue_.empty() && node->healthy && !node->draining);
      });
      if (stop_) return;
      unit = std::move(queue_.front());
      queue_.pop_front();
      ++node->inflight;
      ++stats_.dispatches;
    }

    serve::ScoreRequest req;
    req.scorer = cfg_.scorer;
    req.poses = unit.poses;  // pockets borrowed; submitter keeps them alive
    serve::ScoreResponse resp = node->client->score(req);

    std::unique_lock<std::mutex> lock(mu_);
    --node->inflight;
    if (node->inflight == 0) done_cv_.notify_all();

    const bool node_fault = resp.error == serve::ScoreError::kTransport ||
                            resp.error == serve::ScoreError::kTimeout ||
                            resp.error == serve::ScoreError::kShutdown;
    if (node_fault && !stop_) {
      // The node, not the unit, is the problem: transport death, a deadline
      // the node could not meet, or a drain race. Put the unit back at the
      // front — it was next in line — and let another node take it.
      mark_unhealthy(node);
      queue_.push_front(std::move(unit));
      ++stats_.requeues;
      lock.unlock();
      work_cv_.notify_all();
      continue;
    }

    UnitResult result;
    result.unit_id = unit.id;
    result.ok = resp.error == serve::ScoreError::kNone;
    result.error = resp.error;
    result.message = std::move(resp.message);
    result.scores = std::move(resp.scores);
    if (result.ok) ++node->units_scored;
    ++stats_.units_finished;
    done_.push_back(std::move(result));
    lock.unlock();
    done_cv_.notify_all();
  }
}

void ClusterController::heartbeat_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      cfg_.heartbeat_interval_ms > 0 ? cfg_.heartbeat_interval_ms : 100.0);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    std::vector<Node*> nodes;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& n : nodes_) {
        if (!n->draining) nodes.push_back(n.get());
      }
    }
    for (Node* node : nodes) {
      const serve::PingResult ping = node->client->ping(cfg_.heartbeat_interval_ms);
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      ++stats_.heartbeats;
      if (ping.status == serve::PingResult::Status::kFail) {
        ++stats_.heartbeat_failures;
        ++node->ping_misses;
        if (node->ping_misses >= cfg_.heartbeat_misses) mark_unhealthy(node);
        continue;
      }
      // Ok or Busy: the node answered (or is saturated serving) — alive.
      node->ping_misses = 0;
      if (!node->healthy) {
        node->healthy = true;
        ++stats_.node_revivals;
        io::log_info("cluster: node " + node->node_id + " healthy again");
        work_cv_.notify_all();
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    work_cv_.wait_for(lock, interval, [this] { return stop_; });
  }
}

}  // namespace df::screen
