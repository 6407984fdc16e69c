// ClusterController — the multi-node scheduling layer between a screening
// campaign and a fleet of ScoreServer nodes: the distributed realization of
// the §4.3 picture where a killed job's work is simply resubmitted and
// "another job takes its place", except the kills are real processes dying.
//
// Work model: submit_unit() enqueues a work unit (one campaign scoring
// job's poses); per-node dispatcher threads pull units and score them over
// ScoreClient. A transport failure — connection refused, reset mid-request,
// node draining — marks the node unhealthy and puts the unit back at the
// FRONT of the queue for the next healthy node, so node death never loses
// a unit and never records it twice (the dispatcher owns the unit until a
// verdict; a re-scored duplicate on a node that died after computing is
// never collected). A heartbeat thread pings every node and both detects
// silent deaths (consecutive misses) and revives restarted nodes, so a
// SIGKILL + respawn on the same port heals without intervention.
//
// Determinism: scores depend only on request content (ordered-stream nodes,
// deterministic scorers), never on which node ran a unit or how many times
// it was re-dispatched — the property the campaign's multi-node bitwise
// pin rests on. The controller therefore retries forever by default: a
// unit's verdict is either its scores or a typed scorer error, never "the
// cluster was unlucky".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"

namespace df::screen {

struct ControllerConfig {
  std::string scorer;                  // required: name every node must serve
  serve::ClientConfig client;          // template; host/port set per node
  double heartbeat_interval_ms = 100;
  int heartbeat_misses = 3;            // consecutive ping failures -> unhealthy
  int inflight_per_node = 2;           // dispatcher threads (and wire slots) per node
  bool require_ordered = true;         // refuse nodes not in ordered-stream mode
};

struct ControllerStats {
  uint64_t units_submitted = 0;
  uint64_t units_finished = 0;   // verdicts delivered (scores or typed error)
  uint64_t dispatches = 0;       // unit -> node assignments (>= finishes)
  uint64_t requeues = 0;         // dispatches that came back transport-dead
  uint64_t node_deaths = 0;      // healthy -> unhealthy transitions
  uint64_t node_revivals = 0;    // unhealthy -> healthy transitions
  uint64_t heartbeats = 0;
  uint64_t heartbeat_failures = 0;
};

struct NodeStatus {
  std::string host;
  int port = 0;
  std::string node_id;   // from the node's Hello
  bool healthy = false;
  bool draining = false;
  uint64_t units_scored = 0;
};

/// Verdict for one work unit. ok == false carries the typed error of a
/// scorer-level failure (never a transport fault — those re-dispatch).
struct UnitResult {
  uint32_t unit_id = 0;
  std::vector<float> scores;
  bool ok = false;
  serve::ScoreError error = serve::ScoreError::kNone;
  std::string message;
};

class ClusterController {
 public:
  explicit ClusterController(ControllerConfig cfg);
  ~ClusterController();  // stop()

  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  /// Connect to a node, validate its Hello (scorer served, ordered-stream
  /// if required, poses_per_batch consistent with already-registered
  /// nodes), and start dispatching to it. False => *error explains.
  bool register_node(const std::string& host, int port, std::string* error);

  /// Enqueue one unit. Pocket pointers inside `poses` must stay valid until
  /// the unit's result has been collected.
  void submit_unit(uint32_t unit_id, std::vector<serve::PoseInput> poses);

  /// Block until some submitted unit has a verdict (completion order is
  /// arrival order, not submission order). Throws std::runtime_error if
  /// nothing is outstanding or the controller was stopped.
  UnitResult wait_unit();

  size_t outstanding() const;  // submitted, verdict not yet collected

  /// Graceful removal: stop assigning work to host:port, wait for its
  /// in-flight dispatches to come back, then ask the node itself to drain
  /// (best effort). The node keeps serving other clients until told
  /// otherwise. False if the node is unknown.
  bool drain_node(const std::string& host, int port);

  std::vector<NodeStatus> nodes() const;
  int healthy_count() const;

  /// Batch geometry learned from the first node's Hello — what the campaign
  /// records in its checkpoint as the scoring batch size.
  int poses_per_batch() const;
  bool ordered() const;
  const std::string& scorer() const { return cfg_.scorer; }

  ControllerStats stats() const;

  /// Stop dispatchers and heartbeat, abandon queued work. Idempotent; the
  /// destructor calls it. Outstanding wait_unit() callers get an exception.
  void stop();

 private:
  struct Node;
  struct Unit {
    uint32_t id = 0;
    std::vector<serve::PoseInput> poses;
  };

  void dispatch_loop(Node* node);
  void heartbeat_loop();
  void mark_unhealthy(Node* node);  // mu_ held

  ControllerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // dispatchers: queue or state change
  std::condition_variable done_cv_;   // wait_unit / drain_node
  std::deque<Unit> queue_;
  std::deque<UnitResult> done_;
  size_t outstanding_ = 0;
  bool stop_ = false;
  int poses_per_batch_ = 0;
  bool ordered_ = false;
  ControllerStats stats_;
  std::vector<std::unique_ptr<Node>> nodes_;

  std::thread heartbeat_thread_;
};

}  // namespace df::screen
