// ScoreServer — the socket face of a ScoringService: one scoring node of
// the multi-node topology (TitanInfer's model-server role). It listens on a
// TCP port, speaks the serve/wire.h protocol, and forwards score requests
// into the wrapped (in-process) service, so everything the service
// guarantees — typed errors, micro-batching, ordered-stream determinism,
// per-request deadlines — holds identically over the network.
//
// One wire request is one service request: the decoded kScoreRequest is
// submitted to the service once, and its resolved ScoreResponse goes back
// as one kScoreDone frame (verdict, micro-batch stats and, on success,
// every score in pose order). The service does all batching, so a request
// scored through the server is bit-identical to the same request scored in
// process — the multi-node determinism anchor.
//
// Control plane: kPing answers with a health snapshot (draining flag,
// in-flight count, p50/p99 latency), kDrain stops accepting new score
// requests and acks once in-flight work finishes (graceful node removal),
// kShutdown raises shutdown_requested() for the hosting binary to act on.
//
// Pipelined scoring is a property of the wrapped service, not the wire:
// set ServiceConfig::pipeline_depth / pocket_cache_targets on the service
// this server fronts (examples/score_server_node.cpp exposes them as
// --pipeline-depth / --pocket-cache). Both are bitwise-neutral, so a
// pipelined node answers byte-identically to a sequential one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/latency.h"
#include "serve/net.h"
#include "serve/service.h"

namespace df::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  int port = 0;                 // 0 = kernel-assigned; read back via port()
  std::string node_id;          // echoed in Hello; default "<address>:<port>"
  int max_connections = 64;     // beyond this, accepts are closed immediately
  double io_timeout_ms = 30000; // per-frame I/O stall guard on connections
};

struct ServerStats {
  uint64_t connections = 0;       // accepted (lifetime)
  uint64_t rejected_connections = 0;  // over max_connections
  uint64_t requests = 0;          // score requests fully answered
  uint64_t poses = 0;
  uint64_t errors = 0;            // requests answered with a typed error
  uint64_t timeouts = 0;          // ... of which deadline expiries
  uint64_t protocol_errors = 0;   // bad magic/version/CRC/decoding failures
  uint64_t pings = 0;
  // Receive-to-done latency of every answered request; p50/p99 accessors
  // on the histogram.
  LatencyHistogram latency;
};

class ScoreServer {
 public:
  /// Binds, starts the accept loop, and serves `service` (not owned; must
  /// outlive the server). Throws std::runtime_error if the bind fails.
  ScoreServer(ScoringService& service, ServerConfig cfg = {});
  ~ScoreServer();  // stop()

  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  int port() const { return port_; }
  const std::string& node_id() const { return node_id_; }

  /// Stop accepting new score requests; connections stay up for control
  /// frames and in-flight responses. Idempotent.
  void drain();
  bool draining() const;

  /// Close the listener and every connection, join all threads. Idempotent;
  /// the destructor calls it. In-flight requests are answered only as far
  /// as their frames can still be written.
  void stop();

  /// True once a peer sent kShutdown — the hosting binary's exit signal.
  bool shutdown_requested() const;
  /// Block until shutdown_requested() or stop().
  void wait_shutdown_requested();

  ServerStats stats() const;

 private:
  struct Conn;

  void accept_loop();
  void serve_connection(Conn* conn);
  bool handle_score_request(Conn* conn, const std::string& payload);

  ScoringService& service_;
  ServerConfig cfg_;
  net::TcpListener listener_;
  int port_ = 0;
  std::string node_id_;

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;  // wait_shutdown_requested
  std::condition_variable drain_cv_;     // drain ack: inflight hits 0
  bool stop_ = false;
  bool draining_ = false;
  bool shutdown_requested_ = false;
  int inflight_requests_ = 0;
  int active_connections_ = 0;
  ServerStats stats_;
  std::list<std::unique_ptr<Conn>> conns_;

  std::thread accept_thread_;
};

}  // namespace df::serve
