// ScoreClient — the fault-tolerant network counterpart of
// ScoringService::score(): a connection-pooled TCP client for ScoreServer
// that maps every transport failure into the typed ScoreError space, so the
// caller (ClusterController, load generator) never sees an exception or a
// raw socket error, only a ScoreResponse.
//
// Reliability model:
//   * Pooled connections, one request in flight per connection; concurrent
//     score() calls multiplex over the pool and block (bounded) for a slot.
//     A request is answered by one kScoreDone frame.
//   * Transport failures — connect refusal, frame I/O error, CRC, stream
//     desync (a foreign frame or request id, or a success whose score
//     count differs from the pose count) — close the connection, back off
//     exponentially with deterministic jitter, and retry on a fresh
//     connection up to max_retries times before resolving kTransport.
//   * Server-typed errors (unknown scorer, queue full, shutdown/draining,
//     scorer failure, deadline timeout) are verdicts, not faults: they pass
//     through un-retried.
//   * request_timeout_ms bounds one score() call end to end (slot wait,
//     connects, retries, backoff included); past it the call resolves
//     kTimeout. This is the client-side deadline; ScoreRequest::deadline_ms
//     additionally travels to the server and bounds its queue wait.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/service.h"
#include "serve/wire.h"

namespace df::serve {

struct ClientConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 2;            // pool size (max in-flight requests)
  double connect_timeout_ms = 2000;
  double request_timeout_ms = 0;  // end-to-end bound per score(); 0 = none
  double io_timeout_ms = 30000;   // per-frame stall guard
  int max_retries = 3;            // transport retries after the first attempt
  double backoff_base_ms = 10;    // retry k sleeps ~ base * 2^k, jittered
  double backoff_max_ms = 500;
  uint64_t jitter_seed = 0;       // deterministic backoff jitter
};

struct ClientStats {
  uint64_t requests = 0;           // score() calls
  uint64_t attempts = 0;           // wire attempts (>= requests)
  uint64_t retries = 0;            // attempts - first tries
  uint64_t transport_failures = 0; // failed wire attempts
  uint64_t timeouts = 0;           // score() calls that resolved kTimeout
  uint64_t reconnects = 0;         // connections (re)established
};

/// Result of one heartbeat probe. kBusy means every pool slot was occupied
/// by in-flight work within the probe's patience — the node is alive (a
/// response implies liveness), just saturated.
struct PingResult {
  enum class Status { kOk, kBusy, kFail };
  Status status = Status::kFail;
  std::string error;        // when kFail
  wire::PongPayload pong;   // when kOk
};

class ScoreClient {
 public:
  explicit ScoreClient(ClientConfig cfg);
  ~ScoreClient();

  ScoreClient(const ScoreClient&) = delete;
  ScoreClient& operator=(const ScoreClient&) = delete;

  /// Synchronous scoring over the wire; never throws for request-shaped or
  /// network-shaped problems. scores arrive bit-exact (raw IEEE-754 on the
  /// wire).
  ScoreResponse score(const ScoreRequest& req);

  /// Fetch the server's Hello (connecting if needed). False on failure with
  /// the reason in *error.
  bool hello(wire::HelloPayload* out, std::string* error);

  /// Heartbeat probe, bounded by `timeout_ms`.
  PingResult ping(double timeout_ms);

  /// Ask the node to stop accepting new requests and wait until its
  /// in-flight count hits zero (DrainAck). False on transport failure.
  bool drain(double timeout_ms, std::string* error);

  /// Fire-and-forget kShutdown (the node exits after in-flight work).
  bool request_shutdown();

  /// Drop every pooled connection (next use reconnects): idle ones close,
  /// busy ones are shut down, so their in-flight attempt fails as a
  /// transport error. Safe to call from any thread.
  void close();

  const ClientConfig& config() const { return cfg_; }
  ClientStats stats() const;

 private:
  struct Slot;

  Slot* acquire(double timeout_ms);
  void release(Slot* slot);
  /// Connect + consume Hello if the slot is closed. False => *error set.
  bool ensure_connected(Slot* slot, double timeout_ms, std::string* error);
  /// Close a busy slot's connection. Every write to a slot's connection
  /// takes mu_, so close() never shuts down a descriptor another thread is
  /// closing, or one the process has meanwhile reused.
  void drop_connection(Slot* slot);
  ScoreResponse attempt(Slot* slot, const ScoreRequest& req, uint64_t request_id,
                        bool* transport_failed, std::string* transport_error);

  ClientConfig cfg_;
  std::vector<std::unique_ptr<Slot>> slots_;

  mutable std::mutex mu_;
  std::condition_variable slot_cv_;
  ClientStats stats_;
  uint64_t next_request_id_ = 1;
  uint64_t next_nonce_ = 1;
  bool have_hello_ = false;
  wire::HelloPayload hello_;
};

}  // namespace df::serve
