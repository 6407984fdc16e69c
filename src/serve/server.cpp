#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "serve/wire.h"

namespace df::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

struct ScoreServer::Conn {
  net::TcpConn conn;
  std::thread thread;
  std::atomic<bool> finished{false};
};

ScoreServer::ScoreServer(ScoringService& service, ServerConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {
  std::string error;
  if (!listener_.listen(cfg_.bind_address, cfg_.port, 128, &error)) {
    throw std::runtime_error("ScoreServer: listen on " + cfg_.bind_address + ":" +
                             std::to_string(cfg_.port) + " failed: " + error);
  }
  port_ = listener_.port();
  node_id_ = cfg_.node_id.empty()
                 ? cfg_.bind_address + ":" + std::to_string(port_)
                 : cfg_.node_id;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ScoreServer::~ScoreServer() { stop(); }

void ScoreServer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool ScoreServer::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool ScoreServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

void ScoreServer::wait_shutdown_requested() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stop_; });
}

ServerStats ScoreServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ScoreServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Already stopped (or stopping on another thread) — just make sure the
      // threads are joined before returning.
    }
    stop_ = true;
    shutdown_cv_.notify_all();
    drain_cv_.notify_all();
    // Wake every connection thread blocked in recv.
    for (auto& c : conns_) c->conn.shutdown();
  }
  // interrupt() is the only listener call safe from this thread; closing
  // here would race the accept thread's poll on the listener fd.
  listener_.interrupt();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // The accept loop has exited, so conns_ is stable now.
  for (auto& c : conns_) {
    if (c->thread.joinable()) c->thread.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
}

void ScoreServer::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      // Reap connections whose threads have finished.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->finished.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    bool timed_out = false;
    std::string error;
    net::TcpConn accepted = listener_.accept(250.0, &timed_out, &error);
    if (!accepted.open()) {
      if (timed_out) continue;
      // Listener closed (stop()) or a transient accept failure.
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || !listener_.open()) return;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // accepted conn closes on scope exit
    if (active_connections_ >= cfg_.max_connections) {
      ++stats_.rejected_connections;
      continue;
    }
    ++stats_.connections;
    ++active_connections_;
    auto conn = std::make_unique<Conn>();
    conn->conn = std::move(accepted);
    Conn* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] {
      serve_connection(raw);
      std::lock_guard<std::mutex> inner(mu_);
      --active_connections_;
      raw->finished.store(true);
    });
  }
}

void ScoreServer::serve_connection(Conn* conn) {
  // Greeting: what this node serves and how it batches, so the client can
  // validate compatibility before sending work.
  {
    wire::HelloPayload hello;
    hello.node_id = node_id_;
    hello.ordered_stream = service_.config().ordered_stream;
    hello.poses_per_batch = static_cast<uint32_t>(service_.config().poses_per_batch);
    hello.workers = static_cast<uint32_t>(service_.workers());
    hello.scorers = service_.scorer_names();
    if (!wire::write_frame(conn->conn, wire::FrameType::kHello, hello.encode(),
                           cfg_.io_timeout_ms)) {
      return;
    }
  }

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    wire::Frame frame;
    // No deadline between frames: connections idle legitimately (pooled
    // clients); stop() wakes the recv via shutdown().
    const wire::WireError err = wire::read_frame(conn->conn, &frame, 0);
    if (err != wire::WireError::kNone) {
      if (err != wire::WireError::kClosed && err != wire::WireError::kTransport &&
          err != wire::WireError::kTimeout) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      return;  // cannot trust the stream past a framing error
    }
    switch (frame.type) {
      case wire::FrameType::kScoreRequest:
        if (!handle_score_request(conn, frame.payload)) return;
        break;
      case wire::FrameType::kPing: {
        wire::PingPayload ping;
        try {
          ping = wire::PingPayload::decode(frame.payload);
        } catch (const wire::WireDecodeError&) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.protocol_errors;
          return;
        }
        wire::PongPayload pong;
        pong.nonce = ping.nonce;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.pings;
          pong.draining = draining_;
          pong.inflight_requests = static_cast<uint32_t>(inflight_requests_);
          pong.requests = stats_.requests;
          pong.poses = stats_.poses;
          pong.p50_ms = static_cast<float>(stats_.latency.p50_ms());
          pong.p99_ms = static_cast<float>(stats_.latency.p99_ms());
        }
        if (!wire::write_frame(conn->conn, wire::FrameType::kPong, pong.encode(),
                               cfg_.io_timeout_ms)) {
          return;
        }
        break;
      }
      case wire::FrameType::kDrain: {
        std::unique_lock<std::mutex> lock(mu_);
        draining_ = true;
        drain_cv_.wait(lock, [this] { return inflight_requests_ == 0 || stop_; });
        wire::DrainAckPayload ack;
        ack.inflight_requests = static_cast<uint32_t>(inflight_requests_);
        lock.unlock();
        if (!wire::write_frame(conn->conn, wire::FrameType::kDrainAck, ack.encode(),
                               cfg_.io_timeout_ms)) {
          return;
        }
        break;
      }
      case wire::FrameType::kShutdown: {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
        shutdown_cv_.notify_all();
        break;
      }
      default: {
        // Valid frame (CRC passed) of a type we do not handle — count it and
        // keep the connection; forward compatibility over strictness.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
        break;
      }
    }
  }
}

bool ScoreServer::handle_score_request(Conn* conn, const std::string& payload_bytes) {
  const auto received = Clock::now();
  wire::ScoreRequestPayload payload;
  try {
    payload = wire::ScoreRequestPayload::decode(payload_bytes);
  } catch (const wire::WireDecodeError&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.protocol_errors;
    return false;  // request_id unknown — cannot even answer with an error
  }

  wire::ScoreDonePayload done;
  done.request_id = payload.request_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stop_) {
      done.error = ScoreError::kShutdown;
      done.message = "node draining";
      ++stats_.errors;
      return wire::write_frame(conn->conn, wire::FrameType::kScoreDone, done.encode(),
                               cfg_.io_timeout_ms);
    }
    ++inflight_requests_;
  }

  // The unpacked request's pose pockets borrow from `payload`, which stays
  // alive (this scope) until the future has resolved.
  ScoreResponse resp = service_.submit(wire::unpack_request(payload)).get();
  done.error = resp.error;
  done.message = std::move(resp.message);
  done.micro_batches = static_cast<uint32_t>(resp.micro_batches);
  done.coalesced = resp.coalesced;
  done.scores = std::move(resp.scores);

  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_requests_;
    if (inflight_requests_ == 0) drain_cv_.notify_all();
    ++stats_.requests;
    stats_.poses += payload.poses.size();
    if (done.error != ScoreError::kNone) {
      ++stats_.errors;
      if (done.error == ScoreError::kTimeout) ++stats_.timeouts;
    }
    stats_.latency.record_seconds(
        std::chrono::duration<double>(Clock::now() - received).count());
  }
  return wire::write_frame(conn->conn, wire::FrameType::kScoreDone, done.encode(),
                           cfg_.io_timeout_ms);
}

}  // namespace df::serve
