#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/rng.h"

namespace df::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

ScoreResponse typed_error(ScoreError e, std::string message) {
  ScoreResponse r;
  r.error = e;
  r.message = std::move(message);
  return r;
}
}  // namespace

struct ScoreClient::Slot {
  net::TcpConn conn;
  bool busy = false;
};

ScoreClient::ScoreClient(ClientConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.connections < 1) cfg_.connections = 1;
  slots_.reserve(static_cast<size_t>(cfg_.connections));
  for (int i = 0; i < cfg_.connections; ++i) slots_.push_back(std::make_unique<Slot>());
}

ScoreClient::~ScoreClient() { close(); }

void ScoreClient::close() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    // shutdown() is cross-thread safe: a busy slot's in-flight attempt wakes
    // with a transport error; idle conns just drop.
    slot->conn.shutdown();
    if (!slot->busy) slot->conn.close();
  }
}

ClientStats ScoreClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ScoreClient::Slot* ScoreClient::acquire(double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto free_slot = [this]() -> Slot* {
    for (auto& slot : slots_) {
      if (!slot->busy) return slot.get();
    }
    return nullptr;
  };
  Slot* slot = free_slot();
  if (slot == nullptr) {
    if (timeout_ms < 0) {
      slot_cv_.wait(lock, [&] { return (slot = free_slot()) != nullptr; });
    } else {
      slot_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                        [&] { return (slot = free_slot()) != nullptr; });
    }
  }
  if (slot != nullptr) slot->busy = true;
  return slot;
}

void ScoreClient::release(Slot* slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->busy = false;
  }
  slot_cv_.notify_one();
}

bool ScoreClient::ensure_connected(Slot* slot, double timeout_ms, std::string* error) {
  if (slot->conn.open()) return true;
  std::string conn_error;
  net::TcpConn conn = net::tcp_connect(cfg_.host, cfg_.port, timeout_ms, &conn_error);
  if (!conn.open()) {
    if (error) *error = "connect " + cfg_.host + ":" + std::to_string(cfg_.port) +
                        " failed: " + conn_error;
    return false;
  }
  wire::Frame frame;
  const wire::WireError werr = wire::read_frame(conn, &frame, cfg_.io_timeout_ms);
  if (werr != wire::WireError::kNone || frame.type != wire::FrameType::kHello) {
    if (error) {
      *error = werr != wire::WireError::kNone
                   ? std::string("hello read failed: ") + wire::wire_error_name(werr)
                   : "first frame was not Hello";
    }
    return false;
  }
  wire::HelloPayload hello;
  try {
    hello = wire::HelloPayload::decode(frame.payload);
  } catch (const wire::WireDecodeError& e) {
    if (error) *error = std::string("hello decode failed: ") + e.what();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  slot->conn = std::move(conn);
  ++stats_.reconnects;
  hello_ = std::move(hello);
  have_hello_ = true;
  return true;
}

void ScoreClient::drop_connection(Slot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  slot->conn.close();
}

bool ScoreClient::hello(wire::HelloPayload* out, std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_hello_) {
      if (out) *out = hello_;
      return true;
    }
  }
  Slot* slot = acquire(cfg_.connect_timeout_ms + cfg_.io_timeout_ms);
  if (slot == nullptr) {
    if (error) *error = "no pool slot available";
    return false;
  }
  const bool ok = ensure_connected(slot, cfg_.connect_timeout_ms, error);
  release(slot);
  if (!ok) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (out) *out = hello_;
  return true;
}

ScoreResponse ScoreClient::attempt(Slot* slot, const ScoreRequest& req,
                                   uint64_t request_id, bool* transport_failed,
                                   std::string* transport_error) {
  *transport_failed = false;
  const auto fail = [&](std::string why) {
    *transport_failed = true;
    *transport_error = std::move(why);
    drop_connection(slot);
    return ScoreResponse{};
  };
  const wire::ScoreRequestPayload payload = wire::pack_request(req, request_id);
  if (!wire::write_frame(slot->conn, wire::FrameType::kScoreRequest, payload.encode(),
                         cfg_.io_timeout_ms)) {
    return fail("request send failed: " + slot->conn.last_error());
  }

  wire::Frame frame;
  const wire::WireError werr = wire::read_frame(slot->conn, &frame, cfg_.io_timeout_ms);
  if (werr != wire::WireError::kNone) {
    return fail(std::string("response read failed: ") + wire::wire_error_name(werr) +
                (slot->conn.last_error().empty() ? "" : " (" + slot->conn.last_error() + ")"));
  }
  if (frame.type != wire::FrameType::kScoreDone) {
    return fail("response stream desynchronized (unexpected frame)");
  }
  wire::ScoreDonePayload done;
  try {
    done = wire::ScoreDonePayload::decode(frame.payload);
  } catch (const wire::WireDecodeError& e) {
    return fail(std::string("response decode failed: ") + e.what());
  }
  if (done.request_id != request_id) {
    return fail("response stream desynchronized (bad done id)");
  }
  if (done.error == ScoreError::kNone && done.scores.size() != req.poses.size()) {
    // A success that does not score every pose is a framing bug or a
    // desynchronized stream, not a verdict: treat as transport and retry.
    return fail("response incomplete: " + std::to_string(done.scores.size()) + "/" +
                std::to_string(req.poses.size()) + " scores");
  }
  ScoreResponse resp;
  resp.error = done.error;
  resp.message = std::move(done.message);
  resp.micro_batches = static_cast<int>(done.micro_batches);
  resp.coalesced = done.coalesced;
  if (done.error == ScoreError::kNone) resp.scores = std::move(done.scores);
  return resp;
}

ScoreResponse ScoreClient::score(const ScoreRequest& req) {
  const auto start = Clock::now();
  const bool bounded = cfg_.request_timeout_ms > 0;
  uint64_t request_id;
  uint64_t jitter_stream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    request_id = next_request_id_++;
    jitter_stream = cfg_.jitter_seed + request_id;
  }
  core::Rng jitter(jitter_stream);
  auto remaining_ms = [&]() -> double {
    return bounded ? cfg_.request_timeout_ms - ms_since(start) : -1.0;
  };
  auto timeout_response = [&]() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.timeouts;
    }
    return typed_error(ScoreError::kTimeout,
                       "request timed out after " + std::to_string(cfg_.request_timeout_ms) + " ms");
  };

  std::string last_error = "no attempt made";
  for (int try_i = 0; try_i <= cfg_.max_retries; ++try_i) {
    if (try_i > 0) {
      double backoff = cfg_.backoff_base_ms * std::pow(2.0, try_i - 1);
      backoff = std::min(backoff, cfg_.backoff_max_ms);
      backoff *= jitter.uniform_d(0.5, 1.5);
      if (bounded) backoff = std::min(backoff, std::max(0.0, remaining_ms()));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff));
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.retries;
    }
    if (bounded && remaining_ms() <= 0) return timeout_response();

    Slot* slot = acquire(bounded ? remaining_ms() : -1.0);
    if (slot == nullptr) return timeout_response();

    bool transport_failed = false;
    std::string transport_error;
    std::string connect_error;
    const double connect_budget =
        bounded ? std::min(cfg_.connect_timeout_ms, std::max(1.0, remaining_ms()))
                : cfg_.connect_timeout_ms;
    if (!ensure_connected(slot, connect_budget, &connect_error)) {
      transport_failed = true;
      transport_error = connect_error;
    }
    ScoreResponse resp;
    if (!transport_failed) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.attempts;
      }
      resp = attempt(slot, req, request_id, &transport_failed, &transport_error);
    }
    release(slot);

    if (!transport_failed) {
      if (resp.error == ScoreError::kTimeout) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.timeouts;
      }
      return resp;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.transport_failures;
    }
    last_error = transport_error;
    if (bounded && remaining_ms() <= 0) return timeout_response();
  }
  return typed_error(ScoreError::kTransport,
                     "transport failed after " + std::to_string(cfg_.max_retries + 1) +
                         " attempts: " + last_error);
}

PingResult ScoreClient::ping(double timeout_ms) {
  PingResult result;
  Slot* slot = acquire(timeout_ms);
  if (slot == nullptr) {
    // Every connection is mid-request. A saturated node is an alive node.
    result.status = PingResult::Status::kBusy;
    return result;
  }
  std::string error;
  if (!ensure_connected(slot, timeout_ms, &error)) {
    release(slot);
    result.error = std::move(error);
    return result;
  }
  uint64_t nonce;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nonce = next_nonce_++;
  }
  wire::PingPayload ping_payload;
  ping_payload.nonce = nonce;
  bool ok = wire::write_frame(slot->conn, wire::FrameType::kPing, ping_payload.encode(),
                              timeout_ms);
  wire::Frame frame;
  if (ok) ok = wire::read_frame(slot->conn, &frame, timeout_ms) == wire::WireError::kNone;
  if (ok && frame.type == wire::FrameType::kPong) {
    try {
      wire::PongPayload pong = wire::PongPayload::decode(frame.payload);
      if (pong.nonce == nonce) {
        result.status = PingResult::Status::kOk;
        result.pong = pong;
        release(slot);
        return result;
      }
      result.error = "pong nonce mismatch";
    } catch (const wire::WireDecodeError& e) {
      result.error = std::string("pong decode failed: ") + e.what();
    }
  } else if (ok) {
    result.error = "unexpected frame in place of pong";
  } else {
    result.error = "ping I/O failed: " + slot->conn.last_error();
  }
  drop_connection(slot);
  release(slot);
  return result;
}

bool ScoreClient::drain(double timeout_ms, std::string* error) {
  Slot* slot = acquire(timeout_ms);
  if (slot == nullptr) {
    if (error) *error = "no pool slot available";
    return false;
  }
  std::string conn_error;
  if (!ensure_connected(slot, cfg_.connect_timeout_ms, &conn_error)) {
    release(slot);
    if (error) *error = conn_error;
    return false;
  }
  bool ok = wire::write_frame(slot->conn, wire::FrameType::kDrain, {}, cfg_.io_timeout_ms);
  wire::Frame frame;
  // The ack only arrives once the node's in-flight count hits zero; the
  // caller's timeout is the patience for that.
  if (ok) ok = wire::read_frame(slot->conn, &frame, timeout_ms) == wire::WireError::kNone &&
               frame.type == wire::FrameType::kDrainAck;
  if (!ok) {
    if (error) *error = "drain handshake failed: " + slot->conn.last_error();
    drop_connection(slot);
  }
  release(slot);
  return ok;
}

bool ScoreClient::request_shutdown() {
  Slot* slot = acquire(cfg_.connect_timeout_ms);
  if (slot == nullptr) return false;
  std::string error;
  bool ok = ensure_connected(slot, cfg_.connect_timeout_ms, &error);
  if (ok) ok = wire::write_frame(slot->conn, wire::FrameType::kShutdown, {}, cfg_.io_timeout_ms);
  if (!ok) drop_connection(slot);
  release(slot);
  return ok;
}

}  // namespace df::serve
