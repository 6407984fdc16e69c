// Wire protocol of the multi-node scoring plane: length-prefixed, versioned,
// CRC-checked binary frames over TCP, reusing the ShardStream framing idiom
// (fixed magic, explicit version, trailing CRC-32 over everything the length
// prefix covers). One frame is
//
//   u32 magic 'DFRP' | u16 version | u16 type | u32 payload_len
//   payload bytes (payload_len)
//   u32 crc32(version..payload)
//
// so a reader can resynchronize trust cheaply: a bad magic or version is a
// protocol error before any allocation, a truncated payload is detected by
// the length prefix, and a flipped bit anywhere after the magic fails the
// CRC. Every kScoreRequest is answered by exactly one kScoreDone frame
// carrying the typed ScoreError verdict and, on success, every score in
// pose order — callers use scores only once a whole request has resolved,
// so there is nothing to stream, and a connection cut before that frame is
// a transport failure the client retries.
//
// All integers are little-endian (the only byte order this codebase
// targets); floats travel as raw IEEE-754 bits, so scores and coordinates
// survive the wire bit-exactly — the property the multi-node determinism
// contract (docs/API.md) is built on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/net.h"
#include "serve/service.h"

namespace df::serve::wire {

constexpr uint32_t kMagic = 0x44465250u;  // "DFRP"
constexpr uint16_t kVersion = 2;
// Hard cap on one frame's payload — far above any sane micro-batch, small
// enough that garbage length prefixes cannot OOM the reader.
constexpr uint32_t kMaxPayload = 1u << 28;
// "No pocket" sentinel for PoseInput entries with a null pocket pointer.
constexpr uint32_t kNoPocket = 0xFFFFFFFFu;

enum class FrameType : uint16_t {
  kHello = 1,         // server -> client, once per connection
  kScoreRequest = 2,  // client -> server
  kScoreDone = 4,     // server -> client: verdict + scores for a request
  kPing = 5,          // client -> server: heartbeat probe
  kPong = 6,          // server -> client: health + latency snapshot
  kDrain = 7,         // client -> server: stop accepting new requests
  kDrainAck = 8,      // server -> client: drained (no requests in flight)
  kShutdown = 9,      // client -> server: exit after in-flight work
};

enum class WireError {
  kNone = 0,
  kClosed,     // orderly EOF between frames
  kTransport,  // socket-level failure mid-frame
  kTimeout,    // per-call deadline expired
  kBadMagic,   // stream is not speaking this protocol
  kBadVersion, // protocol version mismatch
  kOversized,  // length prefix beyond kMaxPayload
  kBadCrc,     // frame arrived, checksum failed
};

const char* wire_error_name(WireError e);

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Encode one frame (header + payload + CRC) into a byte string.
std::string encode_frame(FrameType type, std::string_view payload);

/// Read exactly one frame within `timeout_ms` (<= 0 = no deadline). The
/// payload buffer grows as its bytes arrive, so a header alone never makes
/// the reader allocate more than 1 MiB.
WireError read_frame(net::TcpConn& conn, Frame* out, double timeout_ms);

/// Encode + send one frame within `timeout_ms`.
bool write_frame(net::TcpConn& conn, FrameType type, std::string_view payload, double timeout_ms);

// ---------------------------------------------------------------------------
// Payload codecs. decode() throws WireDecodeError on malformed payloads
// (underflow, absurd counts) — the CRC already vouches for transport
// integrity, so a decode failure means a peer bug, not line noise.
// ---------------------------------------------------------------------------

struct WireDecodeError : std::runtime_error {
  explicit WireDecodeError(const std::string& m) : std::runtime_error(m) {}
};

struct HelloPayload {
  uint16_t version = kVersion;
  std::string node_id;
  bool ordered_stream = false;
  uint32_t poses_per_batch = 0;
  uint32_t workers = 0;
  std::vector<std::string> scorers;  // names this node serves, sorted

  std::string encode() const;
  static HelloPayload decode(std::string_view bytes);
};

struct ScoreRequestPayload {
  uint64_t request_id = 0;
  uint32_t deadline_ms = 0;  // 0 = none
  std::string scorer;
  // Pockets are deduplicated: poses reference them by index so a work unit
  // of hundreds of poses against one binding site ships its pocket once.
  std::vector<std::vector<chem::Atom>> pockets;
  struct Pose {
    chem::Molecule ligand;
    uint32_t pocket = kNoPocket;
    core::Vec3 site_center;
  };
  std::vector<Pose> poses;

  std::string encode() const;
  static ScoreRequestPayload decode(std::string_view bytes);
};

struct ScoreDonePayload {
  uint64_t request_id = 0;
  ScoreError error = ScoreError::kNone;
  std::string message;
  uint32_t micro_batches = 0;
  bool coalesced = false;
  std::vector<float> scores;  // one per pose, request order; empty on error

  std::string encode() const;
  static ScoreDonePayload decode(std::string_view bytes);
};

struct PingPayload {
  uint64_t nonce = 0;

  std::string encode() const;
  static PingPayload decode(std::string_view bytes);
};

struct PongPayload {
  uint64_t nonce = 0;
  bool draining = false;
  uint32_t inflight_requests = 0;
  uint64_t requests = 0;
  uint64_t poses = 0;
  float p50_ms = 0;
  float p99_ms = 0;

  std::string encode() const;
  static PongPayload decode(std::string_view bytes);
};

struct DrainAckPayload {
  uint32_t inflight_requests = 0;  // 0 once drained

  std::string encode() const;
  static DrainAckPayload decode(std::string_view bytes);
};

/// Client side: pack a ScoreRequest, deduplicating borrowed pocket pointers.
/// The deadline goes through effective_deadline_ms and is rounded up to
/// whole milliseconds, so a positive deadline never packs as 0 (none).
ScoreRequestPayload pack_request(const ScoreRequest& req, uint64_t request_id);

/// Server side: materialize a ScoreRequest whose pose pockets borrow from
/// `payload.pockets` — the payload must outlive every future resolved from
/// the returned request.
ScoreRequest unpack_request(const ScoreRequestPayload& payload);

}  // namespace df::serve::wire
