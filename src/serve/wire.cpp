#include "serve/wire.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>

#include "io/model_artifact.h"

namespace df::serve::wire {

namespace {

constexpr size_t kHeaderBytes = 12;  // magic u32 + version u16 + type u16 + len u32
// read_frame's first payload allocation. A payload up to this size is read
// in one piece; a longer one grows geometrically as its bytes arrive.
constexpr size_t kFirstPayloadBytes = size_t{1} << 20;
constexpr uint32_t kMaxAtoms = 1u << 22;
constexpr uint32_t kMaxPoses = 1u << 22;
constexpr uint32_t kMaxStrings = 1u << 16;

// Smallest encoding of each counted element, in bytes. A decoder bounds a
// count by the bytes left over these before it sizes anything, so a short
// payload cannot make it allocate for elements it does not carry.
constexpr size_t kAtomBytes = 16;   // element u8, xyz 3 x f32, charge, aromatic, implicit H
constexpr size_t kBondBytes = 9;    // a i32, b i32, order i8
constexpr size_t kPocketBytes = 4;  // atom count u32
constexpr size_t kPoseBytes = 24;   // atom and bond counts, pocket u32, site 3 x f32
constexpr size_t kScoreBytes = 4;   // f32
constexpr size_t kStringBytes = 4;  // length u32

class Writer {
 public:
  template <typename T>
  void pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  void str(std::string_view s) {
    pod(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  template <typename T>
  void array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<uint32_t>(v.size()));
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::string str() {
    const uint32_t n = pod<uint32_t>();
    if (n > kMaxPayload) throw WireDecodeError("wire: string length out of range");
    need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// A u32 element count, at most `max` and at most the elements of
  /// `min_bytes` each that the bytes left can hold.
  uint32_t count(uint32_t max, size_t min_bytes, const char* what) {
    const uint32_t n = pod<uint32_t>();
    if (n > max || n > (bytes_.size() - pos_) / min_bytes) {
      throw WireDecodeError("wire: " + std::string(what) + " count " + std::to_string(n) +
                            " out of range");
    }
    return n;
  }
  void done() const {
    if (pos_ != bytes_.size()) throw WireDecodeError("wire: trailing bytes in payload");
  }

 private:
  void need(size_t n) {
    if (bytes_.size() - pos_ < n) throw WireDecodeError("wire: payload underflow");
  }
  std::string_view bytes_;
  size_t pos_ = 0;
};

void put_atoms(Writer& w, const std::vector<chem::Atom>& atoms) {
  w.pod(static_cast<uint32_t>(atoms.size()));
  for (const chem::Atom& a : atoms) {
    w.pod(static_cast<uint8_t>(a.element));
    w.pod(a.pos.x);
    w.pod(a.pos.y);
    w.pod(a.pos.z);
    w.pod(a.formal_charge);
    w.pod(static_cast<uint8_t>(a.aromatic ? 1 : 0));
    w.pod(a.implicit_h);
  }
}

std::vector<chem::Atom> get_atoms(Reader& r) {
  const uint32_t n = r.count(kMaxAtoms, kAtomBytes, "atom");
  std::vector<chem::Atom> atoms(n);
  for (chem::Atom& a : atoms) {
    const uint8_t e = r.pod<uint8_t>();
    if (e >= static_cast<uint8_t>(chem::Element::Count)) {
      throw WireDecodeError("wire: element code out of range");
    }
    a.element = static_cast<chem::Element>(e);
    a.pos.x = r.pod<float>();
    a.pos.y = r.pod<float>();
    a.pos.z = r.pod<float>();
    a.formal_charge = r.pod<int8_t>();
    a.aromatic = r.pod<uint8_t>() != 0;
    a.implicit_h = r.pod<int8_t>();
  }
  return atoms;
}

void put_molecule(Writer& w, const chem::Molecule& m) {
  put_atoms(w, m.atoms());
  w.pod(static_cast<uint32_t>(m.num_bonds()));
  for (const chem::Bond& b : m.bonds()) {
    w.pod(b.a);
    w.pod(b.b);
    w.pod(b.order);
  }
}

chem::Molecule get_molecule(Reader& r) {
  const std::vector<chem::Atom> atoms = get_atoms(r);
  chem::Molecule m;
  for (const chem::Atom& a : atoms) {
    const int32_t i = m.add_atom(a.element, a.pos, a.formal_charge, a.aromatic);
    m.atoms()[static_cast<size_t>(i)].implicit_h = a.implicit_h;
  }
  const uint32_t nb = r.count(kMaxAtoms, kBondBytes, "bond");
  for (uint32_t i = 0; i < nb; ++i) {
    const int32_t a = r.pod<int32_t>();
    const int32_t b = r.pod<int32_t>();
    const int8_t order = r.pod<int8_t>();
    if (a < 0 || b < 0 || static_cast<size_t>(a) >= m.num_atoms() ||
        static_cast<size_t>(b) >= m.num_atoms()) {
      throw WireDecodeError("wire: bond endpoint out of range");
    }
    m.add_bond(a, b, order);
  }
  return m;
}

}  // namespace

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kClosed: return "closed";
    case WireError::kTransport: return "transport";
    case WireError::kTimeout: return "timeout";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kOversized: return "oversized";
    case WireError::kBadCrc: return "bad-crc";
  }
  return "invalid";
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + sizeof(uint32_t));
  Writer w;
  w.pod(kMagic);
  w.pod(kVersion);
  w.pod(static_cast<uint16_t>(type));
  w.pod(static_cast<uint32_t>(payload.size()));
  out = w.take();
  out.append(payload.data(), payload.size());
  // CRC over everything the header vouches for: version, type, length and
  // payload — the magic is the resync marker and stays outside.
  const uint32_t crc = io::crc32(out.data() + sizeof(uint32_t), out.size() - sizeof(uint32_t));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

WireError read_frame(net::TcpConn& conn, Frame* out, double timeout_ms) {
  char header[kHeaderBytes];
  if (!conn.recv_exact(header, sizeof(header), timeout_ms)) {
    if (conn.timed_out()) return WireError::kTimeout;
    // EOF on the first header byte is an orderly close; mid-header it is a
    // torn frame, but both end the conversation the same way for callers.
    return WireError::kClosed;
  }
  uint32_t magic, len;
  uint16_t version, type;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 2);
  std::memcpy(&type, header + 6, 2);
  std::memcpy(&len, header + 8, 4);
  if (magic != kMagic) return WireError::kBadMagic;
  if (version != kVersion) return WireError::kBadVersion;
  if (len > kMaxPayload) return WireError::kOversized;
  // Allocate only as bytes arrive, so a bare header promising kMaxPayload
  // costs the reader kFirstPayloadBytes, not the promise. The pieces share
  // one deadline.
  std::string payload(std::min<size_t>(len, kFirstPayloadBytes), '\0');
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t got = 0; got < len;) {
    double left_ms = timeout_ms;
    if (timeout_ms > 0) {
      const std::chrono::duration<double, std::milli> spent = std::chrono::steady_clock::now() - t0;
      left_ms = std::max(timeout_ms - spent.count(), 1e-3);
    }
    if (!conn.recv_exact(payload.data() + got, payload.size() - got, left_ms)) {
      return conn.timed_out() ? WireError::kTimeout : WireError::kTransport;
    }
    got = payload.size();
    payload.resize(std::min<size_t>(len, 2 * got));
  }
  uint32_t stored_crc;
  if (!conn.recv_exact(&stored_crc, sizeof(stored_crc), timeout_ms)) {
    return conn.timed_out() ? WireError::kTimeout : WireError::kTransport;
  }
  uint32_t crc = io::crc32(header + 4, kHeaderBytes - 4);
  crc = io::crc32(payload.data(), payload.size(), crc);
  if (crc != stored_crc) return WireError::kBadCrc;
  out->type = static_cast<FrameType>(type);
  out->payload = std::move(payload);
  return WireError::kNone;
}

bool write_frame(net::TcpConn& conn, FrameType type, std::string_view payload, double timeout_ms) {
  const std::string bytes = encode_frame(type, payload);
  return conn.send_all(bytes.data(), bytes.size(), timeout_ms);
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

std::string HelloPayload::encode() const {
  Writer w;
  w.pod(version);
  w.str(node_id);
  w.pod(static_cast<uint8_t>(ordered_stream ? 1 : 0));
  w.pod(poses_per_batch);
  w.pod(workers);
  w.pod(static_cast<uint32_t>(scorers.size()));
  for (const std::string& s : scorers) w.str(s);
  return w.take();
}

HelloPayload HelloPayload::decode(std::string_view bytes) {
  Reader r(bytes);
  HelloPayload p;
  p.version = r.pod<uint16_t>();
  p.node_id = r.str();
  p.ordered_stream = r.pod<uint8_t>() != 0;
  p.poses_per_batch = r.pod<uint32_t>();
  p.workers = r.pod<uint32_t>();
  const uint32_t n = r.count(kMaxStrings, kStringBytes, "scorer");
  p.scorers.reserve(n);
  for (uint32_t i = 0; i < n; ++i) p.scorers.push_back(r.str());
  r.done();
  return p;
}

std::string ScoreRequestPayload::encode() const {
  Writer w;
  w.pod(request_id);
  w.pod(deadline_ms);
  w.str(scorer);
  w.pod(static_cast<uint32_t>(pockets.size()));
  for (const auto& pocket : pockets) put_atoms(w, pocket);
  w.pod(static_cast<uint32_t>(poses.size()));
  for (const Pose& p : poses) {
    put_molecule(w, p.ligand);
    w.pod(p.pocket);
    w.pod(p.site_center.x);
    w.pod(p.site_center.y);
    w.pod(p.site_center.z);
  }
  return w.take();
}

ScoreRequestPayload ScoreRequestPayload::decode(std::string_view bytes) {
  Reader r(bytes);
  ScoreRequestPayload p;
  p.request_id = r.pod<uint64_t>();
  p.deadline_ms = r.pod<uint32_t>();
  p.scorer = r.str();
  const uint32_t np = r.count(kMaxPoses, kPocketBytes, "pocket");
  p.pockets.reserve(np);
  for (uint32_t i = 0; i < np; ++i) p.pockets.push_back(get_atoms(r));
  const uint32_t n = r.count(kMaxPoses, kPoseBytes, "pose");
  p.poses.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Pose pose;
    pose.ligand = get_molecule(r);
    pose.pocket = r.pod<uint32_t>();
    if (pose.pocket != kNoPocket && pose.pocket >= p.pockets.size()) {
      throw WireDecodeError("wire: pose pocket index out of range");
    }
    pose.site_center.x = r.pod<float>();
    pose.site_center.y = r.pod<float>();
    pose.site_center.z = r.pod<float>();
    p.poses.push_back(std::move(pose));
  }
  r.done();
  return p;
}

std::string ScoreDonePayload::encode() const {
  Writer w;
  w.pod(request_id);
  w.pod(static_cast<uint8_t>(error));
  w.str(message);
  w.pod(micro_batches);
  w.pod(static_cast<uint8_t>(coalesced ? 1 : 0));
  w.array(scores);
  return w.take();
}

ScoreDonePayload ScoreDonePayload::decode(std::string_view bytes) {
  Reader r(bytes);
  ScoreDonePayload p;
  p.request_id = r.pod<uint64_t>();
  const uint8_t e = r.pod<uint8_t>();
  if (e > static_cast<uint8_t>(ScoreError::kTransport)) {
    throw WireDecodeError("wire: score error code out of range");
  }
  p.error = static_cast<ScoreError>(e);
  p.message = r.str();
  p.micro_batches = r.pod<uint32_t>();
  p.coalesced = r.pod<uint8_t>() != 0;
  const uint32_t n = r.count(kMaxPoses, kScoreBytes, "score");
  p.scores.resize(n);
  for (uint32_t i = 0; i < n; ++i) p.scores[i] = r.pod<float>();
  r.done();
  return p;
}

std::string PingPayload::encode() const {
  Writer w;
  w.pod(nonce);
  return w.take();
}

PingPayload PingPayload::decode(std::string_view bytes) {
  Reader r(bytes);
  PingPayload p;
  p.nonce = r.pod<uint64_t>();
  r.done();
  return p;
}

std::string PongPayload::encode() const {
  Writer w;
  w.pod(nonce);
  w.pod(static_cast<uint8_t>(draining ? 1 : 0));
  w.pod(inflight_requests);
  w.pod(requests);
  w.pod(poses);
  w.pod(p50_ms);
  w.pod(p99_ms);
  return w.take();
}

PongPayload PongPayload::decode(std::string_view bytes) {
  Reader r(bytes);
  PongPayload p;
  p.nonce = r.pod<uint64_t>();
  p.draining = r.pod<uint8_t>() != 0;
  p.inflight_requests = r.pod<uint32_t>();
  p.requests = r.pod<uint64_t>();
  p.poses = r.pod<uint64_t>();
  p.p50_ms = r.pod<float>();
  p.p99_ms = r.pod<float>();
  r.done();
  return p;
}

std::string DrainAckPayload::encode() const {
  Writer w;
  w.pod(inflight_requests);
  return w.take();
}

DrainAckPayload DrainAckPayload::decode(std::string_view bytes) {
  Reader r(bytes);
  DrainAckPayload p;
  p.inflight_requests = r.pod<uint32_t>();
  r.done();
  return p;
}

ScoreRequestPayload pack_request(const ScoreRequest& req, uint64_t request_id) {
  ScoreRequestPayload p;
  p.request_id = request_id;
  p.deadline_ms = static_cast<uint32_t>(std::ceil(effective_deadline_ms(req.deadline_ms)));
  p.scorer = req.scorer;
  std::map<const std::vector<chem::Atom>*, uint32_t> seen;
  p.poses.reserve(req.poses.size());
  for (const PoseInput& pose : req.poses) {
    ScoreRequestPayload::Pose out;
    out.ligand = pose.ligand;
    out.site_center = pose.site_center;
    if (pose.pocket != nullptr) {
      auto [it, inserted] = seen.try_emplace(pose.pocket, static_cast<uint32_t>(p.pockets.size()));
      if (inserted) p.pockets.push_back(*pose.pocket);
      out.pocket = it->second;
    }
    p.poses.push_back(std::move(out));
  }
  return p;
}

ScoreRequest unpack_request(const ScoreRequestPayload& payload) {
  ScoreRequest req;
  req.scorer = payload.scorer;
  req.deadline_ms = payload.deadline_ms;
  req.poses.reserve(payload.poses.size());
  for (const ScoreRequestPayload::Pose& p : payload.poses) {
    PoseInput pose;
    pose.ligand = p.ligand;
    pose.site_center = p.site_center;
    pose.pocket = p.pocket == kNoPocket ? nullptr : &payload.pockets[p.pocket];
    req.poses.push_back(std::move(pose));
  }
  return req;
}

}  // namespace df::serve::wire
