// Wire-protocol pins: frame layout, CRC/version/magic rejection, payload
// codec roundtrips (bitwise for every float), and the malformed-payload
// taxonomy. These are the "partial frame / flipped bit" rows of the network
// fault table in docs/TESTING.md — every corruption a chaos run can inflict
// on a frame must map to a typed WireError, never to garbage scores.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <thread>

#include "serve/net.h"
#include "serve/wire.h"

namespace wire = df::serve::wire;
namespace chem = df::chem;
using df::serve::net::TcpConn;

// The largest single operator new request this thread made while counting
// is on: the hostile-count cases pin the decoders' allocations with it.
static thread_local bool t_count_allocs = false;
static thread_local size_t t_largest_alloc = 0;

// Out of line, so the compiler never pairs an inlined free() with the
// operator new that handed the pointer out (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(size_t n) {
  if (t_count_allocs && n > t_largest_alloc) t_largest_alloc = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace {

/// The bytes of `v...`, back to back, as the wire writes them.
template <typename... T>
std::string pods(T... v) {
  std::string out;
  (out.append(reinterpret_cast<const char*>(&v), sizeof(v)), ...);
  return out;
}

/// Connected AF_UNIX pair wrapped as TcpConns — the frame I/O layer only
/// needs stream semantics, so tests skip the TCP handshake.
struct ConnPair {
  TcpConn a, b;
  ConnPair() {
    int fds[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = TcpConn(fds[0]);
    b = TcpConn(fds[1]);
  }
};

chem::Molecule tiny_molecule() {
  chem::Molecule m;
  const int32_t c = m.add_atom(chem::Element::C, {1.25f, -2.5f, 3.75f}, 0, true);
  const int32_t n = m.add_atom(chem::Element::N, {0.1f, 0.2f, 0.3f}, 1, false);
  const int32_t o = m.add_atom(chem::Element::O, {-4.0f, 5.0f, -6.0f}, -1, false);
  m.atoms()[static_cast<size_t>(c)].implicit_h = 3;
  m.add_bond(c, n, 2);
  m.add_bond(n, o, 1);
  return m;
}

}  // namespace

TEST(WireFrame, LayoutMagicVersionLengthCrc) {
  const std::string frame = wire::encode_frame(wire::FrameType::kPing, "abc");
  ASSERT_EQ(frame.size(), 12u + 3u + 4u);
  uint32_t magic, len;
  uint16_t version, type;
  std::memcpy(&magic, frame.data(), 4);
  std::memcpy(&version, frame.data() + 4, 2);
  std::memcpy(&type, frame.data() + 6, 2);
  std::memcpy(&len, frame.data() + 8, 4);
  EXPECT_EQ(magic, wire::kMagic);
  EXPECT_EQ(version, wire::kVersion);
  EXPECT_EQ(type, static_cast<uint16_t>(wire::FrameType::kPing));
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(frame.substr(12, 3), "abc");
}

TEST(WireFrame, RoundtripOverSocket) {
  // A short payload, and one of 5 MiB that read_frame grows its buffer for
  // as the bytes arrive. The writer runs on a second thread: the socket
  // buffer holds less than the big frame.
  std::string big(size_t{5} << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 131 + (i >> 12));
  for (const std::string& payload : {std::string("payload bytes"), big}) {
    ConnPair pair;
    bool sent = false;
    std::thread writer(
        [&] { sent = wire::write_frame(pair.a, wire::FrameType::kScoreDone, payload, 5000); });
    wire::Frame frame;
    const wire::WireError err = wire::read_frame(pair.b, &frame, 5000);
    writer.join();
    ASSERT_TRUE(sent) << payload.size() << " bytes";
    ASSERT_EQ(err, wire::WireError::kNone) << wire::wire_error_name(err);
    EXPECT_EQ(frame.type, wire::FrameType::kScoreDone);
    EXPECT_TRUE(frame.payload == payload) << payload.size() << " bytes";
  }
}

TEST(WireFrame, EmptyPayloadRoundtrips) {
  ConnPair pair;
  ASSERT_TRUE(wire::write_frame(pair.a, wire::FrameType::kDrain, {}, 1000));
  wire::Frame frame;
  ASSERT_EQ(wire::read_frame(pair.b, &frame, 1000), wire::WireError::kNone);
  EXPECT_EQ(frame.type, wire::FrameType::kDrain);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFrame, FlippedPayloadBitFailsCrc) {
  ConnPair pair;
  std::string frame = wire::encode_frame(wire::FrameType::kPong, "sensitive");
  frame[14] ^= 0x20;  // inside the payload
  ASSERT_TRUE(pair.a.send_all(frame.data(), frame.size(), 1000));
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kBadCrc);
}

TEST(WireFrame, FlippedTypeBitFailsCrc) {
  ConnPair pair;
  std::string frame = wire::encode_frame(wire::FrameType::kPing, "x");
  frame[6] ^= 0x01;  // frame type is under the CRC too
  ASSERT_TRUE(pair.a.send_all(frame.data(), frame.size(), 1000));
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kBadCrc);
}

TEST(WireFrame, BadMagicRejectedBeforePayload) {
  ConnPair pair;
  std::string frame = wire::encode_frame(wire::FrameType::kPing, "x");
  frame[0] = 'X';
  ASSERT_TRUE(pair.a.send_all(frame.data(), frame.size(), 1000));
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kBadMagic);
}

TEST(WireFrame, VersionMismatchRejected) {
  // An older peer (a v1 node still streaming score chunks) and a newer one
  // both fail at their first frame.
  for (const uint16_t bad_version : {uint16_t{wire::kVersion - 1}, uint16_t{wire::kVersion + 1}}) {
    ConnPair pair;
    std::string frame = wire::encode_frame(wire::FrameType::kPing, "x");
    std::memcpy(frame.data() + 4, &bad_version, 2);
    ASSERT_TRUE(pair.a.send_all(frame.data(), frame.size(), 1000));
    wire::Frame out;
    EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kBadVersion)
        << "version " << bad_version;
  }
}

TEST(WireFrame, OversizedLengthRejectedWithoutAllocation) {
  ConnPair pair;
  std::string frame = wire::encode_frame(wire::FrameType::kPing, "x");
  const uint32_t absurd = wire::kMaxPayload + 1;
  std::memcpy(frame.data() + 8, &absurd, 4);
  ASSERT_TRUE(pair.a.send_all(frame.data(), frame.size(), 1000));
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kOversized);
}

TEST(WireFrame, BareHeaderAllocatesOnlyAsThePayloadArrives) {
  // A header promising kMaxPayload, then close: the reader must not size a
  // buffer for bytes that never come.
  ConnPair pair;
  std::string header = wire::encode_frame(wire::FrameType::kScoreRequest, "").substr(0, 12);
  const uint32_t promise = wire::kMaxPayload;
  std::memcpy(header.data() + 8, &promise, 4);
  ASSERT_TRUE(pair.a.send_all(header.data(), header.size(), 1000));
  pair.a.close();
  wire::Frame out;
  t_largest_alloc = 0;
  t_count_allocs = true;
  const wire::WireError err = wire::read_frame(pair.b, &out, 1000);
  t_count_allocs = false;
  EXPECT_EQ(err, wire::WireError::kTransport) << wire::wire_error_name(err);
  EXPECT_LE(t_largest_alloc, size_t{2} << 20);
}

TEST(WireFrame, PartialFrameThenCloseIsTornNotGarbage) {
  ConnPair pair;
  const std::string frame = wire::encode_frame(wire::FrameType::kScoreRequest, "truncated body");
  // Send the header plus a few payload bytes, then close mid-frame.
  ASSERT_TRUE(pair.a.send_all(frame.data(), 15, 1000));
  pair.a.close();
  wire::Frame out;
  const wire::WireError err = wire::read_frame(pair.b, &out, 1000);
  EXPECT_TRUE(err == wire::WireError::kTransport || err == wire::WireError::kClosed)
      << wire::wire_error_name(err);
}

TEST(WireFrame, IdleCloseIsOrderlyEof) {
  ConnPair pair;
  pair.a.close();
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 1000), wire::WireError::kClosed);
}

TEST(WireFrame, ReadTimesOutWhenPeerSilent) {
  ConnPair pair;
  wire::Frame out;
  EXPECT_EQ(wire::read_frame(pair.b, &out, 50), wire::WireError::kTimeout);
  EXPECT_TRUE(pair.b.timed_out());
}

TEST(WirePayload, HelloRoundtrip) {
  wire::HelloPayload hello;
  hello.node_id = "node-7";
  hello.ordered_stream = true;
  hello.poses_per_batch = 32;
  hello.workers = 4;
  hello.scorers = {"mmgbsa", "sgcnn", "vina_pk"};
  const wire::HelloPayload back = wire::HelloPayload::decode(hello.encode());
  EXPECT_EQ(back.version, wire::kVersion);
  EXPECT_EQ(back.node_id, hello.node_id);
  EXPECT_EQ(back.ordered_stream, hello.ordered_stream);
  EXPECT_EQ(back.poses_per_batch, hello.poses_per_batch);
  EXPECT_EQ(back.workers, hello.workers);
  EXPECT_EQ(back.scorers, hello.scorers);
}

TEST(WirePayload, ScoreDoneRoundtrip) {
  // A success carries every score, bitwise.
  wire::ScoreDonePayload ok;
  ok.request_id = 0xDEADBEEFCAFEull;
  ok.micro_batches = 3;
  ok.scores = {1.5f, -0.0f, 3.1415926f, 1e-38f, -7.25f};
  const wire::ScoreDonePayload ok_back = wire::ScoreDonePayload::decode(ok.encode());
  EXPECT_EQ(ok_back.request_id, ok.request_id);
  EXPECT_EQ(ok_back.error, df::serve::ScoreError::kNone);
  EXPECT_EQ(ok_back.micro_batches, ok.micro_batches);
  EXPECT_FALSE(ok_back.coalesced);
  ASSERT_EQ(ok_back.scores.size(), ok.scores.size());
  for (size_t i = 0; i < ok.scores.size(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, &ok.scores[i], 4);
    std::memcpy(&b, &ok_back.scores[i], 4);
    EXPECT_EQ(a, b) << "score " << i << " changed bits over the wire";
  }

  // A typed error carries its verdict and no scores.
  wire::ScoreDonePayload done;
  done.request_id = 42;
  done.error = df::serve::ScoreError::kTimeout;
  done.message = "deadline expired";
  done.micro_batches = 7;
  done.coalesced = true;
  const wire::ScoreDonePayload back = wire::ScoreDonePayload::decode(done.encode());
  EXPECT_EQ(back.request_id, done.request_id);
  EXPECT_EQ(back.error, done.error);
  EXPECT_EQ(back.message, done.message);
  EXPECT_EQ(back.micro_batches, done.micro_batches);
  EXPECT_EQ(back.coalesced, done.coalesced);
  EXPECT_TRUE(back.scores.empty());
}

TEST(WirePayload, PingPongRoundtrip) {
  wire::PingPayload ping;
  ping.nonce = 0x1234567890ABCDEFull;
  EXPECT_EQ(wire::PingPayload::decode(ping.encode()).nonce, ping.nonce);

  wire::PongPayload pong;
  pong.nonce = 99;
  pong.draining = true;
  pong.inflight_requests = 5;
  pong.requests = 1000;
  pong.poses = 32000;
  pong.p50_ms = 1.024f;
  pong.p99_ms = 16.384f;
  const wire::PongPayload back = wire::PongPayload::decode(pong.encode());
  EXPECT_EQ(back.nonce, pong.nonce);
  EXPECT_EQ(back.draining, pong.draining);
  EXPECT_EQ(back.inflight_requests, pong.inflight_requests);
  EXPECT_EQ(back.requests, pong.requests);
  EXPECT_EQ(back.poses, pong.poses);
  EXPECT_EQ(back.p50_ms, pong.p50_ms);
  EXPECT_EQ(back.p99_ms, pong.p99_ms);
}

TEST(WirePayload, MoleculeRoundtripPreservesEveryField) {
  const chem::Molecule m = tiny_molecule();
  df::serve::ScoreRequest req;
  req.scorer = "sgcnn";
  df::serve::PoseInput pose;
  pose.ligand = m;
  pose.site_center = {0.5f, 1.5f, -2.5f};
  req.poses.push_back(pose);

  const wire::ScoreRequestPayload payload =
      wire::ScoreRequestPayload::decode(wire::pack_request(req, 1).encode());
  ASSERT_EQ(payload.poses.size(), 1u);
  const chem::Molecule& back = payload.poses[0].ligand;
  ASSERT_EQ(back.num_atoms(), m.num_atoms());
  ASSERT_EQ(back.num_bonds(), m.num_bonds());
  for (size_t i = 0; i < m.num_atoms(); ++i) {
    const chem::Atom& x = m.atoms()[i];
    const chem::Atom& y = back.atoms()[i];
    EXPECT_EQ(x.element, y.element);
    EXPECT_EQ(x.pos.x, y.pos.x);
    EXPECT_EQ(x.pos.y, y.pos.y);
    EXPECT_EQ(x.pos.z, y.pos.z);
    EXPECT_EQ(x.formal_charge, y.formal_charge);
    EXPECT_EQ(x.aromatic, y.aromatic);
    EXPECT_EQ(x.implicit_h, y.implicit_h);
  }
  for (size_t i = 0; i < m.num_bonds(); ++i) {
    EXPECT_EQ(m.bonds()[i].a, back.bonds()[i].a);
    EXPECT_EQ(m.bonds()[i].b, back.bonds()[i].b);
    EXPECT_EQ(m.bonds()[i].order, back.bonds()[i].order);
  }
  // Adjacency must be rebuilt, not just stored: degree comes from add_bond.
  EXPECT_EQ(back.degree(1), 2);
}

TEST(WirePayload, PackRequestDedupesSharedPockets) {
  const std::vector<chem::Atom> site_a = tiny_molecule().atoms();
  const std::vector<chem::Atom> site_b = {{chem::Element::S, {9, 9, 9}, 0, false, 0}};
  df::serve::ScoreRequest req;
  req.scorer = "sgcnn";
  for (int i = 0; i < 3; ++i) {
    df::serve::PoseInput pose;
    pose.ligand = tiny_molecule();
    pose.pocket = &site_a;
    req.poses.push_back(pose);
  }
  df::serve::PoseInput other;
  other.ligand = tiny_molecule();
  other.pocket = &site_b;
  req.poses.push_back(other);
  df::serve::PoseInput orphan;
  orphan.ligand = tiny_molecule();
  orphan.pocket = nullptr;
  req.poses.push_back(orphan);

  const wire::ScoreRequestPayload payload = wire::pack_request(req, 7);
  EXPECT_EQ(payload.pockets.size(), 2u) << "shared pocket must ship once";
  EXPECT_EQ(payload.poses[0].pocket, payload.poses[1].pocket);
  EXPECT_EQ(payload.poses[0].pocket, payload.poses[2].pocket);
  EXPECT_NE(payload.poses[3].pocket, payload.poses[0].pocket);
  EXPECT_EQ(payload.poses[4].pocket, wire::kNoPocket);

  // unpack borrows: pose pockets must point into the payload's pockets.
  const df::serve::ScoreRequest back = wire::unpack_request(payload);
  ASSERT_EQ(back.poses.size(), 5u);
  EXPECT_EQ(back.poses[0].pocket, &payload.pockets[payload.poses[0].pocket]);
  EXPECT_EQ(back.poses[4].pocket, nullptr);
  EXPECT_EQ(back.scorer, req.scorer);
}

TEST(WirePayload, MalformedPayloadsThrowTyped) {
  // Underflow: a Hello cut short mid-string.
  wire::HelloPayload hello;
  hello.node_id = "some-node-name";
  const std::string bytes = hello.encode();
  EXPECT_THROW(wire::HelloPayload::decode(std::string_view(bytes).substr(0, 6)),
               wire::WireDecodeError);
  // Trailing bytes after a complete payload.
  EXPECT_THROW(wire::HelloPayload::decode(bytes + "junk"), wire::WireDecodeError);
  // Ping payload too small.
  EXPECT_THROW(wire::PingPayload::decode("abc"), wire::WireDecodeError);

  // Element code out of range inside a molecule.
  df::serve::ScoreRequest req;
  req.scorer = "s";
  df::serve::PoseInput pose;
  pose.ligand = tiny_molecule();
  req.poses.push_back(pose);
  std::string encoded = wire::pack_request(req, 1).encode();
  // Find the first atom's element byte: u64 id + u32 deadline + str scorer
  // (4 + 1) + u32 pockets + u32 atom count, then element.
  const size_t element_at = 8 + 4 + (4 + 1) + 4 + 4;
  encoded[element_at] = static_cast<char>(0x7F);
  EXPECT_THROW(wire::ScoreRequestPayload::decode(encoded), wire::WireDecodeError);

  // Done frame with an error code past the enum.
  wire::ScoreDonePayload done;
  done.request_id = 1;
  std::string done_bytes = done.encode();
  done_bytes[8] = 0x50;  // error byte follows the u64 request id
  EXPECT_THROW(wire::ScoreDonePayload::decode(done_bytes), wire::WireDecodeError);

  // Done frame whose score count overruns its payload.
  done.scores = {1.0f, 2.0f, 3.0f};
  const std::string scored = done.encode();
  EXPECT_THROW(wire::ScoreDonePayload::decode(std::string_view(scored).substr(0, scored.size() - 2)),
               wire::WireDecodeError);

  // Counts the bytes left cannot hold throw before anything is sized for
  // them: sized first, each payload below would cost its decoder 16-352 MB
  // before it found the payload short.
  const uint64_t id = 1;
  const uint32_t none = 0, one = 1, huge = 1u << 22;
  const uint8_t zero = 0;
  const struct {
    const char* what;
    bool score_done;  // a ScoreDone payload, else a ScoreRequest
    std::string bytes;
    size_t size;
  } hostile[] = {
      // id, deadline, scorer "", pockets, poses
      {"2^22 poses", false, pods(id, none, none, none, huge), 24},
      // id, deadline, scorer "", pockets, first pocket's atom count
      {"2^22 pockets", false, pods(id, none, none, huge, none), 24},
      // id, deadline, scorer "", pockets, atoms, 4 bytes of the first atom
      {"a pocket of 2^22 atoms", false, pods(id, none, none, one, huge, none), 28},
      // id, error, message "", micro_batches, coalesced, scores
      {"2^22 scores", true, pods(id, zero, none, none, zero, huge), 22},
  };
  for (const auto& h : hostile) {
    ASSERT_EQ(h.bytes.size(), h.size) << h.what;
    t_largest_alloc = 0;
    t_count_allocs = true;
    if (h.score_done) {
      EXPECT_THROW(wire::ScoreDonePayload::decode(h.bytes), wire::WireDecodeError) << h.what;
    } else {
      EXPECT_THROW(wire::ScoreRequestPayload::decode(h.bytes), wire::WireDecodeError) << h.what;
    }
    t_count_allocs = false;
    EXPECT_LE(t_largest_alloc, size_t{64} << 10) << h.what;
  }
}

TEST(WirePayload, PackedDeadlineFollowsTheServiceRule) {
  // Not a finite positive number => no deadline (0); a finite one is
  // clamped to the u32 millisecond range before the cast and rounded up,
  // so a positive deadline never packs as "none" and never wraps.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double in;
    uint32_t packed;
  } cases[] = {
      {0, 0},    {-5, 0},   {-inf, 0},  {nan, 0},  {inf, 0},
      {0.25, 1}, {50, 50},  {50.5, 51},
      {1e10, 0xFFFFFFFFu},  {1e13, 0xFFFFFFFFu},   {1e300, 0xFFFFFFFFu},
  };
  for (const auto& c : cases) {
    df::serve::ScoreRequest req;
    req.scorer = "s";
    req.deadline_ms = c.in;
    const wire::ScoreRequestPayload p =
        wire::ScoreRequestPayload::decode(wire::pack_request(req, 1).encode());
    EXPECT_EQ(p.deadline_ms, c.packed) << "deadline_ms " << c.in;
    EXPECT_EQ(wire::unpack_request(p).deadline_ms, static_cast<double>(c.packed));
  }
}
