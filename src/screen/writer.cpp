#include "screen/writer.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>

#include "io/model_artifact.h"

namespace df::screen {

namespace fs = std::filesystem;

namespace {
constexpr char kStreamMagic[4] = {'D', 'F', 'S', 'H'};
constexpr uint32_t kStreamVersion = 1;
constexpr size_t kStreamHeaderBytes = 8;
// Per block: u64 unit_id + u64 nrows, then the columnar payload, then a
// u32 CRC over everything from unit_id onward.
constexpr size_t kBlockPreludeBytes = 16;
constexpr size_t kBytesPerRow = 3 * sizeof(int64_t) + sizeof(float);

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void append_array(std::string& buf, const std::vector<T>& v) {
  buf.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("shard: cannot open for read: " + path);
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::string bytes(static_cast<size_t>(n), '\0');
  f.read(bytes.data(), n);
  if (!f) throw std::runtime_error("shard: read failed: " + path);
  return bytes;
}

uint32_t file_crc32(const std::string& path) {
  const std::string bytes = read_file_bytes(path);
  return io::crc32(bytes.data(), bytes.size());
}

ShardDamageKind classify(const io::H5LiteError& e) {
  switch (e.kind()) {
    case io::H5LiteError::Kind::Open:
      return ShardDamageKind::MissingFile;
    case io::H5LiteError::Kind::Format:
      return ShardDamageKind::BadHeader;
    case io::H5LiteError::Kind::Truncated:
      return ShardDamageKind::TruncatedBlock;
    case io::H5LiteError::Kind::Crc:
      return ShardDamageKind::CrcMismatch;
  }
  return ShardDamageKind::BadHeader;
}
}  // namespace

const char* shard_damage_name(ShardDamageKind kind) {
  switch (kind) {
    case ShardDamageKind::MissingFile:
      return "missing-file";
    case ShardDamageKind::BadHeader:
      return "bad-header";
    case ShardDamageKind::TruncatedBlock:
      return "truncated-block";
    case ShardDamageKind::CrcMismatch:
      return "crc-mismatch";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// One-shot job shards.
// ---------------------------------------------------------------------------

std::vector<std::string> write_sharded_results(const std::string& prefix, int num_shards,
                                               const std::vector<int64_t>& compound_ids,
                                               const std::vector<int64_t>& target_ids,
                                               const std::vector<int64_t>& pose_ids,
                                               const std::vector<float>& predictions) {
  const size_t n = predictions.size();
  std::vector<std::string> files(static_cast<size_t>(num_shards));
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    files[static_cast<size_t>(s)] = prefix + ".rank" + std::to_string(s) + ".dfca";
    writers.emplace_back([&, s] {
      std::vector<int64_t> c, t, p;
      std::vector<float> y;
      for (size_t i = static_cast<size_t>(s); i < n; i += static_cast<size_t>(num_shards)) {
        c.push_back(compound_ids[i]);
        t.push_back(target_ids[i]);
        p.push_back(pose_ids[i]);
        y.push_back(predictions[i]);
      }
      const int64_t rows = static_cast<int64_t>(y.size());
      io::ArtifactWriter w;
      w.add_ints("compound_id", {rows}, c.data());
      w.add_ints("target_id", {rows}, t.data());
      w.add_ints("pose_id", {rows}, p.data());
      w.add_floats("predicted_pk", {rows}, y.data());
      w.save(files[static_cast<size_t>(s)]);
    });
  }
  for (auto& w : writers) w.join();
  return files;
}

GatheredResults read_sharded_results(const std::vector<std::string>& files) {
  GatheredResults out;
  for (const std::string& path : files) {
    if (!fs::exists(path)) {
      out.damage.push_back({path, ShardDamageKind::MissingFile, 0});
      continue;
    }
    try {
      const auto r = io::ArtifactReader::open(path);
      const int64_t rows = r->section("predicted_pk").numel();
      const float* y = r->floats("predicted_pk", rows);
      const int64_t* c = r->ints("compound_id", rows);
      const int64_t* t = r->ints("target_id", rows);
      const int64_t* p = r->ints("pose_id", rows);
      out.compound_ids.insert(out.compound_ids.end(), c, c + rows);
      out.target_ids.insert(out.target_ids.end(), t, t + rows);
      out.pose_ids.insert(out.pose_ids.end(), p, p + rows);
      out.predictions.insert(out.predictions.end(), y, y + rows);
    } catch (const io::H5LiteError& e) {
      out.damage.push_back({path, classify(e), 0});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Append-mode campaign shards.
// ---------------------------------------------------------------------------

std::string shard_stream_path(const std::string& prefix, int shard) {
  return prefix + ".rank" + std::to_string(shard) + ".dfsh";
}

std::string shard_manifest_path(const std::string& prefix) {
  return prefix + ".manifest.dfca";
}

ShardStream::ShardStream(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  const bool fresh = !fs::exists(path_, ec) || fs::file_size(path_, ec) == 0;
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("shard: cannot open for append: " + path_);
  if (fresh) {
    out_.write(kStreamMagic, 4);
    out_.write(reinterpret_cast<const char*>(&kStreamVersion), sizeof(kStreamVersion));
    out_.flush();
  }
}

void ShardStream::append(const ShardBlock& block) {
  std::string buf;
  buf.reserve(kBlockPreludeBytes + block.rows() * kBytesPerRow + sizeof(uint32_t));
  append_pod(buf, block.unit_id);
  append_pod(buf, static_cast<uint64_t>(block.rows()));
  append_array(buf, block.compound_ids);
  append_array(buf, block.target_ids);
  append_array(buf, block.pose_ids);
  append_array(buf, block.predictions);
  const uint32_t crc = io::crc32(buf.data(), buf.size());
  append_pod(buf, crc);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("shard: append failed: " + path_);
}

void ShardStream::close() {
  if (out_.is_open()) out_.close();
}

int64_t ShardScan::rows() const {
  int64_t n = 0;
  for (const ShardBlock& b : blocks) n += static_cast<int64_t>(b.rows());
  return n;
}

ShardScan scan_shard_stream(const std::string& path) {
  ShardScan scan;
  if (!fs::exists(path)) {
    scan.damage.push_back({path, ShardDamageKind::MissingFile, 0});
    return scan;
  }
  const std::string bytes = read_file_bytes(path);
  if (bytes.size() < kStreamHeaderBytes ||
      std::memcmp(bytes.data(), kStreamMagic, 4) != 0) {
    scan.damage.push_back({path, ShardDamageKind::BadHeader, 0});
    return scan;
  }
  uint32_t version;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kStreamVersion) {
    scan.damage.push_back({path, ShardDamageKind::BadHeader, 0});
    return scan;
  }

  size_t pos = kStreamHeaderBytes;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kBlockPreludeBytes) {
      scan.damage.push_back({path, ShardDamageKind::TruncatedBlock, scan.rows()});
      return scan;
    }
    uint64_t unit_id, nrows;
    std::memcpy(&unit_id, bytes.data() + pos, sizeof(unit_id));
    std::memcpy(&nrows, bytes.data() + pos + 8, sizeof(nrows));
    // A corrupted row count reads as an impossibly large block; both cases
    // end the valid prefix here.
    if (nrows > (remaining - kBlockPreludeBytes) / kBytesPerRow) {
      scan.damage.push_back({path, ShardDamageKind::TruncatedBlock, scan.rows()});
      return scan;
    }
    const size_t payload = kBlockPreludeBytes + static_cast<size_t>(nrows) * kBytesPerRow;
    if (remaining < payload + sizeof(uint32_t)) {
      scan.damage.push_back({path, ShardDamageKind::TruncatedBlock, scan.rows()});
      return scan;
    }
    uint32_t stored;
    std::memcpy(&stored, bytes.data() + pos + payload, sizeof(stored));
    if (stored != io::crc32(bytes.data() + pos, payload)) {
      scan.damage.push_back({path, ShardDamageKind::CrcMismatch, scan.rows()});
      return scan;
    }
    ShardBlock b;
    b.unit_id = unit_id;
    const size_t n = static_cast<size_t>(nrows);
    b.compound_ids.resize(n);
    b.target_ids.resize(n);
    b.pose_ids.resize(n);
    b.predictions.resize(n);
    size_t off = pos + kBlockPreludeBytes;
    std::memcpy(b.compound_ids.data(), bytes.data() + off, n * sizeof(int64_t));
    off += n * sizeof(int64_t);
    std::memcpy(b.target_ids.data(), bytes.data() + off, n * sizeof(int64_t));
    off += n * sizeof(int64_t);
    std::memcpy(b.pose_ids.data(), bytes.data() + off, n * sizeof(int64_t));
    off += n * sizeof(int64_t);
    std::memcpy(b.predictions.data(), bytes.data() + off, n * sizeof(float));
    scan.blocks.push_back(std::move(b));
    pos += payload + sizeof(uint32_t);
  }
  return scan;
}

void compact_shard_stream(const std::string& path, const std::function<bool(uint64_t)>& keep) {
  const ShardScan scan = scan_shard_stream(path);
  if (!fs::exists(path)) return;  // nothing to compact
  // A unit can legitimately appear twice (its first block lost a race with
  // a kill and the unit was re-run): the LAST append is the authoritative
  // one. Select last occurrences, preserving append order.
  std::vector<bool> selected(scan.blocks.size(), false);
  std::vector<uint64_t> seen;
  size_t kept = 0;
  for (size_t i = scan.blocks.size(); i-- > 0;) {
    const uint64_t unit = scan.blocks[i].unit_id;
    if (!keep(unit)) continue;
    if (std::find(seen.begin(), seen.end(), unit) != seen.end()) continue;
    seen.push_back(unit);
    selected[i] = true;
    ++kept;
  }
  // Healthy file keeping everything: skip the rewrite entirely.
  if (scan.damage.empty() && kept == scan.blocks.size()) return;
  const std::string tmp = path + ".tmp";
  {
    std::error_code ec;
    fs::remove(tmp, ec);
    ShardStream out(tmp);
    for (size_t i = 0; i < scan.blocks.size(); ++i) {
      if (selected[i]) out.append(scan.blocks[i]);
    }
    out.close();
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw std::runtime_error("shard: compact rename failed: " + path);
}

void tear_shard_tail(const std::string& path, size_t bytes) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) return;
  const uintmax_t keep = size > bytes ? size - bytes : 0;
  fs::resize_file(path, keep, ec);
}

void write_shard_manifest(const std::string& prefix, int num_shards) {
  std::vector<int64_t> rows, crcs, sizes;
  for (int s = 0; s < num_shards; ++s) {
    const std::string path = shard_stream_path(prefix, s);
    if (!fs::exists(path)) {
      // Record the hole; verify_shard_manifest reports it as MissingFile.
      rows.push_back(0);
      crcs.push_back(0);
      sizes.push_back(0);
      continue;
    }
    const ShardScan scan = scan_shard_stream(path);
    rows.push_back(scan.rows());
    crcs.push_back(static_cast<int64_t>(file_crc32(path)));
    sizes.push_back(static_cast<int64_t>(fs::file_size(path)));
  }
  const int64_t n = static_cast<int64_t>(num_shards);
  io::ArtifactWriter m;
  m.add_scalar("num_shards", n);
  m.add_ints("rows", {n}, rows.data());
  m.add_ints("crc", {n}, crcs.data());
  m.add_ints("bytes", {n}, sizes.data());
  m.save(shard_manifest_path(prefix));
}

std::vector<ShardDamage> verify_shard_manifest(const std::string& prefix) {
  std::vector<ShardDamage> damage;
  const std::string mpath = shard_manifest_path(prefix);
  std::shared_ptr<io::ArtifactReader> m;
  int64_t n = 0;
  const int64_t *crcs = nullptr, *sizes = nullptr;
  try {
    // A container with other contents (e.g. another .dfca copied over the
    // manifest) fails the sized reads: Format, reported as BadHeader.
    m = io::ArtifactReader::open(mpath);
    n = m->scalar("num_shards");
    crcs = m->ints("crc", n);
    sizes = m->ints("bytes", n);
  } catch (const io::H5LiteError& e) {
    damage.push_back({mpath, classify(e), 0});
    return damage;
  }
  for (int64_t s = 0; s < n; ++s) {
    const std::string path = shard_stream_path(prefix, static_cast<int>(s));
    if (!fs::exists(path)) {
      damage.push_back({path, ShardDamageKind::MissingFile, 0});
      continue;
    }
    const int64_t size = static_cast<int64_t>(fs::file_size(path));
    const uint32_t crc = file_crc32(path);
    if (crc == static_cast<uint32_t>(crcs[s])) continue;
    const ShardScan scan = scan_shard_stream(path);
    damage.push_back({path,
                      size < sizes[s] ? ShardDamageKind::TruncatedBlock
                                      : ShardDamageKind::CrcMismatch,
                      scan.rows()});
  }
  return damage;
}

}  // namespace df::screen
