// Sharded result output (paper §4.2): the fix for the file-output
// bottleneck is that every rank writes its own file. Two forms live here:
//
//  * write_sharded_results / read_sharded_results — the original one-shot
//    shards a finished job dumps after its allgather, one container file
//    (io/model_artifact.h) per rank. Reading *reports* damage (missing /
//    truncated / corrupt shards) instead of throwing away the healthy ones.
//
//  * ShardStream — an append-mode shard for the campaign driver: each
//    finished work unit is flushed immediately as one CRC-framed block, so
//    a killed campaign keeps everything scored so far. scan() recovers the
//    valid block prefix from a torn file; compact() drops blocks that a
//    checkpoint does not vouch for (the resume reconciliation step).
//
// A manifest (a container file, itself CRC-protected) records per-shard row
// counts and whole-file CRCs so a finished campaign's output can be audited
// without re-reading every row.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace df::screen {

enum class ShardDamageKind {
  MissingFile,   // shard listed/expected but not on disk
  BadHeader,     // wrong magic/version — not a shard at all
  TruncatedBlock,  // file ends mid-block (torn write); valid prefix kept
  CrcMismatch,   // stored checksum does not match payload bytes
};

struct ShardDamage {
  std::string file;
  ShardDamageKind kind = ShardDamageKind::MissingFile;
  int64_t rows_recovered = 0;  // rows salvaged from the valid prefix
};

const char* shard_damage_name(ShardDamageKind kind);

// ---------------------------------------------------------------------------
// One-shot job shards (per-job output).
// ---------------------------------------------------------------------------

/// Write `num_shards` container files named <prefix>.rankN.dfca in
/// parallel, each atomically. Returns the file paths. Row i goes to shard
/// i % num_shards.
std::vector<std::string> write_sharded_results(const std::string& prefix, int num_shards,
                                               const std::vector<int64_t>& compound_ids,
                                               const std::vector<int64_t>& target_ids,
                                               const std::vector<int64_t>& pose_ids,
                                               const std::vector<float>& predictions);

/// Load all shards written by write_sharded_results back into flat arrays.
/// Damaged shards contribute nothing to the arrays but are *reported* in
/// `damage` — callers decide whether partial results are acceptable. The
/// container's error kinds map onto ShardDamageKind: Open → MissingFile,
/// Format (also a missing or mis-sized column) → BadHeader, Truncated →
/// TruncatedBlock, Crc → CrcMismatch.
struct GatheredResults {
  std::vector<int64_t> compound_ids, target_ids, pose_ids;
  std::vector<float> predictions;
  std::vector<ShardDamage> damage;
  bool complete() const { return damage.empty(); }
};
GatheredResults read_sharded_results(const std::vector<std::string>& files);

// ---------------------------------------------------------------------------
// Append-mode campaign shards.
// ---------------------------------------------------------------------------

/// One work unit's worth of finished rows, framed and CRC'd as a unit.
struct ShardBlock {
  uint64_t unit_id = 0;
  std::vector<int64_t> compound_ids, target_ids, pose_ids;
  std::vector<float> predictions;

  size_t rows() const { return predictions.size(); }
};

/// Path of campaign shard `shard` under `prefix`.
std::string shard_stream_path(const std::string& prefix, int shard);
/// Path of the campaign shard manifest under `prefix`.
std::string shard_manifest_path(const std::string& prefix);

class ShardStream {
 public:
  /// Opens `path` for appending; writes the stream header if the file is
  /// new or empty. Throws std::runtime_error if the file cannot be opened.
  explicit ShardStream(std::string path);

  /// Append one block and flush it to the OS — after this returns, a
  /// process kill loses at most blocks appended *later*.
  void append(const ShardBlock& block);

  const std::string& path() const { return path_; }
  void close();

 private:
  std::string path_;
  std::ofstream out_;
};

struct ShardScan {
  std::vector<ShardBlock> blocks;    // valid prefix, in append order
  std::vector<ShardDamage> damage;   // empty, or one entry describing the tail
  int64_t rows() const;
};

/// Walk a shard stream, validating each block's CRC. Stops at the first
/// damaged byte and reports what was salvageable.
ShardScan scan_shard_stream(const std::string& path);

/// Rewrite `path` keeping only the valid blocks for which `keep(unit_id)`
/// is true, and of a unit appended more than once only its last block (the
/// re-run's), in append order. Damaged tails are dropped. This is how
/// resume discards work units written after the last checkpoint.
void compact_shard_stream(const std::string& path, const std::function<bool(uint64_t)>& keep);

/// Crash simulation hook for tests and the campaign kill switch: chop the
/// last `bytes` off the file, as if the process died mid-append.
void tear_shard_tail(const std::string& path, size_t bytes);

/// Record per-shard row counts and whole-file CRCs in
/// <prefix>.manifest.dfca (atomic write).
void write_shard_manifest(const std::string& prefix, int num_shards);

/// Re-check every shard against the manifest (existence + whole-file CRC).
/// Returns one damage entry per unhealthy shard; missing/corrupt manifest
/// is reported against the manifest path itself.
std::vector<ShardDamage> verify_shard_manifest(const std::string& prefix);

}  // namespace df::screen
