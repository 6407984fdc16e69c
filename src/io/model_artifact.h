// Compiled-model artifact container — the mmap-friendly on-disk format the
// ahead-of-time model compiler (src/compile/) serializes compiled models into.
//
// Layout (all integers little-endian, as written by the host):
//
//   offset 0   : magic "DFCA" (4 bytes)
//   offset 4   : u32 format version (kArtifactVersion)
//   offset 8   : u64 payload_bytes
//   offset 16  : payload —
//                  u32 section_count
//                  section_count directory entries:
//                    u32 name_len | name bytes | u8 dtype (0=f32, 1=i64,
//                                                           2=i8, 3=i32)
//                    u32 rank | i64 dims[rank]
//                    u64 byte_offset (absolute, 64-byte aligned)
//                    u64 byte_len
//                  section blobs at their directory offsets
//   tail       : u32 CRC-32 of the payload bytes
//
// Blobs are 64-byte aligned relative to the file start; mmap returns
// page-aligned images, so a blob's file alignment IS its memory alignment
// and serving replicas point their layers' weight handles (nn::EvalWeights)
// straight into the mapping — no copy, no parse, shared page cache across
// replicas.
//
// Failures reuse io::H5LiteError so callers discriminate damage kinds the
// same way they do for checkpoints: Format (bad magic / unsupported
// version), Truncated (directory or blob past EOF), Crc (payload bytes do
// not match the stored checksum). All three reject the whole file before
// any section is handed out — there is no partial load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/h5lite.h"

namespace df::io {

/// Bump on any incompatible layout change. A reader only accepts its own
/// version: compiled artifacts are caches derived from checkpoints, so the
/// recovery path for a mismatch is recompile, never in-place migration.
/// v2: int8/int32 section dtypes for quantized compiled plans (src/quant/).
/// v3: one section group per GEMM layer ("dense/<i>/...", "conv/<i>/...")
///     holding its serving handle verbatim, replacing "pack/..." + "quant/...".
constexpr uint32_t kArtifactVersion = 3;

struct ArtifactSection {
  uint8_t dtype = 0;  // 0 = float32, 1 = int64, 2 = int8 (raw bytes), 3 = int32
  std::vector<int64_t> dims;
  uint64_t byte_offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t byte_len = 0;

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : dims) n *= d;
    return n;
  }
};

/// Collects named sections and writes them as one artifact file, durably
/// (temp + fsync + rename + parent-dir fsync, like h5lite::save_atomic).
/// Data is copied at add() time so callers may hand in transient buffers.
class ArtifactWriter {
 public:
  void add_floats(const std::string& name, std::vector<int64_t> dims, const float* data);
  void add_ints(const std::string& name, std::vector<int64_t> dims, const int64_t* data);
  void add_scalar(const std::string& name, int64_t v);
  /// Quantized-plan sections: packed int8 panel/row images and int32
  /// epilogue compensation vectors.
  void add_int8s(const std::string& name, std::vector<int64_t> dims, const int8_t* data);
  void add_int32s(const std::string& name, std::vector<int64_t> dims, const int32_t* data);

  void save(const std::string& path) const;

 private:
  struct Pending {
    uint8_t dtype;
    std::vector<int64_t> dims;
    std::vector<char> bytes;
  };
  std::map<std::string, Pending> sections_;
};

/// Read-only view of an artifact file. Prefers mmap (shared, read-only) and
/// falls back to a heap image when mapping is unavailable; either way the
/// full directory is validated and the payload CRC checked before open()
/// returns. Section pointers stay valid for the reader's lifetime — weight
/// handles that view them keep the reader alive via shared_ptr.
class ArtifactReader {
 public:
  static std::shared_ptr<ArtifactReader> open(const std::string& path);
  ~ArtifactReader();
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;

  bool has(const std::string& name) const { return sections_.count(name) > 0; }
  const ArtifactSection& section(const std::string& name) const;

  /// Typed blob access; throws H5LiteError{Format} on a dtype mismatch.
  const float* floats(const std::string& name) const;
  const int64_t* ints(const std::string& name) const;
  const int8_t* int8s(const std::string& name) const;
  const int32_t* int32s(const std::string& name) const;
  int64_t scalar(const std::string& name) const;

  const std::map<std::string, ArtifactSection>& sections() const { return sections_; }
  const std::string& path() const { return path_; }

 private:
  ArtifactReader() = default;

  std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> owned_;  // fallback image when not mmap'd
  std::map<std::string, ArtifactSection> sections_;
};

}  // namespace df::io
