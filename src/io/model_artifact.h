// The repository's one on-disk container (".dfca"). Everything that goes to
// disk whole — compiled models (src/compile/), weight and train checkpoints
// (models/checkpoint.h), campaign checkpoints (screen/checkpoint.h), shard
// manifests and one-shot job shards (screen/writer.h) — is written by
// ArtifactWriter and read back by ArtifactReader. Only the append-mode
// campaign shard stream (".dfsh") has its own framing, because it must
// salvage the valid prefix of a torn file.
//
// Layout (all integers little-endian, as written by the host):
//
//   offset 0   : magic "DFCA" (4 bytes)
//   offset 4   : u32 container version (kArtifactVersion)
//   offset 8   : u64 payload_bytes
//   offset 16  : payload —
//                  u32 section_count
//                  section_count directory entries:
//                    u32 name_len | name bytes | u8 dtype (0=f32, 1=i64)
//                    u32 rank | i64 dims[rank]
//                    u64 byte_offset (absolute, 64-byte aligned)
//                    u64 byte_len
//                  section blobs at their directory offsets
//   tail       : u32 CRC-32 of the payload bytes
//
// Blobs are 64-byte aligned relative to the file start; mmap returns
// page-aligned images, so a blob's file alignment IS its memory alignment
// and a reader hands out typed pointers straight into the mapping, with no
// parse.
//
// Failures are io::H5LiteError, so callers discriminate damage kinds:
// Open (missing / unreadable / unwritable), Format (bad magic, unsupported
// version, a directory dtype other than 0 or 1, missing section, or a
// section of the wrong dtype or element count), Truncated (directory or blob past EOF), Crc (payload bytes do not
// match the stored checksum). Open rejects the whole file before any
// section is handed out — there is no partial load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace df::io {

/// IEEE CRC-32 (zlib-compatible). Pass the previous return value as `crc`
/// to checksum data incrementally; start from 0.
uint32_t crc32(const void* data, size_t len, uint32_t crc = 0);

/// Typed I/O failure so callers (e.g. the sharded-result reader) can report
/// *what kind* of damage a file has rather than string-matching messages.
class H5LiteError : public std::runtime_error {
 public:
  enum class Kind {
    Open,       // file missing / unreadable / unwritable
    Format,     // bad magic, unsupported version, or wrong contents
    Truncated,  // file ends before the sections it promises
    Crc,        // payload bytes do not match the stored checksum
  };
  H5LiteError(Kind kind, const std::string& msg) : std::runtime_error(msg), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Version of the byte layout above, and of nothing else. A reader only
/// accepts its own version. What the sections of a file mean is versioned
/// by its writer inside the file (compile::kCompiledSchema as
/// "compile/schema", the campaign checkpoint's "schema"), so a change to
/// one file kind never makes the others unreadable.
/// v2: int8/int32 section dtypes (2 and 3). Both have since gone without a
///     bump; a reader rejects either as Format.
/// v3: no layout change; bumped when the compiled-model sections changed,
///     before that schema had a section of its own.
constexpr uint32_t kArtifactVersion = 3;

struct ArtifactSection {
  uint8_t dtype = 0;  // 0 = float32, 1 = int64
  std::vector<int64_t> dims;
  uint64_t byte_offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t byte_len = 0;

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : dims) n *= d;
    return n;
  }
};

/// Collects named sections and writes them as one file, atomically and
/// durably: the bytes go to `path + ".tmp"`, which must fsync (a failure
/// throws H5LiteError{Open} and leaves `path` untouched) before the rename
/// publishes it; the parent directory is then synced best-effort. A stale
/// `.tmp` from a killed save is overwritten, never read.
/// Data is copied at add() time so callers may hand in transient buffers.
class ArtifactWriter {
 public:
  void add_floats(const std::string& name, std::vector<int64_t> dims, const float* data);
  void add_ints(const std::string& name, std::vector<int64_t> dims, const int64_t* data);
  void add_scalar(const std::string& name, int64_t v);

  void save(const std::string& path) const;

 private:
  void add(const std::string& name, uint8_t dtype, std::vector<int64_t> dims, const void* data);

  struct Pending {
    uint8_t dtype;
    std::vector<int64_t> dims;
    std::vector<char> bytes;
  };
  std::map<std::string, Pending> sections_;
};

/// Read-only view of a container file. Prefers mmap (shared, read-only) and
/// falls back to a heap image when mapping is unavailable; either way the
/// full directory is validated and the payload CRC checked before open()
/// returns. Section pointers stay valid for the reader's lifetime.
class ArtifactReader {
 public:
  static std::shared_ptr<ArtifactReader> open(const std::string& path);
  ~ArtifactReader();
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;

  bool has(const std::string& name) const { return sections_.count(name) > 0; }
  /// Throws H5LiteError{Format} when the section is missing.
  const ArtifactSection& section(const std::string& name) const;

  /// Typed blob access; throws H5LiteError{Format} on a dtype mismatch, and
  /// for the sized overloads when the section does not hold `numel` elements.
  const float* floats(const std::string& name) const;
  const float* floats(const std::string& name, int64_t numel) const;
  const int64_t* ints(const std::string& name) const;
  const int64_t* ints(const std::string& name, int64_t numel) const;
  /// A one-element int64 section.
  int64_t scalar(const std::string& name) const;

  const std::map<std::string, ArtifactSection>& sections() const { return sections_; }
  const std::string& path() const { return path_; }

 private:
  ArtifactReader() = default;
  const char* blob(const std::string& name, uint8_t dtype) const;
  const char* blob(const std::string& name, uint8_t dtype, int64_t numel) const;

  std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> owned_;  // fallback image when not mmap'd
  std::map<std::string, ArtifactSection> sections_;
};

}  // namespace df::io
