// Workspace — a per-replica bump arena for inference scratch.
//
// The serving hot path used to heap-allocate a fresh std::vector<float> for
// every layer output, activation temporary and featurizer grid: dozens of
// malloc/free round trips per pose. A Workspace replaces all of that with a
// pointer bump. Memory is carved from a small list of large blocks that are
// never freed between batches; reset() rewinds the bump cursor so the next
// batch reuses the same cache-warm bytes. Blocks never move once allocated,
// so every pointer handed out stays valid until the owning region is reset
// or restored past.
//
// Tensors participate through an ambient, thread-local binding: while a
// Workspace::Bind or Workspace::Scope is active on a thread, every Tensor
// that thread creates borrows its storage from the arena instead of owning a
// heap buffer (core/tensor.h). That makes whole eval forwards
// allocation-free without threading a workspace argument through every layer
// signature. Borrowed tensors must not outlive the region they were carved
// from — the serving layer guarantees this by scoping one workspace per
// forward lane and featurize slot per batch (serve/scorer.h).
//
// A Workspace is single-threaded state: one thread bumps it at a time. A
// replica that runs a forward on two lanes gives each lane its own arena,
// and the binding is thread-local, so each lane's tensors come from its
// own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"

namespace df::core {

class Workspace {
 public:
  /// `initial_floats` sizes the first block lazily (allocated on first use).
  explicit Workspace(size_t initial_floats = size_t{1} << 16);
  ~Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Bump-allocate `n` floats (64-byte aligned). Grows by appending a new
  /// block when the current blocks are exhausted — existing pointers are
  /// never invalidated. Growth is a heap allocation and counts toward
  /// alloc_count(); a warmed workspace in steady state never grows.
  float* alloc(int64_t n);

  /// Rewind to empty, keeping every block for reuse. Previously returned
  /// pointers become dead: their bytes will be handed out again.
  void reset();

  /// Pre-grow to at least `floats` of total capacity — one block, sized to
  /// the full budget, so a replica restored from a compiled artifact (whose
  /// high-water marks were measured ahead of time) never allocates again in
  /// steady state. A single block also avoids the boundary waste a borrow
  /// straddling two blocks would leave behind. No-op when already large
  /// enough; counts as one alloc_count() tick when it grows.
  void reserve(size_t floats);

  /// Total floats across all blocks / floats currently handed out.
  size_t capacity() const;
  size_t in_use() const;

  /// Position marker for scoped reuse of the tail of the arena.
  struct Checkpoint {
    size_t block = 0;
    size_t used = 0;
  };
  Checkpoint checkpoint() const { return {cur_, blocks_.empty() ? 0 : blocks_[cur_].used}; }
  /// Rewind to a checkpoint taken earlier on this workspace. Allocations
  /// made after the checkpoint are released (blocks are kept).
  void restore(Checkpoint c);

  /// The workspace currently bound to this thread, or nullptr. Tensor
  /// construction consults this to decide heap vs arena storage.
  static Workspace* current();

  /// RAII: bind `ws` as the thread's current workspace without touching the
  /// bump cursor. Used when the carved tensors must outlive the binding
  /// (e.g. featurizer lanes whose samples feed a later forward pass); the
  /// owner rewinds explicitly with reset() at the top of the next batch.
  class Bind {
   public:
    explicit Bind(Workspace& ws);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    Workspace* prev_;
  };

  /// RAII: clear the thread's binding so Tensors created inside the region
  /// own heap storage again. Used when a long-lived object (e.g. a
  /// cross-request pocket-cache entry, serve/pocket_cache.h) must be built
  /// from code that may run under an ambient arena binding — arena-borrowed
  /// bytes die at the next reset(), heap-owned ones do not.
  class Unbind {
   public:
    Unbind();
    ~Unbind();
    Unbind(const Unbind&) = delete;
    Unbind& operator=(const Unbind&) = delete;

   private:
    Workspace* prev_;
  };

  /// RAII: bind plus checkpoint/restore — the common "scratch region for
  /// this call" shape. Everything allocated inside the scope is released
  /// when it closes.
  class Scope {
   public:
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    Checkpoint cp_;
    Workspace* prev_;
  };

 private:
  struct Block {
    std::unique_ptr<float[], detail::CacheLineAllocator<float>> data;
    size_t size = 0;
    size_t used = 0;
  };

  std::vector<Block> blocks_;
  size_t cur_ = 0;  // index of the block being bumped
  size_t next_block_floats_;
};

}  // namespace df::core
