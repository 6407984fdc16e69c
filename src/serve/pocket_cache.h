// Cross-request pocket cache — per-target amortization of protein-side
// featurization work.
//
// A screening campaign scores thousands of poses against a handful of
// receptors. Without a cache, RegressorScorer builds each distinct
// (pocket, center) grid once per micro-batch — re-doing it every batch.
// This cache lifts the amortization to the campaign level: an LRU keyed by
// pocket content holding (a) the protein-only voxel grid, grafted per pose
// via Voxelizer::voxelize_ligand_onto (bitwise-valid at every feature-set
// version), and (b) the pocket-side CellList the graph featurizer's
// k-nearest crop queries (GraphFeaturizer::featurize's crop_cells).
//
// Keys fold the full pocket content (every atom field bit-exactly), the
// grid center and the complete VoxelConfig into 64 bits, one xor-multiply
// per 64-bit word: three words per atom (x|y, z|element,
// charge|implicit_h|aromatic). A hit additionally verifies the stored
// content field for field, so a hash collision degrades to a rebuild,
// never a wrong grid; the key value never leaves the cache.
// Changing feature_set_version or any grid knob therefore misses — that IS
// the invalidation semantics. The crop list's cell size is not in the key:
// CellList::knearest is exact at any cell size, so a list built under one
// featurizer config crops bit for bit as another config's list would.
//
// Entries are returned as shared_ptr<const Entry>: eviction drops the
// cache's reference, never a reader's, so replicas may keep using an entry
// that was just evicted. Entry tensors heap-own their storage
// (Workspace::Unbind during the build) — they must survive arena resets.
// All queries on a built entry are const and thread-safe; the cache itself
// is mutex-guarded and shared across service workers.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chem/cell_list.h"
#include "chem/graph_featurizer.h"
#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "core/tensor.h"

namespace df::serve {

class PocketCache {
 public:
  struct Entry {
    // Stored for exact-content verification on hash hit.
    std::vector<chem::Atom> atoms;
    core::Vec3 center;
    chem::VoxelConfig voxel_cfg;

    // The cached work products.
    core::Tensor grid;          // protein-only voxel grid (heap-owned)
    chem::CellList crop_cells;  // over atoms' positions (GraphFeaturizer::build_crop_cells)
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `max_targets` caps live entries (LRU eviction beyond it); clamped to
  /// at least 1.
  explicit PocketCache(size_t max_targets);

  /// Fetch or build the entry for (pocket, center) under `voxelizer`'s
  /// config; `featurizer` only bins a missed entry's crop list, so it is
  /// not part of the key. A build runs inside the cache lock, so concurrent
  /// first requests for the same receptor build it exactly once.
  std::shared_ptr<const Entry> lookup(const std::vector<chem::Atom>& pocket,
                                      const core::Vec3& center,
                                      const chem::Voxelizer& voxelizer,
                                      const chem::GraphFeaturizer& featurizer);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return max_targets_; }

 private:
  using LruList = std::list<std::pair<uint64_t, std::shared_ptr<const Entry>>>;

  size_t max_targets_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<uint64_t, LruList::iterator> by_key_;
  Stats stats_;
};

}  // namespace df::serve
