// Cell-list neighbor engine (cpptraj PairList-style) — the O(N) replacement
// for the brute-force pairwise scans in graph featurization, the MM-GBSA
// terms and the pocket crop. Atoms are binned once into cubic cells whose
// side is at least the largest cutoff a caller will query; a query then
// visits only the 27-cell stencil around the probe point.
//
// Determinism contract: gather() returns candidate indices sorted ascending
// and guarantees a *superset* of the atoms within `cell_size` of the probe.
// Consumers apply exactly the same distance predicate and arithmetic as
// their brute-force scan, in the same (outer atom, ascending inner index)
// order — so every cell-list route is bitwise identical to the scan it
// replaces, at any thread count (the engine itself starts no threads;
// per-pose purity is what featurize lanes parallelize over).
#pragma once

#include <cstdint>
#include <vector>

#include "core/vec3.h"

namespace df::chem {

class CellList {
 public:
  CellList() = default;

  /// Bin `n` positions into cubic cells of side `cell_size` (Angstrom).
  /// `cell_size` must be >= the largest cutoff later passed to gather();
  /// positions are copied, so the source buffer may die after build().
  /// Internal storage is reused across builds (hot-path friendly). The grid
  /// holds at most max(27, 8n) cells: atoms spread too far apart for that
  /// get a larger cell side, doubled until the grid fits (cell_size()
  /// reports it). Throws std::invalid_argument on a non-finite position or
  /// a cell_size that is not positive and finite. Every query on a
  /// non-empty list throws the same on a non-finite probe.
  void build(const core::Vec3* pos, int32_t n, float cell_size);

  bool built() const { return cell_size_ > 0.0f; }
  int32_t size() const { return n_; }
  float cell_size() const { return cell_size_; }

  /// Clear `out`, then append every atom index whose cell lies in the
  /// 27-cell stencil around `p`, sorted ascending. Every atom within
  /// `cell_size` of `p` is guaranteed present (atoms further out may appear
  /// too — callers keep their own exact cutoff test).
  void gather(const core::Vec3& p, std::vector<int32_t>& out) const;

  /// True when the clamped 27-cell stencil around `p` spans the whole grid
  /// — gather(p) would return the identity permutation 0..n-1. Consumers
  /// use this to run their plain brute loop (same atoms, same order, so
  /// still bitwise identical) without the round-trip through an index list.
  bool covers_all(const core::Vec3& p) const;

  /// Exact k-nearest selection under the (distance, index) key: sets `out`
  /// to min(k, n) atom indices ordered exactly as a full std::sort of all
  /// atoms by (pos.dist(p), index) would order its prefix. Expanding-shell
  /// search with a half-cell stopping margin, so float rounding can never
  /// let an unvisited shell displace a winner; the visited candidates are
  /// partially selected (nth_element at k-1) and only the k winners sorted.
  /// Candidates live in a per-thread buffer, so concurrent queries on one
  /// list are safe and a query allocates nothing once warm.
  void knearest(const core::Vec3& p, int32_t k, std::vector<int32_t>& out) const;

 private:
  int32_t cell_of(int32_t cx, int32_t cy, int32_t cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }
  void cell_coords(const core::Vec3& p, int32_t& cx, int32_t& cy, int32_t& cz) const;
  /// floor(offset / cell), clamped to [lo, hi] before the cast.
  int32_t axis_cell(float offset, int32_t lo, int32_t hi) const;

  int32_t n_ = 0;
  float cell_size_ = 0.0f;
  float inv_cell_ = 0.0f;
  core::Vec3 origin_;            // min corner of the bounding box
  int32_t nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<core::Vec3> pos_;  // copy of the binned positions
  std::vector<int32_t> cell_start_;  // CSR: per-cell offset into cell_atoms_
  std::vector<int32_t> cell_atoms_;  // atom ids, ascending within each cell
};

}  // namespace df::chem
