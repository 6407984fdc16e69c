#include "chem/cell_list.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace df::chem {

namespace {
bool finite(const core::Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}
}  // namespace

int32_t CellList::axis_cell(float offset, int32_t lo, int32_t hi) const {
  // Clamped in double, which holds every int32_t exactly, before the cast:
  // no offset, however far off the grid, reaches the cast out of range.
  // In range this is the plain floor(offset / cell).
  const double c = std::floor(static_cast<double>(offset * inv_cell_));
  return static_cast<int32_t>(std::clamp(c, static_cast<double>(lo), static_cast<double>(hi)));
}

void CellList::build(const core::Vec3* pos, int32_t n, float cell_size) {
  if (!(cell_size > 0.0f) || !std::isfinite(cell_size)) {
    throw std::invalid_argument("CellList: cell_size must be positive and finite");
  }
  for (int32_t i = 0; i < n; ++i) {
    if (!finite(pos[i])) throw std::invalid_argument("CellList: non-finite atom position");
  }
  n_ = n;
  cell_size_ = cell_size;
  inv_cell_ = 1.0f / cell_size;
  pos_.assign(pos, pos + n);
  if (n == 0) {
    origin_ = {};
    nx_ = ny_ = nz_ = 1;
    cell_start_.assign(2, 0);
    cell_atoms_.clear();
    return;
  }
  core::Vec3 lo = pos[0], hi = pos[0];
  for (int32_t i = 1; i < n; ++i) {
    lo.x = std::min(lo.x, pos[i].x); hi.x = std::max(hi.x, pos[i].x);
    lo.y = std::min(lo.y, pos[i].y); hi.y = std::max(hi.y, pos[i].y);
    lo.z = std::min(lo.z, pos[i].z); hi.z = std::max(hi.z, pos[i].z);
  }
  origin_ = lo;
  // Size the grid, counting cells in double so no extent overflows the
  // count. Atoms far apart would make a grid of (extent / cell)^3 cells, so
  // past max(27, 8n) cells the cell side doubles until the grid fits: memory
  // stays O(n) for any geometry, gather() stays a superset and knearest()
  // exact. An extent past float range ends at one cell.
  const double max_cells = std::max(27.0, 8.0 * static_cast<double>(n));
  for (;;) {
    const double cx = std::floor(static_cast<double>((hi.x - lo.x) * inv_cell_)) + 1.0;
    const double cy = std::floor(static_cast<double>((hi.y - lo.y) * inv_cell_)) + 1.0;
    const double cz = std::floor(static_cast<double>((hi.z - lo.z) * inv_cell_)) + 1.0;
    if (cx * cy * cz <= max_cells) {
      nx_ = static_cast<int32_t>(cx);
      ny_ = static_cast<int32_t>(cy);
      nz_ = static_cast<int32_t>(cz);
      break;
    }
    if (!std::isfinite(2.0f * cell_size_)) {
      nx_ = ny_ = nz_ = 1;
      break;
    }
    cell_size_ *= 2.0f;
    inv_cell_ = 1.0f / cell_size_;
  }

  // Counting sort into CSR: insertion in ascending atom order keeps each
  // cell's member list ascending, which is what gather()'s sorted-merge
  // contract rests on.
  const size_t ncells = static_cast<size_t>(nx_) * ny_ * nz_;
  cell_start_.assign(ncells + 1, 0);
  auto clamped_cell = [&](const core::Vec3& p) {
    return cell_of(axis_cell(p.x - origin_.x, 0, nx_ - 1), axis_cell(p.y - origin_.y, 0, ny_ - 1),
                   axis_cell(p.z - origin_.z, 0, nz_ - 1));
  };
  for (int32_t i = 0; i < n; ++i) ++cell_start_[static_cast<size_t>(clamped_cell(pos[i])) + 1];
  for (size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_atoms_.resize(static_cast<size_t>(n));
  std::vector<int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (int32_t i = 0; i < n; ++i) {
    cell_atoms_[static_cast<size_t>(cursor[static_cast<size_t>(clamped_cell(pos_[i]))]++)] = i;
  }
}

void CellList::cell_coords(const core::Vec3& p, int32_t& cx, int32_t& cy, int32_t& cz) const {
  if (!finite(p)) throw std::invalid_argument("CellList: non-finite probe");
  // Out of range by up to two cells: a probe outside the box gets coords
  // whose stencil (range-clamped by the callers) still covers every
  // boundary cell it could reach within one cell_size. Two cells out, the
  // stencil is already empty, so clamping there changes no answer.
  cx = axis_cell(p.x - origin_.x, -2, nx_ + 1);
  cy = axis_cell(p.y - origin_.y, -2, ny_ + 1);
  cz = axis_cell(p.z - origin_.z, -2, nz_ + 1);
}

bool CellList::covers_all(const core::Vec3& p) const {
  if (n_ == 0) return false;
  int32_t cx, cy, cz;
  cell_coords(p, cx, cy, cz);
  return std::max(0, cx - 1) == 0 && std::min(nx_ - 1, cx + 1) == nx_ - 1 &&
         std::max(0, cy - 1) == 0 && std::min(ny_ - 1, cy + 1) == ny_ - 1 &&
         std::max(0, cz - 1) == 0 && std::min(nz_ - 1, cz + 1) == nz_ - 1;
}

void CellList::gather(const core::Vec3& p, std::vector<int32_t>& out) const {
  out.clear();
  if (n_ == 0) return;
  int32_t cx, cy, cz;
  cell_coords(p, cx, cy, cz);
  const int32_t xlo = std::max(0, cx - 1), xhi = std::min(nx_ - 1, cx + 1);
  const int32_t ylo = std::max(0, cy - 1), yhi = std::min(ny_ - 1, cy + 1);
  const int32_t zlo = std::max(0, cz - 1), zhi = std::min(nz_ - 1, cz + 1);
  // Small systems (and probes near the middle of small grids) see the whole
  // grid in their stencil: the gather is then every atom, ascending — no
  // concatenation or sort needed. This keeps the cell route from paying a
  // per-probe sort tax on the pocket sizes where brute force was cheap.
  if ((xhi - xlo + 1) == nx_ && (yhi - ylo + 1) == ny_ && (zhi - zlo + 1) == nz_) {
    out.resize(static_cast<size_t>(n_));
    for (int32_t i = 0; i < n_; ++i) out[static_cast<size_t>(i)] = i;
    return;
  }
  // Per-cell lists are ascending but the stencil concatenation is not, and
  // the canonical ascending order is what makes consumers match their
  // brute-force inner loop bitwise. A per-probe sort would cost more than
  // the brute scan it replaces; instead mark stencil members in a bitmask
  // and emit set bits in word order — O(m + n/64) per probe, sort-free.
  static thread_local std::vector<uint64_t> mask;
  const size_t words = (static_cast<size_t>(n_) + 63) / 64;
  mask.assign(words, 0);
  for (int32_t z = zlo; z <= zhi; ++z) {
    for (int32_t y = ylo; y <= yhi; ++y) {
      for (int32_t x = xlo; x <= xhi; ++x) {
        const int32_t c = cell_of(x, y, z);
        for (int32_t a = cell_start_[static_cast<size_t>(c)];
             a < cell_start_[static_cast<size_t>(c) + 1]; ++a) {
          const uint32_t i = static_cast<uint32_t>(cell_atoms_[static_cast<size_t>(a)]);
          mask[i >> 6] |= uint64_t{1} << (i & 63);
        }
      }
    }
  }
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      out.push_back(static_cast<int32_t>((w << 6) + static_cast<size_t>(std::countr_zero(bits))));
      bits &= bits - 1;
    }
  }
}

void CellList::knearest(const core::Vec3& p, int32_t k, std::vector<int32_t>& out) const {
  out.clear();
  if (n_ == 0 || k <= 0) return;
  k = std::min(k, n_);
  int32_t cx, cy, cz;
  cell_coords(p, cx, cy, cz);
  // Chebyshev distance (in cells) from the probe's cell to the farthest
  // grid cell — the shell index at which the whole grid has been visited.
  const int32_t smax = std::max({cx, nx_ - 1 - cx, cy, ny_ - 1 - cy, cz, nz_ - 1 - cz, 0});

  // Per-thread scratch: concurrent queries on one shared list stay safe.
  static thread_local std::vector<std::pair<float, int32_t>> cand;  // (dist, index)
  cand.clear();
  for (int32_t s = 0; s <= smax; ++s) {
    const int32_t xlo = std::max(0, cx - s), xhi = std::min(nx_ - 1, cx + s);
    const int32_t ylo = std::max(0, cy - s), yhi = std::min(ny_ - 1, cy + s);
    const int32_t zlo = std::max(0, cz - s), zhi = std::min(nz_ - 1, cz + s);
    for (int32_t z = zlo; z <= zhi; ++z) {
      for (int32_t y = ylo; y <= yhi; ++y) {
        for (int32_t x = xlo; x <= xhi; ++x) {
          if (std::max({std::abs(x - cx), std::abs(y - cy), std::abs(z - cz)}) != s) continue;
          const int32_t c = cell_of(x, y, z);
          for (int32_t a = cell_start_[static_cast<size_t>(c)];
               a < cell_start_[static_cast<size_t>(c) + 1]; ++a) {
            const int32_t i = cell_atoms_[static_cast<size_t>(a)];
            cand.emplace_back(pos_[static_cast<size_t>(i)].dist(p), i);
          }
        }
      }
    }
    if (static_cast<int32_t>(cand.size()) >= k) {
      // Every cell in shell s+1 or beyond is at true distance >= s*cell from
      // the probe. Stop once the kth-best candidate beats that bound by half
      // a cell — a margin float rounding cannot cross — so no unvisited atom
      // can displace (or index-tie with) a selected one. The bound is summed
      // in double, so a coarse grid's s*cell cannot overflow to infinity.
      std::nth_element(cand.begin(), cand.begin() + (k - 1), cand.end());
      const double kth = cand[static_cast<size_t>(k - 1)].first;
      if (kth + 0.5 * cell_size_ <= static_cast<double>(s) * cell_size_) break;
    }
  }
  // The first k candidates are now the k smallest: either the loop broke
  // right after selecting, or it ran out at shell smax, which gathered all
  // n >= k atoms and so selected too. (distance, index) is a strict total
  // order, so sorting that prefix gives exactly the brute-force crop's order.
  std::sort(cand.begin(), cand.begin() + k);
  out.resize(static_cast<size_t>(k));
  for (int32_t i = 0; i < k; ++i) out[static_cast<size_t>(i)] = cand[static_cast<size_t>(i)].second;
}

}  // namespace df::chem
