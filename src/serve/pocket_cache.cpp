#include "serve/pocket_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/workspace.h"

namespace df::serve {

namespace {
constexpr uint64_t kOffset = 1469598103934665603ull;  // FNV-1a's offset and prime
constexpr uint64_t kPrime = 1099511628211ull;

// One xor-multiply per 64-bit word. Every field goes in by value, never as
// struct bytes, so padding cannot leak indeterminate garbage into the key.
void mix(uint64_t& h, uint64_t w) {
  h ^= w;
  h *= kPrime;
}

uint64_t pair_word(uint32_t lo, uint32_t hi) { return lo | (static_cast<uint64_t>(hi) << 32); }
uint64_t float_word(float lo, float hi) {
  return pair_word(std::bit_cast<uint32_t>(lo), std::bit_cast<uint32_t>(hi));
}

uint64_t content_key(const std::vector<chem::Atom>& pocket, const core::Vec3& center,
                     const chem::VoxelConfig& vc) {
  uint64_t h = kOffset;
  mix(h, static_cast<uint64_t>(pocket.size()));
  // Three words per atom: x|y, z|element, charge|implicit_h|aromatic.
  for (const chem::Atom& a : pocket) {
    mix(h, float_word(a.pos.x, a.pos.y));
    mix(h, pair_word(std::bit_cast<uint32_t>(a.pos.z), static_cast<uint32_t>(a.element)));
    mix(h, static_cast<uint64_t>(static_cast<uint8_t>(a.formal_charge)) |
               static_cast<uint64_t>(static_cast<uint8_t>(a.implicit_h)) << 8 |
               static_cast<uint64_t>(a.aromatic ? 1 : 0) << 16);
  }
  mix(h, float_word(center.x, center.y));
  mix(h, float_word(center.z, vc.resolution));
  mix(h, pair_word(static_cast<uint32_t>(vc.grid_dim),
                   static_cast<uint32_t>(vc.feature_set_version)));
  mix(h, float_word(vc.sigma_scale, vc.cutoff_sigmas));
  mix(h, float_word(vc.hbond.max_dist, vc.hbond.max_cos_angle));
  return h;
}

bool same_atom(const chem::Atom& a, const chem::Atom& b) {
  // Bit compare on positions: the cache must only hit when the splat would
  // reproduce exactly, and -0.0f == 0.0f under operator== would lie.
  return std::memcmp(&a.pos.x, &b.pos.x, sizeof(float)) == 0 &&
         std::memcmp(&a.pos.y, &b.pos.y, sizeof(float)) == 0 &&
         std::memcmp(&a.pos.z, &b.pos.z, sizeof(float)) == 0 &&
         a.element == b.element && a.formal_charge == b.formal_charge &&
         a.implicit_h == b.implicit_h && a.aromatic == b.aromatic;
}

bool matches(const PocketCache::Entry& e, const std::vector<chem::Atom>& pocket,
             const core::Vec3& center, const chem::VoxelConfig& vc) {
  if (e.atoms.size() != pocket.size()) return false;
  if (std::memcmp(&e.center.x, &center.x, sizeof(float)) != 0 ||
      std::memcmp(&e.center.y, &center.y, sizeof(float)) != 0 ||
      std::memcmp(&e.center.z, &center.z, sizeof(float)) != 0) {
    return false;
  }
  const chem::VoxelConfig& sc = e.voxel_cfg;
  if (sc.grid_dim != vc.grid_dim || sc.resolution != vc.resolution ||
      sc.sigma_scale != vc.sigma_scale || sc.cutoff_sigmas != vc.cutoff_sigmas ||
      sc.feature_set_version != vc.feature_set_version ||
      sc.hbond.max_dist != vc.hbond.max_dist ||
      sc.hbond.max_cos_angle != vc.hbond.max_cos_angle) {
    return false;
  }
  for (size_t i = 0; i < pocket.size(); ++i) {
    if (!same_atom(e.atoms[i], pocket[i])) return false;
  }
  return true;
}
}  // namespace

PocketCache::PocketCache(size_t max_targets) : max_targets_(std::max<size_t>(1, max_targets)) {}

std::shared_ptr<const PocketCache::Entry> PocketCache::lookup(
    const std::vector<chem::Atom>& pocket, const core::Vec3& center,
    const chem::Voxelizer& voxelizer, const chem::GraphFeaturizer& featurizer) {
  const chem::VoxelConfig& vc = voxelizer.config();
  const uint64_t key = content_key(pocket, center, vc);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    if (matches(*it->second->second, pocket, center, vc)) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      return it->second->second;
    }
    // Hash collision with different content — astronomically rare; rebuild.
    lru_.erase(it->second);
    by_key_.erase(it);
  }
  ++stats_.misses;

  auto entry = std::make_shared<Entry>();
  entry->atoms = pocket;
  entry->center = center;
  entry->voxel_cfg = vc;
  {
    // The entry outlives every batch: its tensors must heap-own their
    // storage even when the calling worker has an arena bound.
    core::Workspace::Unbind unbound;
    entry->grid = voxelizer.voxelize_pocket(pocket, center);
    featurizer.build_crop_cells(pocket, entry->crop_cells);
  }

  lru_.emplace_front(key, entry);
  by_key_[key] = lru_.begin();
  while (lru_.size() > max_targets_) {
    by_key_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return entry;
}

PocketCache::Stats PocketCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PocketCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace df::serve
