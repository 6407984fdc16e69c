#include "core/workspace.h"

#include <algorithm>
#include <stdexcept>

#include "core/tensor.h"

namespace df::core {

namespace {
// Blocks start on a cache line and every borrow is a whole number of lines,
// so each arena tensor starts on a line, as a heap tensor does.
constexpr size_t kAlignFloats = 16;

thread_local Workspace* t_current = nullptr;

size_t round_up(size_t n, size_t to) { return (n + to - 1) / to * to; }
}  // namespace

Workspace::Workspace(size_t initial_floats)
    : next_block_floats_(std::max<size_t>(initial_floats, kAlignFloats)) {}

float* Workspace::alloc(int64_t n) {
  if (n < 0) throw std::invalid_argument("Workspace::alloc: negative size");
  // +32 floats of exclusive slack per borrow (mirrored by the Tensor heap
  // path): row kernels may load a full trailing vector — or a stride-2
  // even-lane pair of vectors — past the last valid element without
  // touching a neighbouring allocation.
  const size_t need =
      round_up(std::max<size_t>(static_cast<size_t>(n), 1) + 32, kAlignFloats);
  // Advance through existing blocks first (they survive reset()).
  while (cur_ < blocks_.size() && blocks_[cur_].used + need > blocks_[cur_].size) ++cur_;
  if (cur_ == blocks_.size()) {
    // Geometric growth keeps the block count (and thus warmup allocations)
    // logarithmic in the peak working set.
    const size_t size = std::max(next_block_floats_, need);
    Block b;
    b.data.reset(detail::CacheLineAllocator<float>().allocate(size));
    b.size = size;
    blocks_.push_back(std::move(b));
    next_block_floats_ = size * 2;
    detail::count_tensor_alloc();
  }
  Block& b = blocks_[cur_];
  float* p = b.data.get() + b.used;
  b.used += need;
  return p;
}

void Workspace::reset() {
  for (Block& b : blocks_) b.used = 0;
  cur_ = 0;
}

void Workspace::reserve(size_t floats) {
  if (floats == 0 || capacity() >= floats) return;
  // One block of the full budget (not just the shortfall): per-block used
  // never exceeds the donor's measured peak, so any borrow sequence that
  // fit the donor's capacity fits this single block without straddling.
  const size_t size = round_up(std::max(floats, kAlignFloats), kAlignFloats);
  Block b;
  b.data.reset(detail::CacheLineAllocator<float>().allocate(size));
  b.size = size;
  blocks_.push_back(std::move(b));
  next_block_floats_ = size * 2;
  detail::count_tensor_alloc();
}

size_t Workspace::capacity() const {
  size_t n = 0;
  for (const Block& b : blocks_) n += b.size;
  return n;
}

size_t Workspace::in_use() const {
  size_t n = 0;
  for (const Block& b : blocks_) n += b.used;
  return n;
}

void Workspace::restore(Checkpoint c) {
  if (c.block >= blocks_.size() && !(c.block == 0 && blocks_.empty())) {
    throw std::logic_error("Workspace::restore: checkpoint from a different workspace state");
  }
  for (size_t i = c.block + 1; i < blocks_.size(); ++i) blocks_[i].used = 0;
  if (c.block < blocks_.size()) blocks_[c.block].used = c.used;
  cur_ = c.block;
}

Workspace* Workspace::current() { return t_current; }

Workspace::Bind::Bind(Workspace& ws) : prev_(t_current) { t_current = &ws; }
Workspace::Bind::~Bind() { t_current = prev_; }

Workspace::Unbind::Unbind() : prev_(t_current) { t_current = nullptr; }
Workspace::Unbind::~Unbind() { t_current = prev_; }

Workspace::Scope::Scope(Workspace& ws) : ws_(ws), cp_(ws.checkpoint()), prev_(t_current) {
  t_current = &ws;
}

Workspace::Scope::~Scope() {
  ws_.restore(cp_);
  t_current = prev_;
}

}  // namespace df::core
