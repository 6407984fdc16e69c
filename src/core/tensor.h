// Dense row-major float tensor — the numeric substrate under every model in
// deepfusion (replaces the PyTorch tensor the paper builds on).
//
// The class is intentionally small: contiguous float32 storage, shape
// metadata, elementwise arithmetic, 2-D matmul and reductions. Layers that
// need structured access (conv3d, voxel grids) index the raw buffer
// directly; nothing in the library relies on views or broadcasting beyond
// scalar ops, which keeps aliasing rules trivial.
//
// Storage has two modes. By default a Tensor owns a heap buffer. While a
// core::Workspace is bound to the constructing thread (core/workspace.h),
// new tensors instead *borrow* their storage from the arena: no heap
// traffic, and the buffer dies with the workspace region rather than the
// tensor. Copies re-allocate under the same policy, so a deep model forward
// run under a workspace binding performs zero tensor heap allocations —
// verified by the alloc_count() instrumentation hook below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace df::core {

class Rng;

/// Instrumentation: number of tensor data-buffer heap allocations (owned
/// Tensor buffers plus Workspace block growth) since process start.
/// Monotonic, process-wide, cheap (one relaxed atomic increment per heap
/// allocation). The serving tests pin this to zero deltas across
/// steady-state scoring batches; production code must not branch on it.
uint64_t alloc_count();

namespace detail {
/// Called by Tensor and Workspace whenever they touch the heap for data.
void count_tensor_alloc();

/// Storage that starts on a 64-byte cache line, so a 16-lane load at any
/// 16-float offset never straddles two lines. Tensor heap buffers and
/// Workspace blocks come from it; as a unique_ptr deleter it frees what
/// allocate() returned.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(size_t n) {
    // As std::allocator: a count whose byte size wraps is refused, never
    // served by a short block.
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlign); }
  /// Default-initializes, so a vector's resize() leaves floats unset
  /// (Tensor::uninit); Tensor(shape, fill) fills explicitly. Constructions
  /// with arguments keep std::allocator_traits' placement new.
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  void operator()(T* p) const { ::operator delete(p, kAlign); }
  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const { return true; }
};
}  // namespace detail

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int64_t> shape, float fill = 0.0f);
  Tensor(std::initializer_list<int64_t> shape, float fill = 0.0f);

  Tensor(const Tensor& o);
  Tensor& operator=(const Tensor& o);
  Tensor(Tensor&& o) noexcept;
  Tensor& operator=(Tensor&& o) noexcept;
  ~Tensor() = default;

  /// Allocated but NOT filled — contents are unspecified. For kernel
  /// plumbing that overwrites every element before the tensor escapes
  /// (matmul outputs, packed forwards); everything else wants Tensor(shape)
  /// whose zero-fill is part of the contract. Skipping the fill halves the
  /// write traffic of alloc-then-overwrite patterns, which is where the
  /// packed graph forward spends itself on bandwidth-bound cores.
  static Tensor uninit(std::vector<int64_t> shape);

  static Tensor zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor ones(std::vector<int64_t> shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(std::vector<int64_t> shape, float v) { return Tensor(std::move(shape), v); }
  /// Standard-normal init scaled by `stddev` (Kaiming/Glorot handled by callers).
  static Tensor randn(std::vector<int64_t> shape, Rng& rng, float stddev = 1.0f);
  /// Uniform init in [lo, hi).
  static Tensor uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi);
  /// 1-D tensor from explicit values (copied into owned storage).
  static Tensor from(std::vector<float> values);

  int64_t numel() const { return numel_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(int i) const { return shape_.at(static_cast<size_t>(i)); }
  bool empty() const { return numel_ == 0; }
  /// True when the storage is borrowed from a Workspace arena.
  bool borrowed() const { return data_ != nullptr && owned_.empty(); }

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::span<float> flat() { return {data_, static_cast<size_t>(numel_)}; }
  std::span<const float> flat() const { return {data_, static_cast<size_t>(numel_)}; }

  float& operator[](int64_t i) { return data_[i]; }
  float operator[](int64_t i) const { return data_[i]; }
  /// 2-D indexing (row, col); used pervasively by dense/graph layers.
  float& at(int64_t r, int64_t c) { return data_[r * shape_[1] + c]; }
  float at(int64_t r, int64_t c) const { return data_[r * shape_[1] + c]; }

  /// Reinterpret the buffer with a new shape of identical numel.
  Tensor reshaped(std::vector<int64_t> shape) const;

  // Elementwise arithmetic. Tensor-tensor ops require identical shapes.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(const Tensor& o);
  Tensor& operator+=(float v);
  Tensor& operator*=(float v);
  Tensor operator+(const Tensor& o) const;
  Tensor operator-(const Tensor& o) const;
  Tensor operator*(const Tensor& o) const;
  Tensor operator*(float v) const;
  Tensor operator+(float v) const;

  /// In-place `this += alpha * o` (axpy); the hot path in every optimizer.
  void axpy(float alpha, const Tensor& o);
  void fill(float v);
  void zero() { fill(0.0f); }

  /// Elementwise map (out-of-place).
  Tensor map(const std::function<float(float)>& fn) const;

  float sum() const;
  float mean() const;
  float max() const;
  float min() const;
  /// L2 norm of the flattened tensor.
  float norm() const;

  /// (m,k) x (k,n) -> (m,n). Lowered onto the blocked sgemm kernel
  /// (core/gemm.h), on the calling thread.
  Tensor matmul(const Tensor& rhs) const;
  /// matmul with this transposed: (k,m)^T x (k,n) -> (m,n).
  Tensor matmul_tn(const Tensor& rhs) const;
  /// matmul with rhs transposed: (m,k) x (n,k)^T -> (m,n).
  Tensor matmul_nt(const Tensor& rhs) const;
  Tensor transposed2d() const;

  std::string shape_str() const;

 private:
  /// Point data_ at fresh storage for `n` floats: the bound workspace when
  /// one is active on this thread, the heap otherwise.
  void acquire(int64_t n);

  std::vector<int64_t> shape_;
  // Empty when the storage is workspace-borrowed.
  std::vector<float, detail::CacheLineAllocator<float>> owned_;
  float* data_ = nullptr;
  int64_t numel_ = 0;
};

/// Throwing shape check used by arithmetic and layer plumbing.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace df::core
