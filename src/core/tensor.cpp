#include "core/tensor.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/gemm.h"
#include "core/rng.h"
#include "core/workspace.h"

namespace df::core {

namespace {
std::atomic<uint64_t> g_alloc_count{0};

int64_t shape_numel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= d;
  }
  return n;
}
}  // namespace

uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }

namespace detail {
void count_tensor_alloc() { g_alloc_count.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail

void Tensor::acquire(int64_t n) {
  numel_ = n;
  if (n == 0) {
    data_ = nullptr;
    return;
  }
  if (Workspace* ws = Workspace::current()) {
    data_ = ws->alloc(n);
  } else {
    detail::count_tensor_alloc();
    // Two 16-lane tails of slack, mirroring the workspace allocator: row
    // kernels may load/store a full vector — or a stride-2 even-lane pair
    // of vectors — ending past numel() as long as they keep the
    // out-of-range lanes' values.
    owned_.resize(static_cast<size_t>(n) + 32);
    data_ = owned_.data();
  }
}

Tensor::Tensor(std::vector<int64_t> shape, float fill) : shape_(std::move(shape)) {
  acquire(shape_numel(shape_));
  for (int64_t i = 0; i < numel_; ++i) data_[i] = fill;
}

Tensor Tensor::uninit(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.acquire(shape_numel(t.shape_));
  return t;
}

Tensor::Tensor(std::initializer_list<int64_t> shape, float fill)
    : Tensor(std::vector<int64_t>(shape), fill) {}

Tensor::Tensor(const Tensor& o) : shape_(o.shape_) {
  acquire(o.numel_);
  if (numel_ > 0) std::memcpy(data_, o.data_, static_cast<size_t>(numel_) * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& o) {
  if (this == &o) return *this;
  shape_ = o.shape_;
  // Reuse the existing buffer when it already holds exactly this many
  // floats — parameter/optimizer code assigns same-shaped tensors in hot
  // loops and must not churn the heap (or leak arena space) doing it.
  if (numel_ != o.numel_) {
    owned_.clear();
    acquire(o.numel_);
  }
  if (numel_ > 0) std::memcpy(data_, o.data_, static_cast<size_t>(numel_) * sizeof(float));
  return *this;
}

Tensor::Tensor(Tensor&& o) noexcept
    : shape_(std::move(o.shape_)), owned_(std::move(o.owned_)), data_(o.data_), numel_(o.numel_) {
  o.data_ = nullptr;
  o.numel_ = 0;
  o.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& o) noexcept {
  if (this == &o) return *this;
  shape_ = std::move(o.shape_);
  owned_ = std::move(o.owned_);
  data_ = o.data_;
  numel_ = o.numel_;
  o.data_ = nullptr;
  o.numel_ = 0;
  o.shape_.clear();
  return *this;
}

Tensor Tensor::randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel_; ++i) t.data_[i] = rng.normal(0.0f, stddev);
  return t;
}

Tensor Tensor::uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel_; ++i) t.data_[i] = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::from(std::vector<float> values) {
  Tensor t;
  const size_t n = values.size();
  t.shape_ = {static_cast<int64_t>(n)};
  t.owned_.assign(values.begin(), values.end());
  t.owned_.resize(n + 32);  // same slack invariant as acquire()
  t.data_ = t.owned_.data();
  t.numel_ = static_cast<int64_t>(n);
  return t;
}

Tensor Tensor::reshaped(std::vector<int64_t> shape) const {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("reshape: numel mismatch " + shape_str());
  }
  Tensor t = *this;
  t.shape_ = std::move(shape);
  return t;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.shape_str() + " vs " +
                                b.shape_str());
  }
}

Tensor& Tensor::operator+=(const Tensor& o) {
  check_same_shape(*this, o, "+=");
  for (int64_t i = 0; i < numel_; ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  check_same_shape(*this, o, "-=");
  for (int64_t i = 0; i < numel_; ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& o) {
  check_same_shape(*this, o, "*=");
  for (int64_t i = 0; i < numel_; ++i) data_[i] *= o.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float v) {
  for (int64_t i = 0; i < numel_; ++i) data_[i] += v;
  return *this;
}

Tensor& Tensor::operator*=(float v) {
  for (int64_t i = 0; i < numel_; ++i) data_[i] *= v;
  return *this;
}

Tensor Tensor::operator+(const Tensor& o) const {
  Tensor t = *this;
  t += o;
  return t;
}

Tensor Tensor::operator-(const Tensor& o) const {
  Tensor t = *this;
  t -= o;
  return t;
}

Tensor Tensor::operator*(const Tensor& o) const {
  Tensor t = *this;
  t *= o;
  return t;
}

Tensor Tensor::operator*(float v) const {
  Tensor t = *this;
  t *= v;
  return t;
}

Tensor Tensor::operator+(float v) const {
  Tensor t = *this;
  t += v;
  return t;
}

void Tensor::axpy(float alpha, const Tensor& o) {
  check_same_shape(*this, o, "axpy");
  for (int64_t i = 0; i < numel_; ++i) data_[i] += alpha * o.data_[i];
}

void Tensor::fill(float v) {
  for (int64_t i = 0; i < numel_; ++i) data_[i] = v;
}

Tensor Tensor::map(const std::function<float(float)>& fn) const {
  Tensor t = uninit(shape_);
  for (int64_t i = 0; i < numel_; ++i) t.data_[i] = fn(data_[i]);
  return t;
}

float Tensor::sum() const {
  float s = 0.0f;
  for (int64_t i = 0; i < numel_; ++i) s += data_[i];
  return s;
}

float Tensor::mean() const { return numel_ == 0 ? 0.0f : sum() / static_cast<float>(numel_); }

float Tensor::max() const {
  if (numel_ == 0) throw std::runtime_error("max of empty tensor");
  float m = data_[0];
  for (int64_t i = 1; i < numel_; ++i) m = std::max(m, data_[i]);
  return m;
}

float Tensor::min() const {
  if (numel_ == 0) throw std::runtime_error("min of empty tensor");
  float m = data_[0];
  for (int64_t i = 1; i < numel_; ++i) m = std::min(m, data_[i]);
  return m;
}

float Tensor::norm() const {
  double s = 0.0;
  for (int64_t i = 0; i < numel_; ++i) s += static_cast<double>(data_[i]) * data_[i];
  return static_cast<float>(std::sqrt(s));
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  if (ndim() != 2 || rhs.ndim() != 2 || shape_[1] != rhs.shape_[0]) {
    throw std::invalid_argument("matmul: bad shapes " + shape_str() + " x " + rhs.shape_str());
  }
  const int64_t m = shape_[0], k = shape_[1], n = rhs.shape_[1];
  Tensor out = uninit({m, n});
  sgemm(false, false, m, n, k, data_, k, rhs.data_, n, out.data_, n);
  return out;
}

Tensor Tensor::matmul_tn(const Tensor& rhs) const {
  if (ndim() != 2 || rhs.ndim() != 2 || shape_[0] != rhs.shape_[0]) {
    throw std::invalid_argument("matmul_tn: bad shapes " + shape_str() + " x " + rhs.shape_str());
  }
  const int64_t k = shape_[0], m = shape_[1], n = rhs.shape_[1];
  Tensor out = uninit({m, n});
  sgemm(true, false, m, n, k, data_, m, rhs.data_, n, out.data_, n);
  return out;
}

Tensor Tensor::matmul_nt(const Tensor& rhs) const {
  if (ndim() != 2 || rhs.ndim() != 2 || shape_[1] != rhs.shape_[1]) {
    throw std::invalid_argument("matmul_nt: bad shapes " + shape_str() + " x " + rhs.shape_str());
  }
  const int64_t m = shape_[0], k = shape_[1], n = rhs.shape_[0];
  Tensor out = uninit({m, n});
  sgemm(false, true, m, n, k, data_, k, rhs.data_, k, out.data_, n);
  return out;
}

Tensor Tensor::transposed2d() const {
  if (ndim() != 2) throw std::invalid_argument("transposed2d: not 2-D");
  Tensor out = uninit({shape_[1], shape_[0]});
  for (int64_t i = 0; i < shape_[0]; ++i)
    for (int64_t j = 0; j < shape_[1]; ++j) out.at(j, i) = at(i, j);
  return out;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ',';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace df::core
