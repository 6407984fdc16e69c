#include "core/tensor.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include "core/linalg.h"
#include "core/rng.h"

namespace df::core {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
  t.zero();
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

TEST(Tensor, HeapUninitLeavesItsPagesUntouched) {
  // 2^24 floats are 16384 pages of 4 KiB: a fill would fault in each one.
  // ASan's allocator touches the shadow of the block, an eighth as many.
  constexpr int64_t kFloats = int64_t{1} << 24;
  constexpr long kPages = kFloats * 4 / 4096;
  const long before = minor_faults();
  const Tensor t = Tensor::uninit({kFloats});
  const long faults = minor_faults() - before;
  ASSERT_EQ(t.numel(), kFloats);
  EXPECT_FALSE(t.borrowed());
  EXPECT_LT(faults, kPages / 4) << "Tensor::uninit wrote its heap buffer";
  // Tensor(shape) still zero-fills.
  const Tensor z({4, 4});
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z[i], 0.0f);
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, FromVector) {
  Tensor t = Tensor::from({1, 2, 3});
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{3}));
  EXPECT_FLOAT_EQ(t.sum(), 6.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({2, 3});
  EXPECT_FLOAT_EQ(r.at(1, 2), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  EXPECT_FLOAT_EQ((a + b)[1], 7.0f);
  EXPECT_FLOAT_EQ((b - a)[2], 3.0f);
  EXPECT_FLOAT_EQ((a * b)[0], 4.0f);
  EXPECT_FLOAT_EQ((a * 2.0f)[2], 6.0f);
  EXPECT_FLOAT_EQ((a + 1.0f)[0], 2.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2}), b({4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Tensor, Axpy) {
  Tensor a = Tensor::from({1, 1});
  Tensor b = Tensor::from({2, 3});
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 2.5f);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({-1, 0, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.min(), -1.0f);
  EXPECT_NEAR(t.norm(), std::sqrt(14.0f), 1e-5f);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a = Tensor::from({1, 2, 3, 4}).reshaped({2, 2});
  Tensor b = Tensor::from({5, 6, 7, 8}).reshaped({2, 2});
  Tensor c = a.matmul(b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a({2, 3}), b({2, 3});
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  Rng rng(7);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  // a^T b via matmul_tn must equal transposed2d + matmul.
  Tensor tn = a.matmul_tn(b);
  Tensor ref = a.transposed2d().matmul(b);
  for (int64_t i = 0; i < tn.numel(); ++i) EXPECT_NEAR(tn[i], ref[i], 1e-4f);

  Tensor c = Tensor::randn({5, 3}, rng);
  Tensor d = Tensor::randn({4, 3}, rng);
  Tensor nt = c.matmul_nt(d);  // (5,3) x (4,3)^T
  Tensor ref2 = c.matmul(d.transposed2d());
  for (int64_t i = 0; i < nt.numel(); ++i) EXPECT_NEAR(nt[i], ref2[i], 1e-4f);
}

TEST(Tensor, TransposeRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::randn({3, 7}, rng);
  Tensor tt = a.transposed2d().transposed2d();
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], tt[i]);
}

TEST(Tensor, MapIsOutOfPlace) {
  Tensor a = Tensor::from({1, -2});
  Tensor b = a.map([](float v) { return v * v; });
  EXPECT_FLOAT_EQ(a[1], -2.0f);
  EXPECT_FLOAT_EQ(b[1], 4.0f);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(11);
  Tensor t = Tensor::randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0f, 0.1f);
  double var = 0;
  for (int64_t i = 0; i < t.numel(); ++i) var += t[i] * t[i];
  var /= t.numel();
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Linalg, CholeskySolveIdentity) {
  std::vector<double> a = {4, 0, 0, 0, 9, 0, 0, 0, 16};
  std::vector<double> x = core::spd_solve(a, 3, {8, 18, 32});
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 2.0, 1e-9);
}

TEST(Linalg, CholeskySolveGeneralSpd) {
  // A = L L^T with L = [[2,0],[1,3]] => A = [[4,2],[2,10]]
  std::vector<double> a = {4, 2, 2, 10};
  // pick x = (1, -1): b = A x = (2, -8)
  std::vector<double> x = core::spd_solve(a, 2, {2, -8});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], -1.0, 1e-9);
}

TEST(Linalg, NonSpdThrows) {
  std::vector<double> a = {1, 2, 2, 1};  // indefinite
  EXPECT_THROW(core::cholesky(a, 2), std::runtime_error);
}

}  // namespace
}  // namespace df::core
