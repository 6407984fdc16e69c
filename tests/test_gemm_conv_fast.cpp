// Equivalence pins for the inference engine: sgemm vs the naive reference
// (all transpose variants, odd and tall shapes), a row-major B vs the
// same B transposed and every transpose pair vs row-major copies (bitwise),
// the indirect-A GEMM vs sgemm on the materialized A (bitwise), Conv3d forward/backward vs the direct 7-loop
// reference and (bitwise) vs a plain im2col + sgemm reference, sample-grouped
// conv batches vs per-sample forwards, the ligand-only graph readout vs the
// full per-node readout, maxpool eval vs training, batched predict vs
// per-pose predict, and ThreadPool exception propagation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "chem/voxelizer.h"
#include "core/gemm.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "data/target.h"
#include "graph/gather.h"
#include "models/fusion.h"
#include "nn/conv3d.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

constexpr float kTol = 1e-4f;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

std::vector<float> random_buf(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

void check_gemm_case(bool ta, bool tb, int64_t m, int64_t n, int64_t k, Rng& rng) {
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;
  const std::vector<float> A = random_buf((ta ? k : m) * lda, rng);
  const std::vector<float> B = random_buf((tb ? n : k) * ldb, rng);
  std::vector<float> C(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> C_ref = random_buf(m * n, rng);  // accumulate seed
  std::vector<float> C_acc = C_ref;

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C.data(), n);
  std::vector<float> R(static_cast<size_t>(m * n), 0.0f);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, R.data(), n);
  for (size_t i = 0; i < C.size(); ++i) {
    ASSERT_NEAR(C[i], R[i], kTol) << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                                  << " k=" << k << " i=" << i;
  }

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_acc.data(), n, /*accumulate=*/true);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_ref.data(), n, true);
  for (size_t i = 0; i < C_acc.size(); ++i) ASSERT_NEAR(C_acc[i], C_ref[i], kTol);
}

TEST(Gemm, MatchesNaiveAcrossShapesAndTransposes) {
  Rng rng(11);
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},   {7, 17, 33},
                               {13, 1, 29}, {1, 31, 13},  {97, 65, 51}, {128, 96, 64},
                               {65, 130, 257}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) check_gemm_case(ta, tb, s[0], s[1], s[2], rng);
    }
  }
}

// A row-major B (read in place when it already has the row pass's padded,
// line-aligned layout, else copied into that image) against the same B
// passed transposed (always copied by the tiled transpose): each output
// element gets the same KC-panel sums and the same epilogue, so the two
// must agree bit for bit. The shapes cover every 16-lane chunk count, every rows-per-pass
// remainder and multi-panel k.
TEST(Gemm, SkinnyPathBitwiseMatchesPackedPath) {
  Rng rng(83);
  const int64_t ns[] = {1, 8, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 72, 80, 95, 96};
  const int64_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 31, 32, 64, 100};
  const int64_t ks[] = {1, 24, 192, 193, 400};
  const core::EpilogueAct acts[] = {core::EpilogueAct::kSigmoid, core::EpilogueAct::kTanh,
                                    core::EpilogueAct::kSELU};
  int64_t cases = 0;
  for (const int64_t n : ns)
    for (const int64_t m : ms)
      for (const int64_t k : ks) {
        if (k > 192 && m > 64) continue;  // deep k at m > 64: see TransposedAndWide... below
        const std::vector<float> A = random_buf(m * k, rng);
        const std::vector<float> B = random_buf(k * n, rng);
        std::vector<float> Bt(static_cast<size_t>(n * k));
        for (int64_t p = 0; p < k; ++p)
          for (int64_t j = 0; j < n; ++j) Bt[static_cast<size_t>(j * k + p)] = B[p * n + j];
        const std::vector<float> bias_col = random_buf(n, rng);
        const std::vector<float> bias_row = random_buf(m, rng);
        const int64_t ldc = n + 3;
        for (const bool accumulate : {false, true})
          for (const bool fused : {false, true}) {
            core::Epilogue ep;
            ep.act = acts[cases % 3];
            ep.bias_col = bias_col.data();
            ep.bias_row = bias_row.data();
            const core::Epilogue* epp = fused ? &ep : nullptr;
            std::vector<float> skinny = random_buf(m * ldc, rng);
            std::vector<float> packed = skinny;
            core::sgemm(false, false, m, n, k, A.data(), k, B.data(), n, skinny.data(), ldc,
                        accumulate, epp);
            core::sgemm(false, true, m, n, k, A.data(), k, Bt.data(), k, packed.data(), ldc,
                        accumulate, epp);
            ASSERT_EQ(std::memcmp(skinny.data(), packed.data(), skinny.size() * sizeof(float)), 0)
                << "m=" << m << " n=" << n << " k=" << k << " accumulate=" << accumulate
                << " epilogue=" << fused;
            ++cases;
          }
      }
  EXPECT_EQ(cases, 4964);
}

// The indirect-A GEMM against sgemm on the gathered A: element (i, p) of A
// is X[row_off[i] + k_off[p]]. The cases span several 192-term k-panels,
// every 16-lane chunk count up to two column blocks, row counts around the
// 8-row pass, every epilogue activation, and pools of 1, 2 and 8 threads
// for rows enough to fan out. B's pad lanes hold NaN: they must never reach
// C, and C's prior contents must be overwritten.
void check_indirect_case(int64_t m, int64_t n, int64_t k, core::EpilogueAct act, Rng& rng) {
  const int64_t span = 3 * k + 40;
  const std::vector<float> X = random_buf(m + span, rng);
  std::vector<int32_t> row_off, k_off;
  for (int64_t i = 0; i < m; ++i) row_off.push_back(static_cast<int32_t>(rng.randint(0, m)));
  for (int64_t p = 0; p < k; ++p) k_off.push_back(static_cast<int32_t>(rng.randint(0, span - 1)));
  std::vector<float> A;
  for (const int32_t r : row_off)
    for (const int32_t c : k_off) A.push_back(X[static_cast<size_t>(r + c)]);
  const int64_t ldb = (n + 15) / 16 * 16;
  std::vector<float> B(static_cast<size_t>(k * ldb), std::numeric_limits<float>::quiet_NaN());
  for (int64_t p = 0; p < k; ++p)
    for (int64_t j = 0; j < n; ++j) B[static_cast<size_t>(p * ldb + j)] = rng.uniform(-1.0f, 1.0f);
  const std::vector<float> bias_col = random_buf(n, rng), bias_row = random_buf(m, rng);
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = bias_col.data();
  ep.bias_row = bias_row.data();
  ep.leaky_slope = 0.05f;
  const int64_t ldc = n + 3;
  for (const core::Epilogue* epp : {static_cast<const core::Epilogue*>(nullptr),
                                    static_cast<const core::Epilogue*>(&ep)}) {
    std::vector<float> ref = random_buf(m * ldc, rng);
    std::vector<float> got = random_buf(m * ldc, rng);
    core::sgemm(false, false, m, n, k, A.data(), k, B.data(), ldb, ref.data(), ldc, false, epp);
    core::sgemm_indirect(m, n, k, X.data(), row_off.data(), k_off.data(), B.data(), ldb,
                         got.data(), ldc, epp);
    for (int64_t i = 0; i < m; ++i)
      ASSERT_EQ(std::memcmp(got.data() + i * ldc, ref.data() + i * ldc,
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << "m=" << m << " n=" << n << " k=" << k << " act=" << static_cast<int>(act)
          << " epilogue=" << (epp != nullptr) << " row " << i;
  }
}

TEST(Gemm, IndirectMatchesMaterializedA) {
  Rng rng(89);
  const core::EpilogueAct acts[] = {core::EpilogueAct::kNone,    core::EpilogueAct::kReLU,
                                    core::EpilogueAct::kLeakyReLU, core::EpilogueAct::kSELU,
                                    core::EpilogueAct::kSigmoid, core::EpilogueAct::kTanh};
  int64_t cases = 0;
  for (const int64_t k : {1, 7, 192, 193, 450})
    for (const int64_t n : {1, 15, 16, 17, 32, 33, 64, 96, 128})
      for (const int64_t m : {1, 3, 7, 8, 9, 15, 16, 17, 65})
        check_indirect_case(m, n, k, acts[cases++ % 6], rng);
  // Tall operands: m * n * k past 2^20.
  for (const int64_t n : {16, 33, 128})
    for (const int64_t m : {203, 260}) check_indirect_case(m, n, 450, acts[cases++ % 6], rng);
  std::vector<float> C = {1, 2};
  const int32_t zero = 0;
  core::sgemm_indirect(1, 2, 0, nullptr, &zero, nullptr, nullptr, 16, C.data(), 2);
  EXPECT_EQ(C, (std::vector<float>{0, 0}));
  EXPECT_THROW(core::sgemm_indirect(1, 17, 1, C.data(), &zero, &zero, C.data(), 17, C.data(), 17),
               std::invalid_argument);
}

// sgemm on stored transposes and slack leading dimensions against
// sgemm(false, false) on tight row-major copies: a transposed A is read
// through its stride, a transposed or slack B through the copy into the
// row image, and the reference's line-aligned B in place whenever
// n % 16 == 0, so every pair must agree bit for bit. Widths cover one and
// several column blocks with and without a 16-lane tail, k one and
// several panels, C starts as garbage, and two wide shapes run past 2^20
// multiply-adds.
void check_transposed_case(int64_t m, int64_t n, int64_t k, Rng& rng) {
  const std::vector<float> A = random_buf(m * k, rng), B = random_buf(k * n, rng);
  Tensor B_line({k, n});  // Tensor storage starts on a 64-byte line
  std::memcpy(B_line.data(), B.data(), B.size() * sizeof(float));
  const std::vector<float> bias_col = random_buf(n, rng), bias_row = random_buf(m, rng);
  core::Epilogue ep;
  ep.act = core::EpilogueAct::kTanh;
  ep.bias_col = bias_col.data();
  ep.bias_row = bias_row.data();
  const int64_t ldc = n + 5;
  for (const bool ta : {false, true})
    for (const bool tb : {false, true}) {
      // Stored operands with 3 floats of slack per row.
      const int64_t lda = (ta ? m : k) + 3, ldb = (tb ? k : n) + 3;
      std::vector<float> As(static_cast<size_t>((ta ? k : m) * lda), 7.0f);
      std::vector<float> Bs(static_cast<size_t>((tb ? n : k) * ldb), 7.0f);
      for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p)
          As[static_cast<size_t>(ta ? p * lda + i : i * lda + p)] = A[i * k + p];
      for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j)
          Bs[static_cast<size_t>(tb ? j * ldb + p : p * ldb + j)] = B[p * n + j];
      for (const bool accumulate : {false, true})
        for (const core::Epilogue* epp : {static_cast<const core::Epilogue*>(nullptr),
                                          static_cast<const core::Epilogue*>(&ep)}) {
          std::vector<float> ref = random_buf(m * ldc, rng);
          std::vector<float> got = ref;
          core::sgemm(false, false, m, n, k, A.data(), k, B_line.data(), n, ref.data(), ldc,
                      accumulate, epp);
          core::sgemm(ta, tb, m, n, k, As.data(), lda, Bs.data(), ldb, got.data(), ldc,
                      accumulate, epp);
          ASSERT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)), 0)
              << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n << " k=" << k
              << " accumulate=" << accumulate << " epilogue=" << (epp != nullptr);
          if (ta || tb || accumulate || epp == nullptr) continue;
          // The epilogue's biases against the naive reference, so that a
          // bias misplaced in every column block cannot pass as a match.
          std::vector<float> naive(static_cast<size_t>(m * ldc));
          core::sgemm_naive(false, false, m, n, k, A.data(), k, B.data(), n, naive.data(), ldc,
                            false, epp);
          for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
              ASSERT_NEAR(ref[i * ldc + j], naive[i * ldc + j], kTol)
                  << "m=" << m << " n=" << n << " k=" << k << " (" << i << ", " << j << ")";
        }
    }
}

TEST(Gemm, TransposedAndWideOperandsMatchRowMajorBitwise) {
  Rng rng(97);
  for (const int64_t n : {1, 16, 17, 96, 97, 128, 130, 433})
    for (const int64_t m : {1, 3, 8, 9, 65, 130})
      for (const int64_t k : {1, 42, 192, 193, 450}) check_transposed_case(m, n, k, rng);
  check_transposed_case(260, 433, 450, rng);
  check_transposed_case(203, 130, 193, rng);
}

TEST(Gemm, KZeroClearsOrKeepsC) {
  std::vector<float> C = {1, 2, 3, 4};
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2, /*accumulate=*/true);
  EXPECT_EQ(C[0], 1.0f);
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2);
  for (float v : C) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, MatchesNaiveOnTallShapes) {
  Rng rng(24);
  check_gemm_case(false, false, 201, 150, 67, rng);
  check_gemm_case(true, false, 150, 201, 67, rng);
  check_gemm_case(false, true, 97, 203, 129, rng);
}

TEST(Tensor, MatmulVariantsMatchNaive) {
  Rng rng(7);
  Tensor a = Tensor::randn({9, 14}, rng);
  Tensor b = Tensor::randn({14, 11}, rng);
  Tensor c = a.matmul(b);
  Tensor r({9, 11});
  core::sgemm_naive(false, false, 9, 11, 14, a.data(), 14, b.data(), 11, r.data(), 11);
  EXPECT_LE(max_abs_diff(c, r), kTol);

  Tensor at = a.transposed2d();
  EXPECT_LE(max_abs_diff(at.matmul_tn(b), r), kTol);
  Tensor bt = b.transposed2d();
  EXPECT_LE(max_abs_diff(a.matmul_nt(bt), r), kTol);
}

// ---- Conv3d vs direct reference ----

struct ConvCase {
  int64_t B, cin, cout, D, H, W, k, stride, pad;
};

void check_conv_case(const ConvCase& cc, Rng& rng) {
  nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
  auto params = conv.parameters();  // [w, b]
  const Tensor& w = params[0]->value;
  const Tensor& b = params[1]->value;

  Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
  conv.set_training(true);
  Tensor y = conv.forward(x);
  Tensor y_ref = nn::conv3d_forward_naive(x, w, b, cc.stride, cc.pad);
  ASSERT_LE(max_abs_diff(y, y_ref), kTol) << "fwd k=" << cc.k << " s=" << cc.stride
                                          << " p=" << cc.pad;

  Tensor g = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  Tensor gx = conv.backward(g);
  Tensor gw_ref(w.shape()), gb_ref(b.shape());
  Tensor gx_ref = nn::conv3d_backward_naive(x, w, g, gw_ref, gb_ref, cc.stride, cc.pad);
  EXPECT_LE(max_abs_diff(gx, gx_ref), kTol);
  // Weight/bias grads accumulate over B*Do*Ho*Wo products, so their scale
  // (and the float reorder error) grows with the output volume — compare at
  // kTol relative to the reference magnitude.
  const float gw_scale = std::max(1.0f, std::fabs(gw_ref.max() - gw_ref.min()));
  EXPECT_LE(max_abs_diff(params[0]->grad, gw_ref), kTol * gw_scale);
  const float gb_scale = std::max(1.0f, std::fabs(gb_ref.max() - gb_ref.min()));
  EXPECT_LE(max_abs_diff(params[1]->grad, gb_ref), kTol * gb_scale);
}

TEST(Conv3dFast, MatchesNaiveAcrossShapes) {
  Rng rng(31);
  const ConvCase cases[] = {
      {1, 1, 1, 4, 4, 4, 2, 1, 0},  {2, 3, 5, 7, 6, 5, 3, 1, 1},  {1, 4, 3, 8, 8, 8, 3, 2, 1},
      {2, 2, 4, 9, 7, 8, 5, 2, 2},  {1, 5, 2, 6, 9, 7, 3, 1, 2},  {3, 3, 3, 5, 5, 5, 2, 2, 0},
      {1, 16, 8, 8, 8, 8, 5, 2, 2},
  };
  for (const ConvCase& cc : cases) check_conv_case(cc, rng);
}

TEST(Conv3dFast, MatchesNaiveOnBatchedShapes) {
  Rng rng(42);
  check_conv_case({4, 3, 6, 7, 7, 7, 3, 1, 1}, rng);
  check_conv_case({2, 4, 4, 8, 6, 9, 5, 2, 2}, rng);
}

// ---- Conv3d bitwise pins: plain im2col reference, sample groups ----

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Plain im2col of one (cin, D, H, W) sample: column (ci, kz, ky, kx) x
// output position, zero where the tap lands in the padding.
std::vector<float> im2col(const float* x, const ConvCase& cc, int64_t Do, int64_t Ho, int64_t Wo) {
  const int64_t N = Do * Ho * Wo;
  std::vector<float> cols(static_cast<size_t>(cc.cin * cc.k * cc.k * cc.k * N), 0.0f);
  int64_t r = 0;
  for (int64_t ci = 0; ci < cc.cin; ++ci)
    for (int64_t kz = 0; kz < cc.k; ++kz)
      for (int64_t ky = 0; ky < cc.k; ++ky)
        for (int64_t kx = 0; kx < cc.k; ++kx, ++r)
          for (int64_t n = 0; n < N; ++n) {
            const int64_t z = n / (Ho * Wo) * cc.stride - cc.pad + kz;
            const int64_t y = n / Wo % Ho * cc.stride - cc.pad + ky;
            const int64_t xx = n % Wo * cc.stride - cc.pad + kx;
            if (z < 0 || z >= cc.D || y < 0 || y >= cc.H || xx < 0 || xx >= cc.W) continue;
            cols[static_cast<size_t>(r * N + n)] = x[((ci * cc.D + z) * cc.H + y) * cc.W + xx];
          }
  return cols;
}

// col2im: add column gradients back, column row by row, position by position.
void col2im(const std::vector<float>& cols, const ConvCase& cc, int64_t Do, int64_t Ho,
            int64_t Wo, float* gx) {
  const int64_t N = Do * Ho * Wo;
  int64_t r = 0;
  for (int64_t ci = 0; ci < cc.cin; ++ci)
    for (int64_t kz = 0; kz < cc.k; ++kz)
      for (int64_t ky = 0; ky < cc.k; ++ky)
        for (int64_t kx = 0; kx < cc.k; ++kx, ++r)
          for (int64_t n = 0; n < N; ++n) {
            const int64_t z = n / (Ho * Wo) * cc.stride - cc.pad + kz;
            const int64_t y = n / Wo % Ho * cc.stride - cc.pad + ky;
            const int64_t xx = n % Wo * cc.stride - cc.pad + kx;
            if (z < 0 || z >= cc.D || y < 0 || y >= cc.H || xx < 0 || xx >= cc.W) continue;
            gx[((ci * cc.D + z) * cc.H + y) * cc.W + xx] += cols[static_cast<size_t>(r * N + n)];
          }
}

void check_conv_bitwise_vs_im2col(const ConvCase& cc, Rng& rng) {
  nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
  const Tensor& w = conv.weight().value;
  const Tensor& b = conv.bias().value;
  const Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
  const int64_t Do = nn::Conv3d::out_size(cc.D, cc.k, cc.stride, cc.pad);
  const int64_t Ho = nn::Conv3d::out_size(cc.H, cc.k, cc.stride, cc.pad);
  const int64_t Wo = nn::Conv3d::out_size(cc.W, cc.k, cc.stride, cc.pad);
  const int64_t K = cc.cin * cc.k * cc.k * cc.k, N = Do * Ho * Wo;
  const int64_t chan = cc.cin * cc.D * cc.H * cc.W;
  std::string where = "B=" + std::to_string(cc.B) + " cin=" + std::to_string(cc.cin) +
                      " cout=" + std::to_string(cc.cout) + " k=" + std::to_string(cc.k) +
                      " s=" + std::to_string(cc.stride) + " p=" + std::to_string(cc.pad) +
                      " N=" + std::to_string(N);

  // Reference: one im2col + sgemm per sample; bias through the epilogue.
  core::Epilogue ep;
  ep.bias_row = b.data();
  Tensor y_ref({cc.B, cc.cout, Do, Ho, Wo});
  Tensor gx_ref(x.shape()), gw_ref(w.shape()), gb_ref(b.shape());
  const Tensor g = Tensor::randn(y_ref.shape(), rng);
  std::vector<float> dcols(static_cast<size_t>(K * N));
  for (int64_t s = 0; s < cc.B; ++s) {
    const std::vector<float> cols = im2col(x.data() + s * chan, cc, Do, Ho, Wo);
    core::sgemm(false, false, cc.cout, N, K, w.data(), K, cols.data(), N,
                y_ref.data() + s * cc.cout * N, N, /*accumulate=*/false, &ep);
    const float* gs = g.data() + s * cc.cout * N;
    for (int64_t co = 0; co < cc.cout; ++co) {
      float acc = 0.0f;
      for (int64_t j = 0; j < N; ++j) acc += gs[co * N + j];
      gb_ref[co] += acc;
    }
    core::sgemm(false, true, cc.cout, K, N, gs, N, cols.data(), N, gw_ref.data(), K,
                /*accumulate=*/true);
    core::sgemm(true, false, K, N, cc.cout, w.data(), K, gs, N, dcols.data(), N);
    col2im(dcols, cc, Do, Ho, Wo, gx_ref.data() + s * chan);
  }

  conv.set_training(false);
  EXPECT_TRUE(same_bytes(conv.forward(x), y_ref)) << "eval fwd " << where;
  conv.set_training(true);
  EXPECT_TRUE(same_bytes(conv.forward(x), y_ref)) << "train fwd " << where;
  conv.zero_grad();
  EXPECT_TRUE(same_bytes(conv.backward(g), gx_ref)) << "dX " << where;
  EXPECT_TRUE(same_bytes(conv.weight().grad, gw_ref)) << "dW " << where;
  EXPECT_TRUE(same_bytes(conv.bias().grad, gb_ref)) << "db " << where;
}

TEST(Conv3dFast, BitwiseMatchesIm2colReference) {
  Rng rng(61);
  // {B, cin, cout, D, H, W, k, stride, pad}: k in {1, 3, 5}, stride 1-3,
  // pad 0-2, non-cubic inputs, output grids on both sides of 32 positions
  // and one of several thousand.
  const ConvCase cases[] = {
      {2, 3, 4, 5, 6, 7, 1, 1, 0},   {3, 2, 5, 4, 7, 5, 1, 2, 1},  {2, 3, 3, 7, 6, 5, 3, 1, 1},
      {3, 2, 4, 9, 8, 7, 3, 2, 0},   {2, 4, 3, 9, 10, 8, 3, 3, 1}, {2, 2, 5, 6, 7, 8, 5, 1, 2},
      {3, 3, 2, 9, 7, 8, 5, 2, 2},   {2, 2, 3, 11, 9, 10, 5, 3, 2}, {5, 3, 4, 2, 3, 2, 3, 1, 1},
      {3, 16, 8, 8, 8, 8, 5, 2, 2},
      // N = 4896: offsets across hundreds of 16-position blocks.
      {1, 2, 3, 18, 17, 16, 3, 1, 1},
      // cout across 16-lane chunks and the 96-lane column block; every
      // cin * k^3 > 192 puts a k-panel boundary inside a channel's taps.
      {2, 3, 1, 5, 5, 5, 3, 1, 1},   {2, 8, 17, 4, 4, 4, 3, 1, 1}, {3, 2, 33, 6, 5, 4, 5, 1, 2},
      {2, 16, 64, 4, 4, 4, 3, 1, 1}, {2, 9, 70, 3, 3, 3, 3, 1, 1}, {2, 12, 128, 3, 3, 3, 3, 1, 1},
      // B * N = 1, 7, 9 and 65 GEMM rows.
      {1, 3, 5, 1, 1, 1, 3, 1, 1},   {7, 2, 6, 1, 1, 1, 3, 1, 1},  {1, 4, 5, 1, 3, 3, 3, 1, 1},
      {5, 3, 4, 1, 13, 1, 1, 1, 0},
  };
  for (const ConvCase& cc : cases) check_conv_bitwise_vs_im2col(cc, rng);
  // The screening trunk's four convs (16 voxel channels on an 8^3 grid,
  // 32/64 filters) at batches of 1, 5 and 32.
  for (const int64_t B : {1, 5, 32}) {
    check_conv_bitwise_vs_im2col({B, 16, 32, 8, 8, 8, 5, 2, 2}, rng);
    check_conv_bitwise_vs_im2col({B, 32, 32, 4, 4, 4, 3, 1, 1}, rng);
    check_conv_bitwise_vs_im2col({B, 32, 64, 2, 2, 2, 3, 1, 1}, rng);
    check_conv_bitwise_vs_im2col({B, 64, 64, 2, 2, 2, 3, 1, 1}, rng);
  }
}

TEST(Conv3dFast, GroupedBatchMatchesPerSampleForward) {
  Rng rng(67);
  // N = 8 with B = 7 (groups of 4, last one partial), N = 1 (groups of 32),
  // stride 3 with N = 27 (groups of 2), and N = 64 (no grouping).
  const ConvCase cases[] = {
      {7, 8, 12, 2, 2, 2, 3, 1, 1},
      {5, 4, 6, 3, 3, 3, 3, 1, 0},
      {33, 3, 5, 1, 1, 1, 3, 1, 1},
      {5, 3, 7, 9, 9, 9, 3, 3, 1},
      {3, 4, 6, 8, 8, 8, 5, 2, 2},
  };
  for (const ConvCase& cc : cases) {
    nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
    conv.set_training(false);
    const Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
    const int64_t chan = x.numel() / cc.B;
    const Tensor batch = conv.forward_act(x, core::EpilogueAct::kReLU);
    const int64_t per = batch.numel() / cc.B;
    for (int64_t s = 0; s < cc.B; ++s) {
      Tensor one = Tensor::uninit({1, cc.cin, cc.D, cc.H, cc.W});
      std::memcpy(one.data(), x.data() + s * chan, static_cast<size_t>(chan) * sizeof(float));
      const Tensor alone = conv.forward_act(one, core::EpilogueAct::kReLU);
      ASSERT_EQ(alone.numel(), per);
      EXPECT_EQ(std::memcmp(alone.data(), batch.data() + s * per,
                            static_cast<size_t>(per) * sizeof(float)),
                0)
          << "B=" << cc.B << " D=" << cc.D << " s=" << cc.stride << " sample " << s;
    }
  }
}

// ---- SG-CNN readout: ligand rows only == full per-node readout ----

TEST(GatherReadout, LigandOnlyMatchesFullReadout) {
  Rng rng(71);
  graph::Gather gather(6, 5, 40, rng);
  // Segments of 9, 1, 4, 7 and 3 nodes: a multi-atom ligand with pocket
  // nodes, a single-node graph, a graph with no pocket nodes (count ==
  // size), a count clamped to the segment size, and a single-atom ligand.
  const std::vector<int64_t> offset = {0, 9, 10, 14, 21, 24};
  const std::vector<int64_t> counts = {5, 1, 4, 99, 1};
  const Tensor h = Tensor::randn({24, 6}, rng), x = Tensor::randn({24, 5}, rng);

  const Tensor per_node = gather.forward_nodes(h, x, /*training=*/false);
  Tensor full({5, 40});
  for (size_t g = 0; g < counts.size(); ++g) {
    const int64_t n = std::min(counts[g], offset[g + 1] - offset[g]);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < 40; ++j)
        full.data()[g * 40 + j] += per_node.data()[(offset[g] + i) * 40 + j];
  }
  EXPECT_TRUE(same_bytes(gather.forward_segments(h, x, offset, counts), full));

  // The per-pose eval readout over one graph's rows is the same row sum.
  for (size_t g = 0; g < counts.size(); ++g) {
    const int64_t rows = offset[g + 1] - offset[g];
    Tensor hg = Tensor::uninit({rows, 6}), xg = Tensor::uninit({rows, 5});
    std::memcpy(hg.data(), h.data() + offset[g] * 6, static_cast<size_t>(rows * 6) * sizeof(float));
    std::memcpy(xg.data(), x.data() + offset[g] * 5, static_cast<size_t>(rows * 5) * sizeof(float));
    const Tensor one = gather.forward_sum(hg, xg, counts[g], /*training=*/false);
    EXPECT_EQ(std::memcmp(one.data(), full.data() + g * 40, 40 * sizeof(float)), 0) << "graph " << g;
  }
}

// ---- maxpool: eval vs training ----

TEST(MaxPool, EvalBitwiseEqualsTraining) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 5, 8, 8, 8}, rng);
  nn::MaxPool3d pool_layer(2, 2);
  const Tensor train = pool_layer.forward(x);
  // Eval skips the argmax bookkeeping and returns the same bytes.
  pool_layer.set_training(false);
  EXPECT_TRUE(same_bytes(pool_layer.forward(x), train));
}

// ---- ThreadPool exception propagation ----

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  core::ThreadPool pool(3);
  EXPECT_THROW(core::parallel_for(pool, 64,
                                  [](size_t i) {
                                    if (i == 17) throw std::runtime_error("rank died");
                                  }),
               std::runtime_error);
  // The pool must survive a failed job batch and keep executing work.
  std::atomic<int> count{0};
  core::parallel_for(pool, 32, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

// ---- batched predict vs per-pose predict ----

data::Sample make_sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  data::Sample s;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  s.label = 7.0f;
  return s;
}

TEST(PredictBatch, MatchesPerPosePredict) {
  Rng rng(17);
  models::Cnn3dConfig ccfg;
  ccfg.grid_dim = 8;
  ccfg.conv_filters1 = 4;
  ccfg.conv_filters2 = 8;
  ccfg.dense_nodes = 16;
  auto cnn = std::make_shared<models::Cnn3d>(ccfg, rng);
  models::SgcnnConfig scfg;
  scfg.covalent_k = 2;
  scfg.noncovalent_k = 2;
  scfg.covalent_gather_width = 8;
  scfg.noncovalent_gather_width = 16;
  auto sg = std::make_shared<models::Sgcnn>(scfg, rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  models::FusionModel fusion(fcfg, cnn, sg, rng);
  models::LateFusion late(cnn, sg);

  std::vector<data::Sample> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(make_sample(rng));
  std::vector<const data::Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  for (models::Regressor* model : std::initializer_list<models::Regressor*>{
           cnn.get(), sg.get(), &fusion, &late}) {
    model->set_training(false);
    const std::vector<float> batched = model->predict_batch(ptrs);
    ASSERT_EQ(batched.size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      EXPECT_NEAR(batched[i], model->predict(samples[i]), kTol) << model->name() << " pose " << i;
    }
  }
}

}  // namespace
}  // namespace df
