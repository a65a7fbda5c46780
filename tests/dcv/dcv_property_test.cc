// Property-style sweeps: DCV operations must agree with a local reference
// implementation for every (dim, num_servers) shape, including dims smaller
// than the server count and dims that do not divide evenly.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dcv/dcv_context.h"

namespace ps2 {
namespace {

struct Shape {
  uint64_t dim;
  int servers;
};

class DcvShapeSweep : public ::testing::TestWithParam<Shape> {
 protected:
  DcvShapeSweep() {
    ClusterSpec spec;
    spec.num_workers = 3;
    spec.num_servers = GetParam().servers;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  std::vector<double> RandomVector(uint64_t dim, uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out(dim);
    for (auto& v : out) v = rng.NextGaussian();
    return out;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_P(DcvShapeSweep, PushPullIdentity) {
  const uint64_t dim = GetParam().dim;
  Dcv v = *ctx_->Dense(dim, 2);
  std::vector<double> values = RandomVector(dim, 1);
  ASSERT_TRUE(v.Push(values).ok());
  std::vector<double> pulled = *v.Pull();
  ASSERT_EQ(pulled.size(), dim);
  for (uint64_t i = 0; i < dim; ++i) {
    EXPECT_DOUBLE_EQ(pulled[i], values[i]);
  }
}

TEST_P(DcvShapeSweep, SparsePullMatchesDense) {
  const uint64_t dim = GetParam().dim;
  Dcv v = *ctx_->Dense(dim, 2);
  std::vector<double> values = RandomVector(dim, 2);
  ASSERT_TRUE(v.Push(values).ok());
  std::vector<uint64_t> indices;
  for (uint64_t i = 0; i < dim; i += std::max<uint64_t>(1, dim / 13)) {
    indices.push_back(i);
  }
  std::vector<double> sparse = *v.PullSparse(indices);
  for (size_t k = 0; k < indices.size(); ++k) {
    EXPECT_DOUBLE_EQ(sparse[k], values[indices[k]]);
  }
}

TEST_P(DcvShapeSweep, DotMatchesReference) {
  const uint64_t dim = GetParam().dim;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Derive(a);
  std::vector<double> va = RandomVector(dim, 3);
  std::vector<double> vb = RandomVector(dim, 4);
  ASSERT_TRUE(a.Push(va).ok());
  ASSERT_TRUE(b.Push(vb).ok());
  double expected = 0;
  for (uint64_t i = 0; i < dim; ++i) expected += va[i] * vb[i];
  EXPECT_NEAR(*a.Dot(b), expected, 1e-9 * (1.0 + std::abs(expected)));
}

TEST_P(DcvShapeSweep, AggregatesMatchReference) {
  const uint64_t dim = GetParam().dim;
  Dcv v = *ctx_->Dense(dim, 2);
  std::vector<double> values = RandomVector(dim, 5);
  ASSERT_TRUE(v.Push(values).ok());
  double sum = 0, norm2 = 0, mx = -1e300;
  uint64_t nnz = 0;
  for (double x : values) {
    sum += x;
    norm2 += x * x;
    mx = std::max(mx, x);
    nnz += x != 0.0;
  }
  EXPECT_NEAR(*v.Sum(), sum, 1e-9 * (1 + std::abs(sum)));
  EXPECT_NEAR(*v.Norm2(), std::sqrt(norm2), 1e-9);
  EXPECT_DOUBLE_EQ(*v.Nnz(), static_cast<double>(nnz));
  EXPECT_DOUBLE_EQ(*v.Max(), mx);
}

TEST_P(DcvShapeSweep, AxpyMatchesReference) {
  const uint64_t dim = GetParam().dim;
  Dcv y = *ctx_->Dense(dim, 2);
  Dcv x = *ctx_->Derive(y);
  std::vector<double> vy = RandomVector(dim, 6);
  std::vector<double> vx = RandomVector(dim, 7);
  ASSERT_TRUE(y.Push(vy).ok());
  ASSERT_TRUE(x.Push(vx).ok());
  ASSERT_TRUE(y.Axpy(x, -0.37).ok());
  std::vector<double> pulled = *y.Pull();
  for (uint64_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(pulled[i], vy[i] - 0.37 * vx[i], 1e-12);
  }
}

TEST_P(DcvShapeSweep, ZipEqualsLocalLoop) {
  const uint64_t dim = GetParam().dim;
  Dcv a = *ctx_->Dense(dim, 3);
  Dcv b = *ctx_->Derive(a);
  std::vector<double> va = RandomVector(dim, 8);
  std::vector<double> vb = RandomVector(dim, 9);
  ASSERT_TRUE(a.Push(va).ok());
  ASSERT_TRUE(b.Push(vb).ok());
  int udf = ctx_->RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t,
         const std::vector<double>&) -> uint64_t {
        for (size_t i = 0; i < n; ++i) {
          rows[0][i] = rows[0][i] * 0.5 + rows[1][i] * rows[1][i];
        }
        return 3 * n;
      });
  ASSERT_TRUE(a.Zip({b}, udf).ok());
  std::vector<double> pulled = *a.Pull();
  for (uint64_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(pulled[i], va[i] * 0.5 + vb[i] * vb[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DcvShapeSweep,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{7, 4}, Shape{64, 1},
                      Shape{64, 3}, Shape{100, 8}, Shape{1000, 7},
                      Shape{4096, 16}, Shape{10007, 5}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "dim" + std::to_string(info.param.dim) + "x" +
             std::to_string(info.param.servers);
    });

}  // namespace
}  // namespace ps2
