// Tests of the paper's Fig. 4 claim: co-located (derived) DCVs run
// element-wise ops with server-local data movement only, while independently
// created DCVs pay the naive pull-compute-push traffic.

#include <gtest/gtest.h>

#include "dcv/dcv_context.h"

namespace ps2 {
namespace {

class ColocationTest : public ::testing::Test {
 protected:
  ColocationTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  uint64_t NetBytes() const {
    return cluster_->metrics().Get("net.bytes_worker_to_server") +
           cluster_->metrics().Get("net.bytes_server_to_worker");
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(ColocationTest, CoLocatedDotMovesOnlyScalars) {
  const uint64_t dim = 100000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Derive(a);
  uint64_t before = NetBytes();
  ASSERT_TRUE(a.Dot(b).ok());
  uint64_t moved = NetBytes() - before;
  // 4 servers x (request + 8-byte partial + headers): far below dim*8.
  EXPECT_LT(moved, 1000u);
}

TEST_F(ColocationTest, NonCoLocatedDotMovesWholeVectors) {
  const uint64_t dim = 100000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Dense(dim, 2);  // the Fig. 4 "inefficient writing"
  uint64_t before = NetBytes();
  ASSERT_TRUE(a.Dot(b).ok());
  uint64_t moved = NetBytes() - before;
  EXPECT_GT(moved, 2 * dim * 8);  // both full rows shipped to the client
}

TEST_F(ColocationTest, CoLocatedDotIsDramaticallyFasterInVirtualTime) {
  const uint64_t dim = 1000000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Derive(a);
  Dcv c = *ctx_->Dense(dim, 2);

  SimTime t0 = cluster_->clock().Now();
  ASSERT_TRUE(a.Dot(b).ok());
  SimTime colocated = cluster_->clock().Now() - t0;

  t0 = cluster_->clock().Now();
  ASSERT_TRUE(a.Dot(c).ok());
  SimTime naive = cluster_->clock().Now() - t0;

  EXPECT_GT(naive / colocated, 5.0);
}

TEST_F(ColocationTest, ResultsAgreeBetweenFastAndSlowPath) {
  const uint64_t dim = 5000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Derive(a);
  Dcv c = *ctx_->Dense(dim, 2);
  std::vector<double> va(dim), vb(dim);
  Rng rng(5);
  for (uint64_t i = 0; i < dim; ++i) {
    va[i] = rng.NextGaussian();
    vb[i] = rng.NextGaussian();
  }
  ASSERT_TRUE(a.Set(va).ok());
  ASSERT_TRUE(b.Set(vb).ok());
  ASSERT_TRUE(c.Set(vb).ok());
  double fast = *a.Dot(b);
  double slow = *a.Dot(c);
  EXPECT_NEAR(fast, slow, 1e-9 * std::abs(fast) + 1e-9);
}

TEST_F(ColocationTest, NonCoLocatedElementWiseOpCorrectViaSlowPath) {
  const uint64_t dim = 3000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv b = *ctx_->Dense(dim, 2);
  Dcv dst = *ctx_->Dense(dim, 2);
  ASSERT_TRUE(a.Fill(3.0).ok());
  ASSERT_TRUE(b.Fill(4.0).ok());
  ASSERT_TRUE(dst.AddOf(a, b).ok());
  std::vector<double> pulled = *dst.Pull();
  for (double v : pulled) EXPECT_EQ(v, 7.0);
  EXPECT_GE(cluster_->metrics().Get("dcv.noncolocated_column_ops"), 1u);
}

TEST_F(ColocationTest, NonCoLocatedAxpyUsesAdditivePushOnly) {
  const uint64_t dim = 3000;
  Dcv a = *ctx_->Dense(dim, 2);
  Dcv dst = *ctx_->Dense(dim, 2);
  ASSERT_TRUE(a.Fill(2.0).ok());
  ASSERT_TRUE(dst.Fill(1.0).ok());
  ASSERT_TRUE(dst.Axpy(a, 3.0).ok());
  EXPECT_EQ((*dst.Pull())[0], 7.0);
}

TEST_F(ColocationTest, AdamGroupStaysServerLocal) {
  // The Fig. 3 pattern: w + 3 derived vectors, one zip; traffic must be
  // O(num_servers), not O(dim).
  const uint64_t dim = 200000;
  Dcv w = *ctx_->Dense(dim, 4);
  Dcv s = *ctx_->Derive(w);
  Dcv v = *ctx_->Derive(w);
  Dcv g = *ctx_->Derive(w);
  int udf = ctx_->RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t,
         const std::vector<double>&) -> uint64_t {
        for (size_t i = 0; i < n; ++i) {
          rows[0][i] -= 0.1 * rows[3][i];
          rows[1][i] += rows[3][i] * rows[3][i];
          rows[2][i] += rows[3][i];
        }
        return 6 * n;
      });
  uint64_t before = NetBytes();
  ASSERT_TRUE(w.Zip({s, v, g}, udf).ok());
  EXPECT_LT(NetBytes() - before, 1000u);
}

}  // namespace
}  // namespace ps2
