#include "dcv/dcv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/serde.h"
#include "dcv/dcv_batch.h"
#include "dcv/dcv_context.h"
#include "net/message.h"

namespace ps2 {
namespace {

class DcvTest : public ::testing::Test {
 protected:
  DcvTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(DcvTest, DenseCreatesZeroedVector) {
  Dcv v = *ctx_->Dense(100);
  EXPECT_EQ(v.dim(), 100u);
  EXPECT_TRUE(v.valid());
  std::vector<double> pulled = *v.Pull();
  EXPECT_EQ(pulled, std::vector<double>(100, 0.0));
}

TEST_F(DcvTest, SetOverwritesPushAdds) {
  Dcv v = *ctx_->Dense(10);
  ASSERT_TRUE(v.Set(std::vector<double>(10, 2.0)).ok());
  ASSERT_TRUE(v.Push(std::vector<double>(10, 1.0)).ok());
  EXPECT_EQ((*v.Pull())[0], 3.0);
  ASSERT_TRUE(v.Set(std::vector<double>(10, 5.0)).ok());
  EXPECT_EQ((*v.Pull())[0], 5.0);
}

TEST_F(DcvTest, SparseAddAndPull) {
  Dcv v = *ctx_->Dense(1000);
  ASSERT_TRUE(v.Add(SparseVector({1, 999}, {1.0, 2.0})).ok());
  std::vector<double> pulled = *v.PullSparse({0, 1, 999});
  EXPECT_EQ(pulled, (std::vector<double>{0, 1, 2}));
}

TEST_F(DcvTest, RowAggregates) {
  Dcv v = *ctx_->Dense(100);
  std::vector<double> values(100, 0.0);
  values[3] = 3.0;
  values[97] = -4.0;
  ASSERT_TRUE(v.Set(values).ok());
  EXPECT_DOUBLE_EQ(*v.Sum(), -1.0);
  EXPECT_DOUBLE_EQ(*v.Nnz(), 2.0);
  EXPECT_DOUBLE_EQ(*v.Norm2(), 5.0);
  EXPECT_DOUBLE_EQ(*v.Max(), 3.0);
}

TEST_F(DcvTest, DeriveSharesDimensionAndCoLocation) {
  Dcv base = *ctx_->Dense(64, 4);
  Dcv derived = *ctx_->Derive(base);
  EXPECT_EQ(derived.dim(), 64u);
  EXPECT_TRUE(base.CoLocatedWith(derived));
  EXPECT_TRUE(derived.CoLocatedWith(base));
  EXPECT_EQ(base.ref().matrix_id, derived.ref().matrix_id);
  EXPECT_NE(base.ref().row, derived.ref().row);
}

TEST_F(DcvTest, DuplicateIsDeriveAlias) {
  Dcv base = *ctx_->Dense(32, 3);
  Dcv dup = *ctx_->Duplicate(base);
  EXPECT_TRUE(base.CoLocatedWith(dup));
}

TEST_F(DcvTest, DeriveBeyondReservationExtendsGroup) {
  // reserve_rows = 2: base + 1 derive; the 2nd derive must allocate an
  // aligned extension matrix and stay co-located (paper §4.3).
  Dcv base = *ctx_->Dense(64, 2);
  Dcv first = *ctx_->Derive(base);
  Dcv second = *ctx_->Derive(base);
  Dcv third = *ctx_->Derive(base);
  EXPECT_TRUE(base.CoLocatedWith(first));
  EXPECT_TRUE(base.CoLocatedWith(second));
  EXPECT_TRUE(base.CoLocatedWith(third));
  EXPECT_NE(second.ref().matrix_id, base.ref().matrix_id);
  // Element-wise ops across the extension still work (no slow path).
  ASSERT_TRUE(base.Fill(2.0).ok());
  ASSERT_TRUE(second.Fill(3.0).ok());
  uint64_t noncolocated_before =
      cluster_->metrics().Get("dcv.noncolocated_column_ops");
  ASSERT_TRUE(third.MulOf(base, second).ok());
  EXPECT_EQ(cluster_->metrics().Get("dcv.noncolocated_column_ops"),
            noncolocated_before);
  EXPECT_EQ((*third.Pull())[10], 6.0);
}

TEST_F(DcvTest, IndependentDenseNotCoLocated) {
  Dcv a = *ctx_->Dense(64);
  Dcv b = *ctx_->Dense(64);
  EXPECT_FALSE(a.CoLocatedWith(b));
}

TEST_F(DcvTest, ColumnOpsElementWise) {
  Dcv a = *ctx_->Dense(30, 6);
  Dcv b = *ctx_->Derive(a);
  Dcv c = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(6.0).ok());
  ASSERT_TRUE(b.Fill(3.0).ok());
  ASSERT_TRUE(c.AddOf(a, b).ok());
  EXPECT_EQ((*c.Pull())[0], 9.0);
  ASSERT_TRUE(c.SubOf(a, b).ok());
  EXPECT_EQ((*c.Pull())[0], 3.0);
  ASSERT_TRUE(c.MulOf(a, b).ok());
  EXPECT_EQ((*c.Pull())[0], 18.0);
  ASSERT_TRUE(c.DivOf(a, b).ok());
  EXPECT_EQ((*c.Pull())[0], 2.0);
  ASSERT_TRUE(c.CopyFrom(a).ok());
  EXPECT_EQ((*c.Pull())[0], 6.0);
  ASSERT_TRUE(c.Axpy(b, 2.0).ok());
  EXPECT_EQ((*c.Pull())[0], 12.0);
  ASSERT_TRUE(c.Scale(0.5).ok());
  EXPECT_EQ((*c.Pull())[0], 6.0);
  ASSERT_TRUE(c.Zero().ok());
  EXPECT_EQ((*c.Pull())[0], 0.0);
}

TEST_F(DcvTest, DivByZeroYieldsZero) {
  Dcv a = *ctx_->Dense(10, 4);
  Dcv b = *ctx_->Derive(a);
  Dcv c = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(1.0).ok());
  ASSERT_TRUE(c.DivOf(a, b).ok());  // b is zero
  EXPECT_EQ((*c.Pull())[0], 0.0);
}

TEST_F(DcvTest, DotOfCoLocatedVectors) {
  Dcv a = *ctx_->Dense(100, 4);
  Dcv b = *ctx_->Derive(a);
  ASSERT_TRUE(a.Fill(2.0).ok());
  ASSERT_TRUE(b.Fill(3.0).ok());
  EXPECT_DOUBLE_EQ(*a.Dot(b), 600.0);
}

TEST_F(DcvTest, DotEqualsOnePairDotBatch) {
  Dcv a = *ctx_->Dense(100, 4);
  Dcv b = *ctx_->Derive(a);
  std::vector<double> av(100), bv(100);
  for (size_t i = 0; i < 100; ++i) {
    av[i] = 0.1 * static_cast<double>(i) - 3.0;
    bv[i] = 1.0 / static_cast<double>(i + 1);
  }
  ASSERT_TRUE(a.Set(av).ok());
  ASSERT_TRUE(b.Set(bv).ok());
  std::vector<double> batch =
      *ctx_->client()->DotBatchAsync({{a.ref(), b.ref()}}).Get();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(*a.Dot(b), batch[0]);  // bit-identical: the same wire op
}

std::vector<RowRef> Refs(const std::vector<Dcv>& rows) {
  std::vector<RowRef> refs;
  for (const Dcv& row : rows) refs.push_back(row.ref());
  return refs;
}

TEST_F(DcvTest, RunGroupedDotBatchEqualsPerPairDot) {
  std::vector<Dcv> rows = *ctx_->DenseMatrix(40, 8, 0.5, 7);
  const std::vector<RowRef> r = Refs(rows);
  // Runs of 3, 1, 2 and 1 pairs: a run breaks when the first operand does.
  const std::vector<std::pair<int, int>> idx = {
      {0, 4}, {0, 5}, {0, 6}, {1, 4}, {2, 2}, {2, 0}, {0, 7}};
  std::vector<std::pair<RowRef, RowRef>> pairs;
  for (const auto& [a, b] : idx) pairs.push_back({r[a], r[b]});
  std::vector<double> batch = *ctx_->client()->DotBatchAsync(pairs).Get();
  ASSERT_EQ(batch.size(), idx.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(*rows[idx[i].first].Dot(rows[idx[i].second]), batch[i]) << i;
  }
}

TEST_F(DcvTest, GroupedAxpyBatchEqualsOneTaskBatches) {
  // Two identically initialized matrices: one takes the tasks as one
  // batch (grouped on the wire), the other one task per batch.
  const std::vector<RowRef> grouped =
      Refs(*ctx_->DenseMatrix(40, 8, 0.5, 11, "grouped"));
  const std::vector<RowRef> single =
      Refs(*ctx_->DenseMatrix(40, 8, 0.5, 11, "single"));
  const double alpha = 0.125 / 3;
  const double alpha_next = std::nextafter(alpha, 1.0);
  // {dst, src, alpha} over row indices.
  struct Task {
    int dst, src;
    double alpha;
  };
  const std::vector<Task> tasks = {
      // DeepWalk-shaped mirrored group: anchor 0 with others 4, 5, 6.
      {0, 4, alpha}, {4, 0, alpha}, {0, 5, -alpha}, {5, 0, -alpha},
      {0, 6, 0.5}, {6, 0, 0.5},
      // The same anchor, plain: the open group must split on the flag.
      {0, 7, 0.25}, {0, 3, 2.0},
      // Mixed anchors, plain and mirrored.
      {1, 2, 1.5}, {2, 1, 1.5}, {3, 1, -0.75}, {1, 3, -0.75},
      // Would-be mirrors whose alphas differ in the last bit or only in
      // sign (-0.0): the second task must run with its own alpha.
      {5, 6, alpha}, {6, 5, alpha_next}, {7, 2, 0.0}, {2, 7, -0.0},
      // Self-update and a trailing lone task.
      {3, 3, 0.5}, {4, 6, -1.0}};
  std::vector<PsClient::AxpyTask> batch;
  for (const Task& t : tasks) {
    batch.push_back({grouped[t.dst], grouped[t.src], t.alpha});
    ASSERT_TRUE(ctx_->client()
                    ->AxpyBatchAsync({{single[t.dst], single[t.src], t.alpha}})
                    .Wait()
                    .ok());
  }
  ASSERT_TRUE(ctx_->client()->AxpyBatchAsync(batch).Wait().ok());
  for (size_t i = 0; i < grouped.size(); ++i) {
    std::vector<double> a = *ctx_->client()->PullDense(grouped[i]);
    std::vector<double> b = *ctx_->client()->PullDense(single[i]);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "row " << i;
  }
}

TEST_F(DcvTest, FusedAxpyDotBatchEqualsAxpyThenDot) {
  // Two identically initialized matrices: one stages axpys and dots in one
  // DcvBatch (one fused request per server), the other awaits the axpy
  // batch and then issues the dot batch.
  std::vector<Dcv> fused = *ctx_->DenseMatrix(40, 8, 0.5, 13, "fused");
  const std::vector<RowRef> split =
      Refs(*ctx_->DenseMatrix(40, 8, 0.5, 13, "split"));
  struct Task {
    int dst, src;
    double alpha;
  };
  const std::vector<Task> tasks = {
      // Mirrored groups anchored at 0 and at 1, then plain updates.
      {0, 4, 0.25}, {4, 0, 0.25}, {0, 5, -0.5}, {5, 0, -0.5},
      {1, 6, 0.125}, {6, 1, 0.125}, {2, 7, 1.5}, {2, 3, -0.75}};
  // A run of row 3 over several axpy anchors, then runs of written rows.
  const std::vector<std::pair<int, int>> pairs = {
      {3, 0}, {3, 1}, {3, 2}, {3, 4}, {0, 4}, {0, 5}, {6, 6}, {7, 2}};
  DcvBatch batch = ctx_->Batch();
  std::vector<PsClient::AxpyTask> split_tasks;
  for (const Task& t : tasks) {
    batch.Axpy(fused[t.dst], fused[t.src], t.alpha);
    split_tasks.push_back({split[t.dst], split[t.src], t.alpha});
  }
  std::vector<std::pair<RowRef, RowRef>> split_pairs;
  for (const auto& [a, b] : pairs) {
    batch.Dot(fused[a], fused[b]);
    split_pairs.push_back({split[a], split[b]});
  }
  const MetricsRegistry& m = cluster_->metrics();
  const uint64_t msgs0 = m.Get("net.messages");
  Result<DcvBatchResults> got = batch.Execute();
  ASSERT_TRUE(got.ok()) << got.status();
  // One request and one response per server.
  EXPECT_EQ(m.Get("net.messages") - msgs0,
            2u * static_cast<uint64_t>(cluster_->spec().num_servers));

  ASSERT_TRUE(ctx_->client()->AxpyBatchAsync(split_tasks).Wait().ok());
  std::vector<double> want = *ctx_->client()->DotBatchAsync(split_pairs).Get();
  ASSERT_EQ(got->dots.size(), want.size());
  EXPECT_EQ(std::memcmp(got->dots.data(), want.data(),
                        want.size() * sizeof(double)),
            0);
  for (size_t i = 0; i < split.size(); ++i) {
    std::vector<double> a = *fused[i].Pull();
    std::vector<double> b = *ctx_->client()->PullDense(split[i]);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "row " << i;
  }
}

TEST_F(DcvTest, DeepWalkShapedBatchRequestsShrink) {
  // One positive pair and five negatives share their input row; each
  // update is the symmetric axpy pair. Row ids past 127 take two varint
  // bytes, as in any real vocabulary.
  std::vector<Dcv> rows = *ctx_->DenseMatrix(16, 1000, 0.5, 3);
  const RowRef u = rows[150].ref();
  std::vector<std::pair<RowRef, RowRef>> pairs;
  std::vector<PsClient::AxpyTask> tasks;
  for (int i = 0; i < 6; ++i) {
    const RowRef c = rows[500 + 50 * i].ref();
    const double alpha = -0.025 * (i + 1);
    pairs.push_back({u, c});
    tasks.push_back({u, c, alpha});
    tasks.push_back({c, u, alpha});
  }
  // Request payload bytes per message, net of the fixed message header.
  auto payload_per_message = [&](const auto& send) {
    const MetricsRegistry& m = cluster_->metrics();
    const uint64_t bytes0 = m.Get("net.bytes_worker_to_server");
    const uint64_t msgs0 = m.Get("net.messages");
    send();
    const uint64_t msgs = m.Get("net.messages") - msgs0;
    const uint64_t bytes = m.Get("net.bytes_worker_to_server") - bytes0;
    EXPECT_GT(msgs, 0u);
    return (bytes - msgs * Message::kHeaderBytes) / msgs;
  };
  auto ref = [](BufferWriter* w, RowRef r) {
    w->WriteVarint(r.matrix_id);
    w->WriteVarint(r.row);
  };
  // The same requests in the ungrouped formats: every pair names both
  // rows, every task both rows and its alpha.
  BufferWriter flat_dot;
  flat_dot.WriteU8(static_cast<uint8_t>(PsOpCode::kDotBatch));
  flat_dot.WriteVarint(pairs.size());
  for (const auto& [a, b] : pairs) {
    ref(&flat_dot, a);
    ref(&flat_dot, b);
  }
  BufferWriter flat_axpy;
  flat_axpy.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
  flat_axpy.WriteVarint(tasks.size());
  for (const PsClient::AxpyTask& t : tasks) {
    ref(&flat_axpy, t.dst);
    ref(&flat_axpy, t.src);
    flat_axpy.WriteF64(t.alpha);
  }
  flat_axpy.WriteVarint(0);  // dot tail count
  const uint64_t dot = payload_per_message(
      [&] { ASSERT_TRUE(ctx_->client()->DotBatchAsync(pairs).Get().ok()); });
  const uint64_t axpy = payload_per_message(
      [&] { ASSERT_TRUE(ctx_->client()->AxpyBatchAsync(tasks).Wait().ok()); });
  EXPECT_LE(3 * dot, 2 * flat_dot.buffer().size());
  EXPECT_LE(2 * axpy, flat_axpy.buffer().size());
}

TEST_F(DcvTest, ZipAppliesUdfOverAllVectors) {
  Dcv w = *ctx_->Dense(50, 4);
  Dcv g = *ctx_->Derive(w);
  ASSERT_TRUE(w.Fill(1.0).ok());
  ASSERT_TRUE(g.Fill(0.25).ok());
  int udf = ctx_->RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t,
         const std::vector<double>&) -> uint64_t {
        for (size_t i = 0; i < n; ++i) rows[0][i] -= rows[1][i];
        return 2 * n;
      });
  ASSERT_TRUE(w.Zip({g}, udf).ok());
  EXPECT_EQ((*w.Pull())[49], 0.75);
}

TEST_F(DcvTest, ZipSeesGlobalColumnOffsets) {
  Dcv v = *ctx_->Dense(90, 2);
  int udf = ctx_->RegisterZip(
      [](const std::vector<double*>& rows, size_t n,
         uint64_t col_offset, const std::vector<double>&) -> uint64_t {
        for (size_t i = 0; i < n; ++i) {
          rows[0][i] = static_cast<double>(col_offset + i);
        }
        return n;
      });
  ASSERT_TRUE(v.Zip({}, udf).ok());
  std::vector<double> pulled = *v.Pull();
  for (size_t i = 0; i < 90; ++i) {
    EXPECT_EQ(pulled[i], static_cast<double>(i));
  }
}

TEST_F(DcvTest, ZipAggregateCombinesPerServer) {
  Dcv v = *ctx_->Dense(90, 2);
  ASSERT_TRUE(v.Fill(1.0).ok());
  int udf = ctx_->RegisterZipAggregate(
      [](const std::vector<const double*>& rows, size_t n,
         uint64_t) -> std::vector<double> {
        double s = 0;
        for (size_t i = 0; i < n; ++i) s += rows[0][i];
        return {s};
      });
  std::vector<std::vector<double>> partials = *v.ZipAggregate({}, udf);
  double total = 0;
  for (const auto& p : partials) total += p[0];
  EXPECT_DOUBLE_EQ(total, 90.0);
}

TEST_F(DcvTest, InvalidHandleFailsGracefully) {
  Dcv invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.Pull().status().IsFailedPrecondition());
  EXPECT_TRUE(invalid.Fill(1.0).IsFailedPrecondition());
}

TEST_F(DcvTest, SparseStorageVector) {
  Dcv v = *ctx_->Sparse(1000000);
  ASSERT_TRUE(v.Add(SparseVector({999999}, {2.0})).ok());
  EXPECT_EQ((*v.PullSparse({999999}))[0], 2.0);
  EXPECT_DOUBLE_EQ(*v.Nnz(), 1.0);
}

TEST_F(DcvTest, DenseMatrixRowsAreCoLocatedAndInitialized) {
  std::vector<Dcv> rows = *ctx_->DenseMatrix(16, 8, 0.25, 42);
  ASSERT_EQ(rows.size(), 8u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[0].CoLocatedWith(rows[i]));
  }
  bool any = false;
  for (const Dcv& row : rows) {
    std::vector<double> values = *row.Pull();
    for (double v : values) {
      EXPECT_LE(std::abs(v), 0.25);
      any |= v != 0;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(DcvTest, SpanServersRespectsCap) {
  Dcv narrow = *ctx_->Dense(100, 2, 1, 2);
  EXPECT_EQ(*ctx_->SpanServers(narrow), 2);
  Dcv wide = *ctx_->Dense(100, 2, 1, 0);
  EXPECT_EQ(*ctx_->SpanServers(wide), 3);
}

TEST_F(DcvTest, TinyDimSpansFewerServersThanCluster) {
  Dcv tiny = *ctx_->Dense(2, 2);
  EXPECT_LE(*ctx_->SpanServers(tiny), 2);
  ASSERT_TRUE(tiny.Fill(4.0).ok());
  EXPECT_DOUBLE_EQ(*tiny.Sum(), 8.0);
}

}  // namespace
}  // namespace ps2
