#include "ps/ps_server.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "common/serde.h"
#include "ps/partitioner.h"

namespace ps2 {
namespace {

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows, int servers,
                    MatrixStorage storage = MatrixStorage::kDense) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "m";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.storage = storage;
  meta.partitioner = *ColumnPartitioner::Make(dim, servers);
  return meta;
}

TEST(PsOpCodeTest, EveryOpcodeHasADistinctKnownName) {
  std::set<std::string> names;
  for (int op = 0; op < kNumPsOpCodes; ++op) {
    const std::string name = PsOpCodeName(static_cast<PsOpCode>(op));
    EXPECT_NE(name, "unknown") << "opcode " << op;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(PsOpCodeName(static_cast<PsOpCode>(kNumPsOpCodes)), "unknown");
}

class PsServerTest : public ::testing::Test {
 protected:
  // One server owning the whole dimension keeps wire-level tests simple.
  PsServerTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 16, 3, 1)).ok());
  }

  PsServer::HandleResult Call(const BufferWriter& w) {
    Result<PsServer::HandleResult> r = server_.Handle(w.buffer());
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  /// One-row kPullDense of the window [begin, end).
  std::vector<double> Pull(int matrix, uint32_t row, uint64_t begin,
                           uint64_t end) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
    w.WriteVarint(begin);
    w.WriteVarint(end);
    w.WriteVarint(1);
    w.WriteVarint(matrix);
    w.WriteVarint(row);
    PsServer::HandleResult result = Call(w);
    BufferReader r(result.response);
    EXPECT_EQ(*r.ReadVarint(), 1u);
    uint64_t n = *r.ReadVarint();
    return *r.ReadF64Span(n);
  }

  /// One-row kPushDense adding `values` at columns [begin, begin + n).
  void PushDense(int matrix, uint32_t row, uint64_t begin,
                 const std::vector<double>& values) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
    w.WriteVarint(begin);
    w.WriteVarint(1);
    w.WriteVarint(matrix);
    w.WriteVarint(row);
    w.WriteVarint(values.size());
    w.WriteF64Span(values.data(), values.size());
    Call(w);
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(PsServerTest, FreshShardIsZero) {
  std::vector<double> row = Pull(0, 0, 0, 16);
  for (double v : row) EXPECT_EQ(v, 0.0);
}

TEST_F(PsServerTest, PushIsAdditive) {
  PushDense(0, 1, 4, {1.0, 2.0});
  PushDense(0, 1, 5, {10.0});
  std::vector<double> row = Pull(0, 1, 0, 16);
  EXPECT_EQ(row[4], 1.0);
  EXPECT_EQ(row[5], 12.0);
  EXPECT_EQ(row[6], 0.0);
}

TEST_F(PsServerTest, PullWindowIntersectsRange) {
  PushDense(0, 0, 0, std::vector<double>(16, 3.0));
  std::vector<double> window = Pull(0, 0, 10, 14);
  EXPECT_EQ(window.size(), 4u);
  for (double v : window) EXPECT_EQ(v, 3.0);
}

TEST_F(PsServerTest, RowAggSum) {
  PushDense(0, 2, 0, {1, 2, 3});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kRowAgg));
  w.WriteVarint(0);
  w.WriteVarint(2);
  w.WriteU8(static_cast<uint8_t>(RowAggKind::kSum));
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 6.0);
}

TEST_F(PsServerTest, RowAggNnzAndNorm2AndMax) {
  PushDense(0, 2, 0, {3, 0, -4});
  auto agg = [&](RowAggKind kind) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kRowAgg));
    w.WriteVarint(0);
    w.WriteVarint(2);
    w.WriteU8(static_cast<uint8_t>(kind));
    PsServer::HandleResult result = Call(w);
    BufferReader r(result.response);
    return *r.ReadF64();
  };
  EXPECT_DOUBLE_EQ(agg(RowAggKind::kNnz), 2.0);
  EXPECT_DOUBLE_EQ(agg(RowAggKind::kNorm2Squared), 25.0);
  EXPECT_DOUBLE_EQ(agg(RowAggKind::kMax), 3.0);
}

TEST_F(PsServerTest, ColumnOpAdd) {
  PushDense(0, 0, 0, {1, 1, 1});
  PushDense(0, 1, 0, {2, 3, 4});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOp));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kAdd));
  w.WriteVarint(0);  // dst matrix
  w.WriteVarint(2);  // dst row
  w.WriteVarint(2);  // two sources
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteF64(0.0);
  Call(w);
  std::vector<double> row = Pull(0, 2, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{3, 4, 5}));
}

TEST_F(PsServerTest, DotPartial) {
  PushDense(0, 0, 0, {1, 2, 3});
  PushDense(0, 1, 0, {4, 5, 6});
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kDotBatch));
  w.WriteVarint(1);  // one pair
  w.WriteVarint(0);  // one run: first operand (0, 0)
  w.WriteVarint(0);
  w.WriteVarint(1);  // of length 1: second operand (0, 1)
  w.WriteVarint(0);
  w.WriteVarint(1);
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_EQ(*r.ReadVarint(), 1u);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 32.0);
}

TEST_F(PsServerTest, ZipRunsRegisteredUdf) {
  PushDense(0, 0, 0, {1, 2, 3});
  int udf = udfs_.RegisterZip(
      [](const std::vector<double*>& rows, size_t n, uint64_t,
         const std::vector<double>&) -> uint64_t {
        for (size_t i = 0; i < n; ++i) rows[0][i] *= 10;
        return n;
      });
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kZip));
  w.WriteVarint(udf);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(0);  // empty argument list
  Call(w);
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row[0], 10.0);
  EXPECT_EQ(row[2], 30.0);
}

TEST_F(PsServerTest, ZipUnknownUdfFails) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kZip));
  w.WriteVarint(99);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(0);  // empty argument list
  EXPECT_TRUE(server_.Handle(w.buffer()).status().IsNotFound());
}

TEST_F(PsServerTest, UnknownMatrixFails) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  w.WriteVarint(0);
  w.WriteVarint(4);
  w.WriteVarint(1);
  w.WriteVarint(42);
  w.WriteVarint(0);
  EXPECT_TRUE(server_.Handle(w.buffer()).status().IsNotFound());
}

TEST_F(PsServerTest, RowOutOfRangeFails) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  w.WriteVarint(0);
  w.WriteVarint(4);
  w.WriteVarint(1);
  w.WriteVarint(0);
  w.WriteVarint(99);
  EXPECT_TRUE(server_.Handle(w.buffer()).status().IsOutOfRange());
}

TEST_F(PsServerTest, GarbageOpcodeFails) {
  BufferWriter w;
  w.WriteU8(200);
  EXPECT_TRUE(server_.Handle(w.buffer()).status().IsInvalidArgument());
}

TEST_F(PsServerTest, DuplicateShardRejected) {
  EXPECT_TRUE(
      server_.CreateMatrixShard(MakeMeta(0, 16, 3, 1)).IsAlreadyExists());
}

TEST_F(PsServerTest, FreeShardRemoves) {
  EXPECT_TRUE(server_.FreeMatrixShard(0).ok());
  EXPECT_FALSE(server_.HasMatrix(0));
  EXPECT_TRUE(server_.FreeMatrixShard(0).IsNotFound());
}

TEST_F(PsServerTest, CheckpointRoundTrip) {
  PushDense(0, 0, 0, {7, 8, 9});
  std::vector<uint8_t> image = server_.SerializeState();
  PushDense(0, 0, 0, {100});  // diverge after the checkpoint
  EXPECT_TRUE(server_.RestoreState(image).ok());
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{7, 8, 9}));
}

TEST_F(PsServerTest, DropAllStateZeroes) {
  PushDense(0, 0, 0, {7, 8, 9});
  server_.DropAllState();
  std::vector<double> row = Pull(0, 0, 0, 3);
  EXPECT_EQ(row, (std::vector<double>{0, 0, 0}));
  EXPECT_TRUE(server_.HasMatrix(0));  // metadata survives a crash
}

TEST_F(PsServerTest, StoredValuesCountsDenseCells) {
  EXPECT_EQ(server_.StoredValues(), 3u * 16u);
}

TEST_F(PsServerTest, SparseStoragePushPull) {
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(1, 1000000, 2, 1, MatrixStorage::kSparse))
                  .ok());
  PushDense(1, 0, 999990, {5.0});
  std::vector<double> window = Pull(1, 0, 999989, 999992);
  EXPECT_EQ(window, (std::vector<double>{0, 5, 0}));
  EXPECT_EQ(server_.StoredValues(), 3u * 16u + 1u);
}

// ---- Row-op families: single-row requests are one-row batches ------------

TEST_F(PsServerTest, OneRowPullServedFromReplicaOutsideRange) {
  // Matrix 3 is split over two servers; this one (id 0) owns [0, 8).
  ASSERT_TRUE(server_.CreateMatrixShard(MakeMeta(3, 16, 2, 2)).ok());
  BufferWriter hot;
  hot.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
  hot.WriteVarint(1);  // one hot row: (3, 1), 16 columns
  hot.WriteVarint(3);
  hot.WriteVarint(1);
  hot.WriteVarint(16);
  Call(hot);
  std::vector<double> full(16);
  std::iota(full.begin(), full.end(), 1.0);
  BufferWriter install;
  install.WriteU8(static_cast<uint8_t>(PsOpCode::kReplicaSync));
  install.WriteU8(1);      // phase 1: install
  install.WriteVarint(1);  // epoch
  install.WriteVarint(1);
  install.WriteVarint(3);
  install.WriteVarint(1);
  install.WriteVarint(16);
  install.WriteF64Span(full.data(), full.size());
  Call(install);
  // The replica serves any window of the row, past this server's range...
  EXPECT_EQ(Pull(3, 1, 4, 16),
            std::vector<double>(full.begin() + 4, full.end()));
  // ...while a row without one is clipped to the primary slice.
  EXPECT_EQ(Pull(3, 0, 4, 16), std::vector<double>(4, 0.0));
  // Sparse pulls too: column 12 lives on the other server.
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullSparse));
  w.WriteU8(0);      // f64 values
  w.WriteVarint(1);  // one index: 12
  w.WriteVarint(12);
  w.WriteVarint(1);  // one row
  w.WriteVarint(3);
  w.WriteVarint(1);
  PsServer::HandleResult result = Call(w);
  BufferReader r(result.response);
  EXPECT_EQ(*r.ReadVarint(), 1u);
  EXPECT_EQ(*r.ReadF64(), 13.0);
}

TEST_F(PsServerTest, SparseStorageTwoRowPullAndPush) {
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(4, 100, 2, 1, MatrixStorage::kSparse))
                  .ok());
  // Dense push of both rows over columns [0, 100): row r gets r+1 at 10.
  BufferWriter push;
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  push.WriteVarint(0);
  push.WriteVarint(2);
  for (uint32_t row = 0; row < 2; ++row) {
    std::vector<double> slice(100, 0.0);
    slice[10] = row + 1.0;
    push.WriteVarint(4);
    push.WriteVarint(row);
    push.WriteVarint(100);
    push.WriteF64Span(slice.data(), slice.size());
  }
  Call(push);
  // Sparse push: row r gets 10 * (r+1) at column 50.
  BufferWriter add;
  add.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparse));
  add.WriteU8(0);
  add.WriteVarint(2);
  for (uint32_t row = 0; row < 2; ++row) {
    add.WriteVarint(4);
    add.WriteVarint(row);
    add.WriteVarint(1);
    add.WriteVarint(50);
    add.WriteF64(10.0 * (row + 1));
  }
  Call(add);
  // Only the nonzeros are stored.
  EXPECT_EQ(server_.StoredValues(), 3u * 16u + 4u);

  BufferWriter pull;
  pull.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  pull.WriteVarint(9);  // window [9, 12)
  pull.WriteVarint(12);
  pull.WriteVarint(2);
  for (uint32_t row = 0; row < 2; ++row) {
    pull.WriteVarint(4);
    pull.WriteVarint(row);
  }
  PsServer::HandleResult dense = Call(pull);
  BufferReader dr(dense.response);
  EXPECT_EQ(*dr.ReadVarint(), 2u);
  for (uint32_t row = 0; row < 2; ++row) {
    ASSERT_EQ(*dr.ReadVarint(), 3u);
    EXPECT_EQ(*dr.ReadF64Span(3), (std::vector<double>{0, row + 1.0, 0}));
  }

  BufferWriter sparse;
  sparse.WriteU8(static_cast<uint8_t>(PsOpCode::kPullSparse));
  sparse.WriteU8(0);
  sparse.WriteVarint(2);  // indices {10, 50}, delta-encoded
  sparse.WriteVarint(10);
  sparse.WriteVarint(40);
  sparse.WriteVarint(2);
  for (uint32_t row = 0; row < 2; ++row) {
    sparse.WriteVarint(4);
    sparse.WriteVarint(row);
  }
  PsServer::HandleResult values = Call(sparse);
  BufferReader sr(values.response);
  EXPECT_EQ(*sr.ReadVarint(), 2u);
  for (uint32_t row = 0; row < 2; ++row) {
    EXPECT_EQ(*sr.ReadF64Span(2),
              (std::vector<double>{row + 1.0, 10.0 * (row + 1)}));
  }
}

TEST_F(PsServerTest, TwoRowPushWithBadSecondRowAppliesNothing) {
  const std::vector<double> zeros(16, 0.0);
  // Sparse: row 0 is valid, row 1 names column 16, outside [0, 16).
  BufferWriter add;
  add.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparse));
  add.WriteU8(0);
  add.WriteVarint(2);
  for (uint64_t col : {3, 16}) {
    add.WriteVarint(0);
    add.WriteVarint(col == 3 ? 0 : 1);
    add.WriteVarint(1);
    add.WriteVarint(col);
    add.WriteF64(1.0);
  }
  EXPECT_TRUE(server_.Handle(add.buffer()).status().IsOutOfRange());
  EXPECT_EQ(Pull(0, 0, 0, 16), zeros);
  // Dense: row 1's values run past the end of this server's range.
  BufferWriter push;
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  push.WriteVarint(0);
  push.WriteVarint(2);
  for (uint64_t width : {16, 17}) {
    const std::vector<double> ones(width, 1.0);
    push.WriteVarint(0);
    push.WriteVarint(width == 16 ? 0 : 1);
    push.WriteVarint(width);
    push.WriteF64Span(ones.data(), ones.size());
  }
  EXPECT_TRUE(server_.Handle(push.buffer()).status().IsOutOfRange());
  EXPECT_EQ(Pull(0, 0, 0, 16), zeros);
}

/// kAxpyBatch of `groups` over matrix 0: each group is an anchor row, the
/// mirrored flag and its (other row, alpha) entries. No dot tail.
struct AxpyGroupSpec {
  uint32_t anchor;
  bool mirrored;
  std::vector<std::pair<uint32_t, double>> entries;
};

BufferWriter AxpyGroups(const std::vector<AxpyGroupSpec>& groups) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
  w.WriteVarint(groups.size());
  for (const AxpyGroupSpec& g : groups) {
    w.WriteVarint(0);
    w.WriteVarint(g.anchor);
    w.WriteVarint(g.entries.size() << 1 | (g.mirrored ? 1 : 0));
    for (const auto& [other, alpha] : g.entries) {
      w.WriteVarint(0);
      w.WriteVarint(other);
      w.WriteF64(alpha);
    }
  }
  w.WriteVarint(0);  // dot tail count
  return w;
}

TEST_F(PsServerTest, MirroredAxpyEntryUpdatesAnchorThenOther) {
  PushDense(0, 0, 0, {1, 2});
  PushDense(0, 1, 0, {3, 4});
  PushDense(0, 2, 0, {1, 1});
  // Row 0 += 2·row 1, then row 1 += 2·(updated) row 0; then a plain entry
  // row 0 += -1·row 2.
  Call(AxpyGroups({{0, true, {{1, 2.0}}}, {0, false, {{2, -1.0}}}}));
  EXPECT_EQ(Pull(0, 0, 0, 2), (std::vector<double>{6, 9}));
  EXPECT_EQ(Pull(0, 1, 0, 2), (std::vector<double>{17, 24}));
  EXPECT_EQ(Pull(0, 2, 0, 2), (std::vector<double>{1, 1}));
}

TEST_F(PsServerTest, TwoTaskAxpyBatchWithBadSecondRowAppliesNothing) {
  PushDense(0, 1, 0, std::vector<double>(16, 1.0));
  const std::vector<double> row0 = Pull(0, 0, 0, 16);
  const std::vector<double> row1 = Pull(0, 1, 0, 16);
  // Row 3 is outside the matrix's 3 rows: as the second entry of one
  // group, as the anchor of a second group, and as the other row of a
  // mirrored entry (whose first task alone would be valid).
  std::vector<std::vector<uint8_t>> requests;
  requests.push_back(AxpyGroups({{0, false, {{1, 1.0}, {3, 1.0}}}}).Release());
  requests.push_back(
      AxpyGroups({{0, false, {{1, 1.0}}}, {3, false, {{1, 1.0}}}}).Release());
  requests.push_back(
      AxpyGroups({{0, true, {{1, 1.0}}}, {2, true, {{3, 1.0}}}}).Release());
  for (const std::vector<uint8_t>& request : requests) {
    EXPECT_FALSE(server_.Handle(request).ok());
    EXPECT_EQ(Pull(0, 0, 0, 16), row0);
    EXPECT_EQ(Pull(0, 1, 0, 16), row1);
  }
}

TEST_F(PsServerTest, SparseStorageRejectsColumnOps) {
  ASSERT_TRUE(server_
                  .CreateMatrixShard(
                      MakeMeta(2, 100, 2, 1, MatrixStorage::kSparse))
                  .ok());
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kColumnOp));
  w.WriteU8(static_cast<uint8_t>(ColOpKind::kFill));
  w.WriteVarint(2);
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteF64(1.0);
  EXPECT_TRUE(server_.Handle(w.buffer()).status().IsFailedPrecondition());
}

TEST_F(PsServerTest, MatrixInitDeterministicAcrossCalls) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kMatrixInit));
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(3);
  w.WriteF64(0.5);
  w.WriteU64(123);
  Call(w);
  std::vector<double> first = Pull(0, 0, 0, 16);
  Call(w);
  std::vector<double> second = Pull(0, 0, 0, 16);
  EXPECT_EQ(first, second);
  bool any_nonzero = false;
  for (double v : first) {
    EXPECT_LE(std::abs(v), 0.5);
    any_nonzero |= v != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
}

}  // namespace
}  // namespace ps2
