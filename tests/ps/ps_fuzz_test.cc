// Robustness: PsServer::Handle must reject arbitrary byte sequences with a
// Status — never crash, never corrupt state — because in the real system
// the request buffer comes off the network.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "common/rng.h"
#include "linalg/sparse_vector.h"
#include "net/filter_config.h"
#include "net/message.h"
#include "ps/partitioner.h"
#include "ps/ps_server.h"
#include "ps/range_image.h"

namespace ps2 {
namespace {

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "fuzz";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.partitioner = *ColumnPartitioner::Make(dim, 1);
  return meta;
}

class PsFuzzTest : public ::testing::Test {
 protected:
  PsFuzzTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 64, 4)).ok());
    udfs_.RegisterZip(
        [](const std::vector<double*>& rows, size_t n, uint64_t,
           const std::vector<double>&) -> uint64_t {
          for (size_t i = 0; i < n; ++i) rows[0][i] += 1;
          return n;
        });
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(PsFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF0220);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextUint64(64);
    std::vector<uint8_t> request(len);
    for (auto& b : request) b = static_cast<uint8_t>(rng.Next());
    Result<PsServer::HandleResult> result = server_.Handle(request);
    // Either it parsed into a valid op or it errored; both are fine.
    (void)result;
  }
  // State must remain intact and usable.
  EXPECT_TRUE(server_.HasMatrix(0));
  EXPECT_EQ(server_.StoredValues(), 4u * 64u);
}

TEST_F(PsFuzzTest, ValidOpcodeGarbageBodyNeverCrashes) {
  Rng rng(0xF0221);
  for (int opcode = 0; opcode < kNumPsOpCodes; ++opcode) {
    for (int trial = 0; trial < 500; ++trial) {
      size_t len = rng.NextUint64(48);
      std::vector<uint8_t> request(1 + len);
      request[0] = static_cast<uint8_t>(opcode);
      for (size_t i = 1; i < request.size(); ++i) {
        request[i] = static_cast<uint8_t>(rng.Next());
      }
      (void)server_.Handle(request);
    }
  }
  EXPECT_TRUE(server_.HasMatrix(0));
}

TEST_F(PsFuzzTest, EmptyRequestRejected) {
  EXPECT_FALSE(server_.Handle({}).ok());
}

/// One-row kPullDense of (matrix 0, `row`) over all 64 columns.
std::vector<uint8_t> PullRowRequest(uint32_t row) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  writer.WriteVarint(0);
  writer.WriteVarint(64);
  writer.WriteVarint(1);
  writer.WriteVarint(0);
  writer.WriteVarint(row);
  return writer.Release();
}

/// One kDotBatch run over matrix 0: a first-operand row and the
/// second-operand rows it is dotted with.
struct DotRun {
  uint32_t a;
  std::vector<uint32_t> bs;
};

/// A kDotBatch body; `count` defaults to the number of pairs the runs carry.
void WriteDotRuns(BufferWriter* writer, const std::vector<DotRun>& runs,
                  std::optional<uint64_t> count = std::nullopt) {
  uint64_t pairs = 0;
  for (const DotRun& run : runs) pairs += run.bs.size();
  writer->WriteVarint(count.value_or(pairs));
  for (const DotRun& run : runs) {
    writer->WriteVarint(0);
    writer->WriteVarint(run.a);
    writer->WriteVarint(run.bs.size());
    for (uint32_t b : run.bs) {
      writer->WriteVarint(0);
      writer->WriteVarint(b);
    }
  }
}

std::vector<uint8_t> DotRunsRequest(
    const std::vector<DotRun>& runs,
    std::optional<uint64_t> count = std::nullopt) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kDotBatch));
  WriteDotRuns(&writer, runs, count);
  return writer.Release();
}

/// One kAxpyBatch group over matrix 0: `anchor += α·other` per entry, plus
/// `other += α·anchor` after it when mirrored.
struct AxpyGroupSpec {
  uint32_t anchor;
  bool mirrored;
  std::vector<std::pair<uint32_t, double>> entries;
};

/// The groups, then `dots` as the dot tail (`tail_count` overrides its
/// count).
std::vector<uint8_t> AxpyGroupsRequest(
    const std::vector<AxpyGroupSpec>& groups,
    const std::vector<DotRun>& dots = {},
    std::optional<uint64_t> tail_count = std::nullopt) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
  writer.WriteVarint(groups.size());
  for (const AxpyGroupSpec& g : groups) {
    writer.WriteVarint(0);
    writer.WriteVarint(g.anchor);
    writer.WriteVarint(g.entries.size() << 1 | (g.mirrored ? 1 : 0));
    for (const auto& [other, alpha] : g.entries) {
      writer.WriteVarint(0);
      writer.WriteVarint(other);
      writer.WriteF64(alpha);
    }
  }
  WriteDotRuns(&writer, dots, tail_count);
  return writer.Release();
}

/// Valid requests of every row-op family over rows {0} (one-row) or {0, 1}
/// (two-row) of matrix 0, each row touching column 5.
std::vector<std::vector<uint8_t>> RowFamilyRequests(size_t num_rows) {
  auto rows = [num_rows](BufferWriter* w) {
    for (uint32_t r = 0; r < num_rows; ++r) {
      w->WriteVarint(0);
      w->WriteVarint(r);
    }
  };
  std::vector<std::vector<uint8_t>> out;
  BufferWriter pull;
  pull.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  pull.WriteVarint(0);
  pull.WriteVarint(64);
  pull.WriteVarint(num_rows);
  rows(&pull);
  out.push_back(pull.Release());
  BufferWriter pull_sparse;
  pull_sparse.WriteU8(static_cast<uint8_t>(PsOpCode::kPullSparse));
  pull_sparse.WriteU8(0);
  pull_sparse.WriteVarint(1);
  pull_sparse.WriteVarint(5);
  pull_sparse.WriteVarint(num_rows);
  rows(&pull_sparse);
  out.push_back(pull_sparse.Release());
  BufferWriter push;
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  push.WriteVarint(5);  // window from column 5
  push.WriteVarint(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    push.WriteVarint(0);
    push.WriteVarint(r);
    push.WriteVarint(1);
    push.WriteF64(1.0);
  }
  out.push_back(push.Release());
  for (uint8_t compress : {0, 1}) {
    BufferWriter push_sparse;
    push_sparse.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparse));
    push_sparse.WriteU8(compress);
    push_sparse.WriteVarint(num_rows);
    for (uint32_t r = 0; r < num_rows; ++r) {
      push_sparse.WriteVarint(0);
      push_sparse.WriteVarint(r);
      push_sparse.WriteVarint(1);
      push_sparse.WriteVarint(5);
      if (compress != 0) {
        push_sparse.WriteSignedVarint(3);
      } else {
        push_sparse.WriteF64(1.0);
      }
    }
    out.push_back(push_sparse.Release());
  }
  // Pairs (r, 3): one run per row, since each first operand differs.
  std::vector<DotRun> dot_runs;
  for (uint32_t r = 0; r < num_rows; ++r) dot_runs.push_back({r, {3}});
  out.push_back(DotRunsRequest(dot_runs));
  return out;
}

/// A zip of the fixture's UDF over row 0 whose argument list claims
/// `n_args` doubles and carries `args`.
std::vector<uint8_t> ZipRow0Request(uint64_t n_args,
                                    const std::vector<double>& args) {
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kZip));
  writer.WriteVarint(0);  // udf id
  writer.WriteVarint(1);  // one row: (matrix 0, row 0)
  writer.WriteVarint(0);
  writer.WriteVarint(0);
  writer.WriteVarint(n_args);
  for (double a : args) writer.WriteF64(a);
  return writer.Release();
}

TEST_F(PsFuzzTest, TruncatedValidRequestsRejected) {
  // Build valid requests, then replay every truncation of each: one- and
  // two-row requests of every row-op family, one- and multi-run dot
  // batches, plain, mirrored and mixed axpy batches, and a zip whose
  // truncations cut into its f64 argument list too. None may mutate rows 0
  // and 1 — a two-row push cut inside its second row must not apply its
  // first, nor an axpy batch cut inside its second group its first.
  std::vector<std::vector<uint8_t>> requests = RowFamilyRequests(1);
  for (std::vector<uint8_t>& r : RowFamilyRequests(2)) {
    requests.push_back(std::move(r));
  }
  requests.push_back(DotRunsRequest({{0, {1, 2, 3}}}));
  requests.push_back(DotRunsRequest({{0, {1, 2}}, {1, {3}}, {2, {0, 1}}}));
  requests.push_back(AxpyGroupsRequest({{0, false, {{2, 0.5}, {3, -1.0}}}}));
  requests.push_back(AxpyGroupsRequest({{1, true, {{2, 0.25}, {3, 0.5}}}}));
  requests.push_back(AxpyGroupsRequest(
      {{0, true, {{2, 0.5}}}, {0, false, {{1, 2.0}}}, {1, true, {{3, 1.5}}}}));
  // Fused: plain and mirrored groups with a dot tail.
  requests.push_back(AxpyGroupsRequest({{0, false, {{2, 0.5}, {3, -1.0}}}},
                                       {{0, {1, 2}}, {3, {0}}}));
  requests.push_back(AxpyGroupsRequest(
      {{1, true, {{2, 0.25}}}, {0, false, {{3, 2.0}}}},
      {{2, {0, 1, 3}}, {1, {1}}}));
  requests.push_back(ZipRow0Request(2, {2.0, 0.5}));
  // Rows 2 and 3 are the axpy sources: nonzero, so any applied entry
  // moves row 0 or 1.
  BufferWriter fill;
  fill.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  fill.WriteVarint(0);
  fill.WriteVarint(2);
  const std::vector<double> ones(64, 1.0);
  for (uint32_t r : {2, 3}) {
    fill.WriteVarint(0);
    fill.WriteVarint(r);
    fill.WriteVarint(64);
    fill.WriteF64Span(ones.data(), ones.size());
  }
  ASSERT_TRUE(server_.Handle(fill.buffer()).ok());
  const std::vector<uint8_t> row0 = server_.Handle(PullRowRequest(0))->response;
  const std::vector<uint8_t> row1 = server_.Handle(PullRowRequest(1))->response;
  const std::vector<uint8_t> row2 = server_.Handle(PullRowRequest(2))->response;
  const std::vector<uint8_t> row3 = server_.Handle(PullRowRequest(3))->response;
  for (const std::vector<uint8_t>& full : requests) {
    for (size_t len = 0; len < full.size(); ++len) {
      std::vector<uint8_t> truncated(full.begin(), full.begin() + len);
      EXPECT_FALSE(server_.Handle(truncated).ok())
          << "opcode " << int{full[0]} << " length " << len;
    }
  }
  // So is an argument count the remaining bytes cannot hold.
  const uint64_t huge = uint64_t{1} << 60;
  EXPECT_TRUE(
      server_.Handle(ZipRow0Request(huge, {2.0, 0.5})).status().IsOutOfRange());
  EXPECT_EQ(server_.Handle(PullRowRequest(0))->response, row0);
  EXPECT_EQ(server_.Handle(PullRowRequest(1))->response, row1);
  EXPECT_EQ(server_.Handle(PullRowRequest(2))->response, row2);
  EXPECT_EQ(server_.Handle(PullRowRequest(3))->response, row3);
  for (const std::vector<uint8_t>& full : requests) {
    EXPECT_TRUE(server_.Handle(full).ok()) << "opcode " << int{full[0]};
  }
  EXPECT_NE(server_.Handle(PullRowRequest(0))->response, row0);
  EXPECT_NE(server_.Handle(PullRowRequest(1))->response, row1);
}

TEST_F(PsFuzzTest, HostileDotRunsRejected) {
  const DotRun two{0, {3, 3}}, one{1, {3}}, empty{2, {}};
  ASSERT_TRUE(server_.Handle(DotRunsRequest({two, one})).ok());
  // A run of length 0 carries no pair.
  EXPECT_TRUE(server_.Handle(DotRunsRequest({empty, two, one}))
                  .status()
                  .IsInvalidArgument());
  // A run longer than what is left of `count`, even when the bytes are
  // there to back it.
  EXPECT_TRUE(server_.Handle(DotRunsRequest({two, two}, 3))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      server_.Handle(DotRunsRequest({two}, 1)).status().IsInvalidArgument());
  // Counts the buffer cannot back fail before anything is allocated.
  const uint64_t huge = uint64_t{1} << 60;
  EXPECT_TRUE(
      server_.Handle(DotRunsRequest({one}, huge)).status().IsOutOfRange());
  BufferWriter long_run;
  long_run.WriteU8(static_cast<uint8_t>(PsOpCode::kDotBatch));
  long_run.WriteVarint(2);
  long_run.WriteVarint(0);
  long_run.WriteVarint(0);
  long_run.WriteVarint(huge);
  EXPECT_TRUE(server_.Handle(long_run.buffer()).status().IsOutOfRange());
}

TEST_F(PsFuzzTest, HostileAxpyGroupsRejected) {
  BufferWriter push;  // row 1 = ones, so any applied entry moves row 0
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  push.WriteVarint(0);
  push.WriteVarint(1);
  push.WriteVarint(0);
  push.WriteVarint(1);
  push.WriteVarint(64);
  const std::vector<double> ones(64, 1.0);
  push.WriteF64Span(ones.data(), ones.size());
  ASSERT_TRUE(server_.Handle(push.buffer()).ok());
  const std::vector<uint8_t> row0 = server_.Handle(PullRowRequest(0))->response;
  auto header = [](uint64_t groups, uint64_t mode) {
    // One group anchored at row 0 whose header varint is `mode`, followed
    // by a single (row 1, 1.0) entry.
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
    writer.WriteVarint(groups);
    writer.WriteVarint(0);
    writer.WriteVarint(0);
    writer.WriteVarint(mode);
    writer.WriteVarint(0);
    writer.WriteVarint(1);
    writer.WriteF64(1.0);
    writer.WriteVarint(0);  // dot tail count
    return writer.Release();
  };
  // A group count the buffer cannot back.
  EXPECT_TRUE(server_.Handle(header(uint64_t{1} << 60, 2))
                  .status()
                  .IsOutOfRange());
  EXPECT_FALSE(server_.Handle(header(2, 2)).ok());
  // An empty group.
  EXPECT_FALSE(server_.Handle(header(1, 0)).ok());
  EXPECT_FALSE(server_.Handle(header(1, 1)).ok());
  // Every header bit above the mirrored flag is entry count: set ones
  // claim entries the buffer cannot back, mirrored or not.
  for (int bit = 2; bit < 64; ++bit) {
    for (uint64_t flag : {0, 1}) {
      const uint64_t mode = (uint64_t{1} << bit) | 2 | flag;
      EXPECT_TRUE(server_.Handle(header(1, mode)).status().IsOutOfRange())
          << "bit " << bit;
    }
  }
  EXPECT_EQ(server_.Handle(PullRowRequest(0))->response, row0);
  EXPECT_TRUE(server_.Handle(header(1, 2)).ok());
  EXPECT_TRUE(server_.Handle(header(1, 3)).ok());
  EXPECT_NE(server_.Handle(PullRowRequest(0))->response, row0);
}

TEST_F(PsFuzzTest, BadDotTailAfterValidAxpyGroupsAppliesNothing) {
  BufferWriter fill;  // rows 2 and 3 = ones, so any applied entry moves 0-3
  fill.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  fill.WriteVarint(0);
  fill.WriteVarint(2);
  const std::vector<double> ones(64, 1.0);
  for (uint32_t r : {2, 3}) {
    fill.WriteVarint(0);
    fill.WriteVarint(r);
    fill.WriteVarint(64);
    fill.WriteF64Span(ones.data(), ones.size());
  }
  ASSERT_TRUE(server_.Handle(fill.buffer()).ok());
  std::vector<std::vector<uint8_t>> rows;
  for (uint32_t r = 0; r < 4; ++r) {
    rows.push_back(server_.Handle(PullRowRequest(r))->response);
  }
  const std::vector<AxpyGroupSpec> groups = {{0, true, {{2, 0.5}}},
                                             {1, false, {{3, -1.0}}}};
  const DotRun two{0, {1, 2}}, one{3, {0}}, empty{2, {}};
  // A count the buffer cannot back.
  const uint64_t huge = uint64_t{1} << 60;
  EXPECT_TRUE(server_.Handle(AxpyGroupsRequest(groups, {two}, huge))
                  .status()
                  .IsOutOfRange());
  // A run of 0.
  EXPECT_TRUE(server_.Handle(AxpyGroupsRequest(groups, {empty, two}, 2))
                  .status()
                  .IsInvalidArgument());
  // A run longer than what is left of `count`.
  EXPECT_TRUE(server_.Handle(AxpyGroupsRequest(groups, {one, two}, 2))
                  .status()
                  .IsInvalidArgument());
  // A run naming a row outside the matrix.
  EXPECT_FALSE(server_.Handle(AxpyGroupsRequest(groups, {{0, {1, 4}}})).ok());
  for (uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(server_.Handle(PullRowRequest(r))->response, rows[r])
        << "row " << r;
  }
  // The same groups with a good tail apply and answer three dots.
  Result<PsServer::HandleResult> good =
      server_.Handle(AxpyGroupsRequest(groups, {two, one}));
  ASSERT_TRUE(good.ok()) << good.status();
  BufferReader reader(good->response);
  EXPECT_EQ(*reader.ReadVarint(), 3u);
  EXPECT_NE(server_.Handle(PullRowRequest(0))->response, rows[0]);
}

TEST_F(PsFuzzTest, CompressedFrameWithHugeRawLengthRejected) {
  // A compress-filtered frame claiming 2^50 decompressed bytes over an
  // empty blob must fail as a truncated stream, not allocate the claim.
  BufferWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  writer.WriteVarint(uint64_t{1} << 50);
  const std::vector<uint8_t> payload = writer.Release();
  EXPECT_FALSE(
      server_.Handle(RpcHeader{}, WireFrame{Slice(payload), kFilterCompress})
          .ok());
}

TEST_F(PsFuzzTest, CorruptedCheckpointRejectedWithoutCrash) {
  std::vector<uint8_t> image = server_.SerializeState();
  Rng rng(0xF0222);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = image;
    // Flip a few random bytes.
    for (int flips = 0; flips < 3; ++flips) {
      corrupted[rng.NextUint64(corrupted.size())] ^=
          static_cast<uint8_t>(1 + rng.NextUint64(255));
    }
    (void)server_.RestoreState(corrupted);  // may fail; must not crash
  }
  // A clean image must still restore.
  EXPECT_TRUE(server_.RestoreState(image).ok());
}

TEST_F(PsFuzzTest, CommitRejectsStagedRangeOfTheWrongShape) {
  // A sparse range extracted off another server, staged for this server's
  // dense matrix 0: the commit must refuse it rather than apply its sparse
  // rows as dense ones.
  MatrixMeta meta = MakeMeta(0, 128, 4);
  meta.storage = MatrixStorage::kSparse;
  meta.partitioner = *ColumnPartitioner::Make(128, 2);
  PsServer source(1, &udfs_);
  ASSERT_TRUE(source.CreateMatrixShard(meta).ok());
  BufferWriter extract;
  extract.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeExtract));
  extract.WriteVarint(0);
  extract.WriteVarint(64);
  extract.WriteVarint(128);
  Result<PsServer::HandleResult> payload = source.Handle(extract.Release());
  ASSERT_TRUE(payload.ok()) << payload.status();

  const std::vector<uint8_t> before = server_.SerializeState();
  BufferWriter migrate;
  migrate.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeMigrate));
  migrate.WriteVarint(1);  // epoch
  migrate.WriteVarint(0);  // matrix
  migrate.WriteBytes(Slice(payload->response));
  ASSERT_TRUE(server_.Handle(migrate.Release()).ok());
  server_.FenceForMigration();
  BufferWriter commit;
  commit.WriteU8(static_cast<uint8_t>(PsOpCode::kRoutingUpdate));
  commit.WriteVarint(1);  // epoch
  commit.WriteVarint(1);  // one entry: matrix 0 grows to [0, 128), dense
  commit.WriteVarint(0);
  commit.WriteVarint(0);
  commit.WriteVarint(128);
  commit.WriteVarint(128);
  commit.WriteVarint(4);
  commit.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
  EXPECT_TRUE(server_.Handle(commit.Release()).status().IsFailedPrecondition());
  EXPECT_EQ(server_.SerializeState(), before);
}

// ---- Structure-aware fuzzing of range images ------------------------------

/// Offsets into `bytes` of every count of the range image at `at`.
std::vector<size_t> RangeImageCounts(const std::vector<uint8_t>& bytes,
                                     size_t at) {
  BufferReader in(bytes.data() + at, bytes.size() - at);
  auto offset = [&] { return bytes.size() - in.remaining(); };
  const uint64_t begin = *in.ReadVarint();
  const uint64_t end = *in.ReadVarint();
  const bool dense =
      *in.ReadU8() == static_cast<uint8_t>(MatrixStorage::kDense);
  std::vector<size_t> counts{offset()};
  const uint64_t rows = *in.ReadVarint();
  for (uint64_t r = 0; r < rows; ++r) {
    if (dense) {
      EXPECT_TRUE(in.ReadBytes((end - begin) * sizeof(double)).ok());
      continue;
    }
    counts.push_back(offset());
    const uint64_t nnz = *in.ReadVarint();
    for (uint64_t i = 0; i < nnz; ++i) EXPECT_TRUE(in.ReadVarint().ok());
    EXPECT_TRUE(in.ReadBytes(nnz * sizeof(double)).ok());
  }
  return counts;
}

/// Every proper truncation of `bytes`, then `bytes` with each count at
/// `counts` set to n+1, n-1 and 2^40.
std::vector<std::vector<uint8_t>> Corruptions(
    const std::vector<uint8_t>& bytes, const std::vector<size_t>& counts) {
  std::vector<std::vector<uint8_t>> out;
  for (size_t len = 0; len < bytes.size(); ++len) {
    out.emplace_back(bytes.begin(), bytes.begin() + len);
  }
  for (size_t at : counts) {
    BufferReader reader(bytes.data() + at, bytes.size() - at);
    const uint64_t n = *reader.ReadVarint();
    const size_t width = bytes.size() - at - reader.remaining();
    for (uint64_t bad : {n + 1, n == 0 ? 1 : n - 1, uint64_t{1} << 40}) {
      BufferWriter w;
      w.WriteBytes(Slice(bytes.data(), at));
      w.WriteVarint(bad);
      w.WriteBytes(Slice(bytes.data() + at + width,
                         bytes.size() - at - width));
      out.push_back(w.Release());
    }
  }
  return out;
}

class RangeImageFuzzTest : public ::testing::Test {
 protected:
  RangeImageFuzzTest()
      : dense_(ZeroRangeImage(MatrixStorage::kDense, 2, 4, 8)),
        sparse_(ZeroRangeImage(MatrixStorage::kSparse, 2, 50, 100)) {
    for (uint32_t r = 0; r < 2; ++r) {
      for (uint64_t c = 0; c < 4; ++c) dense_.dense_rows[r][c] = 1.5 + r + c;
    }
    sparse_.sparse_rows[0] = {{52, 1.5}, {97, -2.0}};
    sparse_.sparse_rows[1] = {{60, 0.5}};
  }

  /// A server owning the lower half of dense matrix 0 ([0, 4) of 8) and of
  /// sparse matrix 1 ([0, 50) of 100), two rows each: the halves `dense_`
  /// and `sparse_` complete.
  std::unique_ptr<PsServer> HalfServer() {
    auto server = std::make_unique<PsServer>(0, &udfs_);
    for (const RangeImage* image : {&dense_, &sparse_}) {
      MatrixMeta meta = MakeMeta(image->dense() ? 0 : 1, image->end, 2);
      meta.storage = image->storage;
      meta.partitioner = *ColumnPartitioner::Make(image->end, 2);
      EXPECT_TRUE(server->CreateMatrixShard(meta).ok());
    }
    return server;
  }

  UdfRegistry udfs_;
  RangeImage dense_;
  RangeImage sparse_;
};

TEST_F(RangeImageFuzzTest, CorruptMigrationPayloadsNeverCommit) {
  for (const RangeImage* image : {&dense_, &sparse_}) {
    const int matrix = image->dense() ? 0 : 1;
    // kRangeMigrate: epoch, matrix, then the extract response verbatim —
    // the range image and the source's worker clocks.
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kRangeMigrate));
    w.WriteVarint(1);
    w.WriteVarint(static_cast<uint64_t>(matrix));
    const size_t at = w.size();
    WriteRangeImage(&w, *image, image->begin, image->end);
    const size_t clocks_at = w.size();
    for (uint64_t v : {2, 3, 1}) w.WriteVarint(v);
    const std::vector<uint8_t> request = w.Release();
    std::vector<size_t> counts = RangeImageCounts(request, at);
    counts.push_back(clocks_at);

    BufferWriter c;
    c.WriteU8(static_cast<uint8_t>(PsOpCode::kRoutingUpdate));
    c.WriteVarint(1);  // epoch
    c.WriteVarint(1);  // one entry: the matrix grows to all its columns
    c.WriteVarint(static_cast<uint64_t>(matrix));
    c.WriteVarint(0);
    c.WriteVarint(image->end);
    c.WriteVarint(image->end);
    c.WriteVarint(2);
    c.WriteU8(static_cast<uint8_t>(image->storage));
    const std::vector<uint8_t> commit = c.Release();

    {
      std::unique_ptr<PsServer> server = HalfServer();
      server->FenceForMigration();
      ASSERT_TRUE(server->Handle(request).ok());
      ASSERT_TRUE(server->Handle(commit).ok());
      // Matrix 0 holds 2 x 4 dense cells until it grows to 2 x 8.
      EXPECT_EQ(server->StoredValues(), image->dense() ? 2u * 8u : 8u + 3u);
    }
    for (const std::vector<uint8_t>& bad : Corruptions(request, counts)) {
      std::unique_ptr<PsServer> server = HalfServer();
      const std::vector<uint8_t> before = server->SerializeState();
      server->FenceForMigration();
      (void)server->Handle(bad);  // may stage or fail; the commit must fail
      EXPECT_FALSE(server->Handle(commit).ok())
          << "matrix " << matrix << ", request of " << bad.size() << " bytes";
      EXPECT_EQ(server->SerializeState(), before);
    }
  }
}

TEST_F(RangeImageFuzzTest, CorruptCheckpointImagesNeverRestore) {
  // A server image: both range images as shards, one replica with pending
  // deltas, an empty dedup table and two worker clocks.
  BufferWriter w;
  std::vector<size_t> counts{w.size()};
  w.WriteVarint(2);
  std::vector<size_t> images;
  for (const RangeImage* image : {&dense_, &sparse_}) {
    w.WriteVarint(image->dense() ? 0 : 1);
    images.push_back(w.size());
    WriteRangeImage(&w, *image, image->begin, image->end);
  }
  counts.push_back(w.size());
  w.WriteVarint(1);  // replicas
  // Matrix, row, dim, version.
  for (uint64_t v : {0, 1, 8, 2}) w.WriteVarint(v);
  counts.push_back(w.size());
  w.WritePodVector(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8});
  counts.push_back(w.size());
  WriteSparseEntries(&w, {{1, 0.5}, {6, -1.5}}, 0, 8);
  counts.push_back(w.size());
  w.WriteVarint(0);  // dedup clients
  counts.push_back(w.size());
  for (uint64_t v : {2, 3, 1}) w.WriteVarint(v);  // worker clocks
  const std::vector<uint8_t> image = w.Release();
  for (size_t at : images) {
    for (size_t count : RangeImageCounts(image, at)) counts.push_back(count);
  }

  {
    std::unique_ptr<PsServer> server = HalfServer();
    ASSERT_TRUE(server->RestoreState(image).ok());
    EXPECT_EQ(server->SerializeState(), image);
  }
  for (const std::vector<uint8_t>& bad : Corruptions(image, counts)) {
    std::unique_ptr<PsServer> server = HalfServer();
    const std::vector<uint8_t> before = server->SerializeState();
    EXPECT_FALSE(server->RestoreState(bad).ok())
        << "image of " << bad.size() << " bytes";
    EXPECT_EQ(server->SerializeState(), before);
  }
}

TEST_F(PsFuzzTest, SparseVectorDeserializeFuzz) {
  Rng rng(0xF0223);
  for (int trial = 0; trial < 5000; ++trial) {
    size_t len = rng.NextUint64(40);
    std::vector<uint8_t> buffer(len);
    for (auto& b : buffer) b = static_cast<uint8_t>(rng.Next());
    BufferReader reader(buffer);
    (void)SparseVector::Deserialize(&reader);  // must not crash
  }
}

}  // namespace
}  // namespace ps2
