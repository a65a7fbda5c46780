// Message-level fault tolerance (DESIGN.md §6): the per-client dedup table
// on the servers, the client's bounded retry loop with virtual-time backoff,
// crash recovery from inside the retry loop, and the unified ExchangeAll
// error semantics across both fan-out modes.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/serde.h"
#include "dataflow/cluster.h"
#include "ps/partitioner.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"

namespace ps2 {
namespace {

// ---- Server-side dedup table ----------------------------------------------

MatrixMeta MakeMeta(int id, uint64_t dim, uint32_t rows, int servers) {
  MatrixMeta meta;
  meta.id = id;
  meta.name = "m";
  meta.dim = dim;
  meta.num_rows = rows;
  meta.storage = MatrixStorage::kDense;
  meta.partitioner = *ColumnPartitioner::Make(dim, servers);
  return meta;
}

class DedupTest : public ::testing::Test {
 protected:
  DedupTest() : server_(0, &udfs_) {
    EXPECT_TRUE(server_.CreateMatrixShard(MakeMeta(0, 8, 2, 1)).ok());
  }

  static std::vector<uint8_t> PushRequest(uint64_t col, double value) {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparse));
    w.WriteU8(0);      // f64 values
    w.WriteVarint(1);  // one row
    w.WriteVarint(0);  // matrix
    w.WriteVarint(0);  // row
    w.WriteVarint(1);  // nnz
    w.WriteVarint(col);
    w.WriteF64(value);
    return w.buffer();
  }

  static std::vector<uint8_t> PullRequest() {
    BufferWriter w;
    w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
    w.WriteVarint(0);  // window [0, 8)
    w.WriteVarint(8);
    w.WriteVarint(1);  // one row: (0, 0)
    w.WriteVarint(0);
    w.WriteVarint(0);
    return w.buffer();
  }

  double ValueAt(uint64_t col) {
    Result<PsServer::HandleResult> r = server_.Handle(PullRequest());
    EXPECT_TRUE(r.ok()) << r.status();
    BufferReader in(r->response);
    EXPECT_EQ(*in.ReadVarint(), 1u);  // row count
    uint64_t n = *in.ReadVarint();
    return (*in.ReadF64Span(n))[col];
  }

  static RpcHeader Header(int client, uint64_t seq, uint32_t attempt = 1) {
    RpcHeader h;
    h.client_id = client;
    h.seq = seq;
    h.attempt = attempt;
    return h;
  }

  UdfRegistry udfs_;
  PsServer server_;
};

TEST_F(DedupTest, RetriedMutationAppliesExactlyOnce) {
  const std::vector<uint8_t> push = PushRequest(3, 5.0);
  Result<PsServer::HandleResult> first = server_.Handle(Header(7, 1), push);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->dedup_hit);
  // The retry of the same (client, seq) — e.g. after a lost response — is
  // acked without re-applying.
  Result<PsServer::HandleResult> retry = server_.Handle(Header(7, 1, 2), push);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(3), 5.0);
  EXPECT_EQ(server_.dedup_hits(), 1u);
}

TEST_F(DedupTest, DistinctSeqsAndDistinctClientsAreNotDeduped) {
  const std::vector<uint8_t> push = PushRequest(3, 5.0);
  ASSERT_TRUE(server_.Handle(Header(7, 1), push).ok());
  ASSERT_TRUE(server_.Handle(Header(7, 2), push).ok());  // new seq: applies
  ASSERT_TRUE(server_.Handle(Header(8, 1), push).ok());  // other client
  EXPECT_DOUBLE_EQ(ValueAt(3), 15.0);
  EXPECT_EQ(server_.dedup_hits(), 0u);
}

TEST_F(DedupTest, ReadsAreNeverDeduplicated) {
  // Re-executing a pull is harmless, and answering a retried pull from a
  // dedup table would require caching responses — so reads always
  // re-execute, while their seqs still advance the contiguous floor.
  ASSERT_TRUE(server_.Handle(Header(7, 1), PushRequest(0, 1.0)).ok());
  Result<PsServer::HandleResult> pull1 = server_.Handle(Header(7, 2), PullRequest());
  Result<PsServer::HandleResult> pull2 =
      server_.Handle(Header(7, 2, 2), PullRequest());
  ASSERT_TRUE(pull1.ok());
  ASSERT_TRUE(pull2.ok());
  EXPECT_FALSE(pull2->dedup_hit);
  EXPECT_EQ(pull1->response, pull2->response);
  // The floor advanced through the pull's seq: a mutation reusing seq 2
  // would be recognized as a duplicate.
  Result<PsServer::HandleResult> stale =
      server_.Handle(Header(7, 2, 3), PushRequest(5, 9.0));
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(5), 0.0);
}

TEST_F(DedupTest, UntrackedRequestsBypassDedup) {
  const std::vector<uint8_t> push = PushRequest(2, 1.0);
  ASSERT_TRUE(server_.Handle(push).ok());  // legacy 1-arg entry point
  ASSERT_TRUE(server_.Handle(RpcHeader{}, push).ok());
  EXPECT_DOUBLE_EQ(ValueAt(2), 2.0);
  EXPECT_EQ(server_.dedup_hits(), 0u);
}

TEST_F(DedupTest, OutOfOrderSeqsDedupViaSeenSetUntilGapFills) {
  // Async window: seq 3 can arrive before seq 2.
  ASSERT_TRUE(server_.Handle(Header(7, 1), PushRequest(0, 1.0)).ok());
  ASSERT_TRUE(server_.Handle(Header(7, 3), PushRequest(0, 1.0)).ok());
  Result<PsServer::HandleResult> dup =
      server_.Handle(Header(7, 3, 2), PushRequest(0, 1.0));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->dedup_hit);  // seq 3 sits in `seen` while seq 2 is open
  ASSERT_TRUE(server_.Handle(Header(7, 2), PushRequest(0, 1.0)).ok());
  // Gap filled: floor is now 3, and everything at or below it stays duped.
  Result<PsServer::HandleResult> old =
      server_.Handle(Header(7, 2, 2), PushRequest(0, 1.0));
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(0), 3.0);
}

TEST_F(DedupTest, DedupTableSurvivesCheckpointRestore) {
  ASSERT_TRUE(server_.Handle(Header(7, 1), PushRequest(1, 4.0)).ok());
  std::vector<uint8_t> image = server_.SerializeState();

  PsServer restored(0, &udfs_);
  ASSERT_TRUE(restored.CreateMatrixShard(MakeMeta(0, 8, 2, 1)).ok());
  ASSERT_TRUE(restored.RestoreState(image).ok());
  // Crash-consistency: a retry racing the crash must not double-apply on
  // the restored server.
  Result<PsServer::HandleResult> retry =
      restored.Handle(Header(7, 1, 2), PushRequest(1, 4.0));
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->dedup_hit);
  EXPECT_EQ(restored.dedup_hits(), 1u);
}

TEST_F(DedupTest, DropAllStateClearsDedupWithTheStateItGuards) {
  ASSERT_TRUE(server_.Handle(Header(7, 1), PushRequest(1, 4.0)).ok());
  server_.DropAllState();
  // The push's effect was dropped, so its seq must be forgotten too — the
  // retry re-applies cleanly instead of being suppressed against zeroes.
  Result<PsServer::HandleResult> retry =
      server_.Handle(Header(7, 1, 2), PushRequest(1, 4.0));
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry->dedup_hit);
  EXPECT_DOUBLE_EQ(ValueAt(1), 4.0);
}

TEST_F(DedupTest, CrashedServerRejectsUntilRevived) {
  EXPECT_FALSE(server_.crashed());
  server_.Crash();
  EXPECT_TRUE(server_.crashed());
  EXPECT_TRUE(server_.Handle(PullRequest()).status().IsUnavailable());
  EXPECT_TRUE(
      server_.Handle(Header(7, 1), PushRequest(0, 1.0)).status().IsUnavailable());
  server_.Revive();
  EXPECT_FALSE(server_.crashed());
  EXPECT_TRUE(server_.Handle(PullRequest()).ok());
}

/// Untracked kPushDense setting both rows of the fixture's matrix (whose
/// rows start at zero) to `row0` and `row1`.
std::vector<uint8_t> FillRequest(const std::vector<double>& row0,
                                 const std::vector<double>& row1) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
  w.WriteVarint(0);  // window from column 0
  w.WriteVarint(2);
  for (uint32_t r = 0; r < 2; ++r) {
    const std::vector<double>& values = r == 0 ? row0 : row1;
    w.WriteVarint(0);
    w.WriteVarint(r);
    w.WriteVarint(values.size());
    w.WriteF64Span(values.data(), values.size());
  }
  return w.Release();
}

/// The kDotBatch body over pairs (0,0), (0,1), (1,1): runs of row 0 and 1.
void WriteDotRuns(BufferWriter* w) {
  w->WriteVarint(3);
  for (uint32_t a : {0, 1}) {
    w->WriteVarint(0);
    w->WriteVarint(a);
    w->WriteVarint(2 - a);
    for (uint32_t b = a; b < 2; ++b) {
      w->WriteVarint(0);
      w->WriteVarint(b);
    }
  }
}

/// The mirrored update `row 0 += 0.5·row 1; row 1 += 0.5·row 0` as a
/// kAxpyBatch, with WriteDotRuns as its dot tail when `dots`.
std::vector<uint8_t> FusedRequest(bool dots) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
  w.WriteVarint(1);  // one group: anchor (0, 0), one mirrored entry
  w.WriteVarint(0);
  w.WriteVarint(0);
  w.WriteVarint(1 << 1 | 1);
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteF64(0.5);
  if (dots) {
    WriteDotRuns(&w);
  } else {
    w.WriteVarint(0);
  }
  return w.Release();
}

/// The dot tail of FusedRequest as a plain kDotBatch.
std::vector<uint8_t> DotRequest() {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kDotBatch));
  WriteDotRuns(&w);
  return w.Release();
}

/// Both rows of the fixture's matrix, as the pull response bytes.
std::vector<uint8_t> PullBoth(PsServer* server) {
  BufferWriter w;
  w.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
  w.WriteVarint(0);
  w.WriteVarint(8);
  w.WriteVarint(2);
  for (uint32_t r = 0; r < 2; ++r) {
    w.WriteVarint(0);
    w.WriteVarint(r);
  }
  return server->Handle(w.buffer())->response;
}

TEST_F(DedupTest, ReplayedFusedAxpyDotAppliesOnceAndRecomputesDots) {
  const std::vector<double> row0 = {1, -2, 0.25, 3, 0.5, -1, 2, 7};
  const std::vector<double> row1 = {0.5, 1, -3, 0.125, 4, 2, -0.75, 1};
  ASSERT_TRUE(server_.Handle(FillRequest(row0, row1)).ok());
  // The reference applies the groups exactly once, without dots.
  PsServer once(0, &udfs_);
  ASSERT_TRUE(once.CreateMatrixShard(MakeMeta(0, 8, 2, 1)).ok());
  ASSERT_TRUE(once.Handle(FillRequest(row0, row1)).ok());
  ASSERT_TRUE(once.Handle(FusedRequest(/*dots=*/false)).ok());

  const std::vector<uint8_t> fused = FusedRequest(/*dots=*/true);
  // The first attempt applies, but its response is lost; the retry of the
  // same (client, seq) is a dedup hit.
  Result<PsServer::HandleResult> first = server_.Handle(Header(7, 1), fused);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<PsServer::HandleResult> retry =
      server_.Handle(Header(7, 1, 2), fused);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(retry->dedup_hit);
  EXPECT_EQ(server_.dedup_hits(), 1u);
  EXPECT_EQ(PullBoth(&server_), PullBoth(&once));
  // The replay answers the dot tail from the post-axpy state, bit for bit
  // what a fresh kDotBatch returns.
  Result<PsServer::HandleResult> fresh = server_.Handle(DotRequest());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(retry->response, fresh->response);
  EXPECT_EQ(first->response, fresh->response);
  BufferReader in(retry->response);
  EXPECT_EQ(*in.ReadVarint(), 3u);
}

// ---- Client retry loop ----------------------------------------------------

struct Fixture {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<PsMaster> master;
  std::unique_ptr<PsClient> client;
  RowRef weight;

  explicit Fixture(ClusterSpec spec, PsClientOptions options = {},
                   uint64_t dim = 60) {
    cluster = std::make_unique<Cluster>(spec);
    master = std::make_unique<PsMaster>(cluster.get());
    client = std::make_unique<PsClient>(master.get(), options);
    MatrixOptions m;
    m.dim = dim;
    m.reserve_rows = 2;
    weight = RowRef{*master->CreateMatrix(m), 0};
  }
};

TEST(PsRetryTest, PushesApplyExactlyOnceUnderMessageFaults) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 3;
  spec.message_failure_prob = 0.1;
  spec.seed = 17;
  Fixture f(spec);

  const int n = 50;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(f.client->PushDense(f.weight, std::vector<double>(60, 1.0)).ok());
  }
  // Exactly-once despite lost requests (retried) and lost responses
  // (applied, retried, deduplicated).
  std::vector<double> pulled = *f.client->PullDense(f.weight);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, static_cast<double>(n));

  EXPECT_GT(f.cluster->metrics().Get("net.retries"), 0u);
  EXPECT_GT(f.cluster->metrics().Get("net.retry_backoff_time"), 0u);
  EXPECT_GT(f.cluster->metrics().Get("ps.dedup_hits"), 0u);
  EXPECT_EQ(f.cluster->metrics().Get("ps.dedup_hits"),
            f.master->TotalDedupHits());
}

TEST(PsRetryTest, FaultedRunIsDeterministicForFixedSeed) {
  auto run = [] {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    spec.message_failure_prob = 0.08;
    spec.seed = 23;
    Fixture f(spec);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          f.client->PushDense(f.weight, std::vector<double>(60, 0.25)).ok());
    }
    std::vector<double> params = *f.client->PullDense(f.weight);
    return std::make_tuple(params, f.cluster->clock().Now(),
                           f.cluster->metrics().Get("net.retries"),
                           f.cluster->metrics().Get("net.retry_backoff_time"));
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // bit-equal parameters
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));  // identical virtual time
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_GT(std::get<2>(a), 0u);
}

TEST(PsRetryTest, FaultedRunReachesBitEqualParametersWithBoundedOverhead) {
  // The §6 contract: for a fixed seed, a run with message faults lands on
  // the SAME parameters as the fault-free run — faults only cost time.
  auto run = [](double p) {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    spec.message_failure_prob = p;
    spec.seed = 31;
    Fixture f(spec);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          f.client->PushDense(f.weight, std::vector<double>(60, 0.5)).ok());
      EXPECT_TRUE(f.client->PullDense(f.weight).ok());
    }
    return std::make_pair(*f.client->PullDense(f.weight),
                          f.cluster->clock().Now());
  };
  auto clean = run(0.0);
  auto faulted = run(0.05);
  EXPECT_EQ(clean.first, faulted.first);      // bit-equal parameters
  EXPECT_GT(faulted.second, clean.second);    // retries cost virtual time
  EXPECT_LT(faulted.second, clean.second * 3);  // ... but bounded
}

TEST(PsRetryTest, FusedAxpyDotBatchesUnderMessageFaultsMatchFaultFreeRun) {
  // Lost requests and lost responses on fused kAxpyBatch requests: every
  // axpy applies exactly once and every replayed dot tail is recomputed
  // from the post-axpy state, so the faulted run returns the fault-free
  // run's dots and rows bit for bit.
  auto run = [](double p) {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    spec.message_failure_prob = p;
    spec.seed = 29;
    Fixture f(spec);
    const RowRef u = f.weight;
    const RowRef v{u.matrix_id, 1};
    std::vector<double> init(60);
    for (size_t i = 0; i < init.size(); ++i) init[i] = 0.01 * (i % 7) - 0.02;
    EXPECT_TRUE(f.client->PushDense(u, init).ok());
    EXPECT_TRUE(f.client->PushDense(v, std::vector<double>(60, 0.25)).ok());
    std::vector<double> dots;
    for (int i = 0; i < 60; ++i) {
      const double alpha = 0.05 * (i % 5 - 2);
      Result<std::vector<double>> r =
          f.client
              ->AxpyDotBatchAsync({{u, v, alpha}, {v, u, alpha}},
                                  {{u, u}, {u, v}, {v, v}})
              .Get();
      EXPECT_TRUE(r.ok()) << r.status();
      if (r.ok()) dots.insert(dots.end(), r->begin(), r->end());
    }
    std::vector<double> rows = *f.client->PullDense(u);
    std::vector<double> row_v = *f.client->PullDense(v);
    rows.insert(rows.end(), row_v.begin(), row_v.end());
    return std::make_tuple(dots, rows,
                           f.cluster->metrics().Get("ps.dedup_hits"));
  };
  const auto [clean_dots, clean_rows, clean_hits] = run(0.0);
  const auto [dots, rows, hits] = run(0.1);
  EXPECT_EQ(clean_hits, 0u);
  EXPECT_GT(hits, 0u);
  ASSERT_EQ(dots.size(), clean_dots.size());
  EXPECT_EQ(std::memcmp(dots.data(), clean_dots.data(),
                        dots.size() * sizeof(double)),
            0);
  ASSERT_EQ(rows.size(), clean_rows.size());
  EXPECT_EQ(std::memcmp(rows.data(), clean_rows.data(),
                        rows.size() * sizeof(double)),
            0);
}

TEST(PsRetryTest, AttemptsAreBoundedWhenServerStaysDown) {
  ClusterSpec spec;
  spec.num_workers = 1;
  spec.num_servers = 1;
  PsClientOptions options;
  options.max_attempts = 3;
  options.recover_crashed_servers = false;
  Fixture f(spec, options);

  f.master->server(0)->Crash();
  Status status = f.client->PushDense(f.weight, std::vector<double>(60, 1.0));
  EXPECT_TRUE(status.IsUnavailable()) << status;
  // max_attempts = 3 -> exactly 2 retries, each charging backoff.
  EXPECT_EQ(f.cluster->metrics().Get("net.retries"), 2u);
  EXPECT_GT(f.cluster->metrics().Get("net.retry_backoff_time"), 0u);
}

TEST(PsRetryTest, RetryLoopRecoversCrashedServerFromCheckpoint) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 3;
  Fixture f(spec);

  ASSERT_TRUE(f.client->PushDense(f.weight, std::vector<double>(60, 5.0)).ok());
  ASSERT_TRUE(f.master->CheckpointAll().ok());
  f.master->server(1)->Crash();

  // The push hits the dead server, recovers it from the checkpoint inside
  // the retry loop, and retries — transparently to the caller.
  ASSERT_TRUE(f.client->PushDense(f.weight, std::vector<double>(60, 1.0)).ok());
  EXPECT_FALSE(f.master->server(1)->crashed());
  EXPECT_EQ(f.cluster->metrics().Get("ps.server_failures"), 1u);

  std::vector<double> pulled = *f.client->PullDense(f.weight);
  for (double v : pulled) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(PsRetryTest, ExchangeAllSemanticsIdenticalAcrossFanoutModes) {
  // Regression: the serial branch used to stop at the first failure while
  // the parallel branch executed everything — the same failing stage left
  // DIFFERENT server state depending on a performance flag. Both branches
  // now execute all requests and report the first error in partition order.
  auto run = [](bool parallel) {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    PsClientOptions options;
    options.parallel_fanout = parallel;
    options.max_attempts = 2;
    options.recover_crashed_servers = false;
    Fixture f(spec, options);

    f.master->server(1)->Crash();  // the middle partition fails
    Status status = f.client->PushDense(f.weight, std::vector<double>(60, 2.0));
    EXPECT_TRUE(status.IsUnavailable()) << status;

    std::vector<std::vector<uint8_t>> images;
    for (int s = 0; s < f.master->num_servers(); ++s) {
      images.push_back(f.master->server(s)->SerializeState());
    }
    return images;
  };
  std::vector<std::vector<uint8_t>> serial = run(false);
  std::vector<std::vector<uint8_t>> parallel = run(true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s], parallel[s]) << "server " << s << " state diverged";
  }
}

}  // namespace
}  // namespace ps2
