// Online resharding end-to-end (DESIGN.md §12): parameter values must
// survive joins, leaves and rebalances exactly — including under injected
// message faults and server crashes on the migration's own control legs,
// which is what the migration-faults CI lane sweeps over seeds (the
// PS2_FAULT_SEED environment variable below).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/serde.h"
#include "membership/membership_manager.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"

namespace ps2 {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("PS2_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

std::vector<double> Pattern(uint64_t dim) {
  std::vector<double> v(dim);
  for (uint64_t i = 0; i < dim; ++i) {
    v[i] = 1.0 + 0.5 * static_cast<double>(i % 97);
  }
  return v;
}

void ExpectExactly(const std::vector<double>& got,
                   const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "column " << i;
  }
}

TEST(MigrationTest, ScaleOutPreservesEveryValue) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(client.PushDense(row, want).ok());

  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    ExpectExactly(*client.PullDense(row), want);
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  EXPECT_EQ(master.num_active_servers(), 8);
  EXPECT_GT(cluster.metrics().Get("migrate.moves"), 0u);
  EXPECT_GT(cluster.metrics().Get("migrate.bytes"), 0u);
  // The fleet is exhausted: no spare slot is left to claim.
  EXPECT_TRUE(master.AddServer().status().IsFailedPrecondition());
}

TEST(MigrationTest, ScaleInPreservesValuesAndRetiresTheSlot) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  spec.max_servers = 4;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 2048;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(client.PushDense(row, want).ok());

  ASSERT_TRUE(master.RemoveServer(1).ok());
  EXPECT_FALSE(master.is_server_active(1));
  ExpectExactly(*client.PullDense(row), want);

  // The slot is retired, not merely inactive.
  EXPECT_TRUE(master.RemoveServer(1).IsInvalidArgument());
  EXPECT_TRUE(master.AddServer().status().IsFailedPrecondition());

  ASSERT_TRUE(master.RemoveServer(3).ok());
  ASSERT_TRUE(master.RemoveServer(0).ok());
  ExpectExactly(*client.PullDense(row), want);
  // One server must always remain.
  EXPECT_TRUE(master.RemoveServer(2).IsFailedPrecondition());
  EXPECT_EQ(master.num_active_servers(), 1);
}

TEST(MigrationTest, RebalanceShedsEdgePartitionOffBusiestServer) {
  ClusterSpec spec;
  spec.num_workers = 2;
  spec.num_servers = 2;
  spec.max_servers = 8;  // 8 fixed partitions, 4 per active server
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(client.PushDense(row, want).ok());

  const std::vector<int> before =
      master.GetMeta(row.matrix_id)->partitioner.assignment();
  const int busiest = before.front();
  // Hammer only the columns of the first partition: all of that traffic
  // lands on `busiest`, so its busy-time delta dominates the window.
  std::vector<uint64_t> hot(mo.dim / 8);
  for (uint64_t i = 0; i < hot.size(); ++i) hot[i] = i;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(client.PullSparse(row, hot).ok());
  }

  Result<bool> moved = master.RebalanceOnce(/*min_skew=*/1.25);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_TRUE(*moved);
  const std::vector<int> after =
      master.GetMeta(row.matrix_id)->partitioner.assignment();
  int owned_before = 0, owned_after = 0;
  for (size_t p = 0; p < before.size(); ++p) {
    owned_before += before[p] == busiest ? 1 : 0;
    owned_after += after[p] == busiest ? 1 : 0;
  }
  EXPECT_EQ(owned_after, owned_before - 1);
  EXPECT_EQ(cluster.metrics().Get("migrate.rebalances"), 1u);
  ExpectExactly(*client.PullDense(row), want);
}

TEST(MigrationTest, ScaleOutUnderMessageFaultsStaysExact) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  spec.message_failure_prob = 0.05;
  spec.seed = FaultSeed();
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(client.PushDense(row, want).ok());

  // Interleave mutating traffic with every join: lost requests must retry,
  // lost responses must dedup, and the migration's own extract / install /
  // commit legs ride the same machinery.
  const std::vector<double> ones(mo.dim, 1.0);
  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    for (int k = 0; k < 8; ++k) {
      ASSERT_TRUE(client.PushDense(row, ones).ok());
      for (uint64_t i = 0; i < mo.dim; ++i) want[i] += 1.0;
      ExpectExactly(*client.PullDense(row), want);
    }
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  EXPECT_GT(cluster.metrics().Get("net.retries"), 0u);
}

TEST(MigrationTest, ScaleOutUnderCrashFaultsStaysExact) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 8;
  spec.server_crash_prob = 0.02;
  spec.seed = FaultSeed();
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  // Seeding itself can be torn by an injected crash: per-partition pushes
  // that were acked before the crash are rolled back to the (empty)
  // checkpoint and never retried. Patch the difference until the state
  // converges, then checkpoint — from here on a crash restores exactly
  // `want`, and every committed migration re-checkpoints.
  for (;;) {
    std::vector<double> got = *client.PullDense(row);
    std::vector<double> patch(mo.dim);
    bool dirty = false;
    for (uint64_t i = 0; i < mo.dim; ++i) {
      patch[i] = want[i] - got[i];
      dirty = dirty || patch[i] != 0.0;
    }
    if (!dirty) break;
    ASSERT_TRUE(client.PushDense(row, patch).ok());
  }
  ASSERT_TRUE(master.CheckpointAll().ok());

  while (master.num_active_servers() < 8) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    for (int k = 0; k < 16; ++k) {
      ExpectExactly(*client.PullDense(row), want);
    }
  }
  EXPECT_EQ(master.routing_epoch(), 6u);
  for (int s = 0; s < master.num_servers(); ++s) {
    EXPECT_FALSE(master.server(s)->crashed()) << "server " << s;
  }
}

TEST(MigrationTest, KillAndRecoverBetweenJoinsRestoresNewBounds) {
  // A migration ends with CheckpointAll, so fresh images carry the new
  // shard bounds: killing either the joined server or an original one right
  // after a join must restore straight into the new routing table.
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 2;
  spec.max_servers = 6;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const RowRef row{*master.CreateMatrix(mo), 0};
  const std::vector<double> want = Pattern(mo.dim);
  ASSERT_TRUE(client.PushDense(row, want).ok());

  while (master.num_active_servers() < 6) {
    Result<int> added = master.AddServer();
    ASSERT_TRUE(added.ok()) << added.status();
    ASSERT_TRUE(master.KillAndRecoverServer(*added).ok());
    ASSERT_TRUE(master.KillAndRecoverServer(0).ok());
    ExpectExactly(*client.PullDense(row), want);
  }
  EXPECT_EQ(master.routing_epoch(), 4u);
  EXPECT_GT(cluster.metrics().Get("ps.server_failures"), 0u);
}

TEST(MigrationTest, AppliedFusedAxpyDotReaimsItsDotsToTheNewOwner) {
  // A fused axpy+dot request ran on the old owner but its response was
  // lost, then the range moved. The old owner's `(applied)` rejection must
  // not re-apply the axpys anywhere, and the dots must still be answered —
  // by the new owner, as a plain kDotBatch.
  ClusterSpec spec;
  spec.num_workers = 1;
  spec.num_servers = 2;
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient setup(&master);
  auto key_matrix = [&master] {
    MatrixOptions mo;
    mo.dim = 8;
    mo.reserve_rows = 2;
    mo.home_server = 0;
    Result<int> id = master.CreateMatrix(mo);
    EXPECT_TRUE(id.ok()) << id.status();
    return *id;
  };
  const int id = key_matrix();
  const int ref_id = key_matrix();  // takes the axpys exactly once
  for (int m : {id, ref_id}) {
    ASSERT_TRUE(setup.PushDense({m, 0}, Pattern(8)).ok());
    ASSERT_TRUE(setup.PushDense({m, 1}, std::vector<double>(8, -0.25)).ok());
  }
  const double alpha = 0.125;
  const RowRef u{id, 0}, v{id, 1};
  const RowRef ref_u{ref_id, 0}, ref_v{ref_id, 1};
  const std::vector<PsClient::AxpyTask> once = {{ref_u, ref_v, alpha},
                                                {ref_v, ref_u, alpha}};
  ASSERT_TRUE(setup.AxpyBatchAsync(once).Wait().ok());

  // The lost first attempt, encoded as the client encodes it: one
  // mirrored group, then the dot runs (u, u), (u, v).
  PsClient client(&master);  // fresh, so its first request to server 0 is seq 1
  BufferWriter fused;
  fused.WriteU8(static_cast<uint8_t>(PsOpCode::kAxpyBatch));
  fused.WriteVarint(1);
  fused.WriteVarint(id);
  fused.WriteVarint(0);
  fused.WriteVarint(1 << 1 | 1);
  fused.WriteVarint(id);
  fused.WriteVarint(1);
  fused.WriteF64(alpha);
  fused.WriteVarint(2);
  fused.WriteVarint(id);
  fused.WriteVarint(0);
  fused.WriteVarint(2);
  for (uint32_t row : {0, 1}) {
    fused.WriteVarint(id);
    fused.WriteVarint(row);
  }
  Result<MatrixMeta> meta = master.GetMeta(id);
  ASSERT_TRUE(meta.ok());
  RpcHeader first;
  first.client_id = client.client_id();
  first.seq = 1;
  first.routing_epoch = meta->routing_epoch + 1;
  ASSERT_TRUE(master.server(0)->Handle(first, fused.buffer()).ok());

  // Fenced before the client plans, so its request meets the old owner's
  // `(applied)` rejection whether it lands before or after the commit.
  master.server(0)->FenceForMigration();
  Result<std::vector<double>> dots = Status::Internal("not issued");
  std::atomic<bool> done{false};
  std::thread issuer([&] {
    dots = client.AxpyDotBatchAsync({{u, v, alpha}, {v, u, alpha}},
                                    {{u, u}, {u, v}})
               .Get();
    done = true;
  });
  while (client.async_stats().issued == 0 && !done) {
    std::this_thread::yield();
  }
  Result<MigrationStats> moved =
      master.membership()->RelocateMatrices({{id, 1}});
  issuer.join();
  ASSERT_TRUE(moved.ok()) << moved.status();
  ASSERT_TRUE(dots.ok()) << dots.status();
  EXPECT_EQ(master.GetMeta(id)->partitioner.ServerOfPartition(0), 1);
  EXPECT_GT(cluster.metrics().Get("net.routing_refetches"), 0u);

  // The axpys applied once ...
  const std::pair<RowRef, RowRef> checks[] = {{u, ref_u}, {v, ref_v}};
  for (const auto& [row, ref] : checks) {
    std::vector<double> got = *setup.PullDense(row);
    std::vector<double> want = *setup.PullDense(ref);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "row " << row.row;
  }
  // ... and the dots are the new owner's answer on the post-axpy state.
  std::vector<double> fresh = *setup.DotBatchAsync({{u, u}, {u, v}}).Get();
  ASSERT_EQ(dots->size(), fresh.size());
  EXPECT_EQ(std::memcmp(dots->data(), fresh.data(),
                        fresh.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace ps2
