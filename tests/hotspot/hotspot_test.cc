// Hot-parameter management (DESIGN.md §5d): designation from access
// statistics, server-side replication + sync semantics, the client-side
// bounded-staleness cache, and checkpoint/recovery of replica state.

#include "hotspot/hotspot_manager.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/serde.h"
#include "dcv/dcv_context.h"
#include "hotspot/client_cache.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"

namespace ps2 {
namespace {

class HotspotTest : public ::testing::Test {
 protected:
  HotspotTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  PsMaster* master() { return ctx_->master(); }
  HotspotManager* hotspot() { return ctx_->master()->hotspot(); }

  /// True on every server.
  bool ReplicatedEverywhere(RowRef ref) {
    for (int s = 0; s < master()->num_servers(); ++s) {
      if (!master()->server(s)->HasReplica(ref)) return false;
    }
    return true;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(HotspotTest, EnableRejectsBadOptions) {
  HotspotOptions bad;
  bad.top_k = 0;
  EXPECT_TRUE(hotspot()->Enable(bad).IsInvalidArgument());
  bad = HotspotOptions{};
  bad.sync_every = 0;
  EXPECT_TRUE(hotspot()->Enable(bad).IsInvalidArgument());
}

TEST_F(HotspotTest, TickIsNoOpWhileDisabled) {
  EXPECT_FALSE(hotspot()->enabled());
  ASSERT_TRUE(hotspot()->Tick().ok());
  EXPECT_TRUE(hotspot()->HotSet().empty());
}

TEST_F(HotspotTest, SkewedPullsDesignateHotRow) {
  Dcv hot = *ctx_->Dense(60, 2, 1, 0, "hot");
  Dcv cold = *ctx_->Derive(hot);
  ASSERT_TRUE(hot.Fill(1.0).ok());
  ASSERT_TRUE(cold.Fill(2.0).ok());

  HotspotOptions options;
  options.enabled = true;
  options.top_k = 1;
  options.min_pull_count = 10;
  options.refresh_every = 1;
  ASSERT_TRUE(hotspot()->Enable(options).ok());

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(hot.Pull().ok());
  ASSERT_TRUE(cold.Pull().ok());
  ASSERT_TRUE(hotspot()->Tick().ok());

  EXPECT_TRUE(hotspot()->IsReplicated(hot.ref()));
  EXPECT_FALSE(hotspot()->IsReplicated(cold.ref()));
  EXPECT_TRUE(ReplicatedEverywhere(hot.ref()));
  EXPECT_EQ(cluster_->metrics().Get("hotspot.hot_rows"), 1u);
  EXPECT_GE(cluster_->metrics().Get("hotspot.refreshes"), 1u);
}

TEST_F(HotspotTest, PushOnlyRowsAreNeverDesignated) {
  Dcv pulled = *ctx_->Dense(40, 2, 1, 0, "pulled");
  Dcv gradient = *ctx_->Derive(pulled);

  HotspotOptions options;
  options.enabled = true;
  options.top_k = 4;
  options.min_pull_count = 5;
  options.refresh_every = 1;
  ASSERT_TRUE(hotspot()->Enable(options).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pulled.Pull().ok());
    ASSERT_TRUE(gradient.Push(std::vector<double>(40, 1.0)).ok());
  }
  ASSERT_TRUE(hotspot()->Tick().ok());
  EXPECT_TRUE(hotspot()->IsReplicated(pulled.ref()));
  EXPECT_FALSE(hotspot()->IsReplicated(gradient.ref()));
}

TEST_F(HotspotTest, ReplicateNowInstallsFullRowEverywhere) {
  Dcv v = *ctx_->Dense(50);
  std::vector<double> values(50);
  for (size_t i = 0; i < 50; ++i) values[i] = static_cast<double>(i);
  ASSERT_TRUE(v.Push(values).ok());

  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());
  ASSERT_TRUE(ReplicatedEverywhere(v.ref()));
  for (int s = 0; s < master()->num_servers(); ++s) {
    PsServer::ReplicaSnapshot snap = *master()->server(s)->DebugReplica(v.ref());
    EXPECT_EQ(snap.values, values);  // the FULL row, not just a slice
    EXPECT_GT(snap.version, 0u);
    EXPECT_TRUE(snap.pending.empty());
  }
}

TEST_F(HotspotTest, ReplicateNowRejectsSparseStorage) {
  Dcv v = *ctx_->Sparse(1000);
  EXPECT_TRUE(hotspot()->ReplicateNow({v.ref()}).IsFailedPrecondition());
}

TEST_F(HotspotTest, HotPushAccumulatesPendingUntilSync) {
  Dcv v = *ctx_->Dense(30);
  ASSERT_TRUE(v.Push(std::vector<double>(30, 1.0)).ok());
  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());

  // Hot push routes to one home server's pending map, not the primaries.
  ASSERT_TRUE(v.Add(SparseVector({3, 17}, {2.0, 5.0})).ok());
  int servers_with_pending = 0;
  for (int s = 0; s < master()->num_servers(); ++s) {
    PsServer::ReplicaSnapshot snap = *master()->server(s)->DebugReplica(v.ref());
    if (!snap.pending.empty()) {
      ++servers_with_pending;
      EXPECT_DOUBLE_EQ(snap.pending.at(3), 2.0);
      EXPECT_DOUBLE_EQ(snap.pending.at(17), 5.0);
    }
  }
  EXPECT_EQ(servers_with_pending, 1);

  // Until the sync, cached pulls serve the pre-push values (bounded
  // staleness); after it, the delta is visible and pendings are drained.
  EXPECT_DOUBLE_EQ((*v.PullSparse({3}))[0], 1.0);
  ASSERT_TRUE(hotspot()->SyncNow().ok());
  EXPECT_DOUBLE_EQ((*v.PullSparse({3}))[0], 3.0);
  EXPECT_DOUBLE_EQ((*v.PullSparse({17}))[0], 6.0);
  for (int s = 0; s < master()->num_servers(); ++s) {
    EXPECT_TRUE(master()->server(s)->DebugReplica(v.ref())->pending.empty());
  }
}

TEST_F(HotspotTest, CachedPullsAreLocalAndChargedAsLocalHits) {
  Dcv v = *ctx_->Dense(64);
  std::vector<double> values(64, 4.0);
  ASSERT_TRUE(v.Push(values).ok());
  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());

  cluster_->metrics().Reset();
  cluster_->RunStage("pull", 8, [&](TaskContext&) {
    std::vector<double> pulled = *v.Pull();
    PS2_CHECK(pulled == values);
    PS2_CHECK(std::abs((*v.PullSparse({10, 20}))[0] - 4.0) < 1e-12);
  });
  // Every pull was served from the shared client cache: local hits
  // recorded, zero bytes pulled off the servers.
  EXPECT_EQ(cluster_->metrics().Get("net.local_pull_hits"), 16u);
  EXPECT_EQ(cluster_->metrics().Get("net.bytes_server_to_worker"), 0u);
  EXPECT_GE(ctx_->client()->hot_cache().hits(), 16u);
}

TEST_F(HotspotTest, ReplicatedRowIsCoLocatedWithEverything) {
  Dcv a = *ctx_->Dense(100, 2, 1, 0, "a");
  Dcv b = *ctx_->Dense(100, 2, 1, 0, "b");  // different rotation
  ASSERT_TRUE(a.Fill(2.0).ok());
  ASSERT_TRUE(b.Fill(3.0).ok());
  EXPECT_FALSE(a.CoLocatedWith(b));

  uint64_t naive_before = cluster_->metrics().Get("dcv.noncolocated_dots");
  EXPECT_DOUBLE_EQ(*a.Dot(b), 600.0);
  EXPECT_EQ(cluster_->metrics().Get("dcv.noncolocated_dots"),
            naive_before + 1);

  ASSERT_TRUE(hotspot()->ReplicateNow({b.ref()}).ok());
  EXPECT_TRUE(a.CoLocatedWith(b));
  // Server-side partial dots now: replica slices anchor to a's partitions.
  EXPECT_DOUBLE_EQ(*a.Dot(b), 600.0);
  EXPECT_EQ(cluster_->metrics().Get("dcv.noncolocated_dots"),
            naive_before + 1);  // unchanged: no naive fallback

  // Element-wise column ops against the replica work the same way.
  Dcv c = *ctx_->Derive(a);
  ASSERT_TRUE(c.AddOf(a, b).ok());
  EXPECT_DOUBLE_EQ((*c.Pull())[0], 5.0);
  ASSERT_TRUE(c.Axpy(b, 2.0).ok());
  EXPECT_DOUBLE_EQ((*c.Pull())[0], 11.0);
}

TEST_F(HotspotTest, CheckpointCoversReplicaStateAcrossCrash) {
  Dcv v = *ctx_->Dense(40);
  std::vector<double> values(40, 2.0);
  ASSERT_TRUE(v.Push(values).ok());
  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());
  // Leave an un-synced pending delta in a replica, then checkpoint.
  ASSERT_TRUE(v.Add(SparseVector({5}, {7.0})).ok());
  ASSERT_TRUE(master()->CheckpointAll().ok());

  // Recovery forces a replica sync, so the checkpointed pending reconciles
  // into the primary as part of the FIRST recovery. Recovering every other
  // server then resurrects checkpoint-era pendings that were already
  // reconciled — they must be recognized as stale (their replica version
  // predates the current epoch) and dropped, NOT applied a second time.
  for (int s = 0; s < master()->num_servers(); ++s) {
    ASSERT_TRUE(master()->KillAndRecoverServer(s).ok());
  }

  // Exactly-once: the +7 delta survived the crash and was applied exactly
  // once (2 + 7 = 9; a lost pending would read 2, a double-apply 16).
  std::vector<double> expected = values;
  expected[5] = 9.0;
  for (int s = 0; s < master()->num_servers(); ++s) {
    ASSERT_TRUE(master()->server(s)->HasReplica(v.ref()));
    PsServer::ReplicaSnapshot snap =
        *master()->server(s)->DebugReplica(v.ref());
    EXPECT_EQ(snap.values, expected);
    EXPECT_GT(snap.version, 0u);
    EXPECT_TRUE(snap.pending.empty());
  }
  EXPECT_DOUBLE_EQ((*v.PullSparse({5}))[0], 9.0);
}

TEST_F(HotspotTest, SyncRejectsCollectedPendingPastRowEnd) {
  // Server 0 is handed a replica of the 8-wide row that is 1,000,001 wide
  // and holds a pending delta at column 1,000,000. The master's collect
  // must refuse the column instead of adding it past the end of its
  // reconciled row.
  Dcv v = *ctx_->Dense(8);
  ASSERT_TRUE(v.Push(std::vector<double>(8, 1.0)).ok());
  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());
  PsServer* server = master()->server(0);
  BufferWriter wide;
  wide.WriteU8(static_cast<uint8_t>(PsOpCode::kHotSetUpdate));
  wide.WriteVarint(1);
  wide.WriteVarint(static_cast<uint64_t>(v.ref().matrix_id));
  wide.WriteVarint(v.ref().row);
  wide.WriteVarint(1000001);
  ASSERT_TRUE(server->Handle(wide.Release()).ok());
  BufferWriter push;
  push.WriteU8(static_cast<uint8_t>(PsOpCode::kHotPush));
  push.WriteVarint(static_cast<uint64_t>(v.ref().matrix_id));
  push.WriteVarint(v.ref().row);
  push.WriteVarint(1);
  push.WriteVarint(1000000);
  push.WriteF64(3.0);
  ASSERT_TRUE(server->Handle(push.Release()).ok());

  EXPECT_TRUE(hotspot()->SyncNow().IsOutOfRange());
  EXPECT_EQ(*v.Pull(), std::vector<double>(8, 1.0));
}

TEST_F(HotspotTest, ServerRecoveryBumpsEpochAndRefreshesClientCaches) {
  // Regression: KillAndRecoverServer used to restore shard state without
  // telling the HotspotManager, leaving client HotRowCaches serving stale
  // hot rows past staleness_epochs and the recovered server without
  // replica slots for hot rows designated after the checkpoint.
  Dcv v = *ctx_->Dense(32);
  ASSERT_TRUE(v.Fill(3.0).ok());
  ASSERT_TRUE(hotspot()->ReplicateNow({v.ref()}).ok());
  const uint64_t epoch_before = hotspot()->epoch();

  // No checkpoint taken: the recovered server restarts empty, yet must end
  // up with a freshly installed replica of the current hot set.
  ASSERT_TRUE(master()->KillAndRecoverServer(1).ok());

  EXPECT_GT(hotspot()->epoch(), epoch_before);
  EXPECT_TRUE(ReplicatedEverywhere(v.ref()));
  PsServer::ReplicaSnapshot snap = *master()->server(1)->DebugReplica(v.ref());
  EXPECT_EQ(snap.version, hotspot()->epoch());
  // The client cache was re-warmed under the new epoch with the
  // post-recovery row: the recovered server's slice reads zero (its shard
  // was dropped with no checkpoint to restore). A stale cache — the old
  // bug — would keep serving 3.0 everywhere for staleness_epochs more.
  const uint64_t hits_before = ctx_->client()->hot_cache().hits();
  std::vector<double> pulled = *v.Pull();
  EXPECT_GT(ctx_->client()->hot_cache().hits(), hits_before);
  int zeros = 0;
  for (double x : pulled) {
    ASSERT_TRUE(x == 3.0 || x == 0.0) << x;
    zeros += x == 0.0;
  }
  EXPECT_GT(zeros, 0);
  EXPECT_LT(zeros, 32);
}

TEST_F(HotspotTest, StableHotSetRefreshSkipsReinstall) {
  Dcv v = *ctx_->Dense(32);
  ASSERT_TRUE(v.Fill(1.0).ok());
  HotspotOptions options;
  options.enabled = true;
  options.top_k = 1;
  options.min_pull_count = 4;
  options.refresh_every = 1;
  ASSERT_TRUE(hotspot()->Enable(options).ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(v.Pull().ok());
  ASSERT_TRUE(hotspot()->Tick().ok());
  ASSERT_TRUE(hotspot()->IsReplicated(v.ref()));
  uint64_t epoch_after_install = hotspot()->epoch();

  // A stable hot set re-ranks without reinstalling; the sync cadence
  // (sync_every = 1) still advances the epoch exactly once per tick.
  ASSERT_TRUE(hotspot()->Tick().ok());
  EXPECT_EQ(hotspot()->epoch(), epoch_after_install + 1);
}

// Direct unit coverage of the cache's staleness contract.
TEST(HotRowCacheTest, ServesWithinStalenessAndExpires) {
  HotRowCache cache;
  RowRef ref{1, 0};
  cache.SetStalenessEpochs(2);
  cache.SetHotSet({{ref, 4}});
  EXPECT_TRUE(cache.HasHot());
  EXPECT_EQ(cache.HotDim(ref), 4u);

  double out[4];
  EXPECT_FALSE(cache.TryServeDense(ref, 0, 4, out));  // never warmed

  cache.SetEpoch(5);
  cache.Store(ref, {1, 2, 3, 4}, 5);
  ASSERT_TRUE(cache.TryServeDense(ref, 1, 3, out));
  EXPECT_EQ(out[0], 2.0);
  EXPECT_EQ(out[1], 3.0);

  cache.SetEpoch(6);  // one sync behind: still within staleness 2
  EXPECT_TRUE(cache.TryServeDense(ref, 0, 4, out));
  cache.SetEpoch(7);  // two behind: expired
  EXPECT_FALSE(cache.TryServeDense(ref, 0, 4, out));
  EXPECT_GT(cache.misses(), 0u);
}

TEST(HotRowCacheTest, SetHotSetDropsDemotedKeepsSurvivors) {
  HotRowCache cache;
  RowRef a{1, 0}, b{1, 1};
  cache.SetHotSet({{a, 2}, {b, 2}});
  cache.SetEpoch(1);
  cache.Store(a, {1, 1}, 1);
  cache.Store(b, {2, 2}, 1);

  cache.SetHotSet({{a, 2}});  // b demoted
  double out[2];
  EXPECT_TRUE(cache.TryServeDense(a, 0, 2, out));  // survivor kept warm
  EXPECT_EQ(cache.HotDim(b), 0u);
  EXPECT_FALSE(cache.TryServeSparse(b, {0}, out));

  cache.SetHotSet({});
  EXPECT_FALSE(cache.HasHot());
}

TEST(HotRowCacheTest, StoreIgnoresNonHotRows) {
  HotRowCache cache;
  cache.SetHotSet({{RowRef{1, 0}, 2}});
  cache.SetEpoch(1);
  cache.Store(RowRef{9, 9}, {5, 5}, 1);  // raced a hot-set change: dropped
  double out[2];
  EXPECT_FALSE(cache.TryServeDense(RowRef{9, 9}, 0, 2, out));
}

}  // namespace
}  // namespace ps2
