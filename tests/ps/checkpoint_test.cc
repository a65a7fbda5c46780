#include "ps/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "dataflow/cluster.h"
#include "ps/partitioner.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "ps/ps_server.h"

namespace ps2 {
namespace {

TEST(CheckpointStoreTest, PutGetRoundTrip) {
  CheckpointStore store;
  store.Put(2, {1, 2, 3});
  EXPECT_TRUE(store.Has(2));
  EXPECT_FALSE(store.Has(1));
  EXPECT_EQ(store.Get(2), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(store.Get(1).empty());
}

TEST(CheckpointStoreTest, PutOverwritesAndCounts) {
  CheckpointStore store;
  store.Put(0, {1});
  store.Put(0, {2, 3});
  EXPECT_EQ(store.Get(0), (std::vector<uint8_t>{2, 3}));
  EXPECT_EQ(store.checkpoints_taken(), 2u);
  EXPECT_EQ(store.TotalBytes(), 2u);
}

TEST(CheckpointStoreTest, TryGetDistinguishesMissingFromEmpty) {
  CheckpointStore store;
  store.Put(4, {9, 8});
  store.Put(5, {});  // a legitimately empty image
  ASSERT_TRUE(store.TryGet(4).has_value());
  EXPECT_EQ(*store.TryGet(4), (std::vector<uint8_t>{9, 8}));
  ASSERT_TRUE(store.TryGet(5).has_value());
  EXPECT_TRUE(store.TryGet(5)->empty());
  // Has()+Get() could not tell this apart from the empty image above —
  // TryGet answers check-and-fetch in one lock acquisition.
  EXPECT_FALSE(store.TryGet(6).has_value());
}

/// A server image written by hand: a dense shard (matrix 0), a sparse shard
/// (matrix 1), a replica with pending deltas, one client's dedup entry and
/// three worker clocks; values are offset by `v`. `counts` receives the
/// offset of every count in the image. `sparse_col` is the column of sparse
/// row 0's last entry (row 1's sits one further) and `pending_col` that of
/// the replica's last pending delta.
std::vector<uint8_t> ServerImage(double v, std::vector<size_t>* counts,
                                 uint64_t sparse_col = 43,
                                 uint64_t pending_col = 5) {
  BufferWriter w;
  auto count = [&](uint64_t n) {
    if (counts != nullptr) counts->push_back(w.size());
    w.WriteVarint(n);
  };
  count(2);  // shards
  w.WriteVarint(0);
  w.WriteVarint(0);  // range image over [0, 8)
  w.WriteVarint(8);
  w.WriteU8(static_cast<uint8_t>(MatrixStorage::kDense));
  count(2);  // rows
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 8; ++c) w.WriteF64(v + r - 0.5 * c);
  }
  w.WriteVarint(1);
  w.WriteVarint(0);  // range image over [0, 100)
  w.WriteVarint(100);
  w.WriteU8(static_cast<uint8_t>(MatrixStorage::kSparse));
  count(2);  // rows
  for (int r = 0; r < 2; ++r) {
    count(2);  // nnz: column deltas, then values
    w.WriteVarint(3 + r);
    w.WriteVarint(sparse_col - 3);
    w.WriteF64(v * 2 + r);
    w.WriteF64(-v);
  }
  count(1);  // replicas
  w.WriteVarint(0);
  w.WriteVarint(1);
  w.WriteVarint(8);
  w.WriteVarint(3);  // version
  count(8);
  for (int c = 0; c < 8; ++c) w.WriteF64(v - c);
  count(2);  // pending: column deltas, then values
  w.WriteVarint(2);
  w.WriteVarint(pending_col - 2);
  w.WriteF64(0.25 * v);
  w.WriteF64(-0.5);
  count(1);  // dedup clients
  w.WriteVarint(7);
  w.WriteVarint(4);  // floor
  count(2);  // seen
  w.WriteVarint(2);
  w.WriteVarint(3);
  count(3);  // worker clocks
  for (uint64_t c : {2, 5, 1}) w.WriteVarint(c + static_cast<uint64_t>(v));
  return w.Release();
}

std::unique_ptr<PsServer> ImageServer(const UdfRegistry* udfs) {
  auto server = std::make_unique<PsServer>(0, udfs);
  for (int id : {0, 1}) {
    MatrixMeta meta;
    meta.id = id;
    meta.name = "image";
    meta.dim = id == 0 ? 8 : 100;
    meta.num_rows = 2;
    meta.storage = id == 0 ? MatrixStorage::kDense : MatrixStorage::kSparse;
    meta.partitioner = *ColumnPartitioner::Make(meta.dim, 1);
    EXPECT_TRUE(server->CreateMatrixShard(meta).ok());
  }
  // The state every corrupt restore must leave untouched.
  EXPECT_TRUE(server->RestoreState(ServerImage(1.0, nullptr)).ok());
  return server;
}

TEST(CheckpointTest, CorruptImageLeavesStateUntouched) {
  UdfRegistry udfs;
  std::vector<size_t> counts;
  const std::vector<uint8_t> image = ServerImage(4.0, &counts);
  {
    std::unique_ptr<PsServer> server = ImageServer(&udfs);
    ASSERT_TRUE(server->RestoreState(image).ok());
    EXPECT_EQ(server->SerializeState(), image);
  }
  std::vector<std::vector<uint8_t>> corrupt;
  for (size_t len = 0; len < image.size(); ++len) {
    corrupt.emplace_back(image.begin(), image.begin() + len);
  }
  for (size_t at : counts) {
    BufferReader reader(image.data() + at, image.size() - at);
    const uint64_t n = *reader.ReadVarint();
    const size_t width = image.size() - at - reader.remaining();
    for (uint64_t bad : {n + 1, n == 0 ? 1 : n - 1, uint64_t{1} << 40}) {
      BufferWriter w;
      w.WriteBytes(Slice(image.data(), at));
      w.WriteVarint(bad);
      w.WriteBytes(Slice(image.data() + at + width,
                         image.size() - at - width));
      corrupt.push_back(w.Release());
    }
  }
  // No proper truncation is a valid image; anything that fails must fail
  // without changing a byte of the server's state.
  size_t restored = 0;
  for (const std::vector<uint8_t>& bytes : corrupt) {
    std::unique_ptr<PsServer> server = ImageServer(&udfs);
    const std::vector<uint8_t> before = server->SerializeState();
    if (server->RestoreState(bytes).ok()) {
      EXPECT_GE(bytes.size(), image.size()) << "truncated image restored";
      restored += 1;
      continue;
    }
    EXPECT_EQ(server->SerializeState(), before)
        << "image of " << bytes.size() << " bytes";
  }
  EXPECT_LT(restored, corrupt.size() / 4);
}

TEST(CheckpointTest, ReplicaPendingPastRowEndRejected) {
  // A pending delta at column 1,000,000 of an 8-wide replica would reach
  // the master's reconcile through the next replica-sync collect.
  UdfRegistry udfs;
  std::unique_ptr<PsServer> server = ImageServer(&udfs);
  const std::vector<uint8_t> before = server->SerializeState();
  EXPECT_FALSE(
      server->RestoreState(ServerImage(2.0, nullptr, 43, 1000000)).ok());
  EXPECT_EQ(server->SerializeState(), before);
  // The same image with the pending inside the row restores.
  EXPECT_TRUE(server->RestoreState(ServerImage(2.0, nullptr, 43, 7)).ok());
}

TEST(CheckpointTest, SparseEntryOutsideShardRangeRejected) {
  // An entry at column 5,000,000 of a [0, 100) shard would be stored and
  // counted as if the shard owned it.
  UdfRegistry udfs;
  std::unique_ptr<PsServer> server = ImageServer(&udfs);
  const std::vector<uint8_t> before = server->SerializeState();
  EXPECT_FALSE(
      server->RestoreState(ServerImage(2.0, nullptr, 5000000, 5)).ok());
  EXPECT_EQ(server->SerializeState(), before);
  EXPECT_EQ(server->StoredValues(), 2u * 8u + 4u);
  // The same image with the entries inside the shard restores.
  EXPECT_TRUE(server->RestoreState(ServerImage(2.0, nullptr, 98, 5)).ok());
}

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() {
    ClusterSpec spec;
    spec.num_workers = 2;
    spec.num_servers = 3;
    cluster_ = std::make_unique<Cluster>(spec);
    master_ = std::make_unique<PsMaster>(cluster_.get());
    client_ = std::make_unique<PsClient>(master_.get());
    MatrixOptions options;
    options.dim = 90;
    options.reserve_rows = 2;
    weight_ = RowRef{*master_->CreateMatrix(options), 0};
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<PsMaster> master_;
  std::unique_ptr<PsClient> client_;
  RowRef weight_;
};

TEST_F(ServerRecoveryTest, RecoverRestoresCheckpointedState) {
  ASSERT_TRUE(client_->PushDense(weight_, std::vector<double>(90, 5.0)).ok());
  ASSERT_TRUE(master_->CheckpointAll().ok());
  // Updates after the checkpoint are lost on the failed server only.
  ASSERT_TRUE(client_->PushDense(weight_, std::vector<double>(90, 1.0)).ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(1).ok());

  std::vector<double> pulled = *client_->PullDense(weight_);
  int restored = 0, fresh = 0;
  for (double v : pulled) {
    if (v == 5.0) ++restored;   // server 1's range: post-checkpoint push lost
    if (v == 6.0) ++fresh;      // surviving servers kept both pushes
  }
  EXPECT_EQ(restored, 30);
  EXPECT_EQ(fresh, 60);
}

TEST_F(ServerRecoveryTest, RecoverWithoutCheckpointZeroes) {
  ASSERT_TRUE(client_->PushDense(weight_, std::vector<double>(90, 5.0)).ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(0).ok());
  std::vector<double> pulled = *client_->PullDense(weight_);
  int zeros = 0;
  for (double v : pulled) zeros += v == 0.0;
  EXPECT_EQ(zeros, 30);
}

TEST_F(ServerRecoveryTest, CheckpointAndRecoveryChargeTime) {
  ASSERT_TRUE(client_->PushDense(weight_, std::vector<double>(90, 5.0)).ok());
  SimTime before = cluster_->clock().Now();
  ASSERT_TRUE(master_->CheckpointAll().ok());
  SimTime after_ckpt = cluster_->clock().Now();
  EXPECT_GT(after_ckpt, before);
  ASSERT_TRUE(master_->KillAndRecoverServer(0).ok());
  EXPECT_GT(cluster_->clock().Now(), after_ckpt);
}

TEST_F(ServerRecoveryTest, MetricsCountEvents) {
  ASSERT_TRUE(master_->CheckpointAll().ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(2).ok());
  EXPECT_EQ(cluster_->metrics().Get("ps.checkpoints"), 1u);
  EXPECT_EQ(cluster_->metrics().Get("ps.server_failures"), 1u);
}

TEST_F(ServerRecoveryTest, BadServerIdRejected) {
  EXPECT_TRUE(master_->KillAndRecoverServer(99).IsInvalidArgument());
  EXPECT_TRUE(master_->KillAndRecoverServer(-1).IsInvalidArgument());
}

TEST_F(ServerRecoveryTest, TrainingContinuesAfterRecovery) {
  // Convergence-style invariant: pushes after recovery accumulate normally.
  ASSERT_TRUE(master_->CheckpointAll().ok());
  ASSERT_TRUE(master_->KillAndRecoverServer(1).ok());
  ASSERT_TRUE(client_->PushDense(weight_, std::vector<double>(90, 2.0)).ok());
  std::vector<double> pulled = *client_->PullDense(weight_);
  for (double v : pulled) EXPECT_EQ(v, 2.0);
}

}  // namespace
}  // namespace ps2
