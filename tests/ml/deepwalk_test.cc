#include "ml/deepwalk.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/pspp_deepwalk.h"
#include "data/graph_gen.h"
#include "obs/trace.h"

namespace ps2 {
namespace {

GraphSpec SmallGraph() {
  GraphSpec spec;
  spec.num_vertices = 600;
  spec.num_walks = 800;
  spec.avg_degree = 8;
  return spec;
}

class DeepWalkTest : public ::testing::Test {
 protected:
  DeepWalkTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 2;
    cluster_ = std::make_unique<Cluster>(spec);
    pairs_ = MakeWalkPairDataset(cluster_.get(), SmallGraph()).Cache();
    frequencies_ = CorpusVertexFrequencies(SmallGraph());
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  DeepWalkOptions Options() {
    DeepWalkOptions options;
    options.num_vertices = SmallGraph().num_vertices;
    options.embedding_dim = 16;
    options.epochs = 4;
    options.learning_rate = 0.01;  // paper Table 4; higher rates diverge
    return options;
  }

  std::unique_ptr<Cluster> cluster_;
  Dataset<VertexPair> pairs_;
  std::vector<double> frequencies_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(DeepWalkTest, ValidationCatchesBadOptions) {
  DeepWalkOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // vertices unset
  options.num_vertices = 10;
  options.batch_size = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(DeepWalkTest, SspWindowsTrainAndAdvanceClocks) {
  DeepWalkOptions options = Options();
  options.consistency = *ConsistencyPolicy::Parse("ssp:1");
  TrainReport report =
      *TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, options);
  // 4 epochs in windows of 2 -> two stage points, loss still improving.
  EXPECT_EQ(report.curve.size(), 2u);
  EXPECT_LT(report.final_loss, report.curve.front().loss);
  for (int s = 0; s < cluster_->spec().num_servers; ++s) {
    EXPECT_EQ(ctx_->master()->server(s)->MinWorkerClock(),
              static_cast<uint64_t>(options.epochs));
  }
}

TEST_F(DeepWalkTest, LossDecreasesOverEpochs) {
  TrainReport report =
      *TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, Options());
  EXPECT_EQ(report.system, "PS2-DeepWalk");
  ASSERT_EQ(report.curve.size(), 4u);
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(DeepWalkTest, ModelRowsAccessible) {
  DeepWalkModel model;
  ASSERT_TRUE(
      TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, Options(), &model)
          .ok());
  ASSERT_EQ(model.rows.size(), 2u * SmallGraph().num_vertices);
  std::vector<double> emb = *model.Input(3).Pull();
  EXPECT_EQ(emb.size(), 16u);
  double norm = 0;
  for (double v : emb) norm += v * v;
  EXPECT_GT(norm, 0.0);  // initialized and trained
}

TEST_F(DeepWalkTest, EmbeddingsOfCoOccurringVerticesAlign) {
  DeepWalkOptions options = Options();
  options.epochs = 8;
  DeepWalkModel model;
  ASSERT_TRUE(
      TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, options, &model)
          .ok());
  // A frequently co-occurring pair should score higher than a random pair.
  std::vector<VertexPair> sample = pairs_.Collect();
  ASSERT_FALSE(sample.empty());
  double cooccur = 0, random_pair = 0;
  int counted = 0;
  for (size_t i = 0; i < sample.size() && counted < 200; i += 37, ++counted) {
    const VertexPair& p = sample[i];
    cooccur += *model.Input(p.u).Dot(model.Context(p.v));
    uint32_t r = (p.v + 271) % SmallGraph().num_vertices;
    random_pair += *model.Input(p.u).Dot(model.Context(r));
  }
  EXPECT_GT(cooccur, random_pair);
}

TEST_F(DeepWalkTest, RejectsShortFrequencyTable) {
  std::vector<double> short_freq(10, 1.0);
  EXPECT_TRUE(TrainDeepWalkPs2(ctx_.get(), pairs_, short_freq, Options())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DeepWalkTest, PullPushBaselineReachesSimilarLoss) {
  TrainReport ps2 =
      *TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, Options());
  DcvContext fresh(cluster_.get());
  TrainReport pspp =
      *TrainDeepWalkPsPullPush(&fresh, pairs_, frequencies_, Options());
  EXPECT_EQ(pspp.system, "PS-DeepWalk");
  EXPECT_NEAR(ps2.final_loss, pspp.final_loss, 0.05);
}

TEST_F(DeepWalkTest, Ps2FasterThanPullPushAtRealisticEmbeddingDim) {
  // At K=16 the pulled vectors are tiny and the two systems tie; at the
  // paper's K=100 the O(K)-per-vertex traffic of pull/push dominates and
  // PS2's scalar-only protocol wins (Fig. 9(c)).
  DeepWalkOptions options = Options();
  options.embedding_dim = 100;
  options.epochs = 2;

  SimTime t0 = cluster_->clock().Now();
  ASSERT_TRUE(
      TrainDeepWalkPs2(ctx_.get(), pairs_, frequencies_, options).ok());
  SimTime ps2_time = cluster_->clock().Now() - t0;

  DcvContext fresh(cluster_.get());
  t0 = cluster_->clock().Now();
  ASSERT_TRUE(
      TrainDeepWalkPsPullPush(&fresh, pairs_, frequencies_, options).ok());
  SimTime pspp_time = cluster_->clock().Now() - t0;
  EXPECT_GT(pspp_time, 1.5 * ps2_time);
}

TEST_F(DeepWalkTest, ConvergesUnderMessageFaults) {
  // Lost requests and lost responses on the fused axpy+dot requests: the
  // retried axpys dedup, the replayed dots are recomputed, and training
  // still converges.
  ClusterSpec spec = cluster_->spec();
  spec.message_failure_prob = 0.02;
  spec.seed = 41;
  Cluster faulty(spec);
  Dataset<VertexPair> pairs =
      MakeWalkPairDataset(&faulty, SmallGraph()).Cache();
  DcvContext ctx(&faulty);
  TrainReport report = *TrainDeepWalkPs2(&ctx, pairs, frequencies_, Options());
  EXPECT_TRUE(std::isfinite(report.final_loss));
  EXPECT_LT(report.final_loss, std::log(2.0));  // the untrained loss
  EXPECT_GT(faulty.metrics().Get("net.retries"), 0u);
  EXPECT_GT(faulty.metrics().Get("ps.dedup_hits"), 0u);
}

TEST_F(DeepWalkTest, OneRequestPerBatchPerServer) {
  // One partition, so one task runs every batch of an epoch. Per epoch and
  // server: one dot-only request for the first batch, then one request per
  // batch carrying its axpys and the next batch's dots (the last batch's
  // axpys go alone).
  Dataset<VertexPair> pairs =
      MakeWalkPairDataset(cluster_.get(), SmallGraph(), 1).Cache();
  DeepWalkOptions options = Options();
  options.batch_size = 256;
  const uint64_t num_pairs = pairs.Collect().size();
  const uint64_t batches =
      (num_pairs + options.batch_size - 1) / options.batch_size;
  ASSERT_GT(batches, 2u);
  const uint64_t servers = cluster_->spec().num_servers;
  const uint64_t epochs = options.epochs;

  obs::Tracer::Global().Enable();
  const uint64_t messages0 = cluster_->metrics().Get("net.messages");
  ASSERT_TRUE(TrainDeepWalkPs2(ctx_.get(), pairs, frequencies_, options).ok());
  const uint64_t messages = cluster_->metrics().Get("net.messages") - messages0;
  std::vector<obs::TraceEvent> spans = obs::Tracer::Global().Collect();
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();
  uint64_t dot_calls = 0, axpy_calls = 0;
  for (const obs::TraceEvent& e : spans) {
    if (std::string(e.category) != "ps.server") continue;
    dot_calls += e.name == "dot_batch";
    axpy_calls += e.name == "axpy_batch";
  }
  EXPECT_EQ(dot_calls, servers * epochs);
  EXPECT_EQ(axpy_calls, servers * batches * epochs);
  // Setup: the embedding matrix's server-side init, one request and one
  // response per server.
  const uint64_t setup = 2 * servers;
  EXPECT_EQ(messages, 2 * servers * (batches + 1) * epochs + setup);
}

}  // namespace
}  // namespace ps2
