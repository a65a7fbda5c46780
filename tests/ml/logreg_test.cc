#include "ml/logreg.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/classification_gen.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"

namespace ps2 {
namespace {

ClassificationSpec SmallData() {
  ClassificationSpec spec;
  spec.rows = 5000;
  spec.dim = 20000;
  spec.avg_nnz = 20;
  return spec;
}

class LogregTest : public ::testing::Test {
 protected:
  LogregTest() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster_ = std::make_unique<Cluster>(spec);
    data_ = MakeClassificationDataset(cluster_.get(), SmallData()).Cache();
    ctx_ = std::make_unique<DcvContext>(cluster_.get());
  }

  GlmOptions Options(OptimizerKind kind, double lr, int iterations) {
    GlmOptions options;
    options.dim = SmallData().dim;
    options.optimizer.kind = kind;
    options.optimizer.learning_rate = lr;
    options.batch_fraction = 0.05;
    options.iterations = iterations;
    return options;
  }

  std::unique_ptr<Cluster> cluster_;
  Dataset<Example> data_;
  std::unique_ptr<DcvContext> ctx_;
};

TEST_F(LogregTest, ValidationCatchesBadOptions) {
  GlmOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // dim unset
  options.dim = 10;
  options.batch_fraction = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options.batch_fraction = 0.5;
  options.iterations = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(LogregTest, AdamConverges) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 80));
  EXPECT_EQ(report.system, "PS2-Adam");
  ASSERT_EQ(report.curve.size(), 80u);
  EXPECT_NEAR(report.curve.front().loss, 0.693, 0.01);
  EXPECT_LT(report.final_loss, 0.35);
}

TEST_F(LogregTest, SgdMakesProgress) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kSgd, 2.0, 80));
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(LogregTest, AdagradAndRmsPropConverge) {
  TrainReport adagrad = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kAdagrad, 0.3, 60));
  EXPECT_LT(adagrad.final_loss, 0.5);
  TrainReport rmsprop = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kRmsProp, 0.02, 60));
  EXPECT_LT(rmsprop.final_loss, 0.5);
}

TEST_F(LogregTest, CurveTimesIncrease) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 10));
  for (size_t i = 1; i < report.curve.size(); ++i) {
    EXPECT_GT(report.curve[i].time, report.curve[i - 1].time);
  }
  EXPECT_GE(report.total_time, report.curve.back().time);
}

TEST_F(LogregTest, WeightsPredictTrainingData) {
  Dcv weight;
  TrainReport report = *TrainGlmPs2(
      ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 100), &weight);
  (void)report;
  ASSERT_TRUE(weight.valid());
  std::vector<double> w = *weight.Pull();
  std::vector<Example> examples = data_.Collect();
  EXPECT_GT(Accuracy(examples, w), 0.8);
}

TEST_F(LogregTest, SparseTrafficOnly) {
  // The gradient stage must move O(batch nnz), never O(dim): with dim 20K
  // and tiny batches, per-iteration traffic stays far below dim*8 bytes.
  cluster_->metrics().Reset();
  GlmOptions options = Options(OptimizerKind::kSgd, 1.0, 5);
  options.batch_fraction = 0.002;  // ~10 examples, ~200 distinct features
  ASSERT_TRUE(TrainGlmPs2(ctx_.get(), data_, options).ok());
  uint64_t bytes = cluster_->metrics().Get("net.bytes_worker_to_server") +
                   cluster_->metrics().Get("net.bytes_server_to_worker");
  EXPECT_LT(bytes / 5, SmallData().dim * 8 / 2);
}

TEST_F(LogregTest, TimeToLossHelper) {
  TrainReport report =
      *TrainGlmPs2(ctx_.get(), data_, Options(OptimizerKind::kAdam, 0.05, 60));
  SimTime t = report.TimeToLoss(0.6);
  EXPECT_LT(t, report.total_time);
  EXPECT_TRUE(std::isinf(report.TimeToLoss(-1.0)));
}

TEST_F(LogregTest, SvmWrapperUsesHinge) {
  TrainReport report = *TrainSvmPs2(ctx_.get(), data_,
                                    Options(OptimizerKind::kSgd, 0.5, 60));
  EXPECT_EQ(report.system, "PS2-SVM-SGD");
  EXPECT_LT(report.final_loss, report.curve.front().loss);
}

TEST_F(LogregTest, BatchGradientMatchesManualComputation) {
  std::vector<Example> batch(2);
  batch[0].features = SparseVector({0, 1}, {1.0, 2.0});
  batch[0].label = 1.0;
  batch[1].features = SparseVector({1}, {1.0});
  batch[1].label = 0.0;
  std::vector<double> w{0.5, -0.5};
  BatchGradient bg = ComputeBatchGradient(
      batch, [&](uint64_t j) { return w[j]; }, GlmLossKind::kLogistic);
  EXPECT_EQ(bg.count, 2u);
  // margin0 = 0.5 - 1.0 = -0.5, scale0 = sigmoid(-0.5) - 1
  // margin1 = -0.5,        scale1 = sigmoid(-0.5) - 0
  double s0 = Sigmoid(-0.5) - 1.0;
  double s1 = Sigmoid(-0.5);
  EXPECT_NEAR(bg.gradient.Get(0), s0 * 1.0, 1e-12);
  EXPECT_NEAR(bg.gradient.Get(1), s0 * 2.0 + s1 * 1.0, 1e-12);
  EXPECT_NEAR(bg.loss_sum,
              LogisticLoss(-0.5, 1.0) + LogisticLoss(-0.5, 0.0), 1e-12);
}

TEST_F(LogregTest, CollectBatchIndicesSortedUnique) {
  std::vector<Example> batch(2);
  batch[0].features = SparseVector({5, 1}, {1, 1});
  batch[1].features = SparseVector({5, 9}, {1, 1});
  std::vector<uint64_t> idx = CollectBatchIndices(batch);
  EXPECT_EQ(idx, (std::vector<uint64_t>{1, 5, 9}));
}

// ---- The fused model update against the Fig. 3 column-op sequence ----

/// The update UDF as it was before the zip took over the scale and the
/// reset: one optimizer step on an already averaged gradient, with the
/// step count read from coordinator memory.
ZipFn UnfusedOptimizerZip(const OptimizerOptions& opt,
                          std::shared_ptr<std::atomic<int64_t>> step) {
  return [opt, step](const std::vector<double*>& rows, size_t n, uint64_t,
                     const std::vector<double>&) -> uint64_t {
    const int n_state = OptimizerStateVectors(opt.kind);
    return ApplyOptimizerStep(opt, step->load(), rows[0], rows.back(),
                              n_state >= 1 ? rows[1] : nullptr,
                              n_state >= 2 ? rows[2] : nullptr, n);
  };
}

struct GlmRun {
  std::unique_ptr<Cluster> cluster;
  Dataset<Example> data;
  std::unique_ptr<DcvContext> ctx;

  GlmRun() {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = 4;
    cluster = std::make_unique<Cluster>(spec);
    ClassificationSpec data_spec;
    data_spec.rows = 2000;
    data_spec.dim = 5000;
    data_spec.avg_nnz = 20;
    // One partition, so one task pushes each iteration's gradient: the
    // server-side sums then do not depend on task scheduling, and two runs
    // compare bit for bit (DESIGN.md §7 otherwise allows summation-order
    // noise between concurrent pushes).
    data = MakeClassificationDataset(cluster.get(), data_spec, 1).Cache();
    ctx = std::make_unique<DcvContext>(cluster.get());
  }

  uint64_t Rounds() const { return cluster->metrics().Get("net.rounds"); }
};

/// TrainGlmPs2's BSP loop written out with the paper's separate column ops:
/// gradient.zero(), the pull/compute/push stage, the normalizing Scale, then
/// the optimizer zip. Returns the weight DCV.
Dcv TrainUnfused(GlmRun* run, const GlmOptions& options) {
  DcvContext* ctx = run->ctx.get();
  const int n_state = OptimizerStateVectors(options.optimizer.kind);
  Dcv weight = *ctx->Dense(options.dim, static_cast<uint32_t>(n_state + 2), 1,
                           0, "glm.weight");
  std::vector<Dcv> state = *ctx->DeriveN(weight, n_state);
  Dcv gradient = *ctx->Derive(weight);
  // Setup as in TrainGlmPs2, so every round of difference is in the loop.
  for (Dcv& s : state) EXPECT_TRUE(s.Zero().ok());
  EXPECT_TRUE(gradient.Zero().ok());
  auto step = std::make_shared<std::atomic<int64_t>>(0);
  const int udf =
      ctx->RegisterZip(UnfusedOptimizerZip(options.optimizer, step));
  for (int iter = 0; iter < options.iterations; ++iter) {
    EXPECT_TRUE(gradient.Zero().ok());
    Dataset<Example> batch = run->data.Sample(
        options.batch_fraction,
        options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<uint64_t> counts = batch.MapPartitionsCollect<uint64_t>(
        [&](TaskContext& task, const std::vector<Example>& rows) -> uint64_t {
          if (rows.empty()) return 0;
          std::vector<uint64_t> indices = CollectBatchIndices(rows);
          std::vector<double> pulled = *weight.PullSparse(indices);
          std::unordered_map<uint64_t, double> w_local;
          for (size_t k = 0; k < indices.size(); ++k) {
            w_local.emplace(indices[k], pulled[k]);
          }
          BatchGradient bg = ComputeBatchGradient(
              rows, [&w_local](uint64_t j) { return w_local.at(j); },
              options.loss);
          task.AddWorkerOps(bg.ops + indices.size());
          PS2_CHECK_OK(gradient.Add(bg.gradient));
          return bg.count;
        });
    uint64_t count = 0;
    for (uint64_t c : counts) count += c;
    if (count == 0) continue;
    EXPECT_TRUE(gradient.Scale(1.0 / static_cast<double>(count)).ok());
    step->fetch_add(1);
    std::vector<Dcv> zip_rows = state;
    zip_rows.push_back(gradient);
    EXPECT_TRUE(weight.Zip(zip_rows, udf).ok());
  }
  return weight;
}

class FusedUpdateTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(FusedUpdateTest, MatchesUnfusedSequenceWithTwoFewerRoundsPerIteration) {
  GlmOptions options;
  options.dim = 5000;
  options.optimizer.kind = GetParam();
  options.optimizer.learning_rate = 0.05;
  options.optimizer.l2 = 0.01;
  options.batch_fraction = 0.05;
  options.iterations = 6;

  GlmRun fused_run;
  Dcv fused;
  TrainReport report =
      *TrainGlmPs2(fused_run.ctx.get(), fused_run.data, options, &fused);
  ASSERT_EQ(report.curve.size(), static_cast<size_t>(options.iterations));
  const uint64_t fused_rounds = fused_run.Rounds();

  GlmRun unfused_run;
  Dcv unfused = TrainUnfused(&unfused_run, options);
  const uint64_t unfused_rounds = unfused_run.Rounds();

  EXPECT_EQ(unfused_rounds - fused_rounds,
            2u * static_cast<uint64_t>(options.iterations));
  EXPECT_EQ(*fused.Pull(), *unfused.Pull());

  // The gradient is the weight matrix's last row (TrainGlmPs2 derives it
  // after the optimizer state).
  RowRef gradient = fused.ref();
  gradient.row = static_cast<uint32_t>(OptimizerStateVectors(GetParam()) + 1);
  EXPECT_EQ(*fused_run.ctx->client()->PullDense(gradient),
            std::vector<double>(options.dim, 0.0));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FusedUpdateTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kAdagrad,
                                           OptimizerKind::kRmsProp,
                                           OptimizerKind::kAdam),
                         [](const auto& info) {
                           return OptimizerKindName(info.param);
                         });

}  // namespace
}  // namespace ps2
