#include "ml/logreg.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "ml/async_glm.h"
#include "ml/metrics.h"

namespace ps2 {

std::vector<uint64_t> CollectBatchIndices(const std::vector<Example>& batch) {
  std::vector<uint64_t> idx;
  for (const Example& ex : batch) {
    idx.insert(idx.end(), ex.features.indices().begin(),
               ex.features.indices().end());
  }
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  return idx;
}

BatchGradient ComputeBatchGradient(
    const std::vector<Example>& batch,
    const std::function<double(uint64_t)>& weight_at, GlmLossKind loss) {
  BatchGradient out;
  std::unordered_map<uint64_t, double> grad;
  for (const Example& ex : batch) {
    double margin = 0.0;
    const auto& idx = ex.features.indices();
    const auto& val = ex.features.values();
    for (size_t k = 0; k < idx.size(); ++k) {
      margin += val[k] * weight_at(idx[k]);
    }
    double scale = 0.0;
    if (loss == GlmLossKind::kLogistic) {
      out.loss_sum += LogisticLoss(margin, ex.label);
      scale = LogisticGradientScale(margin, ex.label);
    } else {
      out.loss_sum += HingeLoss(margin, ex.label);
      double y = ex.label > 0.5 ? 1.0 : -1.0;
      scale = (y * margin < 1.0) ? -y : 0.0;
    }
    if (scale != 0.0) {
      for (size_t k = 0; k < idx.size(); ++k) {
        grad[idx[k]] += scale * val[k];
      }
    }
    out.ops += 4 * idx.size() + 8;
    ++out.count;
  }
  std::vector<uint64_t> gi;
  std::vector<double> gv;
  gi.reserve(grad.size());
  gv.reserve(grad.size());
  for (const auto& [j, g] : grad) {
    gi.push_back(j);
    gv.push_back(g);
  }
  out.gradient = SparseVector(std::move(gi), std::move(gv));
  return out;
}

Result<TrainReport> TrainGlmPs2(DcvContext* ctx, const Dataset<Example>& data,
                                const GlmOptions& options, Dcv* weight_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  // SSP/ASP route through the consistency controller (consistency/,
  // DESIGN.md §11). BSP continues below on the unchanged synchronous path,
  // so the default traces stay bit-identical to the pre-controller code.
  if (!options.consistency.bsp()) {
    if (weight_out != nullptr) {
      return Status::InvalidArgument(
          "weight_out is only supported under bsp consistency");
    }
    return TrainGlmPs2Relaxed(ctx, data, options);
  }
  Cluster* cluster = ctx->cluster();
  const int n_state = OptimizerStateVectors(options.optimizer.kind);

  // Fig. 3 lines 3-7: one dense DCV for the weights; optimizer state and the
  // gradient are derived so all vectors are dimension co-located.
  PS2_ASSIGN_OR_RETURN(
      Dcv weight,
      ctx->Dense(options.dim, static_cast<uint32_t>(n_state + 2), 1, 0,
                 "glm.weight"));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> state,
                       ctx->DeriveN(weight, n_state));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));
  for (Dcv& s : state) PS2_RETURN_NOT_OK(s.Zero());
  // Fig. 3 line 10's gradient.zero(), hoisted out of the loop: the update
  // zip resets the gradient after consuming it, so it is zero at every
  // iteration boundary (and in every checkpoint image).
  PS2_RETURN_NOT_OK(gradient.Zero());
  const int zip_udf = ctx->RegisterZip(MakeOptimizerZip(options.optimizer));
  int64_t step = 0;

  TrainReport report;
  report.system = std::string("PS2-") +
                  OptimizerKindName(options.optimizer.kind);
  if (options.hotspot.enabled) {
    PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Enable(options.hotspot));
  }
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Fig. 3 lines 12-19: sample, pull (sparse), compute, push, barrier.
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<std::pair<double, uint64_t>> partials =
        batch.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              if (rows.empty()) return {0.0, 0};
              std::vector<uint64_t> indices = CollectBatchIndices(rows);
              Result<std::vector<double>> pulled =
                  weight.PullSparse(indices);
              PS2_CHECK(pulled.ok()) << pulled.status();
              std::unordered_map<uint64_t, double> w_local;
              w_local.reserve(indices.size() * 2);
              for (size_t k = 0; k < indices.size(); ++k) {
                w_local.emplace(indices[k], (*pulled)[k]);
              }
              BatchGradient bg = ComputeBatchGradient(
                  rows,
                  [&w_local](uint64_t j) {
                    auto it = w_local.find(j);
                    return it == w_local.end() ? 0.0 : it->second;
                  },
                  loss_kind);
              task.AddWorkerOps(bg.ops + indices.size());
              // Gradient push is the task's LAST operation (the paper's
              // task-failure-safety argument, §5.3).
              PS2_CHECK_OK(gradient.Add(bg.gradient));
              return {bg.loss_sum, bg.count};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    // Degenerate sample: nothing was pushed, so skip the update.
    if (count == 0) continue;

    // Fig. 3 lines 21-26: server-side model update via zip. The same round
    // normalizes the summed gradient and resets it (MakeOptimizerZip).
    ++step;
    std::vector<Dcv> zip_rows = state;
    zip_rows.push_back(gradient);
    const std::vector<double> args{static_cast<double>(step),
                                   1.0 / static_cast<double>(count)};
    PS2_RETURN_NOT_OK(weight.Zip(zip_rows, zip_udf, args));

    if (options.checkpoint_every > 0 &&
        (iter + 1) % options.checkpoint_every == 0) {
      PS2_RETURN_NOT_OK(ctx->master()->CheckpointAll());
    }

    // Coordinator-side, after the zip: refreshed cache values reflect this
    // iteration's update, keeping staleness to the configured bound.
    if (options.hotspot.enabled) {
      PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Tick());
    }

    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  if (weight_out != nullptr) *weight_out = weight;
  return report;
}

}  // namespace ps2
