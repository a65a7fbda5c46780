#pragma once

// Generalized linear model training on PS2 (paper §3.3 / §5.2.1, Fig. 3).
//
// The PS2 execution flow per iteration:
//   1. model pull    — each worker pulls only the weights its mini-batch
//                      touches (sparse communication),
//   2. gradient calc — workers compute batch gradients locally,
//   3. gradient push — workers `add` sparse gradients into the gradient DCV;
//                      the stage barrier plays Spark's foreach() role,
//   4. model update  — one server-side `zip` over the co-located
//                      [w, s, v, g] DCVs averages the gradient, applies
//                      the optimizer and resets the gradient, all in one
//                      round; no model bytes cross the network.
//
// The same gradient math is exported for the baseline trainers.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "consistency/consistency.h"
#include "data/types.h"
#include "dataflow/dataset.h"
#include "dcv/dcv_context.h"
#include "hotspot/hotspot_manager.h"
#include "ml/optimizer.h"
#include "ml/train_report.h"

namespace ps2 {

/// \brief Loss functions for the GLM trainers.
enum class GlmLossKind { kLogistic, kHinge };

/// \brief Options for (distributed) GLM training.
struct GlmOptions {
  uint64_t dim = 0;              ///< feature dimension (required)
  OptimizerOptions optimizer;    ///< paper Table 4 defaults
  double batch_fraction = 0.01;  ///< paper Table 4: mini_batch_fraction
  int iterations = 100;
  GlmLossKind loss = GlmLossKind::kLogistic;
  uint64_t seed = 1;
  /// Checkpoint all PS state every N iterations (paper §5.3's periodic
  /// checkpointing); 0 disables. Recovery from a server failure then loses
  /// at most N iterations of that server's shard.
  int checkpoint_every = 0;
  /// Hot-parameter management (DESIGN.md §5d): replicate frequently pulled
  /// weight rows and serve them from client caches at bounded staleness.
  HotspotOptions hotspot;
  /// Consistency regime (consistency/, DESIGN.md §11). BSP (the default)
  /// runs the paper's synchronous Fig. 3 flow, bit-identical to before the
  /// knob existed. SSP/ASP route through the ConsistencyController and
  /// require SGD (only additive deltas compose across stale workers).
  ConsistencyPolicy consistency;

  Status Validate() const {
    if (dim == 0) return Status::InvalidArgument("dim must be set");
    if (batch_fraction <= 0 || batch_fraction > 1) {
      return Status::InvalidArgument("batch_fraction must be in (0,1]");
    }
    if (iterations <= 0) {
      return Status::InvalidArgument("iterations must be positive");
    }
    if (hotspot.enabled) PS2_RETURN_NOT_OK(hotspot.Validate());
    PS2_RETURN_NOT_OK(consistency.Validate());
    return Status::OK();
  }
};

/// \brief A mini-batch gradient plus bookkeeping.
struct BatchGradient {
  SparseVector gradient;  ///< sum of per-example gradients (unnormalized)
  double loss_sum = 0;
  uint64_t count = 0;
  uint64_t ops = 0;  ///< scalar ops spent computing it
};

/// Sorted unique feature ids appearing in `batch`.
std::vector<uint64_t> CollectBatchIndices(const std::vector<Example>& batch);

/// Computes the unnormalized batch gradient; `weight_at(j)` returns w_j.
BatchGradient ComputeBatchGradient(
    const std::vector<Example>& batch,
    const std::function<double(uint64_t)>& weight_at, GlmLossKind loss);

/// \brief Trains a GLM with the full PS2/DCV machinery.
///
/// If `weight_out` is non-null it receives the weight DCV (still live in
/// `ctx`) for later pulls/predictions.
Result<TrainReport> TrainGlmPs2(DcvContext* ctx, const Dataset<Example>& data,
                                const GlmOptions& options,
                                Dcv* weight_out = nullptr);

}  // namespace ps2
