#pragma once

// Optimizers (paper §3.1 / §5.2.4): SGD, Adam, Adagrad, RMSProp.
//
// The same per-coordinate kernel is used three ways, which is what makes the
// system comparison apples-to-apples ("these systems enjoy the same
// statistical efficiency", paper §6.1):
//   * server-side, as a DCV Zip UDF (PS2's element-wise multi-vector update),
//   * worker-side, on pulled slices (the "PS-" pull/push baselines),
//   * driver-side, on the full dense model (the Spark MLlib baseline).

#include <cstdint>
#include <string>

#include "ps/ps_server.h"

namespace ps2 {

enum class OptimizerKind { kSgd, kAdam, kAdagrad, kRmsProp };

const char* OptimizerKindName(OptimizerKind kind);

/// \brief Hyperparameters (paper Appendix A defaults for LR).
struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::kSgd;
  double learning_rate = 0.618;  ///< paper Table 4
  double beta1 = 0.9;            ///< Adam: 2nd-moment decay (paper Eq. 1)
  double beta2 = 0.999;          ///< Adam: 1st-moment decay (paper Eq. 1)
  double epsilon = 1e-8;
  double rho = 0.9;              ///< RMSProp decay
  double l2 = 0.0;               ///< L2 regularization strength
};

/// Number of auxiliary state vectors (beyond weight + gradient) the
/// optimizer keeps: Adam 2 (s, v), Adagrad/RMSProp 1, SGD 0.
int OptimizerStateVectors(OptimizerKind kind);

/// \brief Applies one optimizer step over `n` coordinates.
///
/// `w` weights, `g` gradient (already averaged over the batch), `s` second
/// moment accumulator, `v` first moment / velocity (may be nullptr when the
/// optimizer does not use them), `t` the 1-based step count (Adam bias
/// correction). Follows paper Eq. (1) conventions: s is the decaying average
/// of squared gradients with beta1, v of gradients with beta2.
/// Returns the scalar op count.
uint64_t ApplyOptimizerStep(const OptimizerOptions& options, int64_t t,
                            double* w, const double* g, double* s, double* v,
                            size_t n);

/// Builds a server-side Zip UDF implementing the whole model update over
/// co-located rows ordered [w, s, v, g] (Adam; Fig. 3's four DCVs),
/// [w, s, g] (Adagrad/RMSProp) or [w, g] (SGD), in one pass and one round.
/// The request's args are {t, inv_count}: the 1-based step and the batch
/// normalizer. The UDF averages the summed gradient (g * inv_count, exactly
/// what a server-side Scale would store), applies ApplyOptimizerStep to it
/// and resets g to zero for the next iteration's pushes. Its op count is
/// the step's plus 2n (the scale and the reset).
ZipFn MakeOptimizerZip(const OptimizerOptions& options);

}  // namespace ps2
