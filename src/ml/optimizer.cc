#include "ml/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "linalg/kernels/kernels.h"

namespace ps2 {

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return "SGD";
    case OptimizerKind::kAdam:
      return "Adam";
    case OptimizerKind::kAdagrad:
      return "Adagrad";
    case OptimizerKind::kRmsProp:
      return "RMSProp";
  }
  return "?";
}

int OptimizerStateVectors(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return 0;
    case OptimizerKind::kAdagrad:
    case OptimizerKind::kRmsProp:
      return 1;
    case OptimizerKind::kAdam:
      return 2;
  }
  return 0;
}

uint64_t ApplyOptimizerStep(const OptimizerOptions& options, int64_t t,
                            double* w, const double* g, double* s, double* v,
                            size_t n) {
  const double lr = options.learning_rate;
  const double l2 = options.l2;
  switch (options.kind) {
    case OptimizerKind::kSgd: {
      for (size_t i = 0; i < n; ++i) {
        double gi = g[i] + l2 * w[i];
        w[i] -= lr * gi;
      }
      return 3 * n;
    }
    case OptimizerKind::kAdagrad: {
      PS2_CHECK(s != nullptr);
      for (size_t i = 0; i < n; ++i) {
        double gi = g[i] + l2 * w[i];
        s[i] += gi * gi;
        w[i] -= lr * gi / (std::sqrt(s[i]) + options.epsilon);
      }
      return 7 * n;
    }
    case OptimizerKind::kRmsProp: {
      PS2_CHECK(s != nullptr);
      for (size_t i = 0; i < n; ++i) {
        double gi = g[i] + l2 * w[i];
        s[i] = options.rho * s[i] + (1.0 - options.rho) * gi * gi;
        w[i] -= lr * gi / (std::sqrt(s[i]) + options.epsilon);
      }
      return 8 * n;
    }
    case OptimizerKind::kAdam: {
      PS2_CHECK(s != nullptr);
      PS2_CHECK(v != nullptr);
      // Paper Eq. (1) writes s_t = b1*s + (1-b1)*g^2, v_t = b2*v + (1-b2)*g
      // with b1=0.9, b2=0.999 — i.e. a *fast*-decaying second moment and a
      // *slow*-decaying momentum, the reverse of Kingma & Ba. That variant
      // genuinely diverges on sparse data (once a coordinate stops being
      // touched its second moment vanishes long before its momentum does,
      // so steps blow up to lr*v/eps). We follow standard Adam: second
      // moment decays with beta2 (slow), momentum with beta1 (fast).
      const double b1 = options.beta1;
      const double b2 = options.beta2;
      const double s_corr = 1.0 - std::pow(b2, static_cast<double>(t));
      const double v_corr = 1.0 - std::pow(b1, static_cast<double>(t));
      for (size_t i = 0; i < n; ++i) {
        double gi = g[i] + l2 * w[i];
        s[i] = b2 * s[i] + (1.0 - b2) * gi * gi;
        v[i] = b1 * v[i] + (1.0 - b1) * gi;
        double s_hat = s[i] / s_corr;
        double v_hat = v[i] / v_corr;
        w[i] -= lr * v_hat / (std::sqrt(s_hat) + options.epsilon);
      }
      return 12 * n;
    }
  }
  return 0;
}

ZipFn MakeOptimizerZip(const OptimizerOptions& options) {
  return [options](const std::vector<double*>& rows, size_t n,
                   uint64_t /*col_offset*/,
                   const std::vector<double>& args) -> uint64_t {
    PS2_CHECK_EQ(args.size(), 2u);  // {t, inv_count}
    const auto t = static_cast<int64_t>(args[0]);
    const double inv_count = args[1];
    const int n_state = OptimizerStateVectors(options.kind);
    PS2_CHECK_EQ(rows.size(), static_cast<size_t>(n_state + 2));
    double* w = rows[0];
    double* s = n_state >= 1 ? rows[1] : nullptr;
    double* v = n_state >= 2 ? rows[2] : nullptr;
    double* g = rows.back();
    // Block by block, so the scaled gradient is still in cache when the
    // step reads it and when it is reset.
    constexpr size_t kBlock = 1024;
    uint64_t ops = 0;
    for (size_t lo = 0; lo < n; lo += kBlock) {
      const size_t len = std::min(kBlock, n - lo);
      ops += kernels::Scale(g + lo, inv_count, len);
      ops += ApplyOptimizerStep(options, t, w + lo, g + lo,
                                s != nullptr ? s + lo : nullptr,
                                v != nullptr ? v + lo : nullptr, len);
      ops += kernels::Fill(g + lo, 0.0, len);
    }
    return ops;
  };
}

}  // namespace ps2
