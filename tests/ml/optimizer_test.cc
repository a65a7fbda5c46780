#include "ml/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace ps2 {
namespace {

TEST(OptimizerTest, StateVectorCounts) {
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kSgd), 0);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kAdagrad), 1);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kRmsProp), 1);
  EXPECT_EQ(OptimizerStateVectors(OptimizerKind::kAdam), 2);
}

TEST(OptimizerTest, KindNames) {
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kSgd), "SGD");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kAdam), "Adam");
}

TEST(OptimizerTest, SgdStep) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 0.1;
  double w[2] = {1.0, -1.0};
  double g[2] = {2.0, -4.0};
  ApplyOptimizerStep(opt, 1, w, g, nullptr, nullptr, 2);
  EXPECT_DOUBLE_EQ(w[0], 0.8);
  EXPECT_DOUBLE_EQ(w[1], -0.6);
}

TEST(OptimizerTest, SgdWithL2ShrinksWeights) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 0.1;
  opt.l2 = 1.0;
  double w[1] = {1.0};
  double g[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, nullptr, nullptr, 1);
  EXPECT_DOUBLE_EQ(w[0], 0.9);
}

TEST(OptimizerTest, AdagradAccumulatesSquares) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdagrad;
  opt.learning_rate = 1.0;
  opt.epsilon = 0.0;
  double w[1] = {0.0};
  double g[1] = {2.0};
  double s[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(w[0], -1.0);  // -lr * g / sqrt(s)
  ApplyOptimizerStep(opt, 2, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 8.0);
  EXPECT_NEAR(w[0], -1.0 - 2.0 / std::sqrt(8.0), 1e-12);
}

TEST(OptimizerTest, RmsPropDecaysSecondMoment) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kRmsProp;
  opt.learning_rate = 1.0;
  opt.rho = 0.5;
  opt.epsilon = 0.0;
  double w[1] = {0.0};
  double g[1] = {2.0};
  double s[1] = {8.0};
  ApplyOptimizerStep(opt, 1, w, g, s, nullptr, 1);
  EXPECT_DOUBLE_EQ(s[0], 0.5 * 8.0 + 0.5 * 4.0);
  EXPECT_NEAR(w[0], -2.0 / std::sqrt(6.0), 1e-12);
}

TEST(OptimizerTest, AdamFirstStepIsBiasCorrected) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double g[1] = {3.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g, s, v, 1);
  // After bias correction the first step is ~-lr * sign(g) regardless of g.
  EXPECT_NEAR(w[0], -0.1, 1e-6);
}

TEST(OptimizerTest, AdamStationaryCoordinateStaysPut) {
  // Once a coordinate's gradient goes (and stays) zero, its weight must not
  // drift — the failure mode of the paper's as-written Eq. (1).
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  double g_hot[1] = {1.0};
  double g_zero[1] = {0.0};
  ApplyOptimizerStep(opt, 1, w, g_hot, s, v, 1);
  double after_hot = w[0];
  for (int t = 2; t <= 500; ++t) {
    ApplyOptimizerStep(opt, t, w, g_zero, s, v, 1);
  }
  // Standard Adam's momentum tail moves the coordinate a bounded amount
  // (here well under 1.0); the paper-as-written variant explodes to ~lr*t.
  EXPECT_LT(std::abs(w[0] - after_hot), 1.0);
  EXPECT_TRUE(std::isfinite(w[0]));
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize f(w) = 0.5*(w-3)^2; gradient = w-3.
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.1;
  double w[1] = {0.0};
  double s[1] = {0.0};
  double v[1] = {0.0};
  for (int t = 1; t <= 500; ++t) {
    double g[1] = {w[0] - 3.0};
    ApplyOptimizerStep(opt, t, w, g, s, v, 1);
  }
  EXPECT_NEAR(w[0], 3.0, 0.05);
}

TEST(OptimizerTest, ZipUdfMatchesDirectApplication) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kAdam;
  opt.learning_rate = 0.05;
  ZipFn zip = MakeOptimizerZip(opt);

  const size_t n = 16;
  std::vector<double> w_zip(n, 0.1), s_zip(n, 0.0), v_zip(n, 0.0), g(n);
  std::vector<double> w_ref = w_zip, s_ref = s_zip, v_ref = v_zip;
  for (int t = 1; t <= 3; ++t) {
    // The zip consumes the summed gradient of 4 examples; the reference
    // steps on the average.
    std::fill(g.begin(), g.end(), 2.0);
    std::vector<double> g_avg(n, 0.5);
    std::vector<double*> rows{w_zip.data(), s_zip.data(), v_zip.data(),
                              g.data()};
    zip(rows, n, 0, {static_cast<double>(t), 0.25});
    ApplyOptimizerStep(opt, t, w_ref.data(), g_avg.data(), s_ref.data(),
                       v_ref.data(), n);
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(w_zip[i], w_ref[i]);
    EXPECT_DOUBLE_EQ(s_zip[i], s_ref[i]);
    EXPECT_DOUBLE_EQ(v_zip[i], v_ref[i]);
  }
}

TEST(OptimizerTest, SgdZipUsesTwoRows) {
  OptimizerOptions opt;
  opt.kind = OptimizerKind::kSgd;
  opt.learning_rate = 1.0;
  ZipFn zip = MakeOptimizerZip(opt);
  std::vector<double> w{1.0}, g{0.5};
  std::vector<double*> rows{w.data(), g.data()};
  zip(rows, 1, 0, {1.0, 0.5});
  EXPECT_DOUBLE_EQ(w[0], 0.75);
  EXPECT_EQ(g[0], 0.0);
}

/// The server-side rows of one optimizer zip, in MakeOptimizerZip's order.
struct ZipRows {
  std::vector<double> w, s, v, g;

  ZipRows(size_t n, uint64_t seed) : w(n), s(n), v(n), g(n) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      w[i] = rng.NextDouble() - 0.5;
      s[i] = rng.NextDouble();
      v[i] = rng.NextDouble() - 0.5;
    }
  }

  void FillGradient(uint64_t seed) {
    Rng rng(seed);
    for (double& x : g) x = 10.0 * (rng.NextDouble() - 0.5);
  }

  std::vector<double*> Pointers(OptimizerKind kind) {
    switch (OptimizerStateVectors(kind)) {
      case 0:
        return {w.data(), g.data()};
      case 1:
        return {w.data(), s.data(), g.data()};
      default:
        return {w.data(), s.data(), v.data(), g.data()};
    }
  }
};

class OptimizerZipSweep : public ::testing::TestWithParam<OptimizerKind> {
 protected:
  OptimizerOptions Options() const {
    OptimizerOptions opt;
    opt.kind = GetParam();
    opt.learning_rate = 0.05;
    opt.l2 = 0.01;
    return opt;
  }

  // Crosses the zip's internal block boundary with a ragged tail.
  static constexpr size_t kN = 2500;
};

TEST_P(OptimizerZipSweep, EqualsScaleThenStepAndZeroesGradient) {
  const OptimizerOptions opt = Options();
  const int n_state = OptimizerStateVectors(opt.kind);
  ZipFn zip = MakeOptimizerZip(opt);
  ZipRows got(kN, 7);
  ZipRows want(kN, 7);
  for (int t = 1; t <= 3; ++t) {
    const double inv_count = 1.0 / (3.0 + t);
    got.FillGradient(100 + t);
    want.FillGradient(100 + t);
    // Reference: what a server-side Scale stores, then the unchanged step.
    for (double& x : want.g) x *= inv_count;
    const uint64_t step_ops = ApplyOptimizerStep(
        opt, t, want.w.data(), want.g.data(),
        n_state >= 1 ? want.s.data() : nullptr,
        n_state >= 2 ? want.v.data() : nullptr, kN);
    const uint64_t ops =
        zip(got.Pointers(opt.kind), kN, 0, {static_cast<double>(t), inv_count});
    EXPECT_EQ(ops, step_ops + 2 * kN);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(got.w[i], want.w[i]) << "t=" << t << " i=" << i;
      ASSERT_EQ(got.s[i], want.s[i]) << "t=" << t << " i=" << i;
      ASSERT_EQ(got.v[i], want.v[i]) << "t=" << t << " i=" << i;
      ASSERT_EQ(got.g[i], 0.0) << "t=" << t << " i=" << i;
    }
  }
}

TEST_P(OptimizerZipSweep, OutputIsPureFunctionOfRowsAndArgs) {
  const OptimizerOptions opt = Options();
  ZipFn used = MakeOptimizerZip(opt);
  ZipFn fresh = MakeOptimizerZip(opt);
  // A call history on unrelated rows must not leak into later calls.
  ZipRows other(kN, 3);
  for (int t = 1; t <= 4; ++t) {
    other.FillGradient(t);
    used(other.Pointers(opt.kind), kN, 0, {static_cast<double>(t), 0.5});
  }
  ZipRows a(kN, 11);
  ZipRows b(kN, 11);
  a.FillGradient(42);
  b.FillGradient(42);
  const std::vector<double> args{2.0, 0.125};
  EXPECT_EQ(used(a.Pointers(opt.kind), kN, 0, args),
            fresh(b.Pointers(opt.kind), kN, 0, args));
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.g, b.g);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerZipSweep,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kAdagrad,
                                           OptimizerKind::kRmsProp,
                                           OptimizerKind::kAdam),
                         [](const auto& info) {
                           return OptimizerKindName(info.param);
                         });

class OptimizerConvergenceSweep
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceSweep, ReducesQuadraticLoss) {
  OptimizerOptions opt;
  opt.kind = GetParam();
  switch (opt.kind) {
    case OptimizerKind::kSgd:
      opt.learning_rate = 0.3;
      break;
    case OptimizerKind::kAdagrad:
      opt.learning_rate = 1.0;  // Adagrad's shrinking steps need a big base
      break;
    default:
      opt.learning_rate = 0.1;
      break;
  }
  const size_t n = 8;
  std::vector<double> w(n, 5.0), s(n, 0.0), v(n, 0.0), g(n);
  auto loss = [&] {
    double total = 0;
    for (double x : w) total += 0.5 * x * x;
    return total;
  };
  double initial = loss();
  for (int t = 1; t <= 200; ++t) {
    for (size_t i = 0; i < n; ++i) g[i] = w[i];
    ApplyOptimizerStep(opt, t, w.data(), g.data(),
                       OptimizerStateVectors(opt.kind) >= 1 ? s.data()
                                                            : nullptr,
                       OptimizerStateVectors(opt.kind) >= 2 ? v.data()
                                                            : nullptr,
                       n);
  }
  EXPECT_LT(loss(), initial * 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceSweep,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kAdagrad,
                                           OptimizerKind::kRmsProp,
                                           OptimizerKind::kAdam),
                         [](const auto& info) {
                           return OptimizerKindName(info.param);
                         });

}  // namespace
}  // namespace ps2
