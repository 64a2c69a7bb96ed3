#include "ml/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/kernels.h"

namespace e2nvm::ml {
namespace {

/// Numerical gradient check: perturbs each parameter/input and compares
/// the finite-difference slope of a scalar loss L = sum(Y) against the
/// analytic gradient from Backward(ones).
double SumForward(const Dense& layer, const Matrix& x) {
  Matrix y;
  layer.Forward(x, &y);
  double s = 0;
  for (float v : y.data()) s += v;
  return s;
}

TEST(DenseTest, ForwardMatchesManual) {
  Rng rng(1);
  Dense d(2, 2, rng);
  d.weights().value(0, 0) = 1;
  d.weights().value(0, 1) = 2;
  d.weights().value(1, 0) = 3;
  d.weights().value(1, 1) = 4;
  d.bias().value(0, 0) = 10;
  d.bias().value(0, 1) = 20;
  Matrix x(1, 2);
  x(0, 0) = 1;
  x(0, 1) = 1;
  Matrix y;
  d.Forward(x, &y);
  EXPECT_FLOAT_EQ(y(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y(0, 1), 2 + 4 + 20);
}

TEST(DenseTest, GradientCheckWeights) {
  Rng rng(2);
  Dense d(3, 2, rng);
  Matrix x(4, 3);
  for (auto& v : x.data()) v = rng.NextFloat() - 0.5f;

  // Analytic gradient of L = sum(Y).
  Matrix dy(4, 2);
  dy.Fill(1.0f);
  d.ZeroGrad();
  Matrix dx;
  Dense::Scratch scratch;
  d.Backward(x, dy, &dx, &scratch);

  const float eps = 1e-3f;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      float orig = d.weights().value(i, j);
      d.weights().value(i, j) = orig + eps;
      double up = SumForward(d, x);
      d.weights().value(i, j) = orig - eps;
      double down = SumForward(d, x);
      d.weights().value(i, j) = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(d.weights().grad(i, j), numeric, 1e-2)
          << "w(" << i << "," << j << ")";
    }
  }
  // Input gradient: dL/dx = sum over outputs of W.
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 3; ++i) {
      float expect =
          d.weights().value(i, 0) + d.weights().value(i, 1);
      EXPECT_NEAR(dx(r, i), expect, 1e-4);
    }
  }
}

TEST(DenseTest, BiasGradientIsBatchCount) {
  Rng rng(3);
  Dense d(2, 2, rng);
  Matrix x(5, 2);
  for (auto& v : x.data()) v = rng.NextFloat();
  Matrix dy(5, 2);
  dy.Fill(1.0f);
  d.ZeroGrad();
  Matrix dx;
  Dense::Scratch scratch;
  d.Backward(x, dy, &dx, &scratch);
  EXPECT_FLOAT_EQ(d.bias().grad(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(d.bias().grad(0, 1), 5.0f);
}

TEST(ActivationTest, ReluForwardAndGradient) {
  Matrix y(1, 4);
  y(0, 0) = -1;
  y(0, 1) = 2;
  y(0, 2) = 0;
  y(0, 3) = 3;
  ReluInPlace(y);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 1), 2);
  EXPECT_FLOAT_EQ(y(0, 3), 3);
  Matrix dx(1, 4);
  dx.Fill(1.0f);
  ReluBackwardInPlace(y, &dx);
  EXPECT_FLOAT_EQ(dx(0, 0), 0);
  EXPECT_FLOAT_EQ(dx(0, 1), 1);
  EXPECT_FLOAT_EQ(dx(0, 2), 0);
  EXPECT_FLOAT_EQ(dx(0, 3), 1);
}

TEST(SigmoidTest, OutputsInUnitInterval) {
  const float x[3] = {-100, 0, 100};
  float y[3];
  SigmoidArray(x, y, 3);
  EXPECT_NEAR(y[0], 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-6);
}

/// The bit-identity oracle: the scalar tier's two-branch sigmoid
/// (kernels.h sigmoid_f32), one element at a time. Its expf is the
/// kernels' port or libm's, whichever this CPU's scalar tier runs;
/// KernelsTest.PortMatchesLibmOnFmaCpus checks the port against the
/// two-branch form with libm's expf.
float TwoBranchSigmoid(float x) {
  float y;
  OpsFor(SimdLevel::kScalar)->sigmoid_f32(&x, &y, 1);
  return y;
}

uint32_t BitsOf(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Every input's SigmoidArray output has the oracle's bits, NaN payloads
/// included; the array also runs on every length up to 40 at three
/// offsets, so vector bodies and scalar tails both see each input.
void ExpectSigmoidMatchesOracle(const std::vector<float>& xs) {
  std::vector<float> ys(xs.size());
  SigmoidArray(xs.data(), ys.data(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint32_t want = BitsOf(TwoBranchSigmoid(xs[i]));
    ASSERT_EQ(BitsOf(ys[i]), want)
        << "x bits 0x" << std::hex << BitsOf(xs[i]);
  }
  std::vector<float> part(40);
  for (size_t off = 0; off < 3 && off < xs.size(); ++off) {
    for (size_t n = 1; n <= 40 && off + n <= xs.size(); ++n) {
      SigmoidArray(xs.data() + off, part.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(BitsOf(part[i]), BitsOf(ys[off + i]))
            << "offset " << off << " length " << n << " element " << i;
      }
    }
  }
}

TEST(SigmoidTest, ArrayMatchesTheTwoBranchSigmoidOnEdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> xs = {
      0.0f, -0.0f, denorm, -denorm, FromBits(0x007fffffu),
      FromBits(0x807fffffu), std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(), inf, -inf,
      std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      FromBits(0x7fc12345u), FromBits(0xffc54321u), FromBits(0x7fa00001u),
      FromBits(0xff800001u)};
  // expf's overflow edge (88.72), where its result turns denormal
  // (-87.34) and where it underflows to zero (-103.97), on both signs,
  // 64 ulps either way.
  for (float edge : {88.72284f, 87.33655f, 103.97208f}) {
    for (float sign : {1.0f, -1.0f}) {
      float lo = sign * edge, hi = sign * edge;
      for (int step = 0; step < 64; ++step) {
        xs.push_back(lo);
        xs.push_back(hi);
        lo = std::nextafter(lo, -inf);
        hi = std::nextafter(hi, inf);
      }
    }
  }
  ExpectSigmoidMatchesOracle(xs);
}

TEST(SigmoidTest, ArrayMatchesTheTwoBranchSigmoidOnRandomBits) {
  Rng rng(20);
  std::vector<float> xs(1u << 18);
  for (auto& x : xs) x = FromBits(static_cast<uint32_t>(rng.NextU64()));
  ExpectSigmoidMatchesOracle(xs);
  // And on logits of a decoder's range, where both signs are common.
  for (auto& x : xs) x = rng.NextFloat() * 40.0f - 20.0f;
  ExpectSigmoidMatchesOracle(xs);
}

TEST(AdamTest, StepReducesSimpleQuadratic) {
  // Minimize f(w) = (w - 3)^2 with Adam on a 1x1 ParamBlock.
  ParamBlock w(1, 1);
  w.value(0, 0) = 0.0f;
  AdamConfig cfg;
  cfg.lr = 0.1f;
  for (int t = 1; t <= 300; ++t) {
    w.grad(0, 0) = 2.0f * (w.value(0, 0) - 3.0f);
    w.Step(cfg, t);
    w.ZeroGrad();
  }
  EXPECT_NEAR(w.value(0, 0), 3.0f, 0.05f);
}

TEST(DenseTest, LearnsLinearMap) {
  // y = 2x: a single Dense should fit it quickly.
  Rng rng(7);
  Dense d(1, 1, rng);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  Dense::Scratch scratch;
  for (int t = 1; t <= 500; ++t) {
    Matrix x(8, 1);
    for (auto& v : x.data()) v = rng.NextFloat() * 2 - 1;
    Matrix y;
    d.Forward(x, &y);
    Matrix dy(8, 1);
    double loss = 0;
    for (size_t i = 0; i < 8; ++i) {
      float diff = y(i, 0) - 2.0f * x(i, 0);
      loss += diff * diff;
      dy(i, 0) = 2.0f * diff / 8.0f;
    }
    d.ZeroGrad();
    Matrix dx;
    d.Backward(x, dy, &dx, &scratch);
    d.Step(cfg, t);
  }
  Matrix probe(1, 1);
  probe(0, 0) = 0.5f;
  Matrix out;
  d.Forward(probe, &out);
  EXPECT_NEAR(out(0, 0), 1.0f, 0.05f);
}

}  // namespace
}  // namespace e2nvm::ml
