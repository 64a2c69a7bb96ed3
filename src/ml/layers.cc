#include "ml/layers.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/kernels.h"

namespace e2nvm::ml {

void ParamBlock::Step(const AdamConfig& cfg, int t) {
  const AdamStep step{
      .beta1 = cfg.beta1,
      .beta2 = cfg.beta2,
      .lr = cfg.lr,
      .eps = cfg.eps,
      .correction1 = 1.0f - std::pow(cfg.beta1, static_cast<float>(t)),
      .correction2 = 1.0f - std::pow(cfg.beta2, static_cast<float>(t))};
  Ops().adam_f32(value.data().data(), m.data().data(), v.data().data(),
                 grad.data().data(), value.size(), step);
}

Dense::Dense(size_t in, size_t out, Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out) {
  w_.value.XavierInit(rng, in, out);
}

Matrix Dense::Forward(const Matrix& x) {
  TransposeInto(x, &x_t_);
  Matrix y = MatMul(x, w_.value);
  AddRowVector(y, b_.value.data());
  return y;
}

Matrix Dense::Backward(const Matrix& dy) {
  AccumulateParamGrads(dy);
  // dX = dY W^T, as MatMulTransB computes it, on this step's weights.
  TransposeInto(w_.value, &w_t_);
  Matrix dx;
  MatMulInto(dy, w_t_, &dx);
  return dx;
}

void Dense::AccumulateParamGrads(const Matrix& dy) {
  // dW += X^T dY ; db += colsum(dY).
  MatMulInto(x_t_, dy, &dw_);
  AddInPlace(w_.grad, dw_);
  std::vector<float> db = ColSums(dy);
  for (size_t j = 0; j < db.size(); ++j) b_.grad(0, j) += db[j];
}

void Dense::Step(const AdamConfig& cfg, int t) {
  w_.Step(cfg, t);
  b_.Step(cfg, t);
}

void Dense::ZeroGrad() {
  w_.ZeroGrad();
  b_.ZeroGrad();
}

namespace {

/// The argument the stable sigmoid exponentiates, x >= 0 ? -x : x (+0
/// and -0 flip, NaN stays). Negation flips the sign bit alone, so the
/// compare picks the flip and no branch does: on random logits a branch
/// here mispredicts half the time.
float SigmoidExpArg(float x) {
  const uint32_t flip = static_cast<uint32_t>(x >= 0) << 31;
  return std::bit_cast<float>(std::bit_cast<uint32_t>(x) ^ flip);
}

}  // namespace

void SigmoidArray(const float* __restrict x, float* __restrict y,
                  size_t n) {
  // Two passes: libm exp, call for call, then the select and divide, a
  // loop with no branch that the compiler vectorizes.
  for (size_t i = 0; i < n; ++i) y[i] = std::exp(SigmoidExpArg(x[i]));
  for (size_t i = 0; i < n; ++i) {
    y[i] = (x[i] >= 0 ? 1.0f : y[i]) / (1.0f + y[i]);
  }
}

Matrix Relu::Forward(const Matrix& x) {
  mask_ = Matrix(x.rows(), x.cols());
  Matrix y(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i) {
    bool pos = x.data()[i] > 0.0f;
    mask_.data()[i] = pos ? 1.0f : 0.0f;
    y.data()[i] = pos ? x.data()[i] : 0.0f;
  }
  return y;
}

Matrix Relu::Backward(const Matrix& dy) { return Hadamard(dy, mask_); }

}  // namespace e2nvm::ml
