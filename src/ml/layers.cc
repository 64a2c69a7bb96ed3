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

void Dense::Forward(const Matrix& x, Matrix* y) const {
  MatMulInto(x, w_.value, y);
  AddRowVector(*y, b_.value.data());
}

void Dense::Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                     Scratch* scratch) {
  AccumulateParamGrads(x, dy, scratch);
  // dX = dY W^T, as MatMulTransB computes it, on this step's weights.
  TransposeInto(w_.value, &scratch->w_t);
  MatMulInto(dy, scratch->w_t, dx);
}

void Dense::AccumulateParamGrads(const Matrix& x, const Matrix& dy,
                                 Scratch* scratch) {
  // dW += X^T dY ; db += colsum(dY), summed as ColSums does.
  TransposeInto(x, &scratch->x_t);
  MatMulInto(scratch->x_t, dy, &scratch->dw);
  AddInPlace(w_.grad, scratch->dw);
  std::vector<float>& db = scratch->db;
  db.assign(dy.cols(), 0.0f);
  for (size_t i = 0; i < dy.rows(); ++i) {
    const float* row = dy.Row(i);
    for (size_t j = 0; j < db.size(); ++j) db[j] += row[j];
  }
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

void ReluBackwardInPlace(const Matrix& y, Matrix* dy) {
  float* d = dy->data().data();
  const float* out = y.data().data();
  for (size_t i = 0; i < dy->size(); ++i) {
    d[i] *= out[i] > 0.0f ? 1.0f : 0.0f;
  }
}

}  // namespace e2nvm::ml
