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

Matrix Sigmoid::Forward(const Matrix& x) {
  y_cache_ = Matrix(x.rows(), x.cols());
  SigmoidArray(x.data().data(), y_cache_.data().data(), x.size());
  return y_cache_;
}

Matrix Sigmoid::Backward(const Matrix& dy) {
  Matrix dx(dy.rows(), dy.cols());
  for (size_t i = 0; i < dy.size(); ++i) {
    float y = y_cache_.data()[i];
    dx.data()[i] = dy.data()[i] * y * (1.0f - y);
  }
  return dx;
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

Matrix Tanh::Forward(const Matrix& x) {
  y_cache_ = Matrix(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i) {
    y_cache_.data()[i] = std::tanh(x.data()[i]);
  }
  return y_cache_;
}

Matrix Tanh::Backward(const Matrix& dy) {
  Matrix dx(dy.rows(), dy.cols());
  for (size_t i = 0; i < dy.size(); ++i) {
    float y = y_cache_.data()[i];
    dx.data()[i] = dy.data()[i] * (1.0f - y * y);
  }
  return dx;
}

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->Clone());
}

Matrix Sequential::Forward(const Matrix& x) {
  Matrix cur = x;
  for (auto& l : layers_) cur = l->Forward(cur);
  return cur;
}

Matrix Sequential::Backward(const Matrix& dy) {
  Matrix cur = dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->Backward(cur);
  }
  return cur;
}

void Sequential::Step(const AdamConfig& cfg, int t) {
  for (auto& l : layers_) l->Step(cfg, t);
}

void Sequential::ZeroGrad() {
  for (auto& l : layers_) l->ZeroGrad();
}

size_t Sequential::ParamCount() const {
  size_t n = 0;
  for (const auto& l : layers_) n += l->ParamCount();
  return n;
}

void Sequential::AppendParams(std::vector<const ParamBlock*>* out) const {
  for (const auto& l : layers_) l->AppendParams(out);
}

double Sequential::ForwardFlops(size_t batch) const {
  double f = 0;
  for (const auto& l : layers_) f += l->ForwardFlops(batch);
  return f;
}

}  // namespace e2nvm::ml
