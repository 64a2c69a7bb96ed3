#include "ml/layers.h"

#include <cmath>

namespace e2nvm::ml {

void ParamBlock::Step(const AdamConfig& cfg, int t) {
  const float b1 = cfg.beta1;
  const float b2 = cfg.beta2;
  const float correction1 =
      1.0f - std::pow(b1, static_cast<float>(t));
  const float correction2 =
      1.0f - std::pow(b2, static_cast<float>(t));
  for (size_t i = 0; i < value.size(); ++i) {
    float g = grad.data()[i];
    float& mi = m.data()[i];
    float& vi = v.data()[i];
    mi = b1 * mi + (1.0f - b1) * g;
    vi = b2 * vi + (1.0f - b2) * g * g;
    float mhat = mi / correction1;
    float vhat = vi / correction2;
    value.data()[i] -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
  }
}

Dense::Dense(size_t in, size_t out, Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out) {
  w_.value.XavierInit(rng, in, out);
}

Matrix Dense::Forward(const Matrix& x) {
  x_cache_ = x;
  Matrix y = MatMul(x, w_.value);
  AddRowVector(y, b_.value.data());
  return y;
}

Matrix Dense::Backward(const Matrix& dy) {
  AccumulateParamGrads(dy);
  return MatMulTransB(dy, w_.value);
}

void Dense::AccumulateParamGrads(const Matrix& dy) {
  // dW += X^T dY ; db += colsum(dY).
  Matrix dw = MatMulTransA(x_cache_, dy);
  AddInPlace(w_.grad, dw);
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

Matrix Sigmoid::Forward(const Matrix& x) {
  y_cache_ = Matrix(x.rows(), x.cols());
  for (size_t i = 0; i < x.size(); ++i) {
    y_cache_.data()[i] = SigmoidScalar(x.data()[i]);
  }
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

double Sequential::ForwardFlops(size_t batch) const {
  double f = 0;
  for (const auto& l : layers_) f += l->ForwardFlops(batch);
  return f;
}

}  // namespace e2nvm::ml
