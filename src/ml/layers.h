#ifndef E2NVM_ML_LAYERS_H_
#define E2NVM_ML_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "ml/matrix.h"

namespace e2nvm::ml {

/// Adam hyper-parameters (Kingma & Ba), the optimizer used throughout —
/// matching the paper's `optimizer='adam'` snippet.
struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

/// A trainable parameter tensor: value, accumulated gradient, and Adam
/// moment estimates.
class ParamBlock {
 public:
  ParamBlock() = default;
  ParamBlock(size_t rows, size_t cols)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}

  /// Applies one Adam update with bias correction at step `t` (1-based),
  /// then leaves the gradient untouched (call ZeroGrad separately).
  void Step(const AdamConfig& cfg, int t);

  void ZeroGrad() { grad.Fill(0.0f); }

  size_t size() const { return value.size(); }

  Matrix value;
  Matrix grad;
  Matrix m;
  Matrix v;
};

/// Fully-connected layer: Y = X W + b, W is (in x out). A value: copies
/// carry the parameters, Adam moments and training scratch.
class Dense {
 public:
  Dense(size_t in, size_t out, Rng& rng);

  /// Forward pass; caches the input for Backward.
  Matrix Forward(const Matrix& x);
  /// AccumulateParamGrads, then returns dL/dX = dY W^T. Must follow the
  /// matching Forward.
  Matrix Backward(const Matrix& dy);
  /// The parameter half of Backward: dW += X^T dY, db += colsum(dY),
  /// without the dY W^T product. For an input layer whose dL/dX nothing
  /// reads (the VAE encoder's), that product is the costliest part of
  /// the backward pass.
  void AccumulateParamGrads(const Matrix& dy);
  void Step(const AdamConfig& cfg, int t);
  void ZeroGrad();
  size_t ParamCount() const { return w_.size() + b_.size(); }
  /// Appends the layer's parameter blocks to `out`.
  void AppendParams(std::vector<const ParamBlock*>* out) const {
    out->push_back(&w_);
    out->push_back(&b_);
  }
  /// Multiply-accumulate count of one forward pass over `batch` rows —
  /// consumed by the CPU energy model (Figs 8, 16, 18).
  double ForwardFlops(size_t batch) const {
    return 2.0 * static_cast<double>(batch) * static_cast<double>(in_) *
           static_cast<double>(out_);
  }

  size_t in() const { return in_; }
  size_t out() const { return out_; }
  ParamBlock& weights() { return w_; }
  ParamBlock& bias() { return b_; }
  const ParamBlock& weights() const { return w_; }
  const ParamBlock& bias() const { return b_; }

 private:
  size_t in_;
  size_t out_;
  ParamBlock w_;
  ParamBlock b_;  // 1 x out
  // Reused training scratch: the last Forward's input transposed (dW =
  // X^T dY runs as MatMulInto(X^T, dY)), W^T for dX = dY W^T, and dW.
  Matrix x_t_;
  Matrix w_t_;
  Matrix dw_;
};

/// Elementwise ReLU; caches the mask of its last Forward.
class Relu {
 public:
  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);
  /// One op per element of the last Forward's width (0 before any).
  double ForwardFlops(size_t batch) const {
    return static_cast<double>(batch) *
           static_cast<double>(mask_.cols());
  }

 private:
  Matrix mask_;
};

/// Numerically stable elementwise sigmoid: y[i] = 1 / (1 + exp(-x[i]))
/// for x[i] >= 0 and exp(x[i]) / (1 + exp(x[i])) otherwise, with libm's
/// exp, so the exp never overflows. `y` may not alias `x`.
void SigmoidArray(const float* x, float* y, size_t n);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_LAYERS_H_
