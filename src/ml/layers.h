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
/// carry the parameters and Adam moments. The layer keeps no
/// activations: a training step passes the matching Forward's input back
/// into Backward, and the caller's Scratch holds the layer's backward
/// buffers.
class Dense {
 public:
  /// One layer's backward buffers, reshaped per call (allocation-free
  /// once sized): X^T (dW = X^T dY runs as MatMulInto(X^T, dY)), W^T
  /// (dX = dY W^T) and db.
  struct Scratch {
    Matrix x_t;
    Matrix w_t;
    std::vector<float> db;
  };

  Dense(size_t in, size_t out, Rng& rng);

  /// y = x W + b into `y` (reshaped to x.rows() x out).
  void Forward(const Matrix& x, Matrix* y) const;
  /// AccumulateParamGrads, then dx = dY W^T into `dx`. `x` is the input
  /// of the Forward this gradient belongs to.
  void Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                Scratch* scratch);
  /// The parameter half of Backward: dW = X^T dY, written over the
  /// weight gradient, and db += colsum(dY), without the dY W^T product.
  /// The weight gradient must be 0 (as ZeroGrad and every Step's caller
  /// leave it): a GEMM sum starts at +0 and is never -0, so writing it
  /// has the bits of adding it to 0. For an input layer whose dL/dX
  /// nothing reads (the VAE encoder's), that product is the costliest
  /// part of the backward pass.
  void AccumulateParamGrads(const Matrix& x, const Matrix& dy,
                            Scratch* scratch);
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
};

/// The ReLU's backward pass in place, read off its output y = max(x, 0):
/// dy[i] *= (y[i] > 0 ? 1 : 0). y[i] > 0 exactly where x[i] > 0, so this
/// is the product with the forward pass's 0/1 mask, without keeping one.
/// The forward pass is ReluInPlace (matrix.h).
void ReluBackwardInPlace(const Matrix& y, Matrix* dy);

/// Numerically stable elementwise sigmoid: y[i] = 1 / (1 + exp(-x[i]))
/// for x[i] >= 0 and exp(x[i]) / (1 + exp(x[i])) otherwise, so the exp
/// never overflows — kernels.h's sigmoid_f32, whose exp is a port of
/// glibc's expf on a CPU with FMA (libm's elsewhere), bit-identical on
/// every tier. `y` may be `x` itself but may not partly overlap it.
void SigmoidArray(const float* x, float* y, size_t n);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_LAYERS_H_
