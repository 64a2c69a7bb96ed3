#ifndef E2NVM_ML_LAYERS_H_
#define E2NVM_ML_LAYERS_H_

#include <memory>
#include <string>
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

/// Abstract differentiable layer operating on (batch x features) matrices.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; caches whatever Backward needs.
  virtual Matrix Forward(const Matrix& x) = 0;

  /// Backward pass: receives dL/dY, accumulates parameter gradients,
  /// returns dL/dX. Must follow the matching Forward.
  virtual Matrix Backward(const Matrix& dy) = 0;

  virtual void Step(const AdamConfig& cfg, int t) {}
  virtual void ZeroGrad() {}
  virtual size_t ParamCount() const { return 0; }
  /// Appends the layer's parameter blocks to `out`.
  virtual void AppendParams(std::vector<const ParamBlock*>* out) const {}

  /// Multiply-accumulate count of one forward pass over `batch` rows —
  /// consumed by the CPU energy model (Figs 8, 16, 18).
  virtual double ForwardFlops(size_t batch) const = 0;

  /// A deep copy: parameters, Adam moments and cached state.
  virtual std::unique_ptr<Layer> Clone() const = 0;
};

/// Fully-connected layer: Y = X W + b, W is (in x out).
class Dense : public Layer {
 public:
  Dense(size_t in, size_t out, Rng& rng);

  Matrix Forward(const Matrix& x) override;
  /// AccumulateParamGrads, then returns dL/dX = dY W^T.
  Matrix Backward(const Matrix& dy) override;
  /// The parameter half of Backward: dW += X^T dY, db += colsum(dY),
  /// without the dY W^T product. For an input layer whose dL/dX nothing
  /// reads (the VAE encoder's), that product is the costliest part of
  /// the backward pass.
  void AccumulateParamGrads(const Matrix& dy);
  void Step(const AdamConfig& cfg, int t) override;
  void ZeroGrad() override;
  size_t ParamCount() const override { return w_.size() + b_.size(); }
  void AppendParams(std::vector<const ParamBlock*>* out) const override {
    out->push_back(&w_);
    out->push_back(&b_);
  }
  double ForwardFlops(size_t batch) const override {
    return 2.0 * static_cast<double>(batch) * static_cast<double>(in_) *
           static_cast<double>(out_);
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Dense>(*this);
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

/// Elementwise sigmoid.
class Sigmoid : public Layer {
 public:
  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& dy) override;
  double ForwardFlops(size_t batch) const override {
    return 4.0 * static_cast<double>(batch) *
           static_cast<double>(y_cache_.cols());
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Sigmoid>(*this);
  }

 private:
  Matrix y_cache_;
};

/// Elementwise ReLU.
class Relu : public Layer {
 public:
  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& dy) override;
  double ForwardFlops(size_t batch) const override {
    return static_cast<double>(batch) *
           static_cast<double>(mask_.cols());
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>(*this);
  }

 private:
  Matrix mask_;
};

/// Elementwise tanh.
class Tanh : public Layer {
 public:
  Matrix Forward(const Matrix& x) override;
  Matrix Backward(const Matrix& dy) override;
  double ForwardFlops(size_t batch) const override {
    return 5.0 * static_cast<double>(batch) *
           static_cast<double>(y_cache_.cols());
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Tanh>(*this);
  }

 private:
  Matrix y_cache_;
};

/// A sequential stack of layers. Copies are deep (Layer::Clone).
class Sequential {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);
  void Step(const AdamConfig& cfg, int t);
  void ZeroGrad();
  size_t ParamCount() const;
  void AppendParams(std::vector<const ParamBlock*>* out) const;
  double ForwardFlops(size_t batch) const;

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Numerically stable elementwise sigmoid: y[i] = 1 / (1 + exp(-x[i]))
/// for x[i] >= 0 and exp(x[i]) / (1 + exp(x[i])) otherwise, with libm's
/// exp, so the exp never overflows. `y` may not alias `x`.
void SigmoidArray(const float* x, float* y, size_t n);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_LAYERS_H_
