#include "ml/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace e2nvm::ml {

Lstm::Lstm(const LstmConfig& config)
    : config_(config),
      rng_(config.seed),
      w_(config.hidden_size + config.input_size, 4 * config.hidden_size),
      b_(1, 4 * config.hidden_size) {
  w_.value.XavierInit(rng_, config.hidden_size + config.input_size,
                      4 * config.hidden_size);
  // Forget-gate bias at +1: standard trick for gradient flow early on.
  for (size_t j = config.hidden_size; j < 2 * config.hidden_size; ++j) {
    b_.value(0, j) = 1.0f;
  }
  head_ = std::make_unique<Dense>(config.hidden_size, config.output_size,
                                  rng_);
}

Matrix Lstm::RunForward(const Matrix& x, bool train) {
  const size_t batch = x.rows();
  const size_t h_dim = config_.hidden_size;
  const size_t in_dim = config_.input_size;
  const size_t t_steps = config_.timesteps;
  E2_CHECK(x.cols() == in_dim * t_steps, "LSTM input width mismatch");

  if (train) {
    caches_.assign(t_steps, StepCache{});
  }
  Matrix h(batch, h_dim);
  Matrix c(batch, h_dim);
  for (size_t t = 0; t < t_steps; ++t) {
    // concat = [h_{t-1}, x_t]
    Matrix concat(batch, h_dim + in_dim);
    for (size_t r = 0; r < batch; ++r) {
      float* row = concat.Row(r);
      const float* hrow = h.Row(r);
      const float* xrow = x.Row(r) + t * in_dim;
      std::copy(hrow, hrow + h_dim, row);
      std::copy(xrow, xrow + in_dim, row + h_dim);
    }
    Matrix gates = MatMul(concat, w_.value);
    AddRowVector(gates, b_.value.data());

    Matrix ig(batch, h_dim), fg(batch, h_dim), og(batch, h_dim),
        gg(batch, h_dim);
    for (size_t r = 0; r < batch; ++r) {
      const float* grow = gates.Row(r);
      SigmoidArray(grow, ig.Row(r), h_dim);
      SigmoidArray(grow + h_dim, fg.Row(r), h_dim);
      SigmoidArray(grow + 2 * h_dim, og.Row(r), h_dim);
      for (size_t j = 0; j < h_dim; ++j) {
        gg(r, j) = std::tanh(grow[3 * h_dim + j]);
      }
    }
    Matrix c_prev = c;
    Matrix tanh_c(batch, h_dim);
    for (size_t idx = 0; idx < c.size(); ++idx) {
      c.data()[idx] = fg.data()[idx] * c.data()[idx] +
                      ig.data()[idx] * gg.data()[idx];
      tanh_c.data()[idx] = std::tanh(c.data()[idx]);
      h.data()[idx] = og.data()[idx] * tanh_c.data()[idx];
    }
    if (train) {
      StepCache& sc = caches_[t];
      sc.concat = std::move(concat);
      sc.i = std::move(ig);
      sc.f = std::move(fg);
      sc.o = std::move(og);
      sc.g = std::move(gg);
      sc.c = c;
      sc.tanh_c = std::move(tanh_c);
      sc.c_prev = std::move(c_prev);
    }
  }
  last_h_ = h;
  return h;
}

Matrix Lstm::Predict(const Matrix& x) {
  Matrix h = RunForward(x, /*train=*/false);
  return head_->Forward(h);
}

std::vector<float> Lstm::PredictOne(const std::vector<float>& window) {
  Matrix x(1, window.size(), window);
  Matrix y = Predict(x);
  return {y.data().begin(), y.data().end()};
}

double Lstm::TrainBatch(const Matrix& x, const Matrix& y) {
  const size_t batch = x.rows();
  const size_t h_dim = config_.hidden_size;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  Matrix h = RunForward(x, /*train=*/true);
  Matrix yhat = head_->Forward(h);

  double mse = 0.0;
  Matrix dyhat(yhat.rows(), yhat.cols());
  for (size_t i = 0; i < yhat.size(); ++i) {
    float diff = yhat.data()[i] - y.data()[i];
    mse += static_cast<double>(diff) * diff;
    dyhat.data()[i] = 2.0f * diff * inv_batch;
  }
  mse /= static_cast<double>(batch);

  Matrix dh = head_->Backward(dyhat);
  Matrix dc(batch, h_dim);

  for (size_t t = config_.timesteps; t-- > 0;) {
    const StepCache& sc = caches_[t];
    // Gate gradients (pre-activation), laid out [i f o g].
    Matrix dgates(batch, 4 * h_dim);
    for (size_t idx = 0; idx < dh.size(); ++idx) {
      float dht = dh.data()[idx];
      float dct = dc.data()[idx] +
                  dht * sc.o.data()[idx] *
                      (1.0f - sc.tanh_c.data()[idx] * sc.tanh_c.data()[idx]);
      float di = dct * sc.g.data()[idx];
      float df = dct * sc.c_prev.data()[idx];
      float do_ = dht * sc.tanh_c.data()[idx];
      float dg = dct * sc.i.data()[idx];
      size_t r = idx / h_dim;
      size_t j = idx % h_dim;
      float iv = sc.i.data()[idx];
      float fv = sc.f.data()[idx];
      float ov = sc.o.data()[idx];
      float gv = sc.g.data()[idx];
      dgates(r, j) = di * iv * (1.0f - iv);
      dgates(r, h_dim + j) = df * fv * (1.0f - fv);
      dgates(r, 2 * h_dim + j) = do_ * ov * (1.0f - ov);
      dgates(r, 3 * h_dim + j) = dg * (1.0f - gv * gv);
      dc.data()[idx] = dct * fv;  // Propagate cell gradient.
    }
    // Parameter gradients.
    AddInPlace(w_.grad, MatMulTransA(sc.concat, dgates));
    std::vector<float> db = ColSums(dgates);
    for (size_t j = 0; j < db.size(); ++j) b_.grad(0, j) += db[j];
    // dconcat -> dh_prev (first h_dim columns).
    Matrix dconcat = MatMulTransB(dgates, w_.value);
    for (size_t r = 0; r < batch; ++r) {
      const float* crow = dconcat.Row(r);
      float* hrow = dh.Row(r);
      std::copy(crow, crow + h_dim, hrow);
    }
  }

  ++step_;
  w_.Step(config_.adam, step_);
  b_.Step(config_.adam, step_);
  head_->Step(config_.adam, step_);
  w_.ZeroGrad();
  b_.ZeroGrad();
  head_->ZeroGrad();
  return mse;
}

std::vector<double> Lstm::Train(const Matrix& x, const Matrix& y, int epochs,
                                size_t batch_size, uint64_t shuffle_seed) {
  std::vector<double> curve;
  const size_t n = x.rows();
  Rng shuffle_rng(shuffle_seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (int e = 0; e < epochs; ++e) {
    shuffle_rng.Shuffle(order);
    double total = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n; start += batch_size) {
      size_t bs = std::min(batch_size, n - start);
      Matrix bx(bs, x.cols());
      Matrix by(bs, y.cols());
      for (size_t i = 0; i < bs; ++i) {
        bx.CopyRowFrom(x, order[start + i], i);
        by.CopyRowFrom(y, order[start + i], i);
      }
      total += TrainBatch(bx, by);
      ++batches;
    }
    curve.push_back(batches ? total / batches : 0.0);
  }
  return curve;
}

double Lstm::PredictFlops() const {
  double per_step = 2.0 *
                    static_cast<double>(config_.hidden_size +
                                        config_.input_size) *
                    4.0 * static_cast<double>(config_.hidden_size);
  return per_step * static_cast<double>(config_.timesteps) +
         2.0 * static_cast<double>(config_.hidden_size) *
             static_cast<double>(config_.output_size);
}

size_t Lstm::ParamCount() const {
  return w_.size() + b_.size() + head_->ParamCount();
}

}  // namespace e2nvm::ml
