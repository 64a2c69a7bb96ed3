#include "ml/vae.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace e2nvm::ml {

namespace {
constexpr float kLogvarMin = -8.0f;
constexpr float kLogvarMax = 8.0f;

/// Elements per parallel block of the flat elementwise loops. Fixed so
/// the block count depends only on the tensor size; reductions combine
/// per-block partials in block order (pool-size invariant).
constexpr size_t kElemGrain = 16 * 1024;

/// Runs body(lo, hi, block) over [0, n): on the compute pool when one is
/// installed and the loop is large enough, else as a single serial block
/// (identical arithmetic to the pre-parallel code).
void ForElements(size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  ThreadPool* pool = compute_pool();
  if (pool != nullptr && n >= 2 * kElemGrain) {
    pool->ParallelForBlocks(0, n, kElemGrain, body);
  } else {
    body(0, n, 0);
  }
}

double BceSum(const Matrix& probs, const Matrix& x) {
  std::vector<double> partial(
      std::max<size_t>(ThreadPool::NumBlocks(probs.size(), kElemGrain), 1),
      0.0);
  ForElements(probs.size(), [&](size_t lo, size_t hi, size_t blk) {
    double l = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      float p = std::clamp(probs.data()[i], 1e-7f, 1.0f - 1e-7f);
      float t = x.data()[i];
      l -= static_cast<double>(t) * std::log(p) +
           (1.0 - static_cast<double>(t)) * std::log(1.0f - p);
    }
    partial[blk] += l;
  });
  double loss = 0.0;
  for (double l : partial) loss += l;
  return loss;
}

/// probs = sigmoid(logits), elementwise.
Matrix SigmoidAll(const Matrix& logits) {
  Matrix probs(logits.rows(), logits.cols());
  ForElements(logits.size(), [&](size_t lo, size_t hi, size_t) {
    SigmoidArray(logits.data().data() + lo, probs.data().data() + lo,
                 hi - lo);
  });
  return probs;
}

/// KL(q(z|x) || N(0, I)) summed over a batch, before the beta weight.
double KlSum(const Matrix& mu, const Matrix& logvar) {
  double kl = 0.0;
  for (size_t i = 0; i < mu.size(); ++i) {
    float m = mu.data()[i];
    float lv = logvar.data()[i];
    kl += -0.5 * (1.0 + lv - m * m - std::exp(lv));
  }
  return kl;
}
}  // namespace

Vae::Vae(const VaeConfig& config)
    : config_(config),
      rng_(config.seed),
      enc_in_(config.input_dim, config.hidden_dim, rng_),
      mu_head_(config.hidden_dim, config.latent_dim, rng_),
      logvar_head_(config.hidden_dim, config.latent_dim, rng_),
      dec_in_(config.latent_dim, config.hidden_dim, rng_),
      dec_out_(config.hidden_dim, config.input_dim, rng_) {}

void Vae::EncodeForward(const Matrix& x, Matrix* mu, Matrix* logvar) {
  Matrix h = enc_relu_.Forward(enc_in_.Forward(x));
  *mu = mu_head_.Forward(h);
  *logvar = logvar_head_.Forward(h);
  for (auto& v : logvar->data()) v = std::clamp(v, kLogvarMin, kLogvarMax);
}

Matrix Vae::DecodeForward(const Matrix& z) {
  return dec_out_.Forward(dec_relu_.Forward(dec_in_.Forward(z)));
}

Matrix Vae::EncodeMu(const Matrix& x) const {
  Matrix hidden, mu;
  EncodeMuInto(x, &hidden, &mu);
  return mu;
}

void Vae::EncodeMuInto(const Matrix& x, Matrix* hidden,
                       Matrix* mu) const {
  E2_CHECK(x.cols() == config_.input_dim, "EncodeMuInto dim mismatch");
  // Mirrors EncodeForward's mu branch op for op (Dense::Forward is
  // MatMul + AddRowVector; Relu::Forward's outputs are max(v, 0)), so
  // the latent codes match the training forward pass bit for bit.
  MatMulInto(x, enc_in_.weights().value, hidden);
  AddRowVector(*hidden, enc_in_.bias().value.data());
  ReluInPlace(*hidden);
  MatMulInto(*hidden, mu_head_.weights().value, mu);
  AddRowVector(*mu, mu_head_.bias().value.data());
}

Matrix Vae::Decode(const Matrix& z) {
  return SigmoidAll(DecodeForward(z));
}

void Vae::TrainBatch(const Matrix& x, const VaeTrainOptions& opts,
                     BatchLoss* loss) {
  const size_t batch = x.rows();
  const float inv_batch = 1.0f / static_cast<float>(batch);

  // ---- Forward ----
  Matrix mu, logvar;
  EncodeForward(x, &mu, &logvar);

  // Reparameterization: z = mu + exp(logvar/2) * eps, eps ~ N(0, I).
  Matrix eps(batch, config_.latent_dim);
  for (auto& e : eps.data()) e = static_cast<float>(rng_.NextGaussian());
  Matrix sigma(batch, config_.latent_dim);
  Matrix z(batch, config_.latent_dim);
  for (size_t i = 0; i < z.size(); ++i) {
    sigma.data()[i] = std::exp(0.5f * logvar.data()[i]);
    z.data()[i] = mu.data()[i] + sigma.data()[i] * eps.data()[i];
  }

  Matrix probs = SigmoidAll(DecodeForward(z));

  // The losses read the forward pass and feed no gradient, so a caller
  // that drops them (fine-tuning, PartialFit) skips their logs and exps.
  if (loss != nullptr) {
    *loss = BatchLoss();
    loss->recon = BceSum(probs, x) / static_cast<double>(batch);
    loss->kl = config_.beta * KlSum(mu, logvar) / static_cast<double>(batch);
  }

  // ---- Backward ----
  // d(BCE with logits)/dlogits = (p - x), averaged over the batch.
  Matrix dlogits(probs.rows(), probs.cols());
  ForElements(probs.size(), [&](size_t lo, size_t hi, size_t) {
    for (size_t i = lo; i < hi; ++i) {
      dlogits.data()[i] = (probs.data()[i] - x.data()[i]) * inv_batch;
    }
  });
  Matrix dz =
      dec_in_.Backward(dec_relu_.Backward(dec_out_.Backward(dlogits)));

  // Optional joint K-means term: cluster_weight * ||z - c||^2.
  if (opts.centroids != nullptr && opts.assignments != nullptr &&
      opts.cluster_weight > 0.0f) {
    const Matrix& cents = *opts.centroids;
    const auto& assign = *opts.assignments;
    E2_CHECK(assign.size() == batch, "assignment/batch size mismatch");
    double closs = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      const float* crow = cents.Row(assign[i]);
      for (size_t d = 0; d < config_.latent_dim; ++d) {
        float diff = z(i, d) - crow[d];
        closs += static_cast<double>(diff) * diff;
        dz(i, d) += opts.cluster_weight * 2.0f * diff * inv_batch;
      }
    }
    if (loss != nullptr) {
      loss->cluster =
          opts.cluster_weight * closs / static_cast<double>(batch);
    }
  }

  // Gradients wrt mu and logvar: z = mu + sigma * eps.
  Matrix dmu = dz;  // dz/dmu = 1.
  Matrix dlogvar(batch, config_.latent_dim);
  for (size_t i = 0; i < dz.size(); ++i) {
    dlogvar.data()[i] =
        dz.data()[i] * eps.data()[i] * 0.5f * sigma.data()[i];
  }
  // KL gradients: dKL/dmu = mu, dKL/dlogvar = 0.5 (e^logvar - 1).
  const float beta_scale = config_.beta * inv_batch;
  for (size_t i = 0; i < dmu.size(); ++i) {
    dmu.data()[i] += beta_scale * mu.data()[i];
    dlogvar.data()[i] +=
        beta_scale * 0.5f * (std::exp(logvar.data()[i]) - 1.0f);
  }

  Matrix dh = mu_head_.Backward(dmu);
  AddInPlace(dh, logvar_head_.Backward(dlogvar));
  // Nothing reads dL/dx, so the input layer accumulates its parameter
  // gradients only.
  enc_in_.AccumulateParamGrads(enc_relu_.Backward(dh));

  // ---- Update ----
  ++step_;
  for (Dense* layer :
       {&enc_in_, &mu_head_, &logvar_head_, &dec_in_, &dec_out_}) {
    layer->Step(config_.adam, step_);
    layer->ZeroGrad();
  }
}

double Vae::EvalLoss(const Matrix& x) {
  Matrix mu, logvar;
  EncodeForward(x, &mu, &logvar);
  Matrix probs = Decode(mu);  // eps = 0: z = mu.
  double recon = BceSum(probs, x) / static_cast<double>(x.rows());
  return recon +
         config_.beta * KlSum(mu, logvar) / static_cast<double>(x.rows());
}

TrainHistory Vae::Train(const Matrix& x, const VaeTrainOptions& opts) {
  TrainHistory history;
  const size_t n = x.rows();
  Rng shuffle_rng(opts.shuffle_seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  shuffle_rng.Shuffle(order);

  size_t val_n = static_cast<size_t>(
      static_cast<double>(n) * opts.validation_fraction);
  val_n = std::min(val_n, n > 1 ? n - 1 : size_t{0});
  size_t train_n = n - val_n;

  Matrix val(val_n, x.cols());
  for (size_t i = 0; i < val_n; ++i) {
    val.CopyRowFrom(x, order[train_n + i], i);
  }

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    shuffle_rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < train_n; start += opts.batch_size) {
      size_t bs = std::min(opts.batch_size, train_n - start);
      Matrix batch(bs, x.cols());
      for (size_t i = 0; i < bs; ++i) {
        batch.CopyRowFrom(x, order[start + i], i);
      }
      // The joint-clustering option needs per-batch assignments, which the
      // caller supplies only for full-batch fine-tuning (see E2Model);
      // inside this generic loop we train the pure ELBO.
      VaeTrainOptions batch_opts = opts;
      batch_opts.centroids = nullptr;
      batch_opts.assignments = nullptr;
      BatchLoss l;
      TrainBatch(batch, batch_opts, &l);
      epoch_loss += l.total();
      ++batches;
      history.flops += TrainStepFlops(bs);
    }
    history.train_loss.push_back(batches ? epoch_loss / batches : 0.0);
    history.val_loss.push_back(val_n > 0 ? EvalLoss(val)
                                         : history.train_loss.back());
  }
  return history;
}

double Vae::PartialFit(const Matrix& x, size_t batch_size) {
  const size_t n = x.rows();
  if (n == 0) return 0.0;
  const size_t bs_cap = batch_size == 0 ? n : batch_size;
  VaeTrainOptions opts;  // Pure ELBO; no clustering term.
  double flops = 0.0;
  for (size_t start = 0; start < n; start += bs_cap) {
    const size_t bs = std::min(bs_cap, n - start);
    if (bs == n) {
      TrainBatch(x, opts);
    } else {
      Matrix batch(bs, x.cols());
      for (size_t i = 0; i < bs; ++i) batch.CopyRowFrom(x, start + i, i);
      TrainBatch(batch, opts);
    }
    flops += TrainStepFlops(bs);
  }
  return flops;
}

double Vae::PredictFlops() const {
  double enc = 2.0 * static_cast<double>(config_.input_dim) *
                   static_cast<double>(config_.hidden_dim) +
               2.0 * static_cast<double>(config_.hidden_dim) *
                   static_cast<double>(config_.latent_dim);
  return enc;
}

double Vae::TrainStepFlops(size_t batch) const {
  double fwd = enc_in_.ForwardFlops(batch) +
               enc_relu_.ForwardFlops(batch) +
               mu_head_.ForwardFlops(batch) +
               logvar_head_.ForwardFlops(batch) +
               dec_in_.ForwardFlops(batch) +
               dec_relu_.ForwardFlops(batch) +
               dec_out_.ForwardFlops(batch);
  return 3.0 * fwd;  // Forward + backward ~= 3x forward MACs.
}

std::vector<const ParamBlock*> Vae::Params() const {
  std::vector<const ParamBlock*> out;
  for (const Dense* layer :
       {&enc_in_, &mu_head_, &logvar_head_, &dec_in_, &dec_out_}) {
    layer->AppendParams(&out);
  }
  return out;
}

size_t Vae::ParamCount() const {
  return enc_in_.ParamCount() + mu_head_.ParamCount() +
         logvar_head_.ParamCount() + dec_in_.ParamCount() +
         dec_out_.ParamCount();
}

}  // namespace e2nvm::ml
