#include "ml/vae.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
/// (identical arithmetic to the pre-parallel code). A template, so the
/// serial path wraps the body in no std::function (whose captures past
/// two pointers go to the heap).
template <typename Body>
void ForElements(size_t n, const Body& body) {
  ThreadPool* pool = compute_pool();
  if (pool != nullptr && n >= 2 * kElemGrain) {
    pool->ParallelForBlocks(0, n, kElemGrain, body);
  } else {
    body(0, n, 0);
  }
}

/// Binary cross-entropy of `probs` against the targets `x`, summed, with
/// the per-block partials in `partial`. For a 0/1 target one of the two
/// terms is 0 * log(..) = -0.0, which adds nothing to a finite nonzero
/// log (the clamp keeps both logs so), so those elements take the one
/// log their target selects; any other target keeps both terms. The
/// select is arithmetic: t * p + (1 - t) * (1 - p) is exactly p or 1 - p
/// for t = 1 or 0, where a compare-and-branch per element would
/// mispredict on featurized bits and cost more than the log it saves.
double BceSum(const Matrix& probs, const Matrix& x,
              std::vector<double>* partial) {
  partial->assign(
      std::max<size_t>(ThreadPool::NumBlocks(probs.size(), kElemGrain), 1),
      0.0);
  ForElements(probs.size(), [&](size_t lo, size_t hi, size_t blk) {
    double l = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      const float p = std::clamp(probs.data()[i], 1e-7f, 1.0f - 1e-7f);
      const float t = x.data()[i];
      const float u = 1.0f - t;
      if (t * u == 0.0f) {  // t is 0 or 1 (one branch, always taken).
        l -= static_cast<double>(std::log(t * p + u * (1.0f - p)));
      } else {
        l -= static_cast<double>(t) * std::log(p) +
             (1.0 - static_cast<double>(t)) * std::log(1.0f - p);
      }
    }
    (*partial)[blk] += l;
  });
  double loss = 0.0;
  for (double l : *partial) loss += l;
  return loss;
}

/// probs = sigmoid(logits), elementwise (probs reshaped to match).
void SigmoidAll(const Matrix& logits, Matrix* probs) {
  probs->EnsureShape(logits.rows(), logits.cols());
  ForElements(logits.size(), [&](size_t lo, size_t hi, size_t) {
    SigmoidArray(logits.data().data() + lo, probs->data().data() + lo,
                 hi - lo);
  });
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

Vae::TrainingSession::TrainingSession(Vae* vae)
    : vae_(vae->slot_.in_session ? nullptr : vae) {
  if (vae_ != nullptr) vae_->slot_.in_session = true;
}

Vae::TrainingSession::~TrainingSession() {
  if (vae_ == nullptr) return;
  vae_->slot_.in_session = false;
  vae_->slot_.ws.reset();
}

Vae::Workspace& Vae::workspace() {
  if (slot_.ws == nullptr) slot_.ws = std::make_unique<Workspace>();
  return *slot_.ws;
}

void Vae::EncodeForward(const Matrix& x, Matrix* hidden, Matrix* mu,
                        Matrix* logvar) const {
  enc_in_.Forward(x, hidden);
  ReluInPlace(*hidden);
  mu_head_.Forward(*hidden, mu);
  logvar_head_.Forward(*hidden, logvar);
  for (auto& v : logvar->data()) v = std::clamp(v, kLogvarMin, kLogvarMax);
}

void Vae::DecodeForward(const Matrix& z, Matrix* hidden,
                        Matrix* logits) const {
  dec_in_.Forward(z, hidden);
  ReluInPlace(*hidden);
  dec_out_.Forward(*hidden, logits);
}

Matrix Vae::EncodeMu(const Matrix& x) const {
  Matrix hidden, mu;
  EncodeMuInto(x, &hidden, &mu);
  return mu;
}

void Vae::EncodeMuInto(const Matrix& x, Matrix* hidden,
                       Matrix* mu) const {
  E2_CHECK(x.cols() == config_.input_dim, "EncodeMuInto dim mismatch");
  // EncodeForward's mu branch, which TrainBatch runs, op for op, so the
  // latent codes match the training forward pass bit for bit.
  enc_in_.Forward(x, hidden);
  ReluInPlace(*hidden);
  mu_head_.Forward(*hidden, mu);
}

const Matrix& Vae::EncodeMuInWorkspace(const Matrix& x) {
  Workspace& ws = workspace();
  EncodeMuInto(x, &ws.hidden, &ws.mu);
  return ws.mu;
}

Matrix Vae::Decode(const Matrix& z) const {
  Matrix hidden, logits, probs;
  DecodeForward(z, &hidden, &logits);
  SigmoidAll(logits, &probs);
  return probs;
}

void Vae::TrainBatch(const Matrix& x, const VaeTrainOptions& opts,
                     BatchLoss* loss) {
  Workspace& ws = workspace();
  const size_t batch = x.rows();
  const size_t latent = config_.latent_dim;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  // ---- Forward ----
  EncodeForward(x, &ws.hidden, &ws.mu, &ws.logvar);

  // Reparameterization: z = mu + exp(logvar/2) * eps, eps ~ N(0, I).
  ws.eps.EnsureShape(batch, latent);
  ws.sigma.EnsureShape(batch, latent);
  ws.z.EnsureShape(batch, latent);
  for (auto& e : ws.eps.data()) e = static_cast<float>(rng_.NextGaussian());
  for (size_t i = 0; i < ws.z.size(); ++i) {
    ws.sigma.data()[i] = std::exp(0.5f * ws.logvar.data()[i]);
    ws.z.data()[i] = ws.mu.data()[i] + ws.sigma.data()[i] * ws.eps.data()[i];
  }

  DecodeForward(ws.z, &ws.dec_hidden, &ws.logits);
  SigmoidAll(ws.logits, &ws.probs);

  // The losses read the forward pass and feed no gradient, so a caller
  // that drops them (fine-tuning, PartialFit) skips their logs and exps.
  if (loss != nullptr) {
    *loss = BatchLoss();
    loss->recon =
        BceSum(ws.probs, x, &ws.bce_partial) / static_cast<double>(batch);
    loss->kl = config_.beta * KlSum(ws.mu, ws.logvar) /
               static_cast<double>(batch);
  }

  // ---- Backward ----
  // d(BCE with logits)/dlogits = (p - x), averaged over the batch, over
  // the logits, which nothing reads again.
  Matrix& dlogits = ws.logits;
  ForElements(ws.probs.size(), [&](size_t lo, size_t hi, size_t) {
    for (size_t i = lo; i < hi; ++i) {
      dlogits.data()[i] = (ws.probs.data()[i] - x.data()[i]) * inv_batch;
    }
  });
  dec_out_.Backward(ws.dec_hidden, dlogits, &ws.d_dec_hidden, &ws.dec_out);
  ReluBackwardInPlace(ws.dec_hidden, &ws.d_dec_hidden);
  dec_in_.Backward(ws.z, ws.d_dec_hidden, &ws.dz, &ws.dec_in);
  Matrix& dz = ws.dz;

  // Optional joint K-means term: cluster_weight * ||z - c||^2.
  if (opts.centroids != nullptr && opts.assignments != nullptr &&
      opts.cluster_weight > 0.0f) {
    const Matrix& cents = *opts.centroids;
    const auto& assign = *opts.assignments;
    E2_CHECK(assign.size() == batch, "assignment/batch size mismatch");
    double closs = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      const float* crow = cents.Row(assign[i]);
      for (size_t d = 0; d < latent; ++d) {
        float diff = ws.z(i, d) - crow[d];
        closs += static_cast<double>(diff) * diff;
        dz(i, d) += opts.cluster_weight * 2.0f * diff * inv_batch;
      }
    }
    if (loss != nullptr) {
      loss->cluster =
          opts.cluster_weight * closs / static_cast<double>(batch);
    }
  }

  // Gradients wrt mu and logvar: z = mu + sigma * eps, so dz/dmu = 1 and
  // dz becomes dL/dmu once the logvar gradient has read it.
  ws.dlogvar.EnsureShape(batch, latent);
  for (size_t i = 0; i < dz.size(); ++i) {
    ws.dlogvar.data()[i] =
        dz.data()[i] * ws.eps.data()[i] * 0.5f * ws.sigma.data()[i];
  }
  // KL gradients: dKL/dmu = mu, dKL/dlogvar = 0.5 (e^logvar - 1).
  Matrix& dmu = dz;
  const float beta_scale = config_.beta * inv_batch;
  for (size_t i = 0; i < dmu.size(); ++i) {
    dmu.data()[i] += beta_scale * ws.mu.data()[i];
    ws.dlogvar.data()[i] +=
        beta_scale * 0.5f * (std::exp(ws.logvar.data()[i]) - 1.0f);
  }

  mu_head_.Backward(ws.hidden, dmu, &ws.d_hidden, &ws.mu_head);
  logvar_head_.Backward(ws.hidden, ws.dlogvar, &ws.d_hidden_lv,
                        &ws.logvar_head);
  AddInPlace(ws.d_hidden, ws.d_hidden_lv);
  ReluBackwardInPlace(ws.hidden, &ws.d_hidden);
  // Nothing reads dL/dx, so the input layer accumulates its parameter
  // gradients only.
  enc_in_.AccumulateParamGrads(x, ws.d_hidden, &ws.enc_in);

  // ---- Update ----
  ++step_;
  for (Dense* layer :
       {&enc_in_, &mu_head_, &logvar_head_, &dec_in_, &dec_out_}) {
    layer->Step(config_.adam, step_);
    layer->ZeroGrad();
  }
}

void Vae::TrainRows(const Matrix& x, size_t first, size_t count,
                    const VaeTrainOptions& opts, BatchLoss* loss) {
  if (first == 0 && count == x.rows()) {
    TrainBatch(x, opts, loss);
    return;
  }
  Matrix& batch = workspace().batch;
  batch.EnsureShape(count, x.cols());
  std::memcpy(batch.Row(0), x.Row(first), count * x.cols() * sizeof(float));
  TrainBatch(batch, opts, loss);
}

double Vae::EvalLoss(const Matrix& x) const {
  Matrix hidden, mu, logvar;
  EncodeForward(x, &hidden, &mu, &logvar);
  const Matrix probs = Decode(mu);  // eps = 0: z = mu.
  std::vector<double> partial;
  double recon = BceSum(probs, x, &partial) / static_cast<double>(x.rows());
  return recon +
         config_.beta * KlSum(mu, logvar) / static_cast<double>(x.rows());
}

TrainHistory Vae::Train(const Matrix& x, const VaeTrainOptions& opts) {
  TrainingSession session(this);
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

  // The joint-clustering option needs per-batch assignments, which the
  // caller supplies only for full-batch fine-tuning (see E2Model); inside
  // this generic loop we train the pure ELBO.
  VaeTrainOptions batch_opts = opts;
  batch_opts.centroids = nullptr;
  batch_opts.assignments = nullptr;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    shuffle_rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < train_n; start += opts.batch_size) {
      size_t bs = std::min(opts.batch_size, train_n - start);
      Matrix& batch = workspace().batch;
      batch.EnsureShape(bs, x.cols());
      for (size_t i = 0; i < bs; ++i) {
        batch.CopyRowFrom(x, order[start + i], i);
      }
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
    TrainRows(x, start, bs, opts);
    flops += TrainStepFlops(bs);
  }
  return flops;
}

double Vae::TrainStepFlops(size_t batch) const {
  // Each ReLU costs one op per element of its (hidden_dim wide) input.
  const double relu = static_cast<double>(batch) *
                      static_cast<double>(config_.hidden_dim);
  double fwd = enc_in_.ForwardFlops(batch) + relu +
               mu_head_.ForwardFlops(batch) +
               logvar_head_.ForwardFlops(batch) +
               dec_in_.ForwardFlops(batch) + relu +
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
