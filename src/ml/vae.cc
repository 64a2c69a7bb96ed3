#include "ml/vae.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/kernels.h"
#include "common/logging.h"

namespace e2nvm::ml {

namespace {
constexpr float kLogvarMin = -8.0f;
constexpr float kLogvarMax = 8.0f;

/// Elements per running sum of the cross-entropy (BceStream).
constexpr size_t kElemGrain = 16 * 1024;

/// Elements per log_f32 call in the cross-entropy: a fixed stack buffer,
/// so the loss allocates nothing.
constexpr size_t kLogChunk = 256;

/// `l` minus the binary cross-entropy of probs[i] against the targets
/// x[i] for i in [0, n), subtracted in ascending i. For a 0/1 target one
/// of the two terms is 0 * log(..) = -0.0, which adds nothing to a
/// finite nonzero log (the clamp keeps both logs so), so those elements
/// take the one log their target selects; any other target keeps both
/// terms. The select is arithmetic: t * p + (1 - t) * (1 - p) is exactly
/// p or 1 - p for t = 1 or 0, where a compare-and-branch per element
/// would mispredict on featurized bits. log_f32 takes the selected logs
/// kLogChunk at a time; a target other than 0 and 1, which no training
/// batch holds, takes its two logs one at a time.
double BceRun(const float* probs, const float* x, size_t n, double l) {
  const KernelOps& kern = Ops();
  float arg[kLogChunk];
  float lg[kLogChunk];
  for (size_t c0 = 0; c0 < n; c0 += kLogChunk) {
    const size_t len = std::min(kLogChunk, n - c0);
    const float* pc = probs + c0;
    const float* tc = x + c0;
    for (size_t i = 0; i < len; ++i) {
      const float p = std::clamp(pc[i], 1e-7f, 1.0f - 1e-7f);
      const float t = tc[i];
      arg[i] = t * p + (1.0f - t) * (1.0f - p);
    }
    kern.log_f32(arg, lg, len);
    for (size_t i = 0; i < len; ++i) {
      const float t = tc[i];
      if (t * (1.0f - t) == 0.0f) {  // t is 0 or 1 (one branch, always taken).
        l -= static_cast<double>(lg[i]);
      } else {
        const float p = std::clamp(pc[i], 1e-7f, 1.0f - 1e-7f);
        const float q = 1.0f - p;
        float log_p, log_q;
        kern.log_f32(&p, &log_p, 1);
        kern.log_f32(&q, &log_q, 1);
        l -= static_cast<double>(t) * log_p +
             (1.0 - static_cast<double>(t)) * log_q;
      }
    }
  }
  return l;
}

/// The cross-entropy of a stream of elements that arrives in pieces (a
/// training batch in one, the validation rows a chunk at a time), summed
/// in blocks that depend on the stream's length alone: below two
/// kElemGrain blocks of elements the whole stream is one running sum,
/// else each kElemGrain block is one, and the blocks' sums combine in
/// block order. A block's sum runs on from piece to piece, so the total
/// has the same bits whatever pieces the stream came in.
class BceStream {
 public:
  /// A stream of `total` elements, its running sums kept in `partial`.
  BceStream(size_t total, std::vector<double>* partial)
      : partial_(partial),
        block_(total < 2 * kElemGrain ? std::max<size_t>(total, 1)
                                      : kElemGrain) {
    partial->assign(std::max<size_t>((total + block_ - 1) / block_, 1), 0.0);
  }

  /// Adds `probs` against the targets `x`: elements [first, first +
  /// probs.size()) of the stream.
  void Add(const Matrix& probs, const Matrix& x, size_t first) {
    const float* p = probs.data().data();
    const float* t = x.data().data();
    std::vector<double>& partial = *partial_;
    const size_t end = first + probs.size();
    for (size_t b = first / block_; b * block_ < end; ++b) {
      const size_t from = std::max(first, b * block_);
      const size_t to = std::min(end, (b + 1) * block_);
      partial[b] = BceRun(p + (from - first), t + (from - first), to - from,
                          partial[b]);
    }
  }

  double Sum() const {
    double loss = 0.0;
    for (double l : *partial_) loss += l;
    return loss;
  }

 private:
  std::vector<double>* partial_;
  size_t block_;  // Elements per running sum.
};

/// Binary cross-entropy of `probs` against the targets `x`, summed, with
/// the per-block partials in `partial`.
double BceSum(const Matrix& probs, const Matrix& x,
              std::vector<double>* partial) {
  BceStream bce(probs.size(), partial);
  bce.Add(probs, x, 0);
  return bce.Sum();
}

/// logits = sigmoid(logits), elementwise and in place: the decoder's
/// Bernoulli means overwrite the logits nothing reads again.
void SigmoidInPlace(Matrix* logits) {
  float* v = logits->data().data();
  SigmoidArray(v, v, logits->size());
}

/// `kl` plus KL(q(z|x) || N(0, I)) summed over a batch, before the beta
/// weight, added in element order.
double KlSum(const Matrix& mu, const Matrix& logvar, double kl = 0.0) {
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

void Vae::CheckTrainable(const char* what) const {
  E2_CHECK(!serving_only_, "Vae::%s on a serving-only VAE", what);
}

void Vae::DropTrainingState() {
  E2_CHECK(!slot_.in_session, "Vae::DropTrainingState inside a training");
  enc_in_.DropTrainingState();
  mu_head_.DropTrainingState();
  for (Dense* layer : {&logvar_head_, &dec_in_, &dec_out_}) layer->Free();
  slot_.ws.reset();
  serving_only_ = true;
}

size_t Vae::HeldFloats() const {
  size_t floats = 0;
  for (const Dense* layer :
       {&enc_in_, &mu_head_, &logvar_head_, &dec_in_, &dec_out_}) {
    for (const ParamBlock* p : {&layer->weights(), &layer->bias()}) {
      floats += p->value.size() + p->grad.size() + p->m.size() + p->v.size();
    }
  }
  return floats;
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

void Vae::EncodeMuRows(const RowsView& x, size_t chunk, Matrix* mu) {
  E2_CHECK(chunk > 0, "EncodeMuRows with chunk 0");
  Workspace& ws = workspace();
  const size_t n = x.rows();
  const size_t latent = config_.latent_dim;
  mu->EnsureShape(n, latent);
  for (size_t start = 0; start < n; start += chunk) {
    const size_t len = std::min(chunk, n - start);
    ws.batch.EnsureShape(len, x.cols());
    for (size_t i = 0; i < len; ++i) x.CopyRow(start + i, ws.batch.Row(i));
    EncodeMuInto(ws.batch, &ws.hidden, &ws.mu);
    std::memcpy(mu->Row(start), ws.mu.Row(0), len * latent * sizeof(float));
  }
}

Matrix Vae::Decode(const Matrix& z) const {
  CheckTrainable("Decode");
  Matrix hidden, probs;
  DecodeForward(z, &hidden, &probs);
  SigmoidInPlace(&probs);
  return probs;
}

void Vae::TrainBatch(const Matrix& x, const VaeTrainOptions& opts,
                     BatchLoss* loss) {
  CheckTrainable("TrainBatch");
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
  // The Bernoulli means overwrite the logits, which nothing reads again.
  SigmoidInPlace(&ws.logits);
  const Matrix& probs = ws.logits;

  // The losses read the forward pass and feed no gradient, so a caller
  // that drops them (fine-tuning, PartialFit) skips their logs and exps.
  if (loss != nullptr) {
    *loss = BatchLoss();
    loss->recon =
        BceSum(probs, x, &ws.bce_partial) / static_cast<double>(batch);
    loss->kl = config_.beta * KlSum(ws.mu, ws.logvar) /
               static_cast<double>(batch);
  }

  // ---- Backward ----
  // d(BCE with logits)/dlogits = (p - x), averaged over the batch, over
  // the means, element by element.
  Matrix& dlogits = ws.logits;
  for (size_t i = 0; i < dlogits.size(); ++i) {
    dlogits.data()[i] = (dlogits.data()[i] - x.data()[i]) * inv_batch;
  }
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

void Vae::TrainRows(const RowsView& x, size_t first, size_t count,
                    const VaeTrainOptions& opts, BatchLoss* loss) {
  if (x.floats() != nullptr && first == 0 && count == x.rows()) {
    TrainBatch(*x.floats(), opts, loss);
    return;
  }
  Matrix& batch = workspace().batch;
  batch.EnsureShape(count, x.cols());
  for (size_t i = 0; i < count; ++i) x.CopyRow(first + i, batch.Row(i));
  TrainBatch(batch, opts, loss);
}

double Vae::EvalLoss(const Matrix& x) const {
  CheckTrainable("EvalLoss");
  Workspace ws;
  return EvalLossOn(x, {}, x.rows(), &ws);
}

double Vae::EvalLossOn(const RowsView& x, std::span<const size_t> rows,
                       size_t chunk, Workspace* ws) const {
  const size_t n = rows.empty() ? x.rows() : rows.size();
  BceStream bce(n * x.cols(), &ws->bce_partial);
  double kl = 0.0;
  for (size_t start = 0; start < n; start += chunk) {
    const Matrix* in = x.floats();
    if (!rows.empty()) {
      const size_t bs = std::min(chunk, n - start);
      ws->batch.EnsureShape(bs, x.cols());
      for (size_t i = 0; i < bs; ++i) {
        x.CopyRow(rows[start + i], ws->batch.Row(i));
      }
      in = &ws->batch;
    }
    EncodeForward(*in, &ws->hidden, &ws->mu, &ws->logvar);
    DecodeForward(ws->mu, &ws->dec_hidden, &ws->logits);  // eps = 0: z = mu.
    SigmoidInPlace(&ws->logits);
    bce.Add(ws->logits, *in, start * x.cols());
    kl = KlSum(ws->mu, ws->logvar, kl);
  }
  const double rows_d = static_cast<double>(n);
  return bce.Sum() / rows_d + config_.beta * kl / rows_d;
}

TrainHistory Vae::Train(const RowsView& x, const VaeTrainOptions& opts) {
  // A zero step would never move past the first batch.
  E2_CHECK(opts.batch_size > 0, "Vae::Train with batch_size 0");
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
  // The held-out rows, as the first shuffle leaves them: each epoch
  // reshuffles all of `order`.
  const std::vector<size_t> val_rows(order.begin() + train_n, order.end());

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
      for (size_t i = 0; i < bs; ++i) x.CopyRow(order[start + i], batch.Row(i));
      BatchLoss l;
      TrainBatch(batch, batch_opts, &l);
      epoch_loss += l.total();
      ++batches;
      history.flops += TrainStepFlops(bs);
    }
    history.train_loss.push_back(batches ? epoch_loss / batches : 0.0);
    // The validation rows go through the step's buffers a batch at a
    // time, so the pass maps no memory of its own.
    history.val_loss.push_back(
        val_n > 0 ? EvalLossOn(x, val_rows, opts.batch_size, &workspace())
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
  CheckTrainable("Params");
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
