#ifndef E2NVM_ML_VAE_H_
#define E2NVM_ML_VAE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/bit_matrix.h"
#include "ml/layers.h"
#include "ml/matrix.h"

namespace e2nvm::ml {

/// Variational Autoencoder configuration.
struct VaeConfig {
  size_t input_dim = 2048;
  size_t hidden_dim = 128;
  /// The paper downsizes inputs to a ~10-dimensional latent space (§3.2).
  size_t latent_dim = 10;
  /// Weight of the KL regularizer in the ELBO.
  float beta = 1.0f;
  AdamConfig adam;
  uint64_t seed = 42;
};

/// Per-epoch training record (Fig 9's learning curves).
struct TrainHistory {
  std::vector<double> train_loss;
  std::vector<double> val_loss;
  /// Total multiply-accumulates spent by Train() — feeds the CPU energy
  /// model for Figs 8, 16 and 18.
  double flops = 0.0;
};

/// Options for Vae::Train.
struct VaeTrainOptions {
  int epochs = 10;
  size_t batch_size = 64;
  /// Fraction of rows held out for the validation curve.
  double validation_fraction = 0.1;
  uint64_t shuffle_seed = 7;
  /// Optional joint-clustering term (DEC-style): when `centroids` is
  /// non-null, the loss adds cluster_weight * ||z - c(z)||^2 with
  /// c(z) the row of `centroids` given by `assignments` (paper §3.2:
  /// "integrates the VAE's reconstruction loss and the K-means clustering
  /// loss to jointly train cluster label assignment and features").
  const Matrix* centroids = nullptr;
  const std::vector<size_t>* assignments = nullptr;
  float cluster_weight = 0.0f;
};

/// An MLP Variational Autoencoder over bit vectors:
///   encoder: input -> hidden (ReLU) -> {mu, logvar} (latent)
///   decoder: latent -> hidden (ReLU) -> input logits (Bernoulli)
/// Loss: binary cross-entropy reconstruction + beta * KL(q(z|x) || N(0,I))
/// — the negative ELBO given in §3.1 of the paper.
///
/// Training steps run on one workspace (activations, gradients and the
/// layers' backward buffers), sized by the first step that needs it and
/// reshaped in place after that, so a warm step allocates nothing. A
/// training (Train, or a TrainingSession around several calls) frees it
/// when it ends; steps outside one (PartialFit's refinement) keep their
/// small workspace for the next call.
class Vae {
 public:
  /// Draws the layers' initial weights from an RNG seeded with
  /// config.seed, in declaration order. A copy carries every layer's
  /// weights and Adam moments, the step count and the RNG state, so it
  /// trains on exactly as the original would; it copies no workspace.
  explicit Vae(const VaeConfig& config);

  const VaeConfig& config() const { return config_; }

  /// Deterministic encoding: returns the posterior mean mu for each row.
  /// This is the "only the encoder part is needed after training" path
  /// used for placement prediction (§3.3.1): EncodeMuInto into fresh
  /// matrices.
  Matrix EncodeMu(const Matrix& x) const;

  /// Inference-only encoder into caller-owned scratch: hidden = ReLU(x W1
  /// + b1), mu = hidden W2 + b2. Skips the logvar head, so a warmed-up
  /// call performs zero heap allocations; the mu values are
  /// bit-identical to the training forward pass's (same kernels, same
  /// accumulation order). This is the "only the encoder part is needed
  /// after training" write path of §3.3.1. Reads the model only, so
  /// engines that serve one model may call it concurrently.
  void EncodeMuInto(const Matrix& x, Matrix* hidden, Matrix* mu) const;

  /// EncodeMuInto on the workspace's buffers: the latent means of `x`
  /// under the current parameters, valid until the next call that uses
  /// the workspace. A refine step's k-means nudge reads them, so a warm
  /// E2Model::PartialFit allocates nothing.
  const Matrix& EncodeMuInWorkspace(const Matrix& x);

  /// The latent means of every row of `x` into `mu` (x.rows() x
  /// latent_dim): EncodeMu's codes, bit for bit (each row's products are
  /// its own), encoded `chunk` (> 0) rows at a time on the workspace's
  /// batch and activations, so no float copy of `x` and no x.rows()-row
  /// hidden layer is made. E2Model::Train's k-means passes run on it.
  void EncodeMuRows(const RowsView& x, size_t chunk, Matrix* mu);

  /// Decodes latent codes to Bernoulli means (sigmoid outputs).
  Matrix Decode(const Matrix& z) const;

  /// (reconstruction, KL, cluster) losses of one step, averaged per
  /// sample.
  struct BatchLoss {
    double recon = 0;
    double kl = 0;
    double cluster = 0;
    double total() const { return recon + kl + cluster; }
  };
  /// One SGD step on a mini-batch. Fills `loss` when non-null; the losses
  /// feed no gradient, so the step (weights, moments, step count, RNG) is
  /// the same either way, and a caller that does not read them skips
  /// their cost.
  void TrainBatch(const Matrix& x, const VaeTrainOptions& opts,
                  BatchLoss* loss = nullptr);

  /// TrainBatch on rows [first, first + count) of `x`, copied into the
  /// workspace's batch (or a float `x` itself when that is all of it).
  void TrainRows(const RowsView& x, size_t first, size_t count,
                 const VaeTrainOptions& opts, BatchLoss* loss = nullptr);

  /// Loss of `x` without updating parameters (eps = 0, deterministic).
  double EvalLoss(const Matrix& x) const;

  /// Full training loop: shuffles, splits train/validation, runs epochs.
  /// A training of its own (see TrainingSession). Reads `x` a batch of
  /// rows at a time, so packed rows train without a float copy.
  TrainHistory Train(const RowsView& x, const VaeTrainOptions& opts);

  /// Incremental mini-batch update (the replay-ring refinement path,
  /// DESIGN.md §16): runs one pure-ELBO TrainBatch step per
  /// `batch_size` chunk of `x`, in row order, on the *current*
  /// parameters — no re-initialization, no shuffling, no validation
  /// split, and no loss computed. Returns the multiply-accumulates
  /// spent. The update is a deterministic function of (parameters,
  /// internal RNG state, x): chunk order is fixed and the kernels are
  /// pool-size invariant, so refinement preserves the engine's
  /// determinism contract. Keeps its workspace for the next call.
  double PartialFit(const Matrix& x, size_t batch_size);

  /// Multiply-accumulates of encoding one row to its latent mean, a
  /// function of the config alone.
  static double PredictFlops(const VaeConfig& config) {
    return 2.0 * static_cast<double>(config.input_dim) *
               static_cast<double>(config.hidden_dim) +
           2.0 * static_cast<double>(config.hidden_dim) *
               static_cast<double>(config.latent_dim);
  }
  double PredictFlops() const { return PredictFlops(config_); }
  /// Approximate multiply-accumulates of one training step on `batch` rows
  /// (forward + backward ~ 3x forward).
  double TrainStepFlops(size_t batch) const;

  size_t ParamCount() const;

  /// Every parameter block (weights, gradients, Adam moments), encoder
  /// first, the training step count and the RNG the reparameterization
  /// draws from: the state a training step changes.
  std::vector<const ParamBlock*> Params() const;
  int step() const { return step_; }
  const Rng& rng() const { return rng_; }

  /// The encoder's input-layer weights (input_dim x hidden_dim): the
  /// matrix every write-path encode streams, one row per nonzero input.
  const Matrix& encoder_weights() const { return enc_in_.weights().value; }

  /// True while a workspace is held: inside a training, and after
  /// PartialFit or a step outside one.
  bool has_workspace() const { return slot_.ws != nullptr; }

  /// One training: while the outermost session on a Vae lives, every
  /// step shares one workspace, and its end frees it. Train opens one
  /// of its own; E2Model::Train opens one around pretraining, k-means
  /// and fine-tuning, so all three run on a single workspace.
  class TrainingSession {
   public:
    explicit TrainingSession(Vae* vae);
    ~TrainingSession();
    TrainingSession(const TrainingSession&) = delete;
    TrainingSession& operator=(const TrainingSession&) = delete;

   private:
    Vae* vae_;  // Null for a nested session, which frees nothing.
  };

 private:
  /// Buffers of one training step, shaped by the step's batch.
  struct Workspace {
    Matrix batch;       // Rows TrainRows and Train copy for a step.
    Matrix hidden;      // Encoder hidden activations, after the ReLU.
    Matrix mu;
    Matrix logvar;
    Matrix eps;
    Matrix sigma;
    Matrix z;
    Matrix dec_hidden;  // Decoder hidden activations, after the ReLU.
    Matrix logits;      // Decoder logits, their sigmoids, then dL/dlogits.
    Matrix d_dec_hidden;
    Matrix dz;          // dL/dz, then dL/dmu.
    Matrix dlogvar;
    Matrix d_hidden;     // dL/d(encoder hidden) through the mu head,
    Matrix d_hidden_lv;  // and through the logvar head.
    std::vector<double> bce_partial;
    Dense::Scratch enc_in, mu_head, logvar_head, dec_in, dec_out;
  };
  /// Holds the workspace. A copy of the Vae starts with none and outside
  /// any session: scratch is never copied.
  struct WorkspaceSlot {
    std::unique_ptr<Workspace> ws;
    bool in_session = false;
    WorkspaceSlot() = default;
    WorkspaceSlot(const WorkspaceSlot&) {}
    WorkspaceSlot& operator=(const WorkspaceSlot&) {
      ws.reset();
      return *this;
    }
    WorkspaceSlot(WorkspaceSlot&&) = default;
    WorkspaceSlot& operator=(WorkspaceSlot&&) = default;
  };

  /// The workspace, built empty on first use.
  Workspace& workspace();
  /// Forward pass through the encoder (input layer, ReLU, both heads)
  /// into the given buffers; logvar is clamped to [-8, 8] for stability.
  void EncodeForward(const Matrix& x, Matrix* hidden, Matrix* mu,
                     Matrix* logvar) const;
  /// Decoder forward pass (dec_in, ReLU, dec_out) from latent codes to
  /// input logits.
  void DecodeForward(const Matrix& z, Matrix* hidden, Matrix* logits) const;
  /// EvalLoss of rows `rows` of `x`, gathered `chunk` rows at a time into
  /// `ws`'s batch and evaluated on `ws`'s buffers; an empty `rows` means
  /// all of a float `x` in place, in one piece (`chunk` >= x.rows()). The
  /// sums run on across chunks in the one-piece order, so any chunking
  /// gives the same bits.
  double EvalLossOn(const RowsView& x, std::span<const size_t> rows,
                    size_t chunk, Workspace* ws) const;

  VaeConfig config_;
  Rng rng_;
  /// The encoder's input layer feeds both heads through a ReLU;
  /// EncodeMuInto reads its weights directly. The layers are declared in
  /// the order the constructor draws their weights from rng_.
  Dense enc_in_;
  Dense mu_head_;
  Dense logvar_head_;
  Dense dec_in_;
  Dense dec_out_;
  int step_ = 0;
  WorkspaceSlot slot_;
};

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_VAE_H_
