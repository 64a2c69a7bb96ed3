#ifndef E2NVM_CORE_E2_MODEL_H_
#define E2NVM_CORE_E2_MODEL_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/vae.h"
#include "placement/clusterer.h"

namespace e2nvm::core {

/// Configuration of the E2-NVM model: a VAE that compresses segment
/// contents into a low-dimensional latent space, and K-means over that
/// latent space (§3.2).
struct E2ModelConfig {
  size_t input_dim = 2048;
  size_t k = 10;
  size_t hidden_dim = 128;
  size_t latent_dim = 10;
  float beta = 0.05f;  // KL weight; mild regularization clusters better.
  int pretrain_epochs = 8;
  size_t batch_size = 64;
  /// Joint fine-tuning (paper: "E2-NVM integrates the VAE's reconstruction
  /// loss and the K-means clustering loss to jointly train cluster label
  /// assignment and learning of suitable features for clustering").
  /// Disable for the sequential-training ablation.
  bool joint_finetune = true;
  int finetune_rounds = 2;
  float cluster_weight = 0.05f;
  int kmeans_iters = 30;
  uint64_t seed = 42;
};

/// The paper's placement model: VAE encoder + K-means in latent space.
/// Implements ContentClusterer so it is interchangeable with the PNW
/// baselines in every experiment harness.
///
/// Train builds the VAE: an untrained model (a shard before Bootstrap, a
/// twin about to adopt another shard's model, a CloneUntrained shadow)
/// holds only its config and an unfitted k-means. DropTrainingState
/// leaves a trained model its serving form: the encoder's input layer
/// and mu head (values only) and the fitted k-means.
class E2Model : public placement::ContentClusterer {
 public:
  /// A copy is deep: the VAE and its optimizer state (when trained and
  /// not stripped) and the k-means fit; no training workspace.
  explicit E2Model(const E2ModelConfig& config);

  std::string_view name() const override { return "E2-NVM"; }

  /// Fresh untrained model with identical config — the shadow instance a
  /// background retrain trains off the write path.
  std::unique_ptr<placement::ContentClusterer> CloneUntrained()
      const override {
    return std::make_unique<E2Model>(config_);
  }
  std::unique_ptr<placement::ContentClusterer> Clone() const override {
    return std::make_unique<E2Model>(*this);
  }

  /// Builds a fresh VAE from the config and trains it (ELBO
  /// pretraining), fits K-means on the latent codes, then optionally runs
  /// DEC-style joint fine-tuning rounds in which the VAE also minimizes
  /// distance to the assigned centroid and the centroids are
  /// re-estimated. All three phases share one training workspace, freed
  /// on return, and read `contents` a batch of rows at a time, so packed
  /// rows train without a float copy. Ends by assigning the final latent
  /// codes to the final centroids (TakeTrainClusters). A batch_size of 0
  /// is an InvalidArgument.
  Status Train(const ml::RowsView& contents) override;

  /// The ids of the last Train's rows, from the codes the training ended
  /// with: they are the codes AssignScratch would encode, so these are
  /// its ids, without encoding the rows again.
  bool TakeTrainClusters(std::vector<size_t>* out) override;

  /// One encoder GEMV per staged row (Vae::EncodeMuInto) + one fused
  /// K-means assignment: zero heap allocations once the scratch is warm,
  /// and per row the id of Vae::EncodeMu then KMeans::Predict, bit for
  /// bit. Requires a trained model.
  void AssignScratch(ml::InferenceScratch* scratch) const override;

  size_t num_clusters() const override { return config_.k; }

  /// The encoder's cost from the config, plus the k-means assignment's
  /// once fitted.
  double PredictFlops() const override;

  double LastTrainFlops() const override { return last_train_flops_; }

  /// Incremental refinement (DESIGN.md §16): a few warm SGD steps of the
  /// *current* VAE on the batch (no re-initialization — unlike Train,
  /// which rebuilds the model from scratch), then a warm-started
  /// mini-batch k-means nudge of the latent centroids toward the fresh
  /// codes. Orders of magnitude cheaper than Train; requires a prior
  /// successful Train and the training state (FailedPrecondition once
  /// DropTrainingState ran, when SupportsPartialFit turns false).
  bool SupportsPartialFit() const override { return !serving_only(); }
  Status PartialFit(const ml::Matrix& batch) override;
  double LastPartialFitFlops() const override {
    return last_partial_fit_flops_;
  }

  /// Learning curves of the most recent Train call (Fig 9).
  const ml::TrainHistory& history() const { return history_; }

  /// SSE of the K-means fit on the latent codes of `contents` — the elbow
  /// objective of Fig 8. Requires a trained model.
  double LatentSse(const ml::Matrix& contents) const;

  /// Frees the VAE's logvar head, decoder, gradients and Adam moments
  /// (Vae::DropTrainingState); AssignScratch, LatentSse and the encoder
  /// give the same bits as before. A no-op before Train. A later Train
  /// builds a fresh, complete VAE.
  void DropTrainingState() override;

  /// True once DropTrainingState stripped the trained VAE.
  bool serving_only() const {
    return vae_.has_value() && vae_->serving_only();
  }

  /// False until Train builds the VAE.
  bool has_vae() const { return vae_.has_value(); }
  /// The VAE; requires a prior Train.
  const ml::Vae& vae() const;
  const ml::KMeans& kmeans() const { return kmeans_; }
  const E2ModelConfig& config() const { return config_; }

 private:
  /// True once Train fitted the k-means (and so built the VAE).
  bool trained() const { return vae_.has_value() && kmeans_.fitted(); }

  E2ModelConfig config_;
  std::optional<ml::Vae> vae_;
  ml::KMeans kmeans_;
  ml::TrainHistory history_;
  /// The last Train's row ids until TakeTrainClusters moves them out.
  std::vector<size_t> train_clusters_;
  double last_train_flops_ = 0;
  double last_partial_fit_flops_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_E2_MODEL_H_
