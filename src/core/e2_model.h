#ifndef E2NVM_CORE_E2_MODEL_H_
#define E2NVM_CORE_E2_MODEL_H_

#include <memory>
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
class E2Model : public placement::ContentClusterer {
 public:
  /// A copy is deep: the VAE, its optimizer state and the k-means fit.
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

  /// Trains VAE (ELBO pretraining), fits K-means on the latent codes, then
  /// optionally runs DEC-style joint fine-tuning rounds in which the VAE
  /// also minimizes distance to the assigned centroid and the centroids
  /// are re-estimated.
  Status Train(const ml::Matrix& contents) override;

  /// One encoder GEMV per staged row (Vae::EncodeMuInto) + one fused
  /// K-means assignment: zero heap allocations once the scratch is warm,
  /// and per row the id of Vae::EncodeMu then KMeans::Predict, bit for
  /// bit.
  void AssignScratch(ml::InferenceScratch* scratch) const override;

  size_t num_clusters() const override { return config_.k; }

  double PredictFlops() const override {
    return vae_.PredictFlops() + kmeans_.PredictFlops();
  }

  double LastTrainFlops() const override { return last_train_flops_; }

  /// Incremental refinement (DESIGN.md §16): a few warm SGD steps of the
  /// *current* VAE on the batch (no re-initialization — unlike Train,
  /// which rebuilds the model from scratch), then a warm-started
  /// mini-batch k-means nudge of the latent centroids toward the fresh
  /// codes. Orders of magnitude cheaper than Train; requires a prior
  /// successful Train.
  bool SupportsPartialFit() const override { return true; }
  Status PartialFit(const ml::Matrix& batch) override;
  double LastPartialFitFlops() const override {
    return last_partial_fit_flops_;
  }

  /// Learning curves of the most recent Train call (Fig 9).
  const ml::TrainHistory& history() const { return history_; }

  /// SSE of the K-means fit on the latent codes of `contents` — the elbow
  /// objective of Fig 8.
  double LatentSse(const ml::Matrix& contents) const;

  const ml::Vae& vae() const { return vae_; }
  const ml::KMeans& kmeans() const { return kmeans_; }
  const E2ModelConfig& config() const { return config_; }

 private:
  E2ModelConfig config_;
  ml::Vae vae_;
  ml::KMeans kmeans_;
  ml::TrainHistory history_;
  double last_train_flops_ = 0;
  double last_partial_fit_flops_ = 0;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_E2_MODEL_H_
