#include "core/e2_model.h"

#include <algorithm>

#include "common/logging.h"

namespace e2nvm::core {

namespace {

ml::VaeConfig VaeConfigOf(const E2ModelConfig& config) {
  ml::VaeConfig vc;
  vc.input_dim = config.input_dim;
  vc.hidden_dim = config.hidden_dim;
  vc.latent_dim = config.latent_dim;
  vc.beta = config.beta;
  vc.seed = config.seed;
  return vc;
}

}  // namespace

E2Model::E2Model(const E2ModelConfig& config)
    : config_(config),
      kmeans_({.k = config.k,
               .max_iters = config.kmeans_iters,
               .seed = config.seed}) {}

const ml::Vae& E2Model::vae() const {
  E2_CHECK(vae_.has_value(), "E2Model::vae() before Train");
  return *vae_;
}

double E2Model::PredictFlops() const {
  return ml::Vae::PredictFlops(VaeConfigOf(config_)) +
         kmeans_.PredictFlops();
}

Status E2Model::Train(const ml::RowsView& contents) {
  train_clusters_.clear();
  if (contents.rows() < config_.k) {
    return Status::InvalidArgument("fewer segments than clusters");
  }
  if (contents.cols() != config_.input_dim) {
    return Status::InvalidArgument("content width != model input_dim");
  }
  if (config_.batch_size == 0) {
    return Status::InvalidArgument("model batch_size is 0");
  }
  // A fresh VAE, so re-training starts from scratch (the paper trains the
  // replacement model from scratch in the background). The old one goes
  // first, and one workspace serves all three phases.
  ml::Vae& vae = vae_.emplace(VaeConfigOf(config_));
  ml::Vae::TrainingSession session(&vae);

  // Phase 1: ELBO pretraining.
  ml::VaeTrainOptions opts;
  opts.epochs = config_.pretrain_epochs;
  opts.batch_size = config_.batch_size;
  history_ = vae.Train(contents, opts);
  last_train_flops_ = history_.flops;

  // Phase 2: K-means on latent codes.
  ml::Matrix latent;
  vae.EncodeMuRows(contents, config_.batch_size, &latent);
  E2_RETURN_IF_ERROR(kmeans_.Fit(latent));
  last_train_flops_ += kmeans_.FitFlops(latent.rows());

  // Phase 3: joint fine-tuning (DEC-style): the encoder is pulled toward
  // the centroids while still reconstructing; centroids are re-estimated
  // between rounds. Each round starts from the codes the step before it
  // encoded (k-means' for the first, the previous round's re-estimate
  // after that): the VAE has not moved since, so they are the codes a
  // fresh EncodeMu would give.
  if (config_.joint_finetune) {
    std::vector<size_t> batch_assign;
    batch_assign.reserve(config_.batch_size);
    for (int round = 0; round < config_.finetune_rounds; ++round) {
      std::vector<size_t> assign = kmeans_.PredictBatch(latent);

      // One epoch of cluster-regularized batches.
      const size_t n = contents.rows();
      for (size_t start = 0; start < n; start += config_.batch_size) {
        size_t bs = std::min(config_.batch_size, n - start);
        batch_assign.assign(assign.begin() + start,
                            assign.begin() + start + bs);
        ml::VaeTrainOptions ft;
        ft.centroids = &kmeans_.centroids();
        ft.assignments = &batch_assign;
        ft.cluster_weight = config_.cluster_weight;
        vae.TrainRows(contents, start, bs, ft);
        last_train_flops_ += vae.TrainStepFlops(bs);
      }

      // Re-estimate centroids from the updated encoder.
      ml::Matrix z2;
      vae.EncodeMuRows(contents, config_.batch_size, &z2);
      std::vector<size_t> assign2 = kmeans_.PredictBatch(z2);
      ml::Matrix centroids(config_.k, config_.latent_dim);
      std::vector<size_t> counts(config_.k, 0);
      for (size_t i = 0; i < z2.rows(); ++i) {
        float* crow = centroids.Row(assign2[i]);
        for (size_t d = 0; d < config_.latent_dim; ++d) {
          crow[d] += z2(i, d);
        }
        ++counts[assign2[i]];
      }
      for (size_t c = 0; c < config_.k; ++c) {
        if (counts[c] == 0) {
          // Keep the stale centroid for empty clusters.
          for (size_t d = 0; d < config_.latent_dim; ++d) {
            centroids(c, d) = kmeans_.centroids()(c, d);
          }
          continue;
        }
        float inv = 1.0f / static_cast<float>(counts[c]);
        for (size_t d = 0; d < config_.latent_dim; ++d) {
          centroids(c, d) *= inv;
        }
      }
      kmeans_.SetCentroids(std::move(centroids));
      last_train_flops_ += kmeans_.PredictFlops() * z2.rows() * 2.0;
      latent = std::move(z2);
    }
  }
  // `latent` holds the final VAE's codes and the centroids are final, so
  // this is the fused assignment AssignScratch would run on them.
  ml::Matrix scores;
  kmeans_.AssignFusedInto(latent, &scores, &train_clusters_);
  return Status::Ok();
}

bool E2Model::TakeTrainClusters(std::vector<size_t>* out) {
  if (train_clusters_.empty()) return false;
  out->swap(train_clusters_);
  train_clusters_.clear();
  return true;
}

Status E2Model::PartialFit(const ml::Matrix& batch) {
  if (!trained()) {
    return Status::FailedPrecondition("PartialFit before Train");
  }
  if (serving_only()) {
    return Status::FailedPrecondition(
        "PartialFit on a model stripped of its training state");
  }
  if (batch.cols() != config_.input_dim) {
    return Status::InvalidArgument("batch width != model input_dim");
  }
  if (batch.rows() == 0) {
    last_partial_fit_flops_ = 0;
    return Status::Ok();
  }
  // Warm ELBO steps on the current encoder/decoder; the existing
  // parameters are the starting point, which is the whole point. The
  // VAE keeps this refine-sized workspace for the next step, and the
  // fresh codes land in it too, so a warm step allocates nothing.
  last_partial_fit_flops_ = vae_->PartialFit(batch, config_.batch_size);
  // Pull the latent centroids toward the refreshed codes.
  const ml::Matrix& z = vae_->EncodeMuInWorkspace(batch);
  E2_RETURN_IF_ERROR(kmeans_.PartialFit(z));
  last_partial_fit_flops_ +=
      vae_->PredictFlops() * static_cast<double>(batch.rows()) +
      kmeans_.PartialFitFlops(z.rows());
  return Status::Ok();
}

void E2Model::DropTrainingState() {
  if (vae_.has_value()) vae_->DropTrainingState();
}

void E2Model::AssignScratch(ml::InferenceScratch* scratch) const {
  E2_CHECK(trained(), "E2Model::AssignScratch before Train");
  E2_CHECK(scratch->in.cols() == config_.input_dim,
           "feature width %zu != input_dim %zu", scratch->in.cols(),
           config_.input_dim);
  vae_->EncodeMuInto(scratch->in, &scratch->hidden, &scratch->latent);
  kmeans_.AssignFusedInto(scratch->latent, &scratch->scores,
                          &scratch->clusters);
}

double E2Model::LatentSse(const ml::Matrix& contents) const {
  E2_CHECK(trained(), "E2Model::LatentSse before Train");
  ml::Matrix z = vae_->EncodeMu(contents);
  return kmeans_.Sse(z);
}

}  // namespace e2nvm::core
