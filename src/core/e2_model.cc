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
      vae_(VaeConfigOf(config)),
      kmeans_({.k = config.k,
               .max_iters = config.kmeans_iters,
               .seed = config.seed}) {}

Status E2Model::Train(const ml::Matrix& contents) {
  if (contents.rows() < config_.k) {
    return Status::InvalidArgument("fewer segments than clusters");
  }
  if (contents.cols() != config_.input_dim) {
    return Status::InvalidArgument("content width != model input_dim");
  }
  // Recreate the VAE so re-training starts from a fresh model (the paper
  // trains the replacement model from scratch in the background).
  vae_ = ml::Vae(vae_.config());

  // Phase 1: ELBO pretraining.
  ml::VaeTrainOptions opts;
  opts.epochs = config_.pretrain_epochs;
  opts.batch_size = config_.batch_size;
  history_ = vae_.Train(contents, opts);
  last_train_flops_ = history_.flops;

  // Phase 2: K-means on latent codes.
  ml::Matrix latent = vae_.EncodeMu(contents);
  E2_RETURN_IF_ERROR(kmeans_.Fit(latent));
  last_train_flops_ += kmeans_.FitFlops(latent.rows());

  // Phase 3: joint fine-tuning (DEC-style): the encoder is pulled toward
  // the centroids while still reconstructing; centroids are re-estimated
  // between rounds. Each round starts from the codes the step before it
  // encoded (k-means' for the first, the previous round's re-estimate
  // after that): the VAE has not moved since, so they are the codes a
  // fresh EncodeMu would give.
  if (config_.joint_finetune) {
    for (int round = 0; round < config_.finetune_rounds; ++round) {
      std::vector<size_t> assign = kmeans_.PredictBatch(latent);

      // One epoch of cluster-regularized batches.
      const size_t n = contents.rows();
      for (size_t start = 0; start < n; start += config_.batch_size) {
        size_t bs = std::min(config_.batch_size, n - start);
        ml::Matrix batch(bs, contents.cols());
        std::vector<size_t> batch_assign(bs);
        for (size_t i = 0; i < bs; ++i) {
          batch.CopyRowFrom(contents, start + i, i);
          batch_assign[i] = assign[start + i];
        }
        ml::VaeTrainOptions ft;
        ft.centroids = &kmeans_.centroids();
        ft.assignments = &batch_assign;
        ft.cluster_weight = config_.cluster_weight;
        vae_.TrainBatch(batch, ft);
        last_train_flops_ += vae_.TrainStepFlops(bs);
      }

      // Re-estimate centroids from the updated encoder.
      ml::Matrix z2 = vae_.EncodeMu(contents);
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
  return Status::Ok();
}

Status E2Model::PartialFit(const ml::Matrix& batch) {
  if (!kmeans_.fitted()) {
    return Status::FailedPrecondition("PartialFit before Train");
  }
  if (batch.cols() != config_.input_dim) {
    return Status::InvalidArgument("batch width != model input_dim");
  }
  if (batch.rows() == 0) {
    last_partial_fit_flops_ = 0;
    return Status::Ok();
  }
  // Warm ELBO steps on the current encoder/decoder; the existing
  // parameters are the starting point, which is the whole point.
  last_partial_fit_flops_ = vae_.PartialFit(batch, config_.batch_size);
  // Pull the latent centroids toward the refreshed codes.
  ml::Matrix z = vae_.EncodeMu(batch);
  E2_RETURN_IF_ERROR(kmeans_.PartialFit(z));
  last_partial_fit_flops_ +=
      vae_.PredictFlops() * static_cast<double>(batch.rows()) +
      kmeans_.PartialFitFlops(z.rows());
  return Status::Ok();
}

void E2Model::AssignScratch(ml::InferenceScratch* scratch) const {
  E2_CHECK(scratch->in.cols() == config_.input_dim,
           "feature width %zu != input_dim %zu", scratch->in.cols(),
           config_.input_dim);
  vae_.EncodeMuInto(scratch->in, &scratch->hidden, &scratch->latent);
  kmeans_.AssignFusedInto(scratch->latent, &scratch->scores,
                          &scratch->clusters);
}

double E2Model::LatentSse(const ml::Matrix& contents) const {
  ml::Matrix z = vae_.EncodeMu(contents);
  return kmeans_.Sse(z);
}

}  // namespace e2nvm::core
