#include "placement/clusterer.h"

namespace e2nvm::placement {

Status RawKMeansClusterer::Train(const ml::Matrix& contents) {
  E2_RETURN_IF_ERROR(kmeans_.Fit(contents));
  train_flops_ = kmeans_.FitFlops(contents.rows());
  return Status::Ok();
}

Status PcaKMeansClusterer::Train(const ml::Matrix& contents) {
  E2_RETURN_IF_ERROR(pca_.Fit(contents));
  ml::Matrix projected = pca_.Transform(contents);
  E2_RETURN_IF_ERROR(kmeans_.Fit(projected));
  train_flops_ =
      pca_.FitFlops(contents.rows()) + kmeans_.FitFlops(contents.rows());
  return Status::Ok();
}

void PcaKMeansClusterer::AssignScratch(
    ml::InferenceScratch* scratch) const {
  const ml::Matrix projected = pca_.Transform(scratch->in);
  kmeans_.AssignFusedInto(projected, &scratch->scores, &scratch->clusters);
}

}  // namespace e2nvm::placement
