#include "placement/clusterer.h"

namespace e2nvm::placement {

Status RawKMeansClusterer::Train(const ml::RowsView& contents) {
  ml::Matrix expanded;
  const ml::Matrix& x = contents.AsFloats(&expanded);
  E2_RETURN_IF_ERROR(kmeans_.Fit(x));
  train_flops_ = kmeans_.FitFlops(x.rows());
  return Status::Ok();
}

Status PcaKMeansClusterer::Train(const ml::RowsView& contents) {
  ml::Matrix expanded;
  const ml::Matrix& x = contents.AsFloats(&expanded);
  E2_RETURN_IF_ERROR(pca_.Fit(x));
  ml::Matrix projected = pca_.Transform(x);
  E2_RETURN_IF_ERROR(kmeans_.Fit(projected));
  train_flops_ = pca_.FitFlops(x.rows()) + kmeans_.FitFlops(x.rows());
  return Status::Ok();
}

void PcaKMeansClusterer::AssignScratch(
    ml::InferenceScratch* scratch) const {
  const ml::Matrix projected = pca_.Transform(scratch->in);
  kmeans_.AssignFusedInto(projected, &scratch->scores, &scratch->clusters);
}

}  // namespace e2nvm::placement
