#ifndef E2NVM_ML_KMEANS_H_
#define E2NVM_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/matrix.h"

namespace e2nvm::ml {

/// K-means configuration.
struct KMeansConfig {
  size_t k = 10;
  int max_iters = 50;
  /// Stop when the relative SSE improvement falls below this.
  double tol = 1e-4;
  uint64_t seed = 42;
};

/// Lloyd's K-means with k-means++ seeding. Used in three places:
///  - on the VAE latent space (the E2-NVM model);
///  - on raw bit vectors (the PNW "K-means alone" baseline);
///  - on PCA projections (the PNW "PCA+K-means" baseline).
class KMeans {
 public:
  explicit KMeans(const KMeansConfig& config) : config_(config) {}

  /// Fits on `x` (rows are samples). Requires x.rows() >= k.
  Status Fit(const Matrix& x);

  /// True once Fit succeeded.
  bool fitted() const { return !centroids_.empty(); }

  /// Index of the nearest centroid to `v` (length dim()).
  size_t Predict(const float* v, size_t dim) const;

  /// Predicts every row of `x`.
  std::vector<size_t> PredictBatch(const Matrix& x) const;

  /// Fused batched assignment into caller-owned scratch: one x C^T GEMM
  /// (`scores`, reshaped as needed) scores all rows against all centroids
  /// via ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 with cached centroid
  /// norms, then each row's argmin is taken. Rows whose fused score lies
  /// within the kernel's floating-point error band of the minimum are
  /// re-checked with the exact Predict() distance in Predict's scan
  /// order, so the chosen ids — including tie-breaks — are identical to
  /// calling Predict per row. Zero heap allocations once the scratch has
  /// warmed up. The GEMM reads a cached C^T, so a call transposes
  /// nothing; that cache and the centroid norms are rebuilt wherever the
  /// centroids change (Fit, PartialFit, SetCentroids), so the call
  /// writes nothing of the model.
  void AssignFusedInto(const Matrix& x, Matrix* scores,
                       std::vector<size_t>* out) const;

  /// Incremental warm-started update (web-scale mini-batch k-means):
  /// each row of `x` is assigned to its nearest *current* centroid,
  /// which then moves toward the row with a per-centroid learning rate
  /// 1 / cumulative-count. Counts are seeded from the last Fit's final
  /// cluster sizes, so refinement continues from the full fit's mass
  /// instead of re-seeding (or teleporting a centroid onto the first
  /// fresh sample). Requires a prior Fit; rows are consumed in order, so
  /// the post-update centroids are a pure function of (current
  /// centroids, counts, x). Rebuilds the fused-assignment centroid
  /// caches.
  Status PartialFit(const Matrix& x);

  /// Multiply-accumulates of one PartialFit call on `n` rows (a predict
  /// plus a centroid nudge per row).
  double PartialFitFlops(size_t n) const {
    return 4.0 * static_cast<double>(n) * static_cast<double>(config_.k) *
           static_cast<double>(dim());
  }

  /// Sum of squared distances of rows of `x` to their nearest centroid —
  /// the elbow-method objective (paper Eq. 1).
  double Sse(const Matrix& x) const;

  const Matrix& centroids() const { return centroids_; }
  const KMeansConfig& config() const { return config_; }
  size_t k() const { return config_.k; }
  size_t dim() const { return centroids_.cols(); }
  int iters_run() const { return iters_run_; }

  /// Multiply-accumulates for one Predict call (CPU energy model).
  double PredictFlops() const {
    return 3.0 * static_cast<double>(config_.k) *
           static_cast<double>(dim());
  }
  /// Multiply-accumulates of the completed Fit (for latency/energy accounting).
  double FitFlops(size_t n) const {
    return 3.0 * static_cast<double>(n) * static_cast<double>(config_.k) *
           static_cast<double>(dim()) * static_cast<double>(iters_run_ + 1);
  }

  /// Replaces the centroids (used by joint fine-tuning when centroids are
  /// re-estimated from fresh latent codes). Rebuilds the fused
  /// assignment's centroid caches.
  void SetCentroids(Matrix centroids) {
    centroids_ = std::move(centroids);
    RebuildCentroidCaches();
  }

 private:
  double DistSq(const float* a, const float* b, size_t dim) const;
  /// Index of the centroid nearest `v` (the first of equals), its
  /// squared distance in `*d2`.
  size_t Nearest(const float* v, size_t dim, double* d2) const;
  void InitPlusPlus(const Matrix& x, Rng& rng);
  /// Recomputes the squared L2 norm per centroid, cmax_norm_ and
  /// centroids_t_ from centroids_: the last step of every centroid
  /// change (Fit, PartialFit, SetCentroids).
  void RebuildCentroidCaches();

  KMeansConfig config_;
  Matrix centroids_;  // k x dim
  int iters_run_ = 0;
  // Cumulative per-centroid sample counts driving PartialFit's learning
  // rates; reset to the final assignment counts by Fit.
  std::vector<uint64_t> partial_counts_;
  // Centroid caches for AssignFusedInto: the norms and C^T (dim x k),
  // kept current by every centroid change. The const members write
  // nothing, so one fitted instance may serve several threads at once
  // (ShardedStore's shared model, DESIGN.md §10); a change needs the
  // caller's exclusive access.
  std::vector<double> cnorm2_;
  double cmax_norm_ = 0.0;
  Matrix centroids_t_;
};

/// Given SSE values for K = 1..n (index 0 -> K=1), returns the K at the
/// "knee": the point with maximum distance from the chord connecting the
/// first and last points (the standard kneedle construction the paper's
/// elbow method eyeballs). Returns a 1-based K.
size_t FindElbow(const std::vector<double>& sse);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_KMEANS_H_
