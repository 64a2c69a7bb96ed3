#ifndef E2NVM_PLACEMENT_CLUSTERER_H_
#define E2NVM_PLACEMENT_CLUSTERER_H_

#include <memory>
#include <string_view>

#include "common/status.h"
#include "ml/bit_matrix.h"
#include "ml/inference.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/pca.h"

namespace e2nvm::placement {

/// The common abstraction behind every memory-aware placement policy in
/// the paper: a model trained on the bit contents of memory segments that
/// maps any content vector to a cluster of similar contents.
///
/// Implementations:
///  - SingleClusterer     — k=1; degenerates to arbitrary placement (the
///                          Fig 10 "k=1" baseline, equivalent to plain DCW);
///  - RawKMeansClusterer  — PNW [26] mode 1: K-means directly on bits;
///  - PcaKMeansClusterer  — PNW [26] mode 2: PCA then K-means;
///  - core::E2Model       — the paper's contribution: VAE + K-means,
///                          optionally jointly fine-tuned.
class ContentClusterer {
 public:
  virtual ~ContentClusterer() = default;

  virtual std::string_view name() const = 0;

  /// A fresh, untrained clusterer with this one's configuration — the
  /// shadow model a background retrain trains and then swaps in while
  /// the original keeps serving predictions (§4.1.4: retraining runs
  /// "in the background").
  virtual std::unique_ptr<ContentClusterer> CloneUntrained() const = 0;

  /// A deep copy of this model in its current state: trained parameters,
  /// optimizer moments, step counts, RNG state and k-means counts. A
  /// PartialFit on the copy equals one on the original, bit for bit, and
  /// leaves the original untouched — what an engine that can refine
  /// serves in place of a twin's trained model.
  virtual std::unique_ptr<ContentClusterer> Clone() const = 0;

  /// Trains (or re-trains) on segment contents, one row per segment,
  /// float or packed (ml::RowsView). A model overrides one of the two
  /// Train forms. The library's models override this one, so a packed
  /// snapshot trains them without a float copy; the default expands
  /// packed rows into a float Matrix for a model that overrides only
  /// the float form.
  virtual Status Train(const ml::RowsView& contents);

  /// Train on float rows. The default trains through the view, so a
  /// model that reads the view takes float callers unchanged.
  virtual Status Train(const ml::Matrix& contents);

  /// Moves the cluster of every row of the last Train's contents under
  /// the trained model (the ids AssignScratch gives those rows) into
  /// `out`, when the training kept them; false when it did not (the
  /// default), and the caller classifies the rows itself.
  virtual bool TakeTrainClusters(std::vector<size_t>* out) {
    (void)out;
    return false;
  }

  /// The one inference operation: assigns every content vector staged
  /// in scratch->in (one row per vector, 0/1 floats, width = input dim)
  /// to a cluster, filling scratch->clusters (one id per row). Rows are
  /// independent: each gets the id it would get staged alone, so one
  /// call classifies a PUT, a MultiPut batch or a whole DAP fill alike.
  /// The other scratch buffers are the model's to use; the hot-path
  /// models allocate nothing once they are warm (one encoder GEMV per
  /// staged row + one fused assignment for the whole batch). Reads the
  /// model only: engines that serve one instance call it concurrently,
  /// each with its own scratch.
  virtual void AssignScratch(ml::InferenceScratch* scratch) const = 0;

  virtual size_t num_clusters() const = 0;

  /// Multiply-accumulates of classifying one row (prediction-latency and
  /// CPU-energy accounting, Figs 4 and 10).
  virtual double PredictFlops() const = 0;

  /// Multiply-accumulates consumed by the most recent Train call.
  virtual double LastTrainFlops() const = 0;

  /// Incremental refinement support (DESIGN.md §16): PartialFit applies
  /// a cheap mini-batch update to the *current* parameters from recently
  /// written contents, instead of a from-scratch Train — the engine's
  /// replay-ring refinement steps run through it. Models that support it
  /// override all three members; engines fall back to full retrains for
  /// the rest. PartialFit must keep the determinism contract: the
  /// post-update model is a pure function of (pre-update model, batch),
  /// independent of the installed compute pool.
  virtual bool SupportsPartialFit() const { return false; }
  virtual Status PartialFit(const ml::Matrix& batch) {
    (void)batch;
    return Status::Unimplemented("clusterer has no incremental update");
  }
  /// Multiply-accumulates of the most recent successful PartialFit call.
  virtual double LastPartialFitFlops() const { return 0; }
};

/// k = 1: every segment is in the single cluster; placement degenerates to
/// "first free address".
class SingleClusterer : public ContentClusterer {
 public:
  std::string_view name() const override { return "single"; }
  std::unique_ptr<ContentClusterer> CloneUntrained() const override {
    return std::make_unique<SingleClusterer>();
  }
  std::unique_ptr<ContentClusterer> Clone() const override {
    return std::make_unique<SingleClusterer>(*this);
  }
  Status Train(const ml::RowsView& contents) override {
    return Status::Ok();
  }
  void AssignScratch(ml::InferenceScratch* scratch) const override {
    scratch->clusters.assign(scratch->in.rows(), 0);
  }
  size_t num_clusters() const override { return 1; }
  double PredictFlops() const override { return 0; }
  double LastTrainFlops() const override { return 0; }
};

/// PNW mode 1: K-means directly on the raw bit features. Accurate but its
/// cost scales linearly with the bit width, which is why the paper finds
/// it infeasible beyond a few thousand features (Fig 4).
class RawKMeansClusterer : public ContentClusterer {
 public:
  RawKMeansClusterer(size_t k, uint64_t seed = 42, int max_iters = 50,
                     double tol = 1e-4)
      : kmeans_({.k = k, .max_iters = max_iters, .tol = tol,
                 .seed = seed}) {}

  std::string_view name() const override { return "PNW-kmeans"; }
  std::unique_ptr<ContentClusterer> CloneUntrained() const override {
    const ml::KMeansConfig& c = kmeans_.config();
    return std::make_unique<RawKMeansClusterer>(c.k, c.seed, c.max_iters,
                                                c.tol);
  }
  std::unique_ptr<ContentClusterer> Clone() const override {
    return std::make_unique<RawKMeansClusterer>(*this);
  }
  /// K-means on the rows as floats, expanded first when packed.
  Status Train(const ml::RowsView& contents) override;
  void AssignScratch(ml::InferenceScratch* scratch) const override {
    kmeans_.AssignFusedInto(scratch->in, &scratch->scores,
                            &scratch->clusters);
  }
  size_t num_clusters() const override { return kmeans_.k(); }
  double PredictFlops() const override { return kmeans_.PredictFlops(); }
  double LastTrainFlops() const override { return train_flops_; }
  /// Mini-batch k-means directly on the bits (warm-started counts from
  /// the last Fit; see ml::KMeans::PartialFit).
  bool SupportsPartialFit() const override { return true; }
  Status PartialFit(const ml::Matrix& batch) override {
    E2_RETURN_IF_ERROR(kmeans_.PartialFit(batch));
    partial_fit_flops_ = kmeans_.PartialFitFlops(batch.rows());
    return Status::Ok();
  }
  double LastPartialFitFlops() const override { return partial_fit_flops_; }

  const ml::KMeans& kmeans() const { return kmeans_; }

 private:
  ml::KMeans kmeans_;
  double train_flops_ = 0;
  double partial_fit_flops_ = 0;
};

/// DATACON-style placement (Song et al. [48]): the memory controller
/// redirects each write toward regions whose cells are predominantly
/// zeros or predominantly ones, matching the incoming content's polarity.
/// Modeled as a density clusterer: `k` buckets over the fraction of 1
/// bits. Training is trivial (no model), prediction is a popcount — the
/// cheapest possible content-awareness, and the natural midpoint between
/// arbitrary placement and PNW/E2-NVM.
class DensityClusterer : public ContentClusterer {
 public:
  explicit DensityClusterer(size_t k = 2) : k_(k) {}

  std::string_view name() const override { return "DATACON"; }
  std::unique_ptr<ContentClusterer> CloneUntrained() const override {
    return std::make_unique<DensityClusterer>(k_);
  }
  std::unique_ptr<ContentClusterer> Clone() const override {
    return std::make_unique<DensityClusterer>(*this);
  }
  Status Train(const ml::RowsView& contents) override {
    return Status::Ok();
  }
  void AssignScratch(ml::InferenceScratch* scratch) const override {
    const size_t n = scratch->in.rows();
    const size_t dim = scratch->in.cols();
    scratch->clusters.resize(n);
    for (size_t r = 0; r < n; ++r) {
      const float* row = scratch->in.Row(r);
      double ones = 0;
      for (size_t i = 0; i < dim; ++i) ones += row[i] >= 0.5f ? 1.0 : 0.0;
      double frac = dim == 0 ? 0.0 : ones / static_cast<double>(dim);
      size_t bucket = static_cast<size_t>(frac * static_cast<double>(k_));
      scratch->clusters[r] = bucket >= k_ ? k_ - 1 : bucket;
    }
  }
  size_t num_clusters() const override { return k_; }
  double PredictFlops() const override { return 2.0; }  // A popcount.
  double LastTrainFlops() const override { return 0; }

 private:
  size_t k_;
};

/// PNW mode 2: PCA to `components` dimensions, then K-means in the
/// projected space. Cheaper at high dimensionality but loses information
/// (more bit flips than mode 1 — the Fig 4 trade-off).
class PcaKMeansClusterer : public ContentClusterer {
 public:
  PcaKMeansClusterer(size_t k, size_t components, uint64_t seed = 42,
                     int max_iters = 50)
      : pca_({.num_components = components, .seed = seed}),
        kmeans_({.k = k, .max_iters = max_iters, .seed = seed}) {}

  std::string_view name() const override { return "PNW-pca"; }
  std::unique_ptr<ContentClusterer> CloneUntrained() const override {
    return std::make_unique<PcaKMeansClusterer>(
        kmeans_.config().k, pca_.config().num_components,
        kmeans_.config().seed, kmeans_.config().max_iters);
  }
  std::unique_ptr<ContentClusterer> Clone() const override {
    return std::make_unique<PcaKMeansClusterer>(*this);
  }
  /// PCA and k-means on the rows as floats, expanded first when packed.
  Status Train(const ml::RowsView& contents) override;
  /// Projects the staged rows (Pca::Transform), then one fused
  /// assignment in the projected space. Allocates the projection.
  void AssignScratch(ml::InferenceScratch* scratch) const override;
  size_t num_clusters() const override { return kmeans_.k(); }
  double PredictFlops() const override {
    return pca_.TransformFlops() + kmeans_.PredictFlops();
  }
  double LastTrainFlops() const override { return train_flops_; }

 private:
  ml::Pca pca_;
  ml::KMeans kmeans_;
  double train_flops_ = 0;
};

}  // namespace e2nvm::placement

#endif  // E2NVM_PLACEMENT_CLUSTERER_H_
