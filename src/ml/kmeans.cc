#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2nvm::ml {

namespace {

/// Rows per block when the compute pool runs a per-row loop; smaller
/// blocks would not pay for the fork-join. The pool computes only
/// per-row results (distances, assignments, predictions); every sum over
/// rows runs on the calling thread in row order, so a fit has the same
/// bits with or without a pool and at any pool size.
constexpr size_t kRowGrain = 64;

/// Row elements below which the centroid sums stay on the caller.
constexpr size_t kMinPooledSumElems = size_t{1} << 18;

}  // namespace

double KMeans::DistSq(const float* a, const float* b, size_t dim) const {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s;
}

size_t KMeans::Nearest(const float* v, size_t dim, double* d2) const {
  double best = std::numeric_limits<double>::max();
  size_t best_c = 0;
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    double d = DistSq(v, centroids_.Row(c), dim);
    if (d < best) {
      best = d;
      best_c = c;
    }
  }
  *d2 = best;
  return best_c;
}

void KMeans::InitPlusPlus(const Matrix& x, Rng& rng) {
  const size_t n = x.rows();
  const size_t dim = x.cols();
  centroids_ = Matrix(config_.k, dim);

  // First centroid: uniform random sample.
  size_t first = rng.NextBounded(n);
  centroids_.CopyRowFrom(x, first, 0);

  std::vector<double> d2(n, std::numeric_limits<double>::max());
  for (size_t c = 1; c < config_.k; ++c) {
    // Update distances to the nearest chosen centroid.
    const float* last = centroids_.Row(c - 1);
    ForRanges(n, kRowGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        d2[i] = std::min(d2[i], DistSq(x.Row(i), last, dim));
      }
    });
    double total = 0.0;
    for (double d : d2) total += d;
    // Sample proportional to squared distance.
    size_t chosen = n - 1;
    if (total > 0.0) {
      double r = rng.NextDouble() * total;
      double cum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        cum += d2[i];
        if (cum >= r) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.NextBounded(n);
    }
    centroids_.CopyRowFrom(x, chosen, c);
  }
}

Status KMeans::Fit(const Matrix& x) {
  if (x.rows() < config_.k) {
    return Status::InvalidArgument("fewer samples than clusters");
  }
  if (config_.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  const size_t n = x.rows();
  const size_t dim = x.cols();
  Rng rng(config_.seed);
  InitPlusPlus(x, rng);

  std::vector<size_t> assign(n, 0);
  std::vector<double> d2(n, 0.0);  // Each row's distance to its centroid.
  Matrix sums(config_.k, dim);
  // Final-iteration cluster sizes, kept after the loop to seed
  // PartialFit's warm-start counts.
  std::vector<size_t> counts(config_.k, 0);
  double prev_sse = std::numeric_limits<double>::max();
  iters_run_ = 0;
  for (int iter = 0; iter < config_.max_iters; ++iter) {
    ++iters_run_;
    // Assignment step: each row independent.
    ForRanges(n, kRowGrain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        assign[i] = Nearest(x.Row(i), dim, &d2[i]);
      }
    });
    double sse = 0.0;
    for (double d : d2) sse += d;
    // Update step: each centroid sums its rows in row order. A pool
    // splits the centroids; every task scans the assignments and skips
    // the rows of the others, so each row is read whole, once.
    sums.Fill(0.0f);
    const size_t grain = n * dim < kMinPooledSumElems ? config_.k : 1;
    ForRanges(config_.k, grain, [&](size_t lo, size_t hi) {
      for (size_t i = 0; i < n; ++i) {
        const size_t c = assign[i];
        if (c < lo || c >= hi) continue;
        float* srow = sums.Row(c);
        const float* xrow = x.Row(i);
        for (size_t d = 0; d < dim; ++d) srow[d] += xrow[d];
      }
    });
    counts.assign(config_.k, 0);
    for (size_t i = 0; i < n; ++i) ++counts[assign[i]];
    for (size_t c = 0; c < config_.k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random sample.
        centroids_.CopyRowFrom(x, rng.NextBounded(n), c);
        continue;
      }
      float inv = 1.0f / static_cast<float>(counts[c]);
      float* crow = centroids_.Row(c);
      const float* srow = sums.Row(c);
      for (size_t d = 0; d < dim; ++d) crow[d] = srow[d] * inv;
    }
    if (prev_sse - sse < config_.tol * std::max(prev_sse, 1.0)) break;
    prev_sse = sse;
  }
  // Seed PartialFit's warm-start mass from the final assignment: each
  // centroid starts incremental updates weighted by the samples that
  // shaped it, so the first refinement nudges rather than teleports.
  partial_counts_.assign(counts.begin(), counts.end());
  RebuildCentroidCaches();
  return Status::Ok();
}

Status KMeans::PartialFit(const Matrix& x) {
  if (!fitted()) {
    return Status::FailedPrecondition("PartialFit before Fit");
  }
  if (x.cols() != dim()) {
    return Status::InvalidArgument("sample width != centroid dim");
  }
  const size_t d = dim();
  if (partial_counts_.size() != centroids_.rows()) {
    // Centroids were installed via SetCentroids without a Fit on this
    // instance; give each unit mass so updates start responsive.
    partial_counts_.assign(centroids_.rows(), 1);
  }
  for (size_t i = 0; i < x.rows(); ++i) {
    const float* row = x.Row(i);
    size_t c = Predict(row, d);
    float lr = 1.0f / static_cast<float>(++partial_counts_[c]);
    float* crow = centroids_.Row(c);
    for (size_t j = 0; j < d; ++j) crow[j] += lr * (row[j] - crow[j]);
  }
  RebuildCentroidCaches();
  return Status::Ok();
}

size_t KMeans::Predict(const float* v, size_t dim) const {
  double d2;
  return Nearest(v, dim, &d2);
}

void KMeans::RebuildCentroidCaches() {
  const size_t k = centroids_.rows();
  const size_t dim = centroids_.cols();
  cnorm2_.assign(k, 0.0);
  cmax_norm_ = 0.0;
  for (size_t c = 0; c < k; ++c) {
    const float* crow = centroids_.Row(c);
    double s = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      s += static_cast<double>(crow[i]) * crow[i];
    }
    cnorm2_[c] = s;
    cmax_norm_ = std::max(cmax_norm_, std::sqrt(s));
  }
  TransposeInto(centroids_, &centroids_t_);
}

void KMeans::AssignFusedInto(const Matrix& x, Matrix* scores,
                             std::vector<size_t>* out) const {
  const size_t n = x.rows();
  const size_t dim = x.cols();
  const size_t k = centroids_.rows();
  const std::vector<double>& cn = cnorm2_;
  // One GEMM scores every row against every centroid: x C^T, which
  // MatMulTransB would compute, on the cached transpose.
  MatMulInto(x, centroids_t_, scores);
  out->resize(n);
  for (size_t r = 0; r < n; ++r) {
    const float* srow = scores->Row(r);
    const float* xrow = x.Row(r);
    // Fused score per centroid: ||c||^2 - 2 x.c (the ||x||^2 term is
    // constant across c and is dropped from the comparison).
    double best = std::numeric_limits<double>::max();
    for (size_t c = 0; c < k; ++c) {
      double f = cn[c] - 2.0 * static_cast<double>(srow[c]);
      best = std::min(best, f);
    }
    // Error band of the float dot product: |dot_f - dot| <=
    // dim * eps_f * ||x|| * ||c||, doubled for the 2x scaling and
    // doubled again for margin; the small absolute term covers
    // degenerate zero norms. Every centroid whose fused score could be
    // the true minimum falls inside the band.
    double xnorm2 = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      xnorm2 += static_cast<double>(xrow[i]) * xrow[i];
    }
    const double band =
        8.0 * static_cast<double>(dim) *
            static_cast<double>(std::numeric_limits<float>::epsilon()) *
            std::sqrt(xnorm2) * cmax_norm_ +
        1e-9;
    // Exact refine over the band in Predict's scan order (ascending c,
    // first-strictly-smaller wins) guarantees the same id and the same
    // tie-breaking as the reference path. Almost always one candidate.
    double best_d = std::numeric_limits<double>::max();
    size_t best_c = 0;
    bool found = false;
    for (size_t c = 0; c < k; ++c) {
      double f = cn[c] - 2.0 * static_cast<double>(srow[c]);
      if (f > best + band) continue;
      double d = DistSq(xrow, centroids_.Row(c), dim);
      if (!found || d < best_d) {
        best_d = d;
        best_c = c;
        found = true;
      }
    }
    (*out)[r] = best_c;
  }
}

std::vector<size_t> KMeans::PredictBatch(const Matrix& x) const {
  std::vector<size_t> out(x.rows());
  ForRanges(x.rows(), kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = Predict(x.Row(i), x.cols());
  });
  return out;
}

double KMeans::Sse(const Matrix& x) const {
  std::vector<double> d2(x.rows());
  ForRanges(x.rows(), kRowGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) Nearest(x.Row(i), x.cols(), &d2[i]);
  });
  double sse = 0.0;
  for (double d : d2) sse += d;
  return sse;
}

size_t FindElbow(const std::vector<double>& sse) {
  if (sse.size() < 3) return sse.empty() ? 1 : sse.size();
  // Distance of each point to the chord from (1, sse[0]) to (n, sse[n-1]),
  // with both axes normalized to [0,1] so scale doesn't bias the knee.
  const double n = static_cast<double>(sse.size() - 1);
  const double y0 = sse.front();
  const double yn = sse.back();
  const double yrange = std::max(std::abs(y0 - yn), 1e-12);
  double best_d = -1.0;
  size_t best_k = 1;
  for (size_t i = 0; i < sse.size(); ++i) {
    double xs = static_cast<double>(i) / n;
    double ys = (sse[i] - yn) / yrange;  // 1 at start, 0 at end (decreasing).
    // Chord runs from (0,1) to (1,0): distance ∝ |xs + ys - 1|.
    double d = std::abs(xs + ys - 1.0);
    if (d > best_d) {
      best_d = d;
      best_k = i + 1;
    }
  }
  return best_k;
}

}  // namespace e2nvm::ml
