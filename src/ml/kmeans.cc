#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace e2nvm::ml {

namespace {

/// Rows per parallel block in the sample-indexed loops. A fixed grain
/// keeps the block count a function of n alone, so per-block partial
/// sums combined in block order give the same answer for every pool
/// size (determinism guarantee of DESIGN.md §8).
constexpr size_t kRowGrain = 64;

/// Samples below which the fit loops stay serial (fork-join overhead).
constexpr size_t kMinParallelRows = 128;

}  // namespace

double KMeans::DistSq(const float* a, const float* b, size_t dim) const {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s;
}

void KMeans::InitPlusPlus(const Matrix& x, Rng& rng) {
  const size_t n = x.rows();
  const size_t dim = x.cols();
  centroids_ = Matrix(config_.k, dim);

  // First centroid: uniform random sample.
  size_t first = rng.NextBounded(n);
  centroids_.CopyRowFrom(x, first, 0);

  ThreadPool* pool = compute_pool();
  const bool parallel = pool != nullptr && n >= kMinParallelRows;

  std::vector<double> d2(n, std::numeric_limits<double>::max());
  for (size_t c = 1; c < config_.k; ++c) {
    // Update distances to the nearest chosen centroid.
    double total = 0.0;
    if (parallel) {
      std::vector<double> partial(ThreadPool::NumBlocks(n, kRowGrain), 0.0);
      pool->ParallelForBlocks(
          0, n, kRowGrain, [&](size_t lo, size_t hi, size_t blk) {
            double t = 0.0;
            for (size_t i = lo; i < hi; ++i) {
              double d = DistSq(x.Row(i), centroids_.Row(c - 1), dim);
              d2[i] = std::min(d2[i], d);
              t += d2[i];
            }
            partial[blk] = t;
          });
      for (double t : partial) total += t;
    } else {
      for (size_t i = 0; i < n; ++i) {
        double d = DistSq(x.Row(i), centroids_.Row(c - 1), dim);
        d2[i] = std::min(d2[i], d);
        total += d2[i];
      }
    }
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

  ThreadPool* pool = compute_pool();
  const bool parallel = pool != nullptr && n >= kMinParallelRows;
  const size_t blocks = ThreadPool::NumBlocks(n, kRowGrain);

  std::vector<size_t> assign(n, 0);
  // Final-iteration cluster sizes, kept after the loop to seed
  // PartialFit's warm-start counts.
  std::vector<size_t> counts(config_.k, 0);
  double prev_sse = std::numeric_limits<double>::max();
  iters_run_ = 0;
  for (int iter = 0; iter < config_.max_iters; ++iter) {
    ++iters_run_;
    // Assignment step: each sample independent; the SSE is reduced via
    // per-block partials combined in block order (pool-size invariant).
    double sse = 0.0;
    auto assign_range = [&](size_t lo, size_t hi) {
      double s = 0.0;
      for (size_t i = lo; i < hi; ++i) {
        double best = std::numeric_limits<double>::max();
        size_t best_c = 0;
        for (size_t c = 0; c < config_.k; ++c) {
          double d = DistSq(x.Row(i), centroids_.Row(c), dim);
          if (d < best) {
            best = d;
            best_c = c;
          }
        }
        assign[i] = best_c;
        s += best;
      }
      return s;
    };
    if (parallel) {
      std::vector<double> partial(blocks, 0.0);
      pool->ParallelForBlocks(0, n, kRowGrain,
                              [&](size_t lo, size_t hi, size_t blk) {
                                partial[blk] = assign_range(lo, hi);
                              });
      for (double s : partial) sse += s;
    } else {
      sse = assign_range(0, n);
    }
    // Update step: per-block centroid sums merged in block order.
    Matrix sums(config_.k, dim);
    counts.assign(config_.k, 0);
    auto accumulate = [&](Matrix& s, std::vector<size_t>& cnt, size_t lo,
                          size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        float* srow = s.Row(assign[i]);
        const float* xrow = x.Row(i);
        for (size_t d = 0; d < dim; ++d) srow[d] += xrow[d];
        ++cnt[assign[i]];
      }
    };
    if (parallel) {
      std::vector<Matrix> psums(blocks);
      std::vector<std::vector<size_t>> pcounts(blocks);
      pool->ParallelForBlocks(
          0, n, kRowGrain, [&](size_t lo, size_t hi, size_t blk) {
            psums[blk] = Matrix(config_.k, dim);
            pcounts[blk].assign(config_.k, 0);
            accumulate(psums[blk], pcounts[blk], lo, hi);
          });
      for (size_t blk = 0; blk < blocks; ++blk) {
        AddInPlace(sums, psums[blk]);
        for (size_t c = 0; c < config_.k; ++c) counts[c] += pcounts[blk][c];
      }
    } else {
      accumulate(sums, counts, 0, n);
    }
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
  double best = std::numeric_limits<double>::max();
  size_t best_c = 0;
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    double d = DistSq(v, centroids_.Row(c), dim);
    if (d < best) {
      best = d;
      best_c = c;
    }
  }
  return best_c;
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
  ThreadPool* pool = compute_pool();
  if (pool != nullptr && x.rows() >= kMinParallelRows) {
    pool->ParallelFor(0, x.rows(), kRowGrain, [&](size_t i) {
      out[i] = Predict(x.Row(i), x.cols());
    });
  } else {
    for (size_t i = 0; i < x.rows(); ++i) {
      out[i] = Predict(x.Row(i), x.cols());
    }
  }
  return out;
}

double KMeans::Sse(const Matrix& x) const {
  const size_t n = x.rows();
  auto range_sse = [&](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      double best = std::numeric_limits<double>::max();
      for (size_t c = 0; c < centroids_.rows(); ++c) {
        best =
            std::min(best, DistSq(x.Row(i), centroids_.Row(c), x.cols()));
      }
      s += best;
    }
    return s;
  };
  ThreadPool* pool = compute_pool();
  if (pool != nullptr && n >= kMinParallelRows) {
    std::vector<double> partial(ThreadPool::NumBlocks(n, kRowGrain), 0.0);
    pool->ParallelForBlocks(0, n, kRowGrain,
                            [&](size_t lo, size_t hi, size_t blk) {
                              partial[blk] = range_sse(lo, hi);
                            });
    double sse = 0.0;
    for (double s : partial) sse += s;
    return sse;
  }
  return range_sse(0, n);
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
