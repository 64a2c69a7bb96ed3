#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "common/rng.h"

namespace e2nvm::ml {
namespace {

/// Three well-separated Gaussian blobs in 2D.
Matrix MakeBlobs(size_t per_cluster, std::vector<size_t>* labels,
                 uint64_t seed = 3) {
  Rng rng(seed);
  const float centers[3][2] = {{0, 0}, {10, 10}, {-10, 10}};
  Matrix x(per_cluster * 3, 2);
  labels->clear();
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      size_t row = c * per_cluster + i;
      x(row, 0) = centers[c][0] + static_cast<float>(rng.NextGaussian());
      x(row, 1) = centers[c][1] + static_cast<float>(rng.NextGaussian());
      labels->push_back(c);
    }
  }
  return x;
}

TEST(KMeansTest, RejectsBadInput) {
  KMeans km({.k = 5});
  Matrix tiny(2, 3);
  EXPECT_EQ(km.Fit(tiny).code(), StatusCode::kInvalidArgument);
  KMeans zero({.k = 0});
  Matrix x(10, 2);
  EXPECT_FALSE(zero.Fit(x).ok());
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  std::vector<size_t> labels;
  Matrix x = MakeBlobs(50, &labels);
  KMeans km({.k = 3, .seed = 1});
  ASSERT_TRUE(km.Fit(x).ok());
  auto assign = km.PredictBatch(x);
  // All points of a true cluster must map to the same predicted cluster,
  // and different true clusters to different predicted ones.
  std::vector<size_t> rep(3, SIZE_MAX);
  for (size_t i = 0; i < assign.size(); ++i) {
    size_t t = labels[i];
    if (rep[t] == SIZE_MAX) rep[t] = assign[i];
    EXPECT_EQ(assign[i], rep[t]) << "point " << i;
  }
  EXPECT_NE(rep[0], rep[1]);
  EXPECT_NE(rep[1], rep[2]);
  EXPECT_NE(rep[0], rep[2]);
}

TEST(KMeansTest, SseDecreasesWithK) {
  std::vector<size_t> labels;
  Matrix x = MakeBlobs(40, &labels);
  double prev = 1e18;
  for (size_t k : {1u, 2u, 3u, 6u}) {
    KMeans km({.k = k, .seed = 7});
    ASSERT_TRUE(km.Fit(x).ok());
    double sse = km.Sse(x);
    EXPECT_LT(sse, prev + 1e-9) << "k=" << k;
    prev = sse;
  }
}

TEST(KMeansTest, PredictConsistentWithCentroidDistance) {
  std::vector<size_t> labels;
  Matrix x = MakeBlobs(30, &labels);
  KMeans km({.k = 3, .seed = 5});
  ASSERT_TRUE(km.Fit(x).ok());
  const Matrix& c = km.centroids();
  float probe[2] = {9.5f, 10.5f};
  size_t pred = km.Predict(probe, 2);
  double best = 1e18;
  size_t manual = 0;
  for (size_t i = 0; i < 3; ++i) {
    double d = 0;
    for (size_t j = 0; j < 2; ++j) {
      d += (probe[j] - c(i, j)) * (probe[j] - c(i, j));
    }
    if (d < best) {
      best = d;
      manual = i;
    }
  }
  EXPECT_EQ(pred, manual);
}

TEST(KMeansTest, DeterministicPerSeed) {
  std::vector<size_t> labels;
  Matrix x = MakeBlobs(30, &labels);
  KMeans a({.k = 3, .seed = 9}), b({.k = 3, .seed = 9});
  ASSERT_TRUE(a.Fit(x).ok());
  ASSERT_TRUE(b.Fit(x).ok());
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_FLOAT_EQ(a.centroids()(i, j), b.centroids()(i, j));
    }
  }
}

TEST(KMeansTest, KEqualsNZeroSse) {
  Matrix x(4, 2);
  x(0, 0) = 0;
  x(1, 0) = 1;
  x(2, 0) = 2;
  x(3, 0) = 3;
  KMeans km({.k = 4, .max_iters = 100, .seed = 2});
  ASSERT_TRUE(km.Fit(x).ok());
  EXPECT_NEAR(km.Sse(x), 0.0, 1e-6);
}

TEST(KMeansTest, FlopsAccountingPositive) {
  std::vector<size_t> labels;
  Matrix x = MakeBlobs(20, &labels);
  KMeans km({.k = 3, .seed = 4});
  ASSERT_TRUE(km.Fit(x).ok());
  EXPECT_GT(km.PredictFlops(), 0.0);
  EXPECT_GT(km.FitFlops(x.rows()), km.PredictFlops());
  EXPECT_GT(km.iters_run(), 0);
}

/// AssignFusedInto's contract: per row, the id Predict returns.
void ExpectFusedMatchesPredict(const KMeans& km, const Matrix& x) {
  Matrix scores;
  std::vector<size_t> fused;
  km.AssignFusedInto(x, &scores, &fused);
  ASSERT_EQ(fused.size(), x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(fused[i], km.Predict(x.Row(i), x.cols()))
        << "dim " << x.cols() << " row " << i;
  }
}

/// n rows of 0/1 floats around `protos` random prototypes, each bit
/// flipped with probability `noise`: featurized values, as
/// RawKMeansClusterer assigns them.
Matrix BitRows(size_t n, size_t dim, size_t protos, double noise,
               uint64_t seed) {
  Rng rng(seed);
  Matrix p(protos, dim);
  for (auto& v : p.data()) v = rng.NextDouble() < 0.5 ? 1.0f : 0.0f;
  Matrix x(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      const float bit = p(i % protos, d);
      x(i, d) = rng.NextDouble() < noise ? 1.0f - bit : bit;
    }
  }
  return x;
}

TEST(KMeansTest, FusedAssignmentMatchesPredictOnBitRows) {
  for (size_t dim : {512u, 2048u}) {
    const Matrix x = BitRows(160, dim, 6, 0.05, dim);
    KMeans km({.k = 8, .max_iters = 10, .seed = 3});
    ASSERT_TRUE(km.Fit(x).ok());
    ExpectFusedMatchesPredict(km, x);
    // Rows the model was not fitted on, as a PUT's value is.
    ExpectFusedMatchesPredict(km, BitRows(64, dim, 6, 0.2, dim + 1));
  }
}

TEST(KMeansTest, FusedAssignmentMatchesPredictOnFloatRows) {
  // Latent-width rows, as the E2-NVM model assigns its codes.
  Rng rng(11);
  Matrix x(300, 10);
  for (auto& v : x.data()) v = static_cast<float>(rng.NextGaussian());
  KMeans km({.k = 10, .seed = 2});
  ASSERT_TRUE(km.Fit(x).ok());
  ExpectFusedMatchesPredict(km, x);
}

TEST(KMeansTest, FusedAssignmentBreaksTiesLikePredict) {
  // Centroid c is 2 at coordinate 9 - c. The row with ones at
  // coordinates a < b is the exact midpoint of centroids 9 - a and
  // 9 - b (squared distance 2 to both, 6 to the rest); Predict's scan
  // gives the tie to the lower index, 9 - b. The zero row ties all ten
  // centroids and goes to 0.
  constexpr size_t kDim = 10;
  Matrix c(kDim, kDim);
  for (size_t j = 0; j < kDim; ++j) c(j, kDim - 1 - j) = 2.0f;
  KMeans km({.k = kDim});
  km.SetCentroids(std::move(c));
  Matrix x(1 + kDim * (kDim - 1) / 2, kDim);
  std::vector<size_t> want = {0};
  for (size_t a = 0; a < kDim; ++a) {
    for (size_t b = a + 1; b < kDim; ++b) {
      x(want.size(), a) = 1.0f;
      x(want.size(), b) = 1.0f;
      want.push_back(kDim - 1 - b);
    }
  }
  ExpectFusedMatchesPredict(km, x);
  Matrix scores;
  std::vector<size_t> fused;
  km.AssignFusedInto(x, &scores, &fused);
  EXPECT_EQ(fused, want);
}

/// `n` points on the circle of radius 10, at `degrees` each (cycling).
Matrix OnCircle(std::initializer_list<float> degrees, size_t n) {
  const std::vector<float> deg(degrees);
  Matrix m(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const float rad = deg[i % deg.size()] * 3.14159265f / 180.0f;
    m(i, 0) = 10.0f * std::cos(rad);
    m(i, 1) = 10.0f * std::sin(rad);
  }
  return m;
}

TEST(KMeansTest, FusedAssignmentFollowsEveryCentroidChange) {
  // Each check warms the fused assignment's caches (centroid norms and
  // C^T), and each change below must invalidate them. The centroids stay
  // on one circle, so their norms stay (nearly) equal and the fused
  // score ranks centroids by the dot products alone: scores against a
  // stale C^T would pick each query's nearest *previous* centroid, and
  // the exact re-check only looks near that minimum. Every change moves
  // some query's nearest centroid, so stale caches cannot pass.
  Matrix queries(72, 2);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const float rad = (5.0f * i + 2.5f) * 3.14159265f / 180.0f;
    queries(i, 0) = 10.0f * std::cos(rad);
    queries(i, 1) = 10.0f * std::sin(rad);
  }
  KMeans km({.k = 3, .seed = 5});
  km.SetCentroids(OnCircle({0, 100, 220}, 3));
  ExpectFusedMatchesPredict(km, queries);
  std::vector<size_t> before = km.PredictBatch(queries);

  // PartialFit drags the centroid at 100 degrees to about 150.
  ASSERT_TRUE(km.PartialFit(OnCircle({150}, 400)).ok());
  ExpectFusedMatchesPredict(km, queries);
  EXPECT_NE(km.PredictBatch(queries), before);
  before = km.PredictBatch(queries);

  // SetCentroids: the same centroids, rotated one index.
  Matrix rotated(3, 2);
  for (size_t c = 0; c < 3; ++c) {
    rotated.CopyRowFrom(km.centroids(), (c + 1) % 3, c);
  }
  km.SetCentroids(std::move(rotated));
  ExpectFusedMatchesPredict(km, queries);
  EXPECT_NE(km.PredictBatch(queries), before);
  before = km.PredictBatch(queries);

  // Fit on three blobs elsewhere on the circle.
  ASSERT_TRUE(km.Fit(OnCircle({40, 190, 290}, 90)).ok());
  ExpectFusedMatchesPredict(km, queries);
  EXPECT_NE(km.PredictBatch(queries), before);
}

TEST(FindElbowTest, DetectsSharpKnee) {
  // SSE drops fast until K=4, then flattens: the knee is at K=4.
  std::vector<double> sse = {1000, 600, 300, 100, 90, 82, 76, 71, 67};
  EXPECT_EQ(FindElbow(sse), 4u);
}

TEST(FindElbowTest, LinearCurveHasNoStrongKnee) {
  std::vector<double> sse = {100, 90, 80, 70, 60, 50};
  size_t k = FindElbow(sse);
  EXPECT_GE(k, 1u);
  EXPECT_LE(k, 6u);
}

TEST(FindElbowTest, DegenerateInputs) {
  EXPECT_EQ(FindElbow({}), 1u);
  EXPECT_EQ(FindElbow({5.0}), 1u);
  EXPECT_EQ(FindElbow({5.0, 4.0}), 2u);
}

}  // namespace
}  // namespace e2nvm::ml
