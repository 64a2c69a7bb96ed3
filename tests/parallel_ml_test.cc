// The parallel ML kernels behind ml::SetComputePool: row-parallel
// MatMul* must reproduce the serial results bit-for-bit, and the blocked
// reductions (K-means, VAE) must be deterministic in the pool size.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/vae.h"

namespace e2nvm::ml {
namespace {

/// Installs a pool for one scope and restores serial mode on exit.
class ScopedPool {
 public:
  explicit ScopedPool(size_t threads) : pool_(threads) {
    SetComputePool(&pool_);
  }
  ~ScopedPool() { SetComputePool(nullptr); }

 private:
  ThreadPool pool_;
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.NextFloat() * 2.0f - 1.0f;
  return m;
}

TEST(ParallelMlTest, MatMulMatchesSerialBitForBit) {
  // 97 x 512 x 53 is 2.6M multiply-accumulates, above MatMulInto's
  // whole-kernel dispatch floor, so the pooled call really splits rows.
  Matrix a = RandomMatrix(97, 512, 1);
  Matrix b = RandomMatrix(512, 53, 2);
  Matrix serial = MatMul(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMul(a, b);
  ASSERT_EQ(serial.rows(), parallel.rows());
  EXPECT_EQ(serial.data(), parallel.data());
}

TEST(ParallelMlTest, MatMulTransBMatchesSerialBitForBit) {
  Matrix a = RandomMatrix(97, 64, 3);
  Matrix b = RandomMatrix(53, 64, 4);
  Matrix serial = MatMulTransB(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMulTransB(a, b);
  EXPECT_EQ(serial.data(), parallel.data());
}

TEST(ParallelMlTest, MatMulTransAMatchesSerialBitForBit) {
  // MatMulTransA is MatMulInto on A^T: rows are independent, so any
  // pool split is exact.
  Matrix a = RandomMatrix(64, 97, 5);
  Matrix b = RandomMatrix(64, 53, 6);
  Matrix serial = MatMulTransA(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMulTransA(a, b);
  EXPECT_EQ(serial.data(), parallel.data());
}

TEST(ParallelMlTest, KMeansFitDeterministicAcrossPoolSizes) {
  Matrix x = RandomMatrix(512, 32, 7);
  KMeansConfig cfg{.k = 8, .max_iters = 25, .seed = 11};
  Matrix c2, c4;
  {
    ScopedPool pool(2);
    KMeans km(cfg);
    ASSERT_TRUE(km.Fit(x).ok());
    c2 = km.centroids();
  }
  {
    ScopedPool pool(4);
    KMeans km(cfg);
    ASSERT_TRUE(km.Fit(x).ok());
    c4 = km.centroids();
  }
  // Fixed-grain blocking: the reduction is a pure function of the data,
  // so different pool sizes agree bit-for-bit.
  EXPECT_EQ(c2.data(), c4.data());
}

TEST(ParallelMlTest, KMeansPooledReachesSerialQuality) {
  Matrix x = RandomMatrix(512, 32, 8);
  KMeansConfig cfg{.k = 8, .max_iters = 25, .seed = 11};
  KMeans serial(cfg);
  ASSERT_TRUE(serial.Fit(x).ok());
  double serial_sse = serial.Sse(x);
  ScopedPool pool(4);
  KMeans pooled(cfg);
  ASSERT_TRUE(pooled.Fit(x).ok());
  // Blocked reductions reorder float additions, which can flip borderline
  // assignments across iterations — so compare the *quality* of the fit,
  // not the exact clustering.
  EXPECT_NEAR(serial_sse, pooled.Sse(x), 0.05 * std::abs(serial_sse));
}

TEST(ParallelMlTest, KMeansPredictBatchMatchesSerial) {
  Matrix x = RandomMatrix(300, 16, 9);
  KMeans km({.k = 5, .max_iters = 10, .seed = 3});
  ASSERT_TRUE(km.Fit(x).ok());
  std::vector<size_t> serial = km.PredictBatch(x);
  ScopedPool pool(4);
  std::vector<size_t> parallel = km.PredictBatch(x);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMlTest, VaeTrainingDeterministicAcrossPoolSizes) {
  // batch 64 x 1024 inputs = 64k-element sigmoid/BCE loops: large enough
  // to take the parallel elementwise path, not just parallel MatMul.
  Matrix x(128, 1024);
  Rng rng(10);
  for (auto& v : x.data()) v = rng.NextBernoulli(0.3) ? 1.0f : 0.0f;
  VaeConfig cfg;
  cfg.input_dim = 1024;
  cfg.hidden_dim = 32;
  cfg.latent_dim = 6;
  cfg.seed = 5;
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 64;

  auto train = [&](size_t threads) {
    ScopedPool pool(threads);
    Vae vae(cfg);
    TrainHistory h = vae.Train(x, opts);
    return h.train_loss;
  };
  std::vector<double> l2 = train(2);
  std::vector<double> l4 = train(4);
  ASSERT_EQ(l2.size(), l4.size());
  for (size_t i = 0; i < l2.size(); ++i) EXPECT_EQ(l2[i], l4[i]);
}

TEST(ParallelMlTest, VaePooledLossCloseToSerial) {
  Matrix x(128, 1024);
  Rng rng(12);
  for (auto& v : x.data()) v = rng.NextBernoulli(0.3) ? 1.0f : 0.0f;
  VaeConfig cfg;
  cfg.input_dim = 1024;
  cfg.hidden_dim = 32;
  cfg.latent_dim = 6;
  cfg.seed = 5;
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 64;

  Vae serial(cfg);
  double sl = serial.Train(x, opts).train_loss.back();
  ScopedPool pool(4);
  Vae pooled(cfg);
  double pl = pooled.Train(x, opts).train_loss.back();
  EXPECT_NEAR(sl, pl, 1e-3 * std::abs(sl) + 1e-6);
}

}  // namespace
}  // namespace e2nvm::ml
