// The parallel ML kernels behind ml::ScopedComputePool: a pool changes
// only where a kernel runs, never a bit of its result. Row-parallel MatMul*
// and the per-row k-means and elementwise VAE loops write disjoint
// outputs, and every reduction sums in one order, so the serial path, any
// pool size and a training run on a pool worker all agree bit for bit.

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/e2_model.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/vae.h"

namespace e2nvm::ml {
namespace {

/// Pins a pool of `threads` workers (none for 0) on this thread for one
/// scope and restores serial mode on exit.
class ScopedPool {
 public:
  explicit ScopedPool(size_t threads)
      : pool_(threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr),
        pin_(pool_.get()) {}

 private:
  std::unique_ptr<ThreadPool> pool_;
  ScopedComputePool pin_;
};

constexpr size_t kPoolSizes[] = {0, 1, 2, 4};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.NextFloat() * 2.0f - 1.0f;
  return m;
}

Matrix RandomBits(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.NextBernoulli(0.3) ? 1.0f : 0.0f;
  return m;
}

/// Targets in [0, 1). A fractional target's cross-entropy term is a
/// full double, so the loss's sum rounds differently in another order;
/// a 0/1 target's term is one float log, and at these sizes their sum
/// is exact in double whatever the order.
Matrix RandomUnit(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.NextFloat();
  return m;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool SameBits(const TrainHistory& a, const TrainHistory& b) {
  return SameBits(a.train_loss, b.train_loss) &&
         SameBits(a.val_loss, b.val_loss) &&
         std::memcmp(&a.flops, &b.flops, sizeof(a.flops)) == 0;
}

/// Every parameter block of two VAEs (values, gradients, Adam moments).
void ExpectSameParams(const Vae& a, const Vae& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(SameBits(pa[i]->value, pb[i]->value)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->grad, pb[i]->grad)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->m, pb[i]->m)) << "block " << i;
    EXPECT_TRUE(SameBits(pa[i]->v, pb[i]->v)) << "block " << i;
  }
  EXPECT_EQ(a.step(), b.step());
}

TEST(ParallelMlTest, MatMulMatchesSerialBitForBit) {
  // 97 x 512 x 53 is 2.6M multiply-accumulates, above MatMulInto's
  // whole-kernel dispatch floor, so the pooled call really splits rows.
  Matrix a = RandomMatrix(97, 512, 1);
  Matrix b = RandomMatrix(512, 53, 2);
  Matrix serial = MatMul(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMul(a, b);
  EXPECT_TRUE(SameBits(serial, parallel));
}

TEST(ParallelMlTest, MatMulTransBMatchesSerialBitForBit) {
  Matrix a = RandomMatrix(97, 64, 3);
  Matrix b = RandomMatrix(53, 64, 4);
  Matrix serial = MatMulTransB(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMulTransB(a, b);
  EXPECT_TRUE(SameBits(serial, parallel));
}

TEST(ParallelMlTest, MatMulTransAMatchesSerialBitForBit) {
  // MatMulTransA is MatMulInto on A^T: rows are independent, so any
  // pool split is exact.
  Matrix a = RandomMatrix(64, 97, 5);
  Matrix b = RandomMatrix(64, 53, 6);
  Matrix serial = MatMulTransA(a, b);
  ScopedPool pool(4);
  Matrix parallel = MatMulTransA(a, b);
  EXPECT_TRUE(SameBits(serial, parallel));
}

TEST(ParallelMlTest, KMeansIsIdenticalAtEveryPoolSize) {
  // 512 rows: eight of the per-row loops' 64-row blocks, so every pool
  // of two or more workers splits them. At 512 columns a pool also
  // splits the centroid sums by centroid; at 32 they stay on the caller.
  for (size_t dim : {32u, 512u}) {
    SCOPED_TRACE(dim);
    const Matrix x = RandomMatrix(512, dim, 7);
    const Matrix held_out = RandomMatrix(300, dim, 9);
    const KMeansConfig cfg{.k = 8, .max_iters = 25, .seed = 11};
    KMeans serial(cfg);
    ASSERT_TRUE(serial.Fit(x).ok());
    const double serial_sse = serial.Sse(x);
    const std::vector<size_t> serial_ids = serial.PredictBatch(held_out);
    for (size_t threads : kPoolSizes) {
      SCOPED_TRACE(threads);
      ScopedPool pool(threads);
      KMeans km(cfg);
      ASSERT_TRUE(km.Fit(x).ok());
      EXPECT_TRUE(SameBits(km.centroids(), serial.centroids()));
      EXPECT_EQ(km.iters_run(), serial.iters_run());
      const double sse = km.Sse(x);
      EXPECT_EQ(std::memcmp(&sse, &serial_sse, sizeof(sse)), 0);
      EXPECT_EQ(km.PredictBatch(held_out), serial_ids);
    }
  }
}

TEST(ParallelMlTest, KMeansPooledEqualsSerial) {
  const Matrix x = RandomMatrix(512, 32, 8);
  const KMeansConfig cfg{.k = 8, .max_iters = 25, .seed = 11};
  KMeans serial(cfg);
  ASSERT_TRUE(serial.Fit(x).ok());
  const double serial_sse = serial.Sse(x);
  ScopedPool pool(4);
  KMeans pooled(cfg);
  ASSERT_TRUE(pooled.Fit(x).ok());
  // The pool computes per-row results only; the sums over rows run in
  // row order on the caller, so the fit is the serial one exactly.
  EXPECT_TRUE(SameBits(serial.centroids(), pooled.centroids()));
  const double pooled_sse = pooled.Sse(x);
  EXPECT_EQ(std::memcmp(&serial_sse, &pooled_sse, sizeof(double)), 0)
      << serial_sse << " vs " << pooled_sse;
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

VaeConfig WideVaeConfig() {
  VaeConfig cfg;
  cfg.input_dim = 1024;
  cfg.hidden_dim = 32;
  cfg.latent_dim = 6;
  cfg.seed = 5;
  return cfg;
}

TEST(ParallelMlTest, VaeTrainingIsIdenticalAtEveryPoolSize) {
  // batch 64 x 1024 inputs = 64k-element sigmoid/cross-entropy loops:
  // four of their 16k-element blocks, so a pool splits them, and the
  // 51-row last batch of each epoch ends inside a block.
  const Matrix x = RandomUnit(128, 1024, 10);
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 64;
  Vae serial(WideVaeConfig());
  const TrainHistory serial_h = serial.Train(x, opts);
  for (size_t threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ScopedPool pool(threads);
    Vae vae(WideVaeConfig());
    const TrainHistory h = vae.Train(x, opts);
    EXPECT_TRUE(SameBits(h, serial_h));
    ExpectSameParams(vae, serial);
  }
}

TEST(ParallelMlTest, VaePooledLossEqualsSerial) {
  const Matrix x = RandomUnit(128, 1024, 12);
  VaeTrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 64;

  Vae serial(WideVaeConfig());
  const double sl = serial.Train(x, opts).train_loss.back();
  ScopedPool pool(4);
  Vae pooled(WideVaeConfig());
  const double pl = pooled.Train(x, opts).train_loss.back();
  // The cross-entropy's blocks follow from the batch's length alone.
  EXPECT_EQ(std::memcmp(&sl, &pl, sizeof(double)), 0)
      << sl << " vs " << pl;
}

/// E2Model::Train's whole output: every VAE parameter block, the k-means
/// centroids, the learning curves and the flop count.
void ExpectSameModel(const core::E2Model& a, const core::E2Model& b) {
  ExpectSameParams(a.vae(), b.vae());
  EXPECT_TRUE(SameBits(a.kmeans().centroids(), b.kmeans().centroids()));
  EXPECT_TRUE(SameBits(a.history(), b.history()));
  EXPECT_EQ(a.LastTrainFlops(), b.LastTrainFlops());
}

TEST(ParallelMlTest, E2ModelTrainIsTheSameWhereverItRuns) {
  // 256 rows: the k-means on the latent codes spans four 64-row blocks,
  // and a 64 x 512 batch spans two cross-entropy blocks.
  const Matrix x = RandomBits(256, 512, 13);
  core::E2ModelConfig mc;
  mc.input_dim = 512;
  mc.k = 6;
  mc.hidden_dim = 32;
  mc.pretrain_epochs = 2;
  mc.finetune_rounds = 1;

  core::E2Model serial(mc);
  ASSERT_TRUE(serial.Train(x).ok());

  // A store with pool_threads > 0 trains synchronously under its pool.
  ThreadPool pool(3);
  core::E2Model pooled(mc);
  {
    ScopedComputePool kernels(&pool);
    ASSERT_TRUE(pooled.Train(x).ok());
  }
  ExpectSameModel(serial, pooled);

  // A shard's background retrain runs on a lane worker under that lane,
  // where its loops spread over the other workers.
  core::E2Model on_worker(mc);
  std::promise<bool> trained;
  pool.Submit([&] {
    ScopedComputePool kernels(&pool);
    trained.set_value(on_worker.Train(x).ok());
  });
  ASSERT_TRUE(trained.get_future().get());
  ExpectSameModel(serial, on_worker);
}

}  // namespace
}  // namespace e2nvm::ml
