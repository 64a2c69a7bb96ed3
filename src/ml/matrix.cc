#include "ml/matrix.h"

#include <algorithm>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "common/kernels.h"
#include "common/thread_pool.h"

namespace e2nvm::ml {

namespace {

std::atomic<ThreadPool*> g_compute_pool{nullptr};

/// Thread-local override stack top (see ScopedComputePool). A separate
/// `active` flag distinguishes "override to serial" (nullptr override)
/// from "no override".
thread_local ThreadPool* t_pool_override = nullptr;
thread_local bool t_pool_override_active = false;

/// Minimum multiply-accumulates per dispatched block; below this the
/// fork-join overhead dwarfs the block's work. (A one-row product such
/// as a PUT's encode is a single block and always runs on the caller.)
constexpr double kMinParallelMacs = 64.0 * 1024.0;

/// Minimum multiply-accumulates in the WHOLE kernel before it dispatches
/// at all. Below this the kernel finishes in tens of microseconds and
/// fork-join latency is comparable: a MultiPut encode of fewer than 16
/// rows through a 2048 x 64 encoder layer stays on the caller, larger
/// batches and training-sized GEMMs fan out.
constexpr double kMinParallelTotalMacs = 2.0 * 1024.0 * 1024.0;

/// Splits `rows` into at most 64 blocks (>=1 row each). Row-parallel
/// kernels write disjoint output rows with unchanged per-row arithmetic,
/// so any blocking — and any pool size — reproduces the serial result
/// bit-for-bit.
size_t RowGrain(size_t rows) { return std::max<size_t>(1, rows / 64); }

/// Work-based grain for the row-parallel GEMMs: every block carries at
/// least kMinParallelMacs of arithmetic, so a dispatched block is never
/// dominated by fork-join overhead. Combined with the NumBlocks pre-check
/// below, single-row inference GEMMs (and anything else below the grain)
/// run inline on the caller without ever constructing a closure or
/// touching the pool's queue.
size_t WorkGrain(size_t rows, double macs_per_row) {
  size_t by_work = static_cast<size_t>(kMinParallelMacs /
                                       std::max(macs_per_row, 1.0)) +
                   1;
  return std::max(RowGrain(rows), by_work);
}

/// Inline-below-grain check: parallel dispatch only pays when the range
/// splits into at least two blocks and the kernel as a whole carries
/// enough arithmetic to amortize the fork-join.
bool UsePool(ThreadPool* pool, size_t rows, size_t grain,
             double total_macs) {
  return pool != nullptr && total_macs >= kMinParallelTotalMacs &&
         ThreadPool::NumBlocks(rows, grain) > 1;
}

thread_local uint64_t t_mapped_blocks = 0;

/// Bytes MapBlock maps for a `bytes` payload: the payload plus a cache
/// line of headroom, rounded up to whole pages.
size_t MappedLength(size_t bytes) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + CacheLineAllocator<float>::kAlign + page - 1) / page *
         page;
}

}  // namespace

uint64_t MappedBlocksOnThisThread() { return t_mapped_blocks; }

namespace detail {

void* MapBlock(size_t bytes) {
  const size_t len = MappedLength(bytes);
  // Populated up front: a Matrix writes every element of its block at
  // once (zero-fill or copy), and faulting the pages in one at a time
  // took three times as long on a 4-vCPU VM (a 512 KiB map, fill and
  // unmap: 300-450 us against 100-120 us).
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ++t_mapped_blocks;
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, len - bytes);
  return p;
}

void UnmapBlock(void* p, size_t bytes) noexcept {
  const size_t len = MappedLength(bytes);
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(p) + bytes, len - bytes);
  munmap(p, len);
}

}  // namespace detail

void SetComputePool(ThreadPool* pool) {
  g_compute_pool.store(pool, std::memory_order_release);
}

ThreadPool* compute_pool() {
  if (t_pool_override_active) return t_pool_override;
  return g_compute_pool.load(std::memory_order_acquire);
}

ScopedComputePool::ScopedComputePool(ThreadPool* pool)
    : prev_(t_pool_override), prev_active_(t_pool_override_active) {
  t_pool_override = pool;
  t_pool_override_active = true;
}

ScopedComputePool::~ScopedComputePool() {
  t_pool_override = prev_;
  t_pool_override_active = prev_active_;
}

void Matrix::XavierInit(Rng& rng, size_t fan_in, size_t fan_out) {
  float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (auto& v : data_) {
    v = (rng.NextFloat() * 2.0f - 1.0f) * limit;
  }
}

void Matrix::CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row) {
  assert(src.cols() == cols_);
  std::memcpy(Row(dst_row), src.Row(src_row), cols_ * sizeof(float));
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  c->EnsureShape(m, n);
  // One register-blocked GEMV per output row (kernels.h gemv_f32): each
  // c[i][j] accumulates its k products in ascending-p, mul-then-add
  // order with zero a[i][p] skipped, and the accumulators stay in
  // registers across the whole k-loop. The SIMD tiers find the nonzero
  // inputs through a compare mask instead of a branch per input, which
  // matters here: encoder inputs are featurized bit patterns (every
  // element 0.0 or 1.0) and ReLU leaves hidden rows sparse, so such a
  // branch is near-random. Rows are independent, so any row split and
  // any pool size reproduce the serial result bit for bit — this is what
  // lets a batched encode (Vae::EncodeMuInto, MultiPut's placement, a
  // DAP fill) match one-row encodes and sequential Puts.
  const KernelOps& kern = Ops();
  auto rows = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      kern.gemv_f32(a.Row(i), b.Row(0), k, n, c->Row(i));
    }
  };
  ThreadPool* pool = compute_pool();
  const double macs_per_row = static_cast<double>(k) * n;
  const size_t grain = WorkGrain(m, macs_per_row);
  if (UsePool(pool, m, grain, macs_per_row * m)) {
    pool->ParallelForBlocks(0, m, grain,
                            [&](size_t lo, size_t hi, size_t) {
                              rows(lo, hi);
                            });
  } else {
    rows(0, m);
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

void TransposeInto(const Matrix& a, Matrix* at) {
  const size_t m = a.rows(), n = a.cols();
  at->EnsureShape(n, m);
  // Panels of eight source rows: every output row receives eight
  // contiguous floats per step, gathered from eight read streams that
  // stay in L1 (about twice as fast as square tiles on a 64 x 2048
  // training batch).
  size_t i0 = 0;
  for (; i0 + 8 <= m; i0 += 8) {
    const float* src = a.Row(i0);
    for (size_t j = 0; j < n; ++j) {
      float* dst = at->Row(j) + i0;
      for (size_t q = 0; q < 8; ++q) dst[q] = src[q * n + j];
    }
  }
  for (; i0 < m; ++i0) {
    const float* src = a.Row(i0);
    for (size_t j = 0; j < n; ++j) at->Row(j)[i0] = src[j];
  }
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix bt, c;
  TransposeInto(b, &bt);
  MatMulInto(a, bt, &c);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix at, c;
  TransposeInto(a, &at);
  MatMulInto(at, b, &c);
  return c;
}

void AddInPlace(Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Ops().add_f32(a.data().data(), b.data().data(), a.size());
}

void AddRowVector(Matrix& a, std::span<const float> bias) {
  assert(bias.size() == a.cols());
  const KernelOps& kern = Ops();
  for (size_t i = 0; i < a.rows(); ++i) {
    kern.add_f32(a.Row(i), bias.data(), a.cols());
  }
}

void ReluInPlace(Matrix& a) {
  for (auto& v : a.data()) v = v > 0.0f ? v : 0.0f;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    c.data()[i] = a.data()[i] * b.data()[i];
  }
  return c;
}

std::vector<float> ColSums(const Matrix& a) {
  std::vector<float> s(a.cols(), 0.0f);
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.Row(i);
    for (size_t j = 0; j < a.cols(); ++j) s[j] += row[j];
  }
  return s;
}

double FrobeniusSq(const Matrix& a) {
  double s = 0.0;
  for (float v : a.data()) s += static_cast<double>(v) * v;
  return s;
}

}  // namespace e2nvm::ml
