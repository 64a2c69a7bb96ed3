#ifndef E2NVM_ML_MATRIX_H_
#define E2NVM_ML_MATRIX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

// The sanitizer header decides whether the poisoning macros do anything;
// a toolchain without it gets the same no-op macros it would define.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/rng.h"

namespace e2nvm::ml {

/// Blocks of this many bytes or more get a mapping of their own (see
/// CacheLineAllocator).
inline constexpr size_t kMappedBlockBytes = size_t{256} << 10;

/// Blocks the calling thread has mapped through CacheLineAllocator since
/// it started. The zero-allocation checks count `operator new` calls,
/// which a mapped block bypasses, so they add this count to theirs.
uint64_t MappedBlocksOnThisThread();

namespace detail {
/// A fresh anonymous mapping holding `bytes` (page-aligned, zero-filled),
/// with at least kAlign bytes of headroom past them that ASan poisons;
/// throws std::bad_alloc when the kernel refuses it.
void* MapBlock(size_t bytes);
/// Unmaps a MapBlock(bytes) block.
void UnmapBlock(void* p, size_t bytes) noexcept;
}  // namespace detail

/// Standard allocator whose every block starts on a 64-byte cache line.
///
/// A block under kMappedBlockBytes is one plain `::operator new` of the
/// payload plus a line of headroom: the data sits at the first 64-byte
/// boundary past the block's first word, and that block pointer is
/// stored in the word just before the data for deallocate. The heap
/// returns at least 8-aligned blocks, so the offset is 8..64 bytes and
/// never runs past the headroom. Going through `operator new` keeps the
/// blocks visible to the allocation counters that replace it.
///
/// A larger block (a training workspace's activations, a layer's
/// weights, a 1024-row training snapshot) is an anonymous mapping of its
/// own, populated when mapped, page-aligned and so cache-line aligned,
/// and unmapped when freed. On the heap, glibc keeps freed large blocks
/// in its brk heap once an earlier free has raised its mmap threshold,
/// and they stay resident under whatever the program allocates next:
/// bootstrap's training buffers sat beneath the journal pages
/// perfbench's kv_ycsb_a touches after it.
///
/// Under ASan the headroom left past the payload is poisoned on both
/// paths, so a read past the last element trips it as it would on a
/// plain vector (the macros are no-ops otherwise). Not
/// `operator new(std::align_val_t)`: glibc serves that through memalign,
/// which raised perfbench kv_ycsb_a's peak RSS from 91 to 128 MiB when
/// matrix storage first became aligned.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr size_t kAlign = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > (SIZE_MAX - kAlign) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = n * sizeof(T);
    if (bytes >= kMappedBlockBytes) {
      return static_cast<T*>(detail::MapBlock(bytes));
    }
    void* block = ::operator new(bytes + kAlign);
    const uintptr_t data =
        (reinterpret_cast<uintptr_t>(block) + sizeof(void*) + kAlign - 1) &
        ~uintptr_t{kAlign - 1};
    reinterpret_cast<void**>(data)[-1] = block;
    T* p = reinterpret_cast<T*>(data);
    ASAN_POISON_MEMORY_REGION(p + n, Slack(block, p));
    return p;
  }

  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) >= kMappedBlockBytes) {
      detail::UnmapBlock(p, n * sizeof(T));
      return;
    }
    void* block = reinterpret_cast<void**>(p)[-1];
    ASAN_UNPOISON_MEMORY_REGION(p + n, Slack(block, p));
    ::operator delete(block);
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }

 private:
  /// Headroom bytes between the end of the payload and the end of a heap
  /// block.
  static size_t Slack(const void* block, const T* p) {
    return kAlign - static_cast<size_t>(reinterpret_cast<const char*>(p) -
                                        static_cast<const char*>(block));
  }
};

// Every kernel below, and every ML kernel built on them (the VAE's
// layers and loss, the K-means loops), runs once over its whole range on
// the thread that calls it. A training's bits are then a function of its
// inputs alone, whichever thread runs it (DESIGN.md §8).

/// Dense row-major float matrix — the tensor type of the ML substrate.
/// Sized for this library's models (inputs up to a few thousand features,
/// batches of a few hundred), so a straightforward cache-friendly
/// implementation is sufficient; no BLAS dependency.
///
/// Storage is cache-line aligned: Row(0) of every non-empty matrix sits
/// on a 64-byte boundary, whichever constructor built it and after
/// EnsureShape growth, copy and move (CacheLineAllocator above). The
/// encoder GEMV streams one weight row per nonzero input, so a 2048 x 64
/// weight's 256-byte rows must span four cache lines, not five: one
/// 2048-bit GEMV hot in L2 takes 3.3 us aligned and 5.9 us at 16 bytes
/// past a line (AVX-512 Xeon VM).
class Matrix {
 public:
  using Storage = std::vector<float, CacheLineAllocator<float>>;

  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Builds from explicit data (size must be rows*cols), copied into
  /// aligned storage.
  Matrix(size_t rows, size_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    assert(data_.size() == rows_ * cols_);
  }

  /// Re-shapes to rows x cols, reusing the existing buffer whenever the
  /// element count matches (and vector capacity otherwise). Contents are
  /// unspecified after a call — the scratch-buffer idiom of the write-path
  /// inference kernels: buffers grow during warm-up, then every further
  /// call is allocation-free.
  void EnsureShape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (data_.size() != rows * cols) data_.resize(rows * cols);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  Storage& data() { return data_; }
  const Storage& data() const { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Xavier/Glorot uniform initialization for a (out x in)-shaped weight.
  void XavierInit(Rng& rng, size_t fan_in, size_t fan_out);

  /// Copies row `src_row` of `src` into row `dst_row` of *this
  /// (cols must match).
  void CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Storage data_;
};

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-owned scratch matrix (EnsureShape'd to m x n).
/// One gemm_f32 call over every row, each of which keeps its own
/// arithmetic, so MatMul (which wraps it) and any batch of rows give
/// results bit-identical to row-at-a-time products. This is the
/// allocation-free variant the write-path inference scratch uses.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);

/// A^T into a caller-owned scratch matrix (EnsureShape'd to cols x
/// rows). Copies only, so exact. The transposed products below, and the
/// training layers that keep a transposed operand in scratch, run on it.
void TransposeInto(const Matrix& a, Matrix* at);

/// C = A * B^T. Shapes: (m x k) * (n x k) -> (m x n). MatMulInto(A, B^T):
/// bit-identical to the plain ascending-p dot products whenever B is
/// finite (kernels.h gemm_f32 says why skipping A's zeros is exact).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m) * (k x n) -> (m x n). MatMulInto(A^T, B):
/// the same terms, order and zero skip as accumulating B's row p into
/// C's row i for every nonzero a[p][i].
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// Elementwise a += b (same shape).
void AddInPlace(Matrix& a, const Matrix& b);

/// Adds a row vector `bias` (1 x n) to every row of `a` (m x n).
void AddRowVector(Matrix& a, std::span<const float> bias);

/// Elementwise in-place ReLU: a[i] = max(a[i], 0), the forward pass of
/// both the VAE's training step and the write-path encode (layers.h's
/// ReluBackwardInPlace is its backward pass).
void ReluInPlace(Matrix& a);

/// Elementwise Hadamard product c = a .* b.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Column sums of `a` -> vector of length cols (bias gradients).
std::vector<float> ColSums(const Matrix& a);

/// Squared Frobenius norm.
double FrobeniusSq(const Matrix& a);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_MATRIX_H_
