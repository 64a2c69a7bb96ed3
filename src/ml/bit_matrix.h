#ifndef E2NVM_ML_BIT_MATRIX_H_
#define E2NVM_ML_BIT_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/kernels.h"
#include "ml/matrix.h"

namespace e2nvm::ml {

/// Rows of 0/1 features packed 64 to a word, LSB first (BitVector's
/// layout), each row starting on a 64-byte cache line: segment contents
/// as a training snapshot and the replay ring hold them, a 32nd of the
/// bytes a float Matrix takes (a 1024 x 2048 snapshot is one 256 KiB
/// block, not 8 MiB). Bits past cols() in a row's words are 0.
class BitMatrix {
 public:
  using Storage = std::vector<uint64_t, CacheLineAllocator<uint64_t>>;

  BitMatrix() = default;

  /// rows x bits, all 0.
  BitMatrix(size_t rows, size_t bits)
      : rows_(rows),
        cols_(bits),
        stride_((bits + 511) / 512 * 8),
        words_(rows * stride_, 0) {}

  size_t rows() const { return rows_; }
  /// Bits per row.
  size_t cols() const { return cols_; }
  /// Words holding a row's bits, (cols() + 63) / 64.
  size_t row_words() const { return (cols_ + 63) / 64; }

  uint64_t* Row(size_t r) {
    assert(r < rows_);
    return words_.data() + r * stride_;
  }
  const uint64_t* Row(size_t r) const {
    assert(r < rows_);
    return words_.data() + r * stride_;
  }

  /// Copies row_words() words into row r; their bits past cols() must
  /// be 0, as a BitVector's are.
  void SetRow(size_t r, const uint64_t* words) {
    std::memcpy(Row(r), words, row_words() * sizeof(uint64_t));
  }

  /// Row r as cols() 0.0f/1.0f floats (KernelOps::bits_to_floats, the
  /// expansion BitVector::AppendFloatsTo runs).
  void RowToFloats(size_t r, float* out) const {
    Ops().bits_to_floats(Row(r), cols_, out);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;  // Words per row, rounded up to a cache line.
  Storage words_;
};

/// Read-only training rows of 0/1 features, held as a float Matrix or
/// as a BitMatrix: what every training loop reads (ContentClusterer,
/// E2Model and Vae Train). A row turns into floats only when it is
/// copied out, into a batch or an encode chunk, and packed rows expand
/// to the same 0.0f/1.0f a Matrix of them holds, so a training reads
/// the same floats from either. Implicit from both, so a caller with a
/// float Matrix passes it as before. Holds a pointer: the rows must
/// outlive the view.
class RowsView {
 public:
  RowsView(const Matrix& floats) : floats_(&floats) {}
  RowsView(const BitMatrix& bits) : bits_(&bits) {}

  size_t rows() const {
    return floats_ != nullptr ? floats_->rows() : bits_->rows();
  }
  size_t cols() const {
    return floats_ != nullptr ? floats_->cols() : bits_->cols();
  }

  /// Row r as cols() floats into `out`.
  void CopyRow(size_t r, float* out) const {
    if (floats_ != nullptr) {
      std::memcpy(out, floats_->Row(r), floats_->cols() * sizeof(float));
    } else {
      bits_->RowToFloats(r, out);
    }
  }

  /// The viewed Matrix, or null for packed rows.
  const Matrix* floats() const { return floats_; }

  /// The rows as one float Matrix: the viewed one, or packed rows
  /// expanded into `*storage`. For the models that fit on all the floats
  /// at once (the PNW baselines).
  const Matrix& AsFloats(Matrix* storage) const {
    if (floats_ != nullptr) return *floats_;
    storage->EnsureShape(bits_->rows(), bits_->cols());
    for (size_t r = 0; r < bits_->rows(); ++r) {
      bits_->RowToFloats(r, storage->Row(r));
    }
    return *storage;
  }

 private:
  const Matrix* floats_ = nullptr;
  const BitMatrix* bits_ = nullptr;
};

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_BIT_MATRIX_H_
