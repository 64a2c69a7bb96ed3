#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace e2nvm::ml {
namespace {

Matrix M(std::initializer_list<std::initializer_list<float>> rows) {
  size_t r = rows.size();
  size_t c = rows.begin()->size();
  Matrix m(r, c);
  size_t i = 0;
  for (const auto& row : rows) {
    size_t j = 0;
    for (float v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, float tol = 1e-5f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << i << "," << j;
    }
  }
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (float v : m.data()) EXPECT_EQ(v, 0.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b = M({{5, 6}, {7, 8}});
  ExpectMatrixNear(MatMul(a, b), M({{19, 22}, {43, 50}}));
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a = M({{1, 2, 3}});           // 1x3
  Matrix b = M({{1}, {2}, {3}});       // 3x1
  ExpectMatrixNear(MatMul(a, b), M({{14}}));
  ExpectMatrixNear(MatMul(b, a),
                   M({{1, 2, 3}, {2, 4, 6}, {3, 6, 9}}));
}

TEST(MatrixTest, TransposedVariantsAgree) {
  Rng rng(3);
  Matrix a(4, 6), b(6, 5);
  for (auto& v : a.data()) v = rng.NextFloat() - 0.5f;
  for (auto& v : b.data()) v = rng.NextFloat() - 0.5f;
  Matrix ab = MatMul(a, b);
  // a * b == a * (b^T)^T via MatMulTransB with bt = b^T.
  Matrix bt(5, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  }
  ExpectMatrixNear(MatMulTransB(a, bt), ab);
  // a * b == (a^T)^T * b via MatMulTransA with at = a^T.
  Matrix at(6, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 6; ++j) at(j, i) = a(i, j);
  }
  ExpectMatrixNear(MatMulTransA(at, b), ab);
}

TEST(MatrixTest, AddInPlace) {
  Matrix a = M({{1, 2}});
  Matrix b = M({{10, 20}});
  AddInPlace(a, b);
  ExpectMatrixNear(a, M({{11, 22}}));
}

TEST(MatrixTest, AddRowVector) {
  Matrix a = M({{1, 2}, {3, 4}});
  const std::vector<float> bias = {10, 20};
  AddRowVector(a, bias);
  ExpectMatrixNear(a, M({{11, 22}, {13, 24}}));
}

TEST(MatrixTest, HadamardAndColSums) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b = M({{2, 2}, {2, 2}});
  ExpectMatrixNear(Hadamard(a, b), M({{2, 4}, {6, 8}}));
  auto cs = ColSums(a);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_FLOAT_EQ(cs[0], 4.0f);
  EXPECT_FLOAT_EQ(cs[1], 6.0f);
}

TEST(MatrixTest, FrobeniusSq) {
  Matrix a = M({{3, 4}});
  EXPECT_DOUBLE_EQ(FrobeniusSq(a), 25.0);
}

TEST(MatrixTest, XavierInitBounded) {
  Rng rng(5);
  Matrix w(64, 32);
  w.XavierInit(rng, 64, 32);
  float limit = std::sqrt(6.0f / (64 + 32));
  bool nonzero = false;
  for (float v : w.data()) {
    EXPECT_LE(std::abs(v), limit);
    if (v != 0) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

bool CacheLineAligned(const Matrix& m) {
  return reinterpret_cast<uintptr_t>(m.Row(0)) % 64 == 0;
}

TEST(MatrixTest, StorageIsCacheLineAligned) {
  // Payloads from 4 bytes to 8 KiB, several of them not a multiple of
  // malloc's 16-byte alignment.
  for (size_t cols : {1u, 3u, 4u, 10u, 17u, 64u, 2048u}) {
    Matrix zeros(3, cols);
    EXPECT_TRUE(CacheLineAligned(zeros)) << "(rows, cols) cols=" << cols;
    Matrix from_data(1, cols, std::vector<float>(cols, 2.0f));
    EXPECT_TRUE(CacheLineAligned(from_data)) << "(data) cols=" << cols;

    Matrix grown(1, 1);
    for (size_t rows = 2; rows <= 9; ++rows) {
      grown.EnsureShape(rows, cols);
      EXPECT_TRUE(CacheLineAligned(grown))
          << "EnsureShape " << rows << "x" << cols;
    }
    Matrix copy = zeros;
    EXPECT_TRUE(CacheLineAligned(copy)) << "copy cols=" << cols;
    Matrix assigned(1, 1);
    assigned = from_data;
    EXPECT_TRUE(CacheLineAligned(assigned)) << "copy-assign cols=" << cols;
    Matrix moved = std::move(copy);
    EXPECT_TRUE(CacheLineAligned(moved)) << "move cols=" << cols;
    assigned = std::move(moved);
    EXPECT_TRUE(CacheLineAligned(assigned)) << "move-assign cols=" << cols;
    EXPECT_EQ(assigned.size(), 3 * cols);
  }
}

TEST(MatrixTest, CopyRowFrom) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b(2, 2);
  b.CopyRowFrom(a, 1, 0);
  EXPECT_FLOAT_EQ(b(0, 0), 3);
  EXPECT_FLOAT_EQ(b(0, 1), 4);
}

}  // namespace
}  // namespace e2nvm::ml
