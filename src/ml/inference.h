#ifndef E2NVM_ML_INFERENCE_H_
#define E2NVM_ML_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace e2nvm::ml {

/// Preallocated, reusable buffers for the inference kernels behind
/// ContentClusterer::AssignScratch — the lean serving counterpart to the
/// (allocating) training code. One scratch belongs to one caller:
/// buffers are EnsureShape'd per call, grow monotonically during
/// warm-up, and after that every featurize -> encode -> assign pass is
/// allocation-free. For batched placement the same buffers hold B
/// feature rows: the encoder runs each row through the register-blocked
/// GEMV kernel (whose zero skip needs no branch per input), then one
/// fused assignment pass covers the whole batch.
///
/// The results written here are bit-identical, row for row, to the
/// allocating training-side path (Vae::EncodeMu + KMeans::Predict): the
/// scratch kernels share its accumulation order, and the fused
/// assignment re-checks near-minimal candidates with the exact distance
/// (see KMeans::AssignFusedInto).
struct InferenceScratch {
  /// Featurized values, one row per staged value (B x input_dim).
  Matrix in;
  /// Encoder hidden activations (B x hidden_dim).
  Matrix hidden;
  /// Latent codes mu (B x latent_dim).
  Matrix latent;
  /// Fused assignment scores x.c^T (B x k).
  Matrix scores;
  /// Cluster id per row, filled by ContentClusterer::AssignScratch.
  std::vector<size_t> clusters;
  /// Per-row featurize-success flags for batched placement (1 = the row
  /// holds valid features; 0 = featurization failed, the value takes the
  /// model-fallback path).
  std::vector<uint8_t> row_ok;
};

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_INFERENCE_H_
