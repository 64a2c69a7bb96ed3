// The expf/logf port (exp_log_port.h) compiled with -mfma: the scalar
// and AVX2 tiers' sigmoid_f32 and log_f32 on a CPU that reports FMA.
// Without -mfma the port's std::fma steps would be libm calls, about
// three times slower than libm's own expf on such a CPU; here they are
// FMA instructions. Like every kernel TU this one is built with
// -ffp-contract=off, so nothing fuses that the port does not fuse
// itself.
#include "common/exp_log_port.h"
#include "common/kernels.h"

namespace e2nvm::internal {

void FmaSigmoid(const float* x, float* y, size_t n) { SigmoidLoop(x, y, n); }

void FmaLog(const float* x, float* y, size_t n) { LogLoop(x, y, n); }

}  // namespace e2nvm::internal
