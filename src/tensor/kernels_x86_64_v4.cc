// The dispatched kernels compiled for x86-64-v4 (AVX-512); the -march flag
// is set in CMakeLists.txt.
#include "tensor/kernels_body.h"

namespace slapo {
namespace kernels {
namespace detail {

extern const KernelTable kX86_64V4Table = {
    Isa::X86_64_V4, kVecFloats, kTileRows, kPanelCols, packPanel, gemmPanel,
    adamwUpdate, geluRange, geluBackwardRange, tanhRange,
    softmaxRows, crossEntropyRows, crossEntropyBackwardRows, layerNormRows,
    layerNormBackwardRows};

} // namespace detail
} // namespace kernels
} // namespace slapo
