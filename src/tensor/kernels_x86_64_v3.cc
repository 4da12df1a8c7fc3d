// The dispatched kernels compiled for x86-64-v3 (AVX2); the -march flag
// is set in CMakeLists.txt.
#include "tensor/kernels_body.h"

namespace slapo {
namespace kernels {
namespace detail {

extern const KernelTable kX86_64V3Table = {
    Isa::X86_64_V3, kVecFloats, kTileRows, kPanelCols, packPanel, gemmPanel,
    adamwUpdate, geluRange, geluBackwardRange, tanhRange,
    softmaxRows, crossEntropyRows, crossEntropyBackwardRows, layerNormRows,
    layerNormBackwardRows};

} // namespace detail
} // namespace kernels
} // namespace slapo
