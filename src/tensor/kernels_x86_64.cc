// The dispatched kernels compiled for baseline x86-64 (SSE2); the -march
// flag is set in CMakeLists.txt.
#include "tensor/kernels_body.h"

namespace slapo {
namespace kernels {
namespace detail {

extern const KernelTable kX86_64Table = {
    Isa::X86_64, kVecFloats, kTileRows, kPanelCols, packPanel, gemmPanel,
    adamwUpdate, geluRange, geluBackwardRange, tanhRange,
    softmaxRows, crossEntropyRows, crossEntropyBackwardRows, layerNormRows,
    layerNormBackwardRows};

} // namespace detail
} // namespace kernels
} // namespace slapo
