#include "tensor/kernels.h"

#include <atomic>

#include "support/error.h"

namespace slapo {
namespace kernels {
namespace {

const KernelTable&
tableFor(Isa isa)
{
    switch (isa) {
      case Isa::X86_64_V4: return detail::kX86_64V4Table;
      case Isa::X86_64_V3: return detail::kX86_64V3Table;
      case Isa::X86_64: break;
    }
    return detail::kX86_64Table;
}

const KernelTable&
widestSupported()
{
    for (Isa isa : {Isa::X86_64_V4, Isa::X86_64_V3}) {
        if (cpuSupports(isa)) return tableFor(isa);
    }
    return tableFor(Isa::X86_64);
}

std::atomic<const KernelTable*>&
activeTable()
{
    static std::atomic<const KernelTable*> active{&widestSupported()};
    return active;
}

} // namespace

const KernelTable&
kernels()
{
    return *activeTable().load(std::memory_order_relaxed);
}

const char*
isaName(Isa isa)
{
    switch (isa) {
      case Isa::X86_64_V4: return "x86-64-v4";
      case Isa::X86_64_V3: return "x86-64-v3";
      case Isa::X86_64: break;
    }
    return "x86-64";
}

bool
cpuSupports(Isa isa)
{
    // The level checks include the OS saving the wider register state
    // (XGETBV), not just the cpuid feature bits.
    __builtin_cpu_init();
    switch (isa) {
      case Isa::X86_64_V4: return __builtin_cpu_supports("x86-64-v4");
      case Isa::X86_64_V3: return __builtin_cpu_supports("x86-64-v3");
      case Isa::X86_64: break;
    }
    return true;
}

void
setIsaForTesting(Isa isa)
{
    SLAPO_CHECK(cpuSupports(isa),
                "setIsaForTesting: this CPU cannot run " << isaName(isa));
    activeTable().store(&tableFor(isa), std::memory_order_relaxed);
}

} // namespace kernels
} // namespace slapo
