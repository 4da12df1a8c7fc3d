#include "nn/context.h"

#include <numeric>

namespace slapo {
namespace nn {

namespace {
thread_local TracingState* g_tracing = nullptr;
thread_local CostRecorder* g_recorder = nullptr;
thread_local DistContext* g_dist = nullptr;
} // namespace

std::string
TracingState::currentPath() const
{
    std::string path;
    for (const auto& part : stack_) {
        if (!path.empty()) path += ".";
        path += part;
    }
    return path;
}

TracingState*
TracingState::current()
{
    return g_tracing;
}

TracingGuard::TracingGuard(TracingState* state) : previous_(g_tracing)
{
    g_tracing = state;
}

TracingGuard::~TracingGuard()
{
    g_tracing = previous_;
}

double
Profile::totalFlops() const
{
    double acc = 0;
    for (const auto& k : kernels) acc += k.flops;
    return acc;
}

double
Profile::totalActivationBytes() const
{
    double acc = 0;
    for (const auto& k : kernels) acc += k.activation_bytes;
    return acc;
}

double
Profile::commBytes(bool backward) const
{
    double acc = 0;
    for (const auto& c : comms) {
        if (c.backward == backward) acc += c.bytes;
    }
    return acc;
}

void
CostRecorder::beginModule(const std::string& name, bool checkpointed)
{
    module_stack_.push_back(name);
    if (checkpointed) ++checkpoint_depth_;
    // Remember whether this frame raised the checkpoint depth so endModule
    // can undo it; encode by appending a marker character to the stack
    // entry would be fragile — track with a parallel stack instead.
    ckpt_frames_.push_back(checkpointed);
}

void
CostRecorder::endModule()
{
    SLAPO_ASSERT(!module_stack_.empty(), "endModule without beginModule");
    if (ckpt_frames_.back()) --checkpoint_depth_;
    ckpt_frames_.pop_back();
    module_stack_.pop_back();
}

void
CostRecorder::beginKernelScope(const std::string& name,
                               bool recompute_free)
{
    if (kernel_scope_depth_++ == 0) {
        pending_ = KernelRecord{};
        pending_.name = name;
        pending_.module_path = path();
        pending_.checkpointed = checkpoint_depth_ > 0;
        pending_.recompute_free = recompute_free;
    }
}

void
CostRecorder::endKernelScope()
{
    SLAPO_ASSERT(kernel_scope_depth_ > 0, "endKernelScope without begin");
    if (--kernel_scope_depth_ == 0) {
        profile_.kernels.push_back(pending_);
    }
}

void
CostRecorder::recordOp(const std::string& name, double flops,
                       double elems_in, double elems_out)
{
    const double bytes_in = elems_in * bytes_per_element_;
    const double bytes_out = elems_out * bytes_per_element_;
    if (kernel_scope_depth_ > 0) {
        // Inside a fused/efficient kernel: accumulate FLOPs; only the
        // scope's first reads and last write count as traffic, which we
        // approximate as max-in and last-out.
        pending_.flops += flops;
        pending_.bytes_in = std::max(pending_.bytes_in, bytes_in);
        pending_.bytes_out = bytes_out;
        pending_.activation_bytes = bytes_out;
        return;
    }
    KernelRecord rec;
    rec.name = name;
    rec.module_path = path();
    rec.flops = flops;
    rec.bytes_in = bytes_in;
    rec.bytes_out = bytes_out;
    rec.activation_bytes = bytes_out;
    rec.checkpointed = checkpoint_depth_ > 0;
    profile_.kernels.push_back(rec);
}

void
CostRecorder::recordComm(const std::string& kind, double elems, bool backward)
{
    CommRecord rec;
    rec.kind = kind;
    rec.bytes = elems * bytes_per_element_;
    rec.backward = backward;
    rec.module_path = path();
    profile_.comms.push_back(rec);
}

void
CostRecorder::recordCheckpointBoundary(double elems)
{
    profile_.checkpoint_boundary_bytes += elems * bytes_per_element_;
}

std::string
CostRecorder::path() const
{
    std::string p;
    for (const auto& part : module_stack_) {
        if (!p.empty()) p += ".";
        p += part;
    }
    return p;
}

CostRecorder*
CostRecorder::current()
{
    return g_recorder;
}

CostRecorderGuard::CostRecorderGuard(CostRecorder* recorder)
    : previous_(g_recorder)
{
    g_recorder = recorder;
}

CostRecorderGuard::~CostRecorderGuard()
{
    g_recorder = previous_;
}

DistContext*
DistContext::current()
{
    return g_dist;
}

DistGuard::DistGuard(DistContext* context) : previous_(g_dist)
{
    g_dist = context;
}

DistGuard::~DistGuard()
{
    g_dist = previous_;
}

} // namespace nn
} // namespace slapo
