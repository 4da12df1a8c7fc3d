/**
 * @file
 * Symbolic tracer — the engine behind the `.trace(leaves, flatten)`
 * primitive (§3.3).
 *
 * Unlike a whole-model tracer (torch.fx invoked at the top), tracing is
 * invoked *module by module* so the hierarchy is preserved (§4): direct
 * children become CallModule nodes by default; with flatten=true they are
 * inlined recursively down to framework leaves / primitive ops, honoring
 * `leaves` exclusions. A module flagged untraceable (coding-style
 * limitation) raises SlapoError only when the trace actually needs to
 * capture *its* forward, so "trace by need" sidesteps it.
 */
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/context.h"
#include "nn/module.h"

namespace slapo {
namespace nn {

/**
 * Symbolically execute `module.forward` on placeholder inputs of the
 * given shapes and return the captured graph. The caller typically
 * installs the result into module.meta().traced_graph (the `.trace()`
 * primitive does exactly that). The module's own `.sync()` points are
 * not in the graph: Module::call applies them around it.
 *
 * @throws SlapoError if `module` (or any module the options require
 *         inlining) is flagged untraceable.
 */
std::shared_ptr<graph::Graph> traceModule(Module& module,
                                          const std::vector<Shape>& input_shapes,
                                          TraceOptions options = {});

} // namespace nn
} // namespace slapo
