#include "nn/tracer.h"

namespace slapo {
namespace nn {

std::shared_ptr<graph::Graph>
traceModule(Module& module, const std::vector<Shape>& input_shapes,
            TraceOptions options)
{
    SLAPO_CHECK(module.traceable(),
                "module of type '" << module.typeName()
                                   << "' cannot be traced: its coding style "
                                      "defeats the symbolic tracer (trace a "
                                      "submodule instead)");
    auto g = std::make_shared<graph::Graph>();

    std::vector<Value> inputs;
    inputs.reserve(input_shapes.size());
    for (size_t i = 0; i < input_shapes.size(); ++i) {
        graph::Node* ph = g->createNode(graph::NodeKind::Placeholder,
                                        "input" + std::to_string(i));
        ph->setShapes({input_shapes[i]});
        inputs.emplace_back(Tensor::meta(input_shapes[i]), ph);
    }

    // Capture forward() itself: the module's own `.sync()` points stay
    // out of its graph, since Module::call applies them at the call
    // boundary whichever executor runs the graph. Inlined children go
    // through Module::call, so their syncs do become graph nodes.
    TracingState state(g.get(), std::move(options));
    std::vector<Value> outputs;
    {
        TracingGuard guard(&state);
        outputs = module.forward(inputs);
    }

    graph::Node* out = g->createNode(graph::NodeKind::Output, "output");
    std::vector<Shape> out_shapes;
    for (const Value& v : outputs) {
        SLAPO_CHECK(v.symbolic(),
                    "trace: module returned a value not derived from its "
                    "inputs/parameters");
        out->addInput(v.node());
        out_shapes.push_back(v.shape());
    }
    out->setShapes(out_shapes);
    g->setOutputNode(out);
    return g;
}

} // namespace nn
} // namespace slapo
