#include "nn/module.h"

#include <algorithm>
#include <functional>

#include "nn/functional.h"
#include "nn/interpreter.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"

namespace slapo {
namespace nn {

namespace {

/** The primitive of the `.sync()` boundary rows. */
const std::string kSyncPrimitive = "sync";

/** Module types the tracer keeps as CallModule nodes even when
 * flattening (framework-predefined leaves, §3.3). */
bool
isDefaultLeafType(const std::string& type_name)
{
    static const char* kLeaves[] = {"Linear", "LayerNorm", "Embedding",
                                    "Conv2d", "BatchNorm2d"};
    for (const char* leaf : kLeaves) {
        if (type_name == leaf) return true;
    }
    return false;
}

/** Recursively map original-subtree module pointers to clone pointers. */
void
buildPtrMap(const Module* src, Module* dst,
            std::map<const Module*, Module*>& map)
{
    map[src] = dst;
    const auto& src_children = src->children();
    const auto& dst_children = dst->children();
    SLAPO_ASSERT(src_children.size() == dst_children.size(),
                 "clone: child count mismatch");
    for (size_t i = 0; i < src_children.size(); ++i) {
        buildPtrMap(src_children[i].second.get(), dst_children[i].second.get(),
                    map);
    }
}

/** Rebind module pointers in a cloned graph (recursing into subgraphs). */
void
remapGraphModules(graph::Graph* g, const std::map<const Module*, Module*>& map)
{
    for (graph::Node* node : g->nodes()) {
        if (node->module()) {
            auto it = map.find(node->module());
            if (it != map.end()) {
                node->setModule(it->second);
            }
        }
        if (node->subgraph()) {
            remapGraphModules(node->subgraph(), map);
        }
    }
}

} // namespace

std::vector<Value>
Module::call(const std::vector<Value>& inputs, Frame* frame)
{
    CostRecorder* prof = CostRecorder::current();
    const bool profiling = prof != nullptr && TracingState::current() == nullptr;
    if (profiling) {
        if (meta_.checkpointed) {
            double boundary_elems = 0;
            for (const Value& v : inputs) {
                boundary_elems += static_cast<double>(v.tensor().numel());
            }
            prof->recordCheckpointBoundary(boundary_elems);
        }
        prof->beginModule(type_name_, meta_.checkpointed);
    }
    const bool kernel_scope = profiling && profileAsKernel();
    if (kernel_scope) {
        prof->beginKernelScope(type_name_, recomputeFree());
    }
    std::vector<Value> outputs = runForward(inputs, frame);
    if (kernel_scope) {
        prof->endKernelScope();
    }
    outputs = applyForwardSyncs(std::move(outputs));
    if (profiling) {
        prof->endModule();
    }
    return outputs;
}

Value
Module::callOne(const std::vector<Value>& inputs)
{
    std::vector<Value> outputs = call(inputs);
    SLAPO_CHECK(outputs.size() == 1, typeName()
                                         << ": expected a single output, got "
                                         << outputs.size());
    return outputs[0];
}

std::vector<Value>
Module::runForward(const std::vector<Value>& inputs, Frame* frame)
{
    if (frame != nullptr) {
        return interpretGraph(*frame->graph, inputs, frame);
    }
    // A traced-and-scheduled graph *is* this module's execution strategy;
    // replay it. While tracing (symbolically re-capturing), always run the
    // original forward so the parent graph sees fresh nodes.
    if (meta_.traced_graph && TracingState::current() == nullptr) {
        return interpretGraph(*meta_.traced_graph, inputs);
    }
    return forward(inputs);
}

std::vector<Value>
Module::applyForwardSyncs(std::vector<Value> outputs)
{
    if (meta_.syncs.empty()) {
        return outputs;
    }
    SLAPO_CHECK(outputs.size() == 1,
                typeName() << ": .sync() requires a single-output module");
    CostRecorder* prof = CostRecorder::current();
    const bool tracing = TracingState::current() != nullptr;
    // Time the boundary's collectives as their own row, so the step
    // report can separate the cost of aggregation from the sharded
    // compute it follows. While tracing they become graph nodes instead.
    obs::OpScope scope("sync", kSyncPrimitive, {},
                       tracing ? 0 : obs::observing());
    for (const SyncSpec& sync : meta_.syncs) {
        if (sync.direction == SyncDirection::Forward ||
            sync.direction == SyncDirection::Both) {
            switch (sync.kind) {
              case SyncKind::AllReduce:
                outputs[0] = F::allReduce(outputs[0]);
                break;
              case SyncKind::AllGather:
                outputs[0] = F::allGather(outputs[0], sync.axis);
                break;
              case SyncKind::ReduceScatter:
                outputs[0] = F::reduceScatter(outputs[0], sync.axis);
                break;
            }
        }
        if (prof && !tracing &&
            (sync.direction == SyncDirection::Backward ||
             sync.direction == SyncDirection::Both)) {
            // Account for the gradient aggregation the backward pass will
            // issue at this boundary (the "g" collective in Megatron).
            prof->recordComm("all_reduce",
                             static_cast<double>(outputs[0].tensor().numel()),
                             /*backward=*/true);
        }
    }
    return outputs;
}

void
Module::registerParam(const std::string& name, Tensor tensor)
{
    SLAPO_CHECK(!hasParam(name),
                typeName() << ": duplicate parameter '" << name << "'");
    params_.emplace_back(name, std::move(tensor));
}

bool
Module::hasParam(const std::string& name) const
{
    return std::any_of(params_.begin(), params_.end(),
                       [&](const auto& p) { return p.first == name; });
}

void
Module::removeParam(const std::string& name)
{
    auto it = std::find_if(params_.begin(), params_.end(),
                           [&](const auto& p) { return p.first == name; });
    SLAPO_CHECK(it != params_.end(),
                typeName() << ": no parameter '" << name << "' to remove");
    params_.erase(it);
    meta_.sharded_params.erase(name);
}

Tensor&
Module::paramTensor(const std::string& name)
{
    for (auto& [pname, tensor] : params_) {
        if (pname == name) return tensor;
    }
    SLAPO_THROW(typeName() << ": no parameter '" << name << "'");
}

const Tensor&
Module::paramTensor(const std::string& name) const
{
    return const_cast<Module*>(this)->paramTensor(name);
}

void
Module::setParamTensor(const std::string& name, Tensor tensor)
{
    paramTensor(name) = std::move(tensor);
}

std::vector<std::string>
Module::paramNames() const
{
    std::vector<std::string> names;
    names.reserve(params_.size());
    for (const auto& [name, tensor] : params_) {
        names.push_back(name);
    }
    return names;
}

Value
Module::param(const std::string& name)
{
    Tensor& tensor = paramTensor(name);
    if (TracingState* ts = TracingState::current()) {
        graph::Node* node =
            ts->graph()->createNode(graph::NodeKind::GetParam, name);
        node->setTarget(name);
        node->setModule(this);
        node->setShapes({tensor.shape()});
        return Value(Tensor::meta(tensor.shape()), node);
    }
    return Value(tensor);
}

void
Module::registerChild(const std::string& name, ModulePtr module)
{
    SLAPO_CHECK(!hasChild(name),
                typeName() << ": duplicate child '" << name << "'");
    SLAPO_CHECK(module != nullptr, typeName() << ": null child '" << name << "'");
    children_.emplace_back(name, std::move(module));
}

bool
Module::hasChild(const std::string& name) const
{
    return std::any_of(children_.begin(), children_.end(),
                       [&](const auto& c) { return c.first == name; });
}

ModulePtr
Module::child(const std::string& name) const
{
    for (const auto& [cname, module] : children_) {
        if (cname == name) return module;
    }
    SLAPO_THROW(typeName() << ": no child '" << name << "'");
}

void
Module::replaceChild(const std::string& name, ModulePtr module)
{
    for (auto& [cname, existing] : children_) {
        if (cname == name) {
            existing = std::move(module);
            return;
        }
    }
    SLAPO_THROW(typeName() << ": no child '" << name << "' to replace");
}

std::vector<Value>
Module::callChild(const std::string& name, const std::vector<Value>& inputs)
{
    ModulePtr target = child(name);
    TracingState* ts = TracingState::current();
    if (ts == nullptr) {
        return target->call(inputs);
    }

    const TraceOptions& options = ts->options();
    const std::string prefix = ts->currentPath();
    const std::string child_path =
        prefix.empty() ? name : prefix + "." + name;

    bool leaf = true;
    if (options.flatten) {
        const bool user_leaf = options.leaf_paths.count(child_path) > 0 ||
                               options.leaf_types.count(target->typeName()) > 0;
        const bool framework_leaf = options.default_leaf_types &&
                                    isDefaultLeafType(target->typeName()) &&
                                    !target->meta().decomposed;
        leaf = user_leaf || framework_leaf;
    }

    if (!leaf) {
        SLAPO_CHECK(target->traceable(),
                    "module '" << child_path << "' (" << target->typeName()
                               << ") cannot be traced: its coding style "
                                  "defeats the symbolic tracer; keep it as a "
                                  "leaf or trace a smaller region");
        ts->pushModule(name);
        std::vector<Value> outputs = target->call(inputs);
        ts->popModule();
        return outputs;
    }

    // Keep the child opaque: one CallModule node. Shapes come from a meta
    // execution with tracing suspended (so no nodes leak from the child).
    graph::Node* node =
        ts->graph()->createNode(graph::NodeKind::CallModule, name);
    node->setTarget(child_path);
    node->setModule(target.get());
    node->setAttr("type", target->typeName());
    for (const Value& v : inputs) {
        SLAPO_CHECK(v.symbolic(), "tracing call to '"
                                      << child_path
                                      << "': input value was created outside "
                                         "the traced region");
        node->addInput(v.node());
    }
    std::vector<Value> meta_outputs;
    {
        TracingGuard suspend(nullptr);
        std::vector<Value> meta_inputs;
        meta_inputs.reserve(inputs.size());
        for (const Value& v : inputs) {
            meta_inputs.emplace_back(Tensor::meta(v.shape()));
        }
        meta_outputs = target->call(meta_inputs);
    }
    std::vector<Shape> shapes;
    shapes.reserve(meta_outputs.size());
    for (const Value& v : meta_outputs) {
        shapes.push_back(v.shape());
    }
    node->setShapes(shapes);
    if (target->meta().checkpointed) {
        node->setCheckpointed(true);
    }

    if (meta_outputs.size() == 1) {
        return {Value(Tensor::meta(shapes[0]), node)};
    }
    std::vector<Value> outputs;
    for (size_t i = 0; i < meta_outputs.size(); ++i) {
        graph::Node* get =
            ts->graph()->createNode(graph::NodeKind::TupleGet, name + "_out");
        get->addInput(node);
        get->setAttr("index", static_cast<int64_t>(i));
        get->setShapes({shapes[i]});
        outputs.emplace_back(Tensor::meta(shapes[i]), get);
    }
    return outputs;
}

Value
Module::callChildOne(const std::string& name, const std::vector<Value>& inputs)
{
    std::vector<Value> outputs = callChild(name, inputs);
    SLAPO_CHECK(outputs.size() == 1,
                "child '" << name << "': expected a single output, got "
                          << outputs.size());
    return outputs[0];
}

ModulePtr
Module::findByPath(const std::string& path)
{
    if (path.empty()) {
        return shared_from_this();
    }
    const size_t dot = path.find('.');
    const std::string head = path.substr(0, dot);
    ModulePtr next = child(head);
    if (dot == std::string::npos) {
        return next;
    }
    return next->findByPath(path.substr(dot + 1));
}

std::vector<std::pair<std::string, Module*>>
Module::namedModules()
{
    std::vector<std::pair<std::string, Module*>> result;
    std::function<void(const std::string&, Module*)> visit =
        [&](const std::string& prefix, Module* m) {
            result.emplace_back(prefix, m);
            for (const auto& [name, c] : m->children_) {
                visit(prefix.empty() ? name : prefix + "." + name, c.get());
            }
        };
    visit("", this);
    return result;
}

std::vector<std::pair<std::string, Tensor*>>
Module::namedParams()
{
    std::vector<std::pair<std::string, Tensor*>> result;
    for (auto& [path, m] : namedModules()) {
        for (auto& [name, tensor] : m->params_) {
            result.emplace_back(path.empty() ? name : path + "." + name,
                                &tensor);
        }
    }
    return result;
}

int64_t
Module::numParams() const
{
    int64_t total = 0;
    for (const auto& [name, tensor] : params_) {
        total += tensor.numel();
    }
    for (const auto& [name, c] : children_) {
        total += c->numParams();
    }
    return total;
}

void
Module::initializeParams(uint64_t seed)
{
    for (auto& [path, tensor] : namedParams()) {
        uint64_t h = seed;
        for (char ch : path) {
            h = h * 1099511628211ULL + static_cast<uint64_t>(ch);
        }
        // Norm scales start at one; everything else small-random.
        const bool is_scale = path.size() >= 5 &&
                              path.compare(path.size() - 5, 5, "gamma") == 0;
        if (tensor->isMeta()) {
            // Tag the materialization for the memory profiler: category
            // Parameter, attributed to the param's own dotted path.
            obs::MemCategoryScope mem_cat(obs::MemCategory::Parameter);
            obs::ModuleScope mem_path(path);
            *tensor = is_scale ? Tensor::full(tensor->shape(), 1.0f)
                               : Tensor::uniform(tensor->shape(), 0.08f, h);
        }
    }
}

void
Module::cloneInto(Module* dst) const
{
    dst->type_name_ = type_name_;
    dst->traceable_ = traceable_;
    dst->params_.clear();
    {
        // Replica/stage clones carry parameters, not activations.
        obs::MemCategoryScope mem_cat(obs::MemCategory::Parameter);
        for (const auto& [name, tensor] : params_) {
            obs::ModuleScope mem_path(name);
            dst->params_.emplace_back(name, tensor.clone());
        }
    }
    dst->children_.clear();
    for (const auto& [name, c] : children_) {
        // Nest a scope per child so cloned parameters register under
        // their full dotted path, not an anonymous blob.
        obs::ModuleScope mem_path(name);
        dst->children_.emplace_back(name, c->clone());
    }
    dst->meta_ = meta_;
    if (meta_.traced_graph) {
        std::map<const Module*, Module*> map;
        buildPtrMap(this, dst, map);
        dst->meta_.traced_graph = meta_.traced_graph->clone();
        remapGraphModules(dst->meta_.traced_graph.get(), map);
    }
}

} // namespace nn
} // namespace slapo
