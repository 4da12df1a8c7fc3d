#include "analysis/shape_infer.h"

#include <optional>
#include <sstream>

namespace slapo {
namespace analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::OpKind;

/** Attach node location + provenance to a finding. */
Diagnostic&
report(Diagnostics& diags, const char* code, Severity severity,
       std::string message, const std::string& module_path, const Node* node)
{
    Diagnostic& d =
        diags.add(code, severity, std::move(message), module_path);
    d.node = node->name();
    d.node_id = node->id();
    d.primitive = node->provenance().primitive;
    return d;
}

int64_t
normalizeAxis(int64_t axis, size_t rank)
{
    return axis < 0 ? axis + static_cast<int64_t>(rank) : axis;
}

bool
axisInRange(int64_t axis, size_t rank)
{
    return axis >= 0 && axis < static_cast<int64_t>(rank);
}

/** Per-node inference state: propagated shapes + float taint per output. */
struct ValueInfo
{
    std::vector<Shape> shapes;
    std::vector<bool> is_float;
};

class GraphInfer
{
  public:
    GraphInfer(const graph::Graph& graph, const std::string& module_path,
               Diagnostics& diags)
        : graph_(graph), path_(module_path), diags_(diags)
    {
    }

    void run();

  private:
    const ValueInfo* infoOf(const Node* node) const
    {
        auto it = info_.find(node);
        return it == info_.end() ? nullptr : &it->second;
    }

    /** First-output shape of input `i`, or nullptr when unavailable. */
    const Shape* inShape(const Node* node, size_t i) const
    {
        if (i >= node->inputs().size()) {
            return nullptr;
        }
        const ValueInfo* info = infoOf(node->inputs()[i]);
        if (info == nullptr || info->shapes.empty()) {
            return nullptr;
        }
        return &info->shapes[0];
    }

    bool inFloat(const Node* node, size_t i) const
    {
        if (i >= node->inputs().size()) {
            return false;
        }
        const ValueInfo* info = infoOf(node->inputs()[i]);
        return info != nullptr && !info->is_float.empty() &&
               info->is_float[0];
    }

    void badInputs(const Node* node, const std::string& detail)
    {
        report(diags_, "SLP103", Severity::Error,
               "impossible inputs for op '" + node->signature() + "': " +
                   detail,
               path_, node);
    }

    /** Compare the computed shape against the node's declared shape. */
    void checkDeclared(const Node* node, const Shape& computed);

    void inferCallOp(const Node* node, ValueInfo& out);
    void inferFused(const Node* node, ValueInfo& out);

    const graph::Graph& graph_;
    const std::string& path_;
    Diagnostics& diags_;
    std::map<const Node*, ValueInfo> info_;
};

void
GraphInfer::checkDeclared(const Node* node, const Shape& computed)
{
    if (node->shapes().empty()) {
        return; // validate() reports missing shapes
    }
    if (node->shapes()[0] != computed) {
        report(diags_, "SLP101", Severity::Error,
               "shape contradiction: op '" + node->signature() +
                   "' computes " + shapeToString(computed) +
                   " but the node declares " +
                   shapeToString(node->shapes()[0]),
               path_, node);
    }
}

void
GraphInfer::inferCallOp(const Node* node, ValueInfo& out)
{
    const OpKind op = node->op();
    const size_t arity = node->inputs().size();
    const Shape* a = inShape(node, 0);
    const Shape* b = inShape(node, 1);

    // Default: propagate the declared shape, taint unknown.
    std::optional<Shape> computed;
    bool is_float = false;

    switch (op) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "binary op needs two inputs");
            break;
        }
        try {
            computed = broadcastShapes(*a, *b);
        } catch (const SlapoError&) {
            badInputs(node, "operands " + shapeToString(*a) + " and " +
                                shapeToString(*b) + " do not broadcast");
        }
        is_float = op == OpKind::Div || inFloat(node, 0) || inFloat(node, 1);
        break;
      }
      case OpKind::Scale:
      case OpKind::AddScalar:
      case OpKind::Gelu:
      case OpKind::Relu:
      case OpKind::Tanh:
      case OpKind::Clamp:
      case OpKind::RangeMask:
      case OpKind::CausalMask:
      case OpKind::Softmax:
      case OpKind::Dropout:
      case OpKind::Identity: {
        if (a == nullptr) {
            badInputs(node, "unary op needs one input");
            break;
        }
        computed = *a;
        switch (op) {
          case OpKind::Gelu:
          case OpKind::Tanh:
          case OpKind::Softmax:
          case OpKind::Dropout:
          case OpKind::Scale:
          case OpKind::CausalMask:
            is_float = true;
            break;
          case OpKind::RangeMask:
            is_float = false; // 0/1 mask, integral-safe
            break;
          default:
            is_float = inFloat(node, 0);
            break;
        }
        break;
      }
      case OpKind::RelPosBias: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "rel_pos_bias needs (scores, table)");
            break;
        }
        if (a->size() != 4 || b->size() != 2 || (*a)[1] != (*b)[0]) {
            badInputs(node, "scores " + shapeToString(*a) +
                                " vs head-indexed table " +
                                shapeToString(*b));
            break;
        }
        computed = *a;
        is_float = true;
        break;
      }
      case OpKind::Attention: {
        // (qkv | q, k, v) then an optional [heads, 2b - 1] bias table.
        const bool packed = arity <= 2;
        const Shape* k = packed ? a : b;
        const Shape* v = inShape(node, packed ? 0 : 2);
        const Shape* table = arity % 2 == 0 ? inShape(node, arity - 1)
                                            : nullptr;
        if (arity == 0 || arity > 4 || a == nullptr || k == nullptr ||
            v == nullptr || !node->hasAttr("head_dim") ||
            (arity % 2 == 0 && table == nullptr)) {
            badInputs(node, "attention needs (qkv | q, k, v[, table])");
            break;
        }
        const int64_t head_dim = node->attrInt("head_dim");
        const int64_t width = a->size() == 3 ? (*a)[2] : 0;
        const int64_t hidden = packed ? width / 3 : width;
        if (a->size() != 3 || head_dim <= 0 ||
            (packed && width % 3 != 0) || hidden % head_dim != 0 ||
            (!packed && (k->size() != 3 || *k != *v || (*k)[0] != (*a)[0] ||
                         (*k)[2] != hidden))) {
            badInputs(node, "q " + shapeToString(*a) + ", k " +
                                shapeToString(*k) + ", v " +
                                shapeToString(*v) + " with head dim " +
                                std::to_string(head_dim));
            break;
        }
        if (table != nullptr &&
            (table->size() != 2 || (*table)[0] != hidden / head_dim)) {
            badInputs(node, "bias table " + shapeToString(*table) +
                                " is not indexed by the " +
                                std::to_string(hidden / head_dim) + " heads");
            break;
        }
        computed = Shape{(*a)[0], (*a)[1], hidden};
        is_float = true;
        break;
      }
      case OpKind::LayerNormOp:
      case OpKind::BatchNormOp: {
        if (arity != 3 || a == nullptr) {
            badInputs(node, "normalization needs (x, gamma, beta)");
            break;
        }
        const Shape* gamma = inShape(node, 1);
        const int64_t feat = op == OpKind::LayerNormOp
                                 ? (a->empty() ? 0 : a->back())
                                 : (a->size() > 1 ? (*a)[1] : 0);
        if (gamma != nullptr &&
            (gamma->size() != 1 || (*gamma)[0] != feat)) {
            badInputs(node, "gamma " + shapeToString(*gamma) +
                                " does not match feature extent " +
                                std::to_string(feat));
        }
        computed = *a;
        is_float = true;
        break;
      }
      case OpKind::Matmul: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "matmul needs two inputs");
            break;
        }
        if (a->size() < 2 || b->size() < 2 ||
            a->back() != (*b)[b->size() - 2]) {
            badInputs(node, "inner extents of " + shapeToString(*a) +
                                " @ " + shapeToString(*b) +
                                " do not match");
            break;
        }
        Shape batch_a(a->begin(), a->end() - 2);
        Shape batch_b(b->begin(), b->end() - 2);
        try {
            Shape result = broadcastShapes(batch_a, batch_b);
            result.push_back((*a)[a->size() - 2]);
            result.push_back(b->back());
            computed = std::move(result);
        } catch (const SlapoError&) {
            badInputs(node, "batch extents of " + shapeToString(*a) +
                                " @ " + shapeToString(*b) +
                                " do not broadcast");
        }
        is_float = true;
        break;
      }
      case OpKind::LinearOp: {
        if ((arity != 2 && arity != 3) || a == nullptr || b == nullptr) {
            badInputs(node, "linear needs (x, weight[, bias])");
            break;
        }
        if (b->size() != 2 || a->empty() || a->back() != (*b)[1]) {
            badInputs(node, "input " + shapeToString(*a) +
                                " vs weight " + shapeToString(*b));
            break;
        }
        const Shape* bias = arity == 3 ? inShape(node, 2) : nullptr;
        if (bias != nullptr &&
            (bias->size() != 1 || (*bias)[0] != (*b)[0])) {
            badInputs(node, "bias " + shapeToString(*bias) +
                                " vs weight " + shapeToString(*b));
        }
        Shape result = *a;
        result.back() = (*b)[0];
        computed = std::move(result);
        is_float = true;
        break;
      }
      case OpKind::TransposeLast2: {
        if (a == nullptr || a->size() < 2) {
            badInputs(node, "transpose needs rank >= 2");
            break;
        }
        Shape result = *a;
        std::swap(result[result.size() - 1], result[result.size() - 2]);
        computed = std::move(result);
        is_float = inFloat(node, 0);
        break;
      }
      case OpKind::Reshape: {
        if (a == nullptr || !node->hasAttr("shape")) {
            badInputs(node, "reshape needs input and 'shape' attr");
            break;
        }
        Shape target = node->attrInts("shape");
        if (numelOf(target) != numelOf(*a)) {
            badInputs(node, "reshape " + shapeToString(*a) + " -> " +
                                shapeToString(target) +
                                " changes element count");
            break;
        }
        computed = std::move(target);
        is_float = inFloat(node, 0);
        break;
      }
      case OpKind::Permute: {
        if (a == nullptr || !node->hasAttr("perm")) {
            badInputs(node, "permute needs input and 'perm' attr");
            break;
        }
        const std::vector<int64_t>& perm = node->attrInts("perm");
        if (perm.size() != a->size()) {
            badInputs(node, "perm rank " + std::to_string(perm.size()) +
                                " vs input rank " +
                                std::to_string(a->size()));
            break;
        }
        Shape result(a->size());
        bool ok = true;
        std::vector<bool> seen(a->size(), false);
        for (size_t i = 0; i < perm.size(); ++i) {
            if (!axisInRange(perm[i], a->size()) || seen[perm[i]]) {
                ok = false;
                break;
            }
            seen[perm[i]] = true;
            result[i] = (*a)[perm[i]];
        }
        if (!ok) {
            badInputs(node, "'perm' is not a permutation of the axes");
            break;
        }
        computed = std::move(result);
        is_float = inFloat(node, 0);
        break;
      }
      case OpKind::Concat: {
        if (arity == 0 || a == nullptr || !node->hasAttr("axis")) {
            badInputs(node, "concat needs inputs and an 'axis' attr");
            break;
        }
        const int64_t axis = normalizeAxis(node->attrInt("axis"), a->size());
        if (!axisInRange(axis, a->size())) {
            badInputs(node, "concat axis out of range");
            break;
        }
        Shape result = *a;
        bool ok = true;
        bool any_float = inFloat(node, 0);
        for (size_t i = 1; i < arity; ++i) {
            const Shape* s = inShape(node, i);
            if (s == nullptr || s->size() != a->size()) {
                ok = false;
                break;
            }
            for (size_t d = 0; d < s->size(); ++d) {
                if (static_cast<int64_t>(d) != axis &&
                    (*s)[d] != (*a)[d]) {
                    ok = false;
                }
            }
            if (!ok) {
                break;
            }
            result[axis] += (*s)[axis];
            any_float = any_float || inFloat(node, i);
        }
        if (!ok) {
            badInputs(node, "concat operands disagree off the concat axis");
            break;
        }
        computed = std::move(result);
        is_float = any_float;
        break;
      }
      case OpKind::Narrow: {
        if (a == nullptr || !node->hasAttr("axis")) {
            badInputs(node, "narrow needs input and axis/start/length");
            break;
        }
        const int64_t axis = normalizeAxis(node->attrInt("axis"), a->size());
        const int64_t start = node->attrInt("start");
        const int64_t length = node->attrInt("length");
        if (!axisInRange(axis, a->size()) || start < 0 || length <= 0 ||
            start + length > (*a)[axis]) {
            badInputs(node, "narrow [" + std::to_string(start) + ", " +
                                std::to_string(start + length) +
                                ") exceeds axis extent " +
                                std::to_string((*a)[axis]));
            break;
        }
        Shape result = *a;
        result[axis] = length;
        computed = std::move(result);
        is_float = inFloat(node, 0);
        break;
      }
      case OpKind::EmbeddingOp: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "embedding needs (ids, table)");
            break;
        }
        if (b->size() != 2) {
            badInputs(node, "embedding table must be 2-D, got " +
                                shapeToString(*b));
            break;
        }
        if (inFloat(node, 0)) {
            report(diags_, "SLP110", Severity::Error,
                   "embedding ids input is a real-valued tensor "
                   "(produced by floating-point compute); ids must stay "
                   "integral",
                   path_, node);
        }
        Shape result = *a;
        result.push_back(b->back());
        computed = std::move(result);
        is_float = true;
        break;
      }
      case OpKind::CrossEntropyOp:
      case OpKind::MseLossOp: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "loss needs (prediction, target)");
            break;
        }
        if (op == OpKind::CrossEntropyOp && inFloat(node, 1)) {
            report(diags_, "SLP111", Severity::Error,
                   "cross-entropy targets are real-valued (produced by "
                   "floating-point compute); class targets must stay "
                   "integral",
                   path_, node);
        }
        computed = Shape{1};
        is_float = true;
        break;
      }
      case OpKind::Conv2dOp: {
        if (arity != 2 || a == nullptr || b == nullptr) {
            badInputs(node, "conv2d needs (x, w)");
            break;
        }
        if (a->size() != 4 || b->size() != 4 || (*a)[1] != (*b)[1]) {
            badInputs(node, "NCHW input " + shapeToString(*a) +
                                " vs OIHW weight " + shapeToString(*b));
            break;
        }
        const int64_t stride =
            node->hasAttr("stride") ? node->attrInt("stride") : 1;
        const int64_t pad = node->hasAttr("pad") ? node->attrInt("pad") : 0;
        const int64_t ho = ((*a)[2] + 2 * pad - (*b)[2]) / stride + 1;
        const int64_t wo = ((*a)[3] + 2 * pad - (*b)[3]) / stride + 1;
        if (ho <= 0 || wo <= 0) {
            badInputs(node, "kernel does not fit the padded input");
            break;
        }
        computed = Shape{(*a)[0], (*b)[0], ho, wo};
        is_float = true;
        break;
      }
      case OpKind::GlobalAvgPoolOp: {
        if (a == nullptr || a->size() != 4) {
            badInputs(node, "global average pool needs a 4-D input");
            break;
        }
        computed = Shape{(*a)[0], (*a)[1]};
        is_float = true;
        break;
      }
      case OpKind::AllReduce: {
        if (a != nullptr) {
            computed = *a;
        }
        is_float = inFloat(node, 0);
        break;
      }
      case OpKind::AllGather:
      case OpKind::ReduceScatter: {
        // The extent scaling factor is the tracing-time world size,
        // which the graph does not record; check divisibility instead
        // of the exact extent.
        is_float = inFloat(node, 0);
        if (a == nullptr || node->shapes().empty()) {
            break;
        }
        const Shape& declared = node->shapes()[0];
        const int64_t axis = normalizeAxis(
            node->hasAttr("axis") ? node->attrInt("axis") : -1, a->size());
        bool ok = declared.size() == a->size() && axisInRange(axis, a->size());
        for (size_t d = 0; ok && d < declared.size(); ++d) {
            if (static_cast<int64_t>(d) == axis) {
                const int64_t big = op == OpKind::AllGather ? declared[d]
                                                            : (*a)[d];
                const int64_t small = op == OpKind::AllGather ? (*a)[d]
                                                              : declared[d];
                ok = small > 0 && big % small == 0;
            } else {
                ok = declared[d] == (*a)[d];
            }
        }
        if (!ok) {
            report(diags_, "SLP101", Severity::Error,
                   "collective '" + node->signature() + "' declares " +
                       shapeToString(declared) +
                       " which is not a per-axis multiple/divisor of its "
                       "input " +
                       shapeToString(*a),
                   path_, node);
        }
        return; // declared shape is the propagated value; checked above
      }
    }

    if (computed.has_value()) {
        checkDeclared(node, *computed);
    }
    out.is_float.assign(std::max<size_t>(node->shapes().size(), 1),
                        is_float);
}

void
GraphInfer::inferFused(const Node* node, ValueInfo& out)
{
    graph::Graph* sub = node->subgraph();
    if (sub == nullptr) {
        badInputs(node, "fused op has no subgraph");
        return;
    }
    const auto& sub_inputs = sub->placeholders();
    if (sub_inputs.size() != node->inputs().size()) {
        badInputs(node,
                  "fused subgraph expects " +
                      std::to_string(sub_inputs.size()) + " inputs, node has " +
                      std::to_string(node->inputs().size()));
        return;
    }
    // The fused node's operands must match the subgraph's placeholder
    // declarations — the subgraph is checked internally against those.
    for (size_t i = 0; i < sub_inputs.size(); ++i) {
        const Shape* outer = inShape(node, i);
        if (outer == nullptr || sub_inputs[i]->shapes().empty()) {
            continue;
        }
        if (*outer != sub_inputs[i]->shapes()[0]) {
            report(diags_, "SLP101", Severity::Error,
                   "fused subgraph input " + std::to_string(i) +
                       " declares " +
                       shapeToString(sub_inputs[i]->shapes()[0]) +
                       " but receives " + shapeToString(*outer),
                   path_, node);
        }
    }
    inferGraphShapes(*sub, path_, diags_);
    // Subgraph outputs must line up with the fused node's declaration.
    const Node* sub_out = sub->outputNode();
    if (sub_out != nullptr &&
        sub_out->inputs().size() == node->shapes().size()) {
        for (size_t i = 0; i < node->shapes().size(); ++i) {
            const Node* ret = sub_out->inputs()[i];
            if (!ret->shapes().empty() &&
                ret->shapes()[0] != node->shapes()[i]) {
                report(diags_, "SLP101", Severity::Error,
                       "fused node output " + std::to_string(i) +
                           " declares " + shapeToString(node->shapes()[i]) +
                           " but its subgraph computes " +
                           shapeToString(ret->shapes()[0]),
                       path_, node);
            }
        }
    }
}

void
GraphInfer::run()
{
    for (const Node* node : graph_.nodes()) {
        ValueInfo out;
        out.shapes = node->shapes(); // propagate declarations
        out.is_float.assign(std::max<size_t>(node->shapes().size(), 1),
                            false);
        switch (node->kind()) {
          case NodeKind::Placeholder:
            break;
          case NodeKind::GetParam: {
            nn::Module* owner = node->module();
            if (owner == nullptr || !owner->hasParam(node->target())) {
                report(diags_, "SLP102", Severity::Error,
                       "get_param target '" + node->target() +
                           "' is not a parameter of the referenced module",
                       path_, node);
                break;
            }
            const Shape& actual =
                owner->paramTensor(node->target()).shape();
            if (!node->shapes().empty() && node->shapes()[0] != actual) {
                // A shard-materialized replica legitimately carries a
                // 1/world-size slice along the shard axis; anything else
                // is a real mismatch.
                bool shard_explained = false;
                auto it =
                    owner->meta().sharded_params.find(node->target());
                if (it != owner->meta().sharded_params.end()) {
                    const nn::ShardSpec& spec = it->second;
                    const Shape& declared = node->shapes()[0];
                    if (declared.size() == actual.size() &&
                        axisInRange(spec.axis, actual.size())) {
                        shard_explained = true;
                        for (size_t d = 0; d < actual.size(); ++d) {
                            if (static_cast<int64_t>(d) == spec.axis) {
                                shard_explained =
                                    shard_explained &&
                                    (declared[d] ==
                                         actual[d] * spec.world_size ||
                                     actual[d] ==
                                         declared[d] * spec.world_size);
                            } else {
                                shard_explained = shard_explained &&
                                                  declared[d] == actual[d];
                            }
                        }
                    }
                }
                if (!shard_explained) {
                    report(diags_, "SLP102", Severity::Error,
                           "parameter '" + node->target() + "' has shape " +
                               shapeToString(actual) +
                               " but the graph declares " +
                               shapeToString(node->shapes()[0]),
                           path_, node);
                }
            }
            std::fill(out.is_float.begin(), out.is_float.end(), true);
            break;
          }
          case NodeKind::CallOp:
            inferCallOp(node, out);
            break;
          case NodeKind::CallModule:
            break; // child output declarations are trusted here
          case NodeKind::FusedOp:
            inferFused(node, out);
            break;
          case NodeKind::TupleGet: {
            if (node->inputs().empty()) {
                break;
            }
            const Node* src = node->inputs()[0];
            const int64_t index =
                node->hasAttr("index") ? node->attrInt("index") : 0;
            if (index < 0 ||
                index >= static_cast<int64_t>(src->shapes().size())) {
                report(diags_, "SLP103", Severity::Error,
                       "tuple_get index " + std::to_string(index) +
                           " out of range for a " +
                           std::to_string(src->shapes().size()) +
                           "-output producer",
                       path_, node);
                break;
            }
            if (!node->shapes().empty() &&
                node->shapes()[0] != src->shapes()[index]) {
                report(diags_, "SLP101", Severity::Error,
                       "tuple_get declares " +
                           shapeToString(node->shapes()[0]) +
                           " but selects output of shape " +
                           shapeToString(src->shapes()[index]),
                       path_, node);
            }
            const ValueInfo* src_info = infoOf(src);
            if (src_info != nullptr &&
                index < static_cast<int64_t>(src_info->is_float.size())) {
                std::fill(out.is_float.begin(), out.is_float.end(),
                          src_info->is_float[index]);
            }
            break;
          }
          case NodeKind::Output:
            break;
        }
        info_.emplace(node, std::move(out));
    }
}

} // namespace

void
inferGraphShapes(const graph::Graph& graph, const std::string& module_path,
                 Diagnostics& diags)
{
    GraphInfer(graph, module_path, diags).run();
}

void
inferShapes(nn::Module& root, Diagnostics& diags)
{
    for (auto& [path, m] : root.namedModules()) {
        if (m->meta().traced_graph) {
            inferGraphShapes(*m->meta().traced_graph, path, diags);
        }
    }
}

} // namespace analysis
} // namespace slapo
