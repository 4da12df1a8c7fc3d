/**
 * @file
 * Nodes of the slapo-cc static graph IR.
 *
 * The IR mirrors torch.fx's design (§4 of the paper): a small instruction
 * set — placeholder / get_param / call_op / call_module / tuple_get /
 * output — over a flat, topologically-ordered node list. Unlike stock
 * torch.fx (which flattens the model), graphs here are *hierarchical*:
 * a CallModule node keeps a reference to the live module, which may carry
 * its own traced sub-graph, preserving the model structure the schedule
 * language navigates.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "tensor/tensor.h"

namespace slapo {

namespace nn {
class Module; // graph IR only holds references; defined in nn/module.h
} // namespace nn

namespace graph {

/** Primitive tensor operations representable as CallOp nodes. */
enum class OpKind
{
    // elementwise / broadcast
    Add,
    Sub,
    Mul,
    Div,
    Scale,      // attr "factor"
    AddScalar,  // attr "value"
    Gelu,
    Relu,
    Tanh,
    Clamp,     // attrs "lo", "hi"
    RangeMask, // attrs "lo", "hi"
    CausalMask,
    RelPosBias, // inputs: scores, table

    // reductions / normalization
    Softmax,
    // inputs: qkv or (q, k, v), then an optional bias table; attrs
    // "head_dim", "causal", "p", "seed"
    Attention,
    LayerNormOp, // inputs: x, gamma, beta; attr "eps"
    // regularization
    Dropout, // attrs "p", "seed"
    // linear algebra
    Matmul,
    LinearOp, // inputs: x, weight[, bias]
    TransposeLast2,
    Reshape, // attr "shape"
    Permute, // attr "perm"
    Concat,  // attr "axis"
    Narrow,  // attrs "axis", "start", "length"
    // lookup / loss
    EmbeddingOp, // inputs: ids, table
    CrossEntropyOp,
    MseLossOp,
    // vision
    Conv2dOp,    // inputs: x, w; attrs "stride", "pad"
    BatchNormOp, // inputs: x, gamma, beta; attr "eps"
    GlobalAvgPoolOp,
    // collectives inserted by .sync() — executed by the distributed runtime
    AllReduce,     // attr "group" (unused placeholder), sums across ranks
    AllGather,     // attr "axis"
    ReduceScatter, // attr "axis"
    Identity,
};

/** Human-readable op name (used by pattern regexes and dumps). */
const char* opKindName(OpKind kind);

/** Node categories of the IR. */
enum class NodeKind
{
    Placeholder, // graph input; attr-free, named
    GetParam,    // parameter of `module` named `target`
    CallOp,      // primitive op on value inputs
    CallModule,  // invoke a (possibly untraced) submodule
    FusedOp,     // a fused kernel holding a sub-graph of CallOps
    TupleGet,    // select output `index` of a multi-output producer
    Output,      // graph result(s): inputs are the returned values
};

/** Attribute value attached to a node. */
using Attr = std::variant<int64_t, double, std::string, std::vector<int64_t>>;

/**
 * Which schedule decision produced a node. Stamped by the schedule
 * primitives that create or rewrite graph nodes (.fuse(), .replace(),
 * .checkpoint(subgraph), …) and preserved across every graph mutation —
 * clone(), fuseSubgraph(), replaceSubgraph() — so a rewritten node still
 * answers "which primitive is responsible for this kernel" at execution
 * time (docs/OBSERVABILITY.md, "Attribution & step reports"). An empty
 * `primitive` means the node is untouched baseline computation.
 */
struct Provenance
{
    std::string primitive;   ///< "fuse", "replace", "checkpoint", … ("" = baseline)
    std::string module_path; ///< schedule path the primitive was applied at
    int64_t apply_seq = -1;  ///< process-wide application order (obs/provenance.h)
};

class Graph;

/**
 * One IR instruction. Nodes are owned by their Graph; inputs are
 * non-owning pointers to earlier nodes in the same graph.
 */
class Node
{
  public:
    Node(NodeKind kind, std::string name) : kind_(kind), name_(std::move(name)) {}

    NodeKind kind() const { return kind_; }
    const std::string& name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /**
     * Graph-unique dense id, assigned at creation and stable for the
     * node's lifetime. Executors index per-node state with flat vectors
     * sized by Graph::idBound() instead of std::map lookups.
     */
    int64_t id() const { return id_; }
    void setId(int64_t id) { id_ = id; }

    /** CallOp only: the primitive operation. */
    OpKind op() const { return op_; }
    void setOp(OpKind op) { op_ = op; }

    /**
     * CallModule/GetParam: dotted path of the target relative to the graph
     * owner (e.g. "attention.self.query" or parameter name "weight").
     */
    const std::string& target() const { return target_; }
    void setTarget(std::string target) { target_ = std::move(target); }

    /** CallModule/GetParam: the live module the node refers to. */
    nn::Module* module() const { return module_; }
    void setModule(nn::Module* module) { module_ = module; }

    const std::vector<Node*>& inputs() const { return inputs_; }
    std::vector<Node*>& inputs() { return inputs_; }
    void addInput(Node* node) { inputs_.push_back(node); }

    /** Replace every occurrence of `from` in inputs with `to`. */
    void replaceInput(Node* from, Node* to);

    /** Output shape(s). Most nodes have exactly one. */
    const std::vector<Shape>& shapes() const { return shapes_; }
    void setShapes(std::vector<Shape> shapes) { shapes_ = std::move(shapes); }
    const Shape& shape(size_t i = 0) const;
    int64_t numOutputs() const { return static_cast<int64_t>(shapes_.size()); }

    // Attributes.
    void setAttr(const std::string& key, Attr value) { attrs_[key] = std::move(value); }
    bool hasAttr(const std::string& key) const { return attrs_.count(key) > 0; }
    int64_t attrInt(const std::string& key) const;
    double attrFloat(const std::string& key) const;
    const std::string& attrStr(const std::string& key) const;
    const std::vector<int64_t>& attrInts(const std::string& key) const;
    const std::map<std::string, Attr>& attrs() const { return attrs_; }

    /** FusedOp only: the encapsulated sub-graph of primitive ops. */
    Graph* subgraph() const { return subgraph_.get(); }
    void setSubgraph(std::shared_ptr<Graph> g) { subgraph_ = std::move(g); }

    /**
     * Scheduling flag: this node's activation is checkpointed (recomputed
     * in backward). Set by the `.checkpoint(subgraph)` primitive.
     */
    bool checkpointed() const { return checkpointed_; }
    void setCheckpointed(bool v) { checkpointed_ = v; }

    /**
     * The schedule decision responsible for this node; baseline (empty
     * primitive) unless a primitive stamped it.
     */
    const Provenance& provenance() const { return provenance_; }
    void setProvenance(Provenance p) { provenance_ = std::move(p); }
    bool hasProvenance() const { return !provenance_.primitive.empty(); }

    /**
     * A short signature used by the pattern matcher and dumps: the op name
     * for CallOp, the module type for CallModule, the kind otherwise.
     */
    std::string signature() const;

    std::string toString() const;

  private:
    NodeKind kind_;
    std::string name_;
    int64_t id_ = -1;
    OpKind op_ = OpKind::Identity;
    std::string target_;
    nn::Module* module_ = nullptr;
    std::vector<Node*> inputs_;
    std::vector<Shape> shapes_;
    std::map<std::string, Attr> attrs_;
    std::shared_ptr<Graph> subgraph_;
    bool checkpointed_ = false;
    Provenance provenance_;
};

} // namespace graph
} // namespace slapo
