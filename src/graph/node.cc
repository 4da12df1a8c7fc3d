#include "graph/node.h"

#include <algorithm>
#include <sstream>

namespace slapo {
namespace graph {

const char*
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Add: return "add";
      case OpKind::Sub: return "sub";
      case OpKind::Mul: return "mul";
      case OpKind::Div: return "div";
      case OpKind::Scale: return "scale";
      case OpKind::AddScalar: return "add_scalar";
      case OpKind::Gelu: return "gelu";
      case OpKind::Relu: return "relu";
      case OpKind::Tanh: return "tanh";
      case OpKind::Clamp: return "clamp";
      case OpKind::RangeMask: return "range_mask";
      case OpKind::CausalMask: return "causal_mask";
      case OpKind::RelPosBias: return "rel_pos_bias";
      case OpKind::Softmax: return "softmax";
      case OpKind::Attention: return "attention";
      case OpKind::LayerNormOp: return "layer_norm";
      case OpKind::Dropout: return "dropout";
      case OpKind::Matmul: return "matmul";
      case OpKind::LinearOp: return "linear";
      case OpKind::TransposeLast2: return "transpose";
      case OpKind::Reshape: return "reshape";
      case OpKind::Permute: return "permute";
      case OpKind::Concat: return "concat";
      case OpKind::Narrow: return "narrow";
      case OpKind::EmbeddingOp: return "embedding";
      case OpKind::CrossEntropyOp: return "cross_entropy";
      case OpKind::MseLossOp: return "mse_loss";
      case OpKind::Conv2dOp: return "conv2d";
      case OpKind::BatchNormOp: return "batch_norm";
      case OpKind::GlobalAvgPoolOp: return "global_avg_pool";
      case OpKind::AllReduce: return "all_reduce";
      case OpKind::AllGather: return "all_gather";
      case OpKind::ReduceScatter: return "reduce_scatter";
      case OpKind::Identity: return "identity";
    }
    return "unknown";
}

void
Node::replaceInput(Node* from, Node* to)
{
    for (Node*& in : inputs_) {
        if (in == from) {
            in = to;
        }
    }
}

const Shape&
Node::shape(size_t i) const
{
    SLAPO_ASSERT(i < shapes_.size(),
                 "node " << name_ << " has no output " << i);
    return shapes_[i];
}

int64_t
Node::attrInt(const std::string& key) const
{
    auto it = attrs_.find(key);
    SLAPO_CHECK(it != attrs_.end(), "node " << name_ << ": missing attr " << key);
    if (const auto* v = std::get_if<int64_t>(&it->second)) return *v;
    return static_cast<int64_t>(std::get<double>(it->second));
}

double
Node::attrFloat(const std::string& key) const
{
    auto it = attrs_.find(key);
    SLAPO_CHECK(it != attrs_.end(), "node " << name_ << ": missing attr " << key);
    if (const auto* v = std::get_if<double>(&it->second)) return *v;
    return static_cast<double>(std::get<int64_t>(it->second));
}

const std::string&
Node::attrStr(const std::string& key) const
{
    auto it = attrs_.find(key);
    SLAPO_CHECK(it != attrs_.end(), "node " << name_ << ": missing attr " << key);
    return std::get<std::string>(it->second);
}

const std::vector<int64_t>&
Node::attrInts(const std::string& key) const
{
    auto it = attrs_.find(key);
    SLAPO_CHECK(it != attrs_.end(), "node " << name_ << ": missing attr " << key);
    return std::get<std::vector<int64_t>>(it->second);
}

std::string
Node::signature() const
{
    switch (kind_) {
      case NodeKind::CallOp:
        return opKindName(op_);
      case NodeKind::CallModule:
        return target_;
      case NodeKind::Placeholder:
        return "placeholder";
      case NodeKind::GetParam:
        return "get_param";
      case NodeKind::FusedOp:
        return "fused";
      case NodeKind::TupleGet:
        return "tuple_get";
      case NodeKind::Output:
        return "output";
    }
    return "?";
}

std::string
Node::toString() const
{
    std::ostringstream os;
    os << "%" << name_ << " = ";
    switch (kind_) {
      case NodeKind::Placeholder: os << "placeholder"; break;
      case NodeKind::GetParam: os << "get_param[" << target_ << "]"; break;
      case NodeKind::CallOp: os << "call_op[" << opKindName(op_) << "]"; break;
      case NodeKind::CallModule: os << "call_module[" << target_ << "]"; break;
      case NodeKind::FusedOp: os << "fused_op"; break;
      case NodeKind::TupleGet: os << "tuple_get[" << attrInt("index") << "]"; break;
      case NodeKind::Output: os << "output"; break;
    }
    os << "(";
    for (size_t i = 0; i < inputs_.size(); ++i) {
        if (i) os << ", ";
        os << "%" << inputs_[i]->name();
    }
    os << ")";
    if (!shapes_.empty()) {
        os << " : ";
        for (size_t i = 0; i < shapes_.size(); ++i) {
            if (i) os << ", ";
            os << shapeToString(shapes_[i]);
        }
    }
    if (checkpointed_) os << " [ckpt]";
    return os.str();
}

} // namespace graph
} // namespace slapo
