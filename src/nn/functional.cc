#include "nn/functional.h"

#include <algorithm>
#include <functional>

#include "nn/context.h"
#include "runtime/process_group.h"
#include "tensor/ops.h"

namespace slapo {
namespace nn {
namespace F {

namespace {

using graph::Attr;
using graph::Node;
using graph::NodeKind;
using graph::OpKind;

/** Everything dispatch() needs to know about one op invocation. */
struct OpCall
{
    OpKind kind;
    Shape out_shape;
    double flops = 0;
    std::vector<std::pair<std::string, Attr>> attrs;
    /** Pure metadata ops (reshape) launch no kernel and move no bytes. */
    bool is_view = false;
};

using NumericFn = std::function<Tensor(const std::vector<const Tensor*>&)>;

double
elems(const std::vector<Value>& inputs)
{
    double acc = 0;
    for (const Value& v : inputs) {
        acc += static_cast<double>(v.tensor().numel());
    }
    return acc;
}

/** Core three-way dispatch: trace / profile+compute / meta-propagate. */
Value
dispatch(const OpCall& call, const std::vector<Value>& inputs,
         const NumericFn& numeric)
{
    if (TracingState* ts = TracingState::current()) {
        Node* node = ts->graph()->createNode(NodeKind::CallOp,
                                             opKindName(call.kind));
        node->setOp(call.kind);
        for (const Value& v : inputs) {
            SLAPO_CHECK(v.symbolic(),
                        "tracing " << opKindName(call.kind)
                                   << ": input is not symbolic; tensors "
                                      "created outside the traced region must "
                                      "enter via placeholders or parameters");
            node->addInput(v.node());
        }
        for (const auto& [k, v] : call.attrs) {
            node->setAttr(k, v);
        }
        node->setShapes({call.out_shape});
        return Value(Tensor::meta(call.out_shape), node);
    }

    if (CostRecorder* prof = CostRecorder::current(); prof && !call.is_view) {
        prof->recordOp(opKindName(call.kind), call.flops, elems(inputs),
                       static_cast<double>(numelOf(call.out_shape)));
    }

    bool all_materialized = true;
    std::vector<const Tensor*> tensors;
    tensors.reserve(inputs.size());
    for (const Value& v : inputs) {
        tensors.push_back(&v.tensor());
        all_materialized &= v.tensor().materialized();
    }
    if (!all_materialized) {
        return Value(Tensor::meta(call.out_shape));
    }
    Tensor out = numeric(tensors);
    SLAPO_ASSERT(out.shape() == call.out_shape,
                 "op " << opKindName(call.kind) << ": inferred shape "
                       << shapeToString(call.out_shape)
                       << " != computed shape " << shapeToString(out.shape()));
    return Value(std::move(out));
}

Value
binaryOp(OpKind kind, const Value& a, const Value& b,
         Tensor (*fn)(const Tensor&, const Tensor&))
{
    OpCall call;
    call.kind = kind;
    call.out_shape = broadcastShapes(a.shape(), b.shape());
    call.flops = static_cast<double>(numelOf(call.out_shape));
    return dispatch(call, {a, b}, [fn](const std::vector<const Tensor*>& t) {
        return fn(*t[0], *t[1]);
    });
}

Value
unaryOp(OpKind kind, const Value& a, double flops_per_elem,
        Tensor (*fn)(const Tensor&))
{
    OpCall call;
    call.kind = kind;
    call.out_shape = a.shape();
    call.flops = flops_per_elem * static_cast<double>(a.tensor().numel());
    return dispatch(call, {a}, [fn](const std::vector<const Tensor*>& t) {
        return fn(*t[0]);
    });
}

} // namespace

Value
add(const Value& a, const Value& b)
{
    return binaryOp(OpKind::Add, a, b, &ops::add);
}

Value
sub(const Value& a, const Value& b)
{
    return binaryOp(OpKind::Sub, a, b, &ops::sub);
}

Value
mul(const Value& a, const Value& b)
{
    return binaryOp(OpKind::Mul, a, b, &ops::mul);
}

Value
div(const Value& a, const Value& b)
{
    return binaryOp(OpKind::Div, a, b, &ops::div);
}

Value
scale(const Value& a, double factor)
{
    OpCall call;
    call.kind = OpKind::Scale;
    call.out_shape = a.shape();
    call.flops = static_cast<double>(a.tensor().numel());
    call.attrs.emplace_back("factor", factor);
    return dispatch(call, {a}, [factor](const std::vector<const Tensor*>& t) {
        return ops::scale(*t[0], static_cast<float>(factor));
    });
}

Value
addScalar(const Value& a, double value)
{
    OpCall call;
    call.kind = OpKind::AddScalar;
    call.out_shape = a.shape();
    call.flops = static_cast<double>(a.tensor().numel());
    call.attrs.emplace_back("value", value);
    return dispatch(call, {a}, [value](const std::vector<const Tensor*>& t) {
        return ops::addScalar(*t[0], static_cast<float>(value));
    });
}

Value
gelu(const Value& a)
{
    return unaryOp(OpKind::Gelu, a, 8.0, &ops::gelu);
}

Value
relu(const Value& a)
{
    return unaryOp(OpKind::Relu, a, 1.0, &ops::relu);
}

Value
tanh(const Value& a)
{
    return unaryOp(OpKind::Tanh, a, 5.0, &ops::tanhOp);
}

Value
clampScalar(const Value& a, double lo, double hi)
{
    OpCall call;
    call.kind = OpKind::Clamp;
    call.out_shape = a.shape();
    call.flops = static_cast<double>(a.tensor().numel());
    call.attrs.emplace_back("lo", lo);
    call.attrs.emplace_back("hi", hi);
    return dispatch(call, {a}, [lo, hi](const std::vector<const Tensor*>& t) {
        return ops::clampScalar(*t[0], static_cast<float>(lo),
                                static_cast<float>(hi));
    });
}

Value
rangeMask(const Value& a, double lo, double hi)
{
    OpCall call;
    call.kind = OpKind::RangeMask;
    call.out_shape = a.shape();
    call.flops = static_cast<double>(a.tensor().numel());
    call.attrs.emplace_back("lo", lo);
    call.attrs.emplace_back("hi", hi);
    return dispatch(call, {a}, [lo, hi](const std::vector<const Tensor*>& t) {
        return ops::rangeMask(*t[0], static_cast<float>(lo),
                              static_cast<float>(hi));
    });
}

Value
causalMask(const Value& scores)
{
    OpCall call;
    call.kind = OpKind::CausalMask;
    call.out_shape = scores.shape();
    call.flops = static_cast<double>(scores.tensor().numel());
    return dispatch(call, {scores}, [](const std::vector<const Tensor*>& t) {
        return ops::causalMask(*t[0]);
    });
}

Value
relPosBias(const Value& scores, const Value& table)
{
    SLAPO_CHECK(scores.shape().size() == 4 && table.shape().size() == 2,
                "F::relPosBias: expects 4-D scores and 2-D table");
    SLAPO_CHECK(scores.shape()[1] == table.shape()[0],
                "F::relPosBias: head count mismatch (" << scores.shape()[1]
                                                       << " vs "
                                                       << table.shape()[0]
                                                       << ")");
    OpCall call;
    call.kind = OpKind::RelPosBias;
    call.out_shape = scores.shape();
    // Computing the bucketed bias costs a few ops per score element —
    // the overhead §5.2 credits Megatron's fixed embeddings with avoiding.
    call.flops = 4.0 * static_cast<double>(scores.tensor().numel());
    return dispatch(call, {scores, table},
                    [](const std::vector<const Tensor*>& t) {
                        return ops::relPosBias(*t[0], *t[1]);
                    });
}

Value
softmax(const Value& a)
{
    return unaryOp(OpKind::Softmax, a, 5.0, &ops::softmax);
}

Value
attention(const std::vector<Value>& inputs, int64_t head_dim, bool causal,
          double dropout_p, int64_t seed)
{
    SLAPO_CHECK(!inputs.empty() && inputs.size() <= 4,
                "F::attention: expects qkv or (q, k, v), then an optional "
                "bias table");
    const bool packed = inputs.size() <= 2;
    const bool has_table = inputs.size() % 2 == 0;
    const Shape& sq = inputs[0].shape();
    const Shape& sk = inputs[packed ? 0 : 1].shape();
    SLAPO_CHECK(sq.size() == 3 && sk.size() == 3 && head_dim > 0,
                "F::attention: expects [B, S, H] inputs");
    const int64_t hidden = packed ? sq[2] / 3 : sq[2];
    SLAPO_CHECK(hidden % head_dim == 0 && (!packed || sq[2] % 3 == 0),
                "F::attention: width " << sq[2] << " does not split into "
                                       << head_dim << "-wide heads");
    OpCall call;
    call.kind = OpKind::Attention;
    call.out_shape = {sq[0], sq[1], hidden};
    // The decomposed ops' FLOPs: scale q, two GEMMs, then per score the
    // bias, the mask, softmax and dropout.
    const double q_elems = static_cast<double>(numelOf(call.out_shape));
    const double scores = q_elems / static_cast<double>(head_dim) *
                          static_cast<double>(sk[1]);
    call.flops = q_elems + 4.0 * q_elems * static_cast<double>(sk[1]) +
                 (5.0 + 2.0 + (has_table ? 4.0 : 0.0) + (causal ? 1.0 : 0.0)) *
                     scores;
    call.attrs.emplace_back("head_dim", head_dim);
    call.attrs.emplace_back("causal", int64_t{causal});
    call.attrs.emplace_back("p", dropout_p);
    call.attrs.emplace_back("seed", seed);
    const ops::AttentionSpec spec{head_dim, causal,
                                  static_cast<float>(dropout_p),
                                  static_cast<uint64_t>(seed)};
    return dispatch(call, inputs, [spec](const std::vector<const Tensor*>& t) {
        std::vector<Tensor> tensors;
        tensors.reserve(t.size());
        for (const Tensor* p : t) tensors.push_back(*p);
        return ops::attention(tensors, spec);
    });
}

Value
layerNorm(const Value& x, const Value& gamma, const Value& beta, double eps)
{
    OpCall call;
    call.kind = OpKind::LayerNormOp;
    call.out_shape = x.shape();
    call.flops = 8.0 * static_cast<double>(x.tensor().numel());
    call.attrs.emplace_back("eps", eps);
    return dispatch(call, {x, gamma, beta},
                    [eps](const std::vector<const Tensor*>& t) {
                        return ops::layerNorm(*t[0], *t[1], *t[2],
                                              static_cast<float>(eps));
                    });
}

Value
dropout(const Value& x, double p, int64_t seed)
{
    OpCall call;
    call.kind = OpKind::Dropout;
    call.out_shape = x.shape();
    call.flops = 2.0 * static_cast<double>(x.tensor().numel());
    call.attrs.emplace_back("p", p);
    call.attrs.emplace_back("seed", seed);
    return dispatch(call, {x}, [p, seed](const std::vector<const Tensor*>& t) {
        return ops::dropout(*t[0], static_cast<float>(p),
                            static_cast<uint64_t>(seed));
    });
}

Value
matmul(const Value& a, const Value& b)
{
    const Shape& sa = a.shape();
    const Shape& sb = b.shape();
    SLAPO_CHECK(sa.size() >= 2 && sb.size() >= 2, "F::matmul: rank < 2");
    SLAPO_CHECK(sa.back() == sb[sb.size() - 2],
                "F::matmul: inner dims mismatch " << shapeToString(sa) << " @ "
                                                  << shapeToString(sb));
    Shape batch = broadcastShapes(Shape(sa.begin(), sa.end() - 2),
                                  Shape(sb.begin(), sb.end() - 2));
    OpCall call;
    call.kind = OpKind::Matmul;
    call.out_shape = batch;
    call.out_shape.push_back(sa[sa.size() - 2]);
    call.out_shape.push_back(sb.back());
    call.flops = 2.0 * static_cast<double>(numelOf(batch)) *
                 static_cast<double>(sa[sa.size() - 2]) *
                 static_cast<double>(sa.back()) *
                 static_cast<double>(sb.back());
    return dispatch(call, {a, b}, [](const std::vector<const Tensor*>& t) {
        return ops::matmul(*t[0], *t[1]);
    });
}

Value
linear(const Value& x, const Value& w, const Value& b)
{
    // A default-constructed Value (0-d meta tensor, no node) means "no
    // bias"; anything with a real shape or a graph node is a bias.
    const bool has_bias = b.symbolic() || b.tensor().dim() > 0;
    SLAPO_CHECK(w.shape().size() == 2, "F::linear: weight must be 2-D");
    SLAPO_CHECK(x.shape().back() == w.shape()[1],
                "F::linear: in features " << x.shape().back()
                                          << " != weight in " << w.shape()[1]);
    OpCall call;
    call.kind = OpKind::LinearOp;
    call.out_shape = x.shape();
    call.out_shape.back() = w.shape()[0];
    const double rows =
        static_cast<double>(x.tensor().numel()) / static_cast<double>(w.shape()[1]);
    call.flops = 2.0 * rows * static_cast<double>(w.shape()[0]) *
                     static_cast<double>(w.shape()[1]) +
                 (has_bias ? rows * static_cast<double>(w.shape()[0]) : 0.0);
    std::vector<Value> inputs = {x, w};
    if (has_bias) {
        inputs.push_back(b);
    }
    return dispatch(call, inputs,
                    [has_bias](const std::vector<const Tensor*>& t) {
                        static const Tensor kNoBias = Tensor::zeros({0});
                        return ops::linear(*t[0], *t[1],
                                           has_bias ? *t[2] : kNoBias);
                    });
}

Value
transposeLast2(const Value& a)
{
    SLAPO_CHECK(a.shape().size() >= 2, "F::transposeLast2: rank < 2");
    OpCall call;
    call.kind = OpKind::TransposeLast2;
    call.out_shape = a.shape();
    std::swap(call.out_shape[call.out_shape.size() - 1],
              call.out_shape[call.out_shape.size() - 2]);
    return dispatch(call, {a}, [](const std::vector<const Tensor*>& t) {
        return ops::transposeLast2(*t[0]);
    });
}

Value
reshape(const Value& a, Shape shape)
{
    SLAPO_CHECK(numelOf(shape) == a.tensor().numel(),
                "F::reshape: cannot view " << shapeToString(a.shape())
                                           << " as " << shapeToString(shape));
    OpCall call;
    call.kind = OpKind::Reshape;
    call.out_shape = shape;
    call.is_view = true;
    call.attrs.emplace_back("shape", std::vector<int64_t>(shape));
    return dispatch(call, {a}, [shape](const std::vector<const Tensor*>& t) {
        return t[0]->reshape(shape);
    });
}

Value
permute(const Value& a, std::vector<int64_t> perm)
{
    SLAPO_CHECK(perm.size() == a.shape().size(), "F::permute: rank mismatch");
    OpCall call;
    call.kind = OpKind::Permute;
    call.out_shape.resize(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
        call.out_shape[i] = a.shape()[perm[i]];
    }
    call.attrs.emplace_back("perm", perm);
    return dispatch(call, {a}, [perm](const std::vector<const Tensor*>& t) {
        return ops::permute(*t[0], perm);
    });
}

Value
concat(const std::vector<Value>& parts, int64_t axis)
{
    SLAPO_CHECK(!parts.empty(), "F::concat: no inputs");
    const int64_t rank = static_cast<int64_t>(parts[0].shape().size());
    const int64_t ax = axis < 0 ? axis + rank : axis;
    SLAPO_CHECK(ax >= 0 && ax < rank, "F::concat: bad axis " << axis);
    OpCall call;
    call.kind = OpKind::Concat;
    call.out_shape = parts[0].shape();
    int64_t total = 0;
    for (const Value& v : parts) {
        total += v.shape()[ax];
    }
    call.out_shape[ax] = total;
    call.attrs.emplace_back("axis", ax);
    return dispatch(call, parts, [ax](const std::vector<const Tensor*>& t) {
        std::vector<Tensor> tensors;
        tensors.reserve(t.size());
        for (const Tensor* p : t) tensors.push_back(*p);
        return ops::concat(tensors, ax);
    });
}

Value
narrow(const Value& a, int64_t axis, int64_t start, int64_t length)
{
    const int64_t rank = static_cast<int64_t>(a.shape().size());
    const int64_t ax = axis < 0 ? axis + rank : axis;
    SLAPO_CHECK(ax >= 0 && ax < rank, "F::narrow: bad axis " << axis);
    SLAPO_CHECK(start >= 0 && start + length <= a.shape()[ax],
                "F::narrow: slice out of range");
    OpCall call;
    call.kind = OpKind::Narrow;
    call.out_shape = a.shape();
    call.out_shape[ax] = length;
    call.attrs.emplace_back("axis", ax);
    call.attrs.emplace_back("start", start);
    call.attrs.emplace_back("length", length);
    return dispatch(call, {a},
                    [ax, start, length](const std::vector<const Tensor*>& t) {
                        return ops::narrow(*t[0], ax, start, length);
                    });
}

Value
embedding(const Value& ids, const Value& table)
{
    SLAPO_CHECK(table.shape().size() == 2, "F::embedding: table must be 2-D");
    OpCall call;
    call.kind = OpKind::EmbeddingOp;
    call.out_shape = ids.shape();
    call.out_shape.push_back(table.shape()[1]);
    return dispatch(call, {ids, table},
                    [](const std::vector<const Tensor*>& t) {
                        return ops::embedding(*t[0], *t[1]);
                    });
}

Value
crossEntropy(const Value& logits, const Value& targets)
{
    OpCall call;
    call.kind = OpKind::CrossEntropyOp;
    call.out_shape = {1};
    call.flops = 8.0 * static_cast<double>(logits.tensor().numel());
    return dispatch(call, {logits, targets},
                    [](const std::vector<const Tensor*>& t) {
                        return ops::crossEntropy(*t[0], *t[1]);
                    });
}

Value
mseLoss(const Value& pred, const Value& target)
{
    OpCall call;
    call.kind = OpKind::MseLossOp;
    call.out_shape = {1};
    call.flops = 3.0 * static_cast<double>(pred.tensor().numel());
    return dispatch(call, {pred, target},
                    [](const std::vector<const Tensor*>& t) {
                        return ops::mseLoss(*t[0], *t[1]);
                    });
}

Value
conv2d(const Value& x, const Value& w, int64_t stride, int64_t pad)
{
    const Shape& sx = x.shape();
    const Shape& sw = w.shape();
    SLAPO_CHECK(sx.size() == 4 && sw.size() == 4, "F::conv2d: NCHW/OIHW only");
    SLAPO_CHECK(sx[1] == sw[1], "F::conv2d: channel mismatch");
    const int64_t ho = (sx[2] + 2 * pad - sw[2]) / stride + 1;
    const int64_t wo = (sx[3] + 2 * pad - sw[3]) / stride + 1;
    OpCall call;
    call.kind = OpKind::Conv2dOp;
    call.out_shape = {sx[0], sw[0], ho, wo};
    call.flops = 2.0 * static_cast<double>(numelOf(call.out_shape)) *
                 static_cast<double>(sw[1] * sw[2] * sw[3]);
    call.attrs.emplace_back("stride", stride);
    call.attrs.emplace_back("pad", pad);
    return dispatch(call, {x, w},
                    [stride, pad](const std::vector<const Tensor*>& t) {
                        return ops::conv2d(*t[0], *t[1], stride, pad);
                    });
}

Value
batchNorm2d(const Value& x, const Value& gamma, const Value& beta, double eps)
{
    OpCall call;
    call.kind = OpKind::BatchNormOp;
    call.out_shape = x.shape();
    call.flops = 8.0 * static_cast<double>(x.tensor().numel());
    call.attrs.emplace_back("eps", eps);
    return dispatch(call, {x, gamma, beta},
                    [eps](const std::vector<const Tensor*>& t) {
                        return ops::batchNorm2d(*t[0], *t[1], *t[2],
                                                static_cast<float>(eps));
                    });
}

Value
globalAvgPool(const Value& x)
{
    SLAPO_CHECK(x.shape().size() == 4, "F::globalAvgPool: NCHW only");
    OpCall call;
    call.kind = OpKind::GlobalAvgPoolOp;
    call.out_shape = {x.shape()[0], x.shape()[1]};
    call.flops = static_cast<double>(x.tensor().numel());
    return dispatch(call, {x}, [](const std::vector<const Tensor*>& t) {
        return ops::globalAvgPool(*t[0]);
    });
}

Value
identity(const Value& a)
{
    OpCall call;
    call.kind = OpKind::Identity;
    call.out_shape = a.shape();
    call.is_view = true;
    return dispatch(call, {a}, [](const std::vector<const Tensor*>& t) {
        return t[0]->clone();
    });
}

namespace {

Value
collective(OpKind kind, const Value& x, int64_t axis)
{
    DistContext* dc = DistContext::current();
    const int ws = dc ? dc->world_size : 1;

    Shape out_shape = x.shape();
    if (kind == OpKind::AllGather) {
        const int64_t ax = axis < 0 ? axis + out_shape.size() : axis;
        out_shape[ax] *= ws;
    } else if (kind == OpKind::ReduceScatter) {
        const int64_t ax = axis < 0 ? axis + out_shape.size() : axis;
        SLAPO_CHECK(out_shape[ax] % ws == 0,
                    "reduce_scatter: axis extent " << out_shape[ax]
                                                   << " not divisible by world "
                                                   << ws);
        out_shape[ax] /= ws;
    }

    if (TracingState* ts = TracingState::current()) {
        Node* node =
            ts->graph()->createNode(NodeKind::CallOp, opKindName(kind));
        node->setOp(kind);
        node->addInput(x.node());
        node->setAttr("axis", axis);
        node->setShapes({out_shape});
        return Value(Tensor::meta(out_shape), node);
    }

    if (CostRecorder* prof = CostRecorder::current()) {
        // Payload convention: the *full* tensor being exchanged — the
        // gathered output for all-gather, the reduced input otherwise —
        // so ring-cost formulas apply their (n-1)/n factors uniformly.
        const double payload =
            kind == OpKind::AllGather
                ? static_cast<double>(numelOf(out_shape))
                : static_cast<double>(x.tensor().numel());
        prof->recordComm(opKindName(kind), payload);
    }

    if (ws == 1 || !x.tensor().materialized()) {
        if (kind == OpKind::AllGather && ws > 1) {
            return Value(Tensor::meta(out_shape));
        }
        return ws == 1 ? Value(x.tensor().clone())
                       : Value(Tensor::meta(out_shape));
    }

    SLAPO_CHECK(dc->group != nullptr,
                "collective " << opKindName(kind)
                              << " requires a live ProcessGroup on this thread");
    switch (kind) {
      case OpKind::AllReduce:
        return Value(dc->group->allReduce(dc->rank, x.tensor()));
      case OpKind::AllGather:
        return Value(dc->group->allGather(dc->rank, x.tensor(), axis));
      case OpKind::ReduceScatter:
        return Value(dc->group->reduceScatter(dc->rank, x.tensor(), axis));
      default:
        SLAPO_THROW("not a collective op");
    }
}

} // namespace

Value
allReduce(const Value& x)
{
    return collective(OpKind::AllReduce, x, -1);
}

Value
allGather(const Value& x, int64_t axis)
{
    return collective(OpKind::AllGather, x, axis);
}

Value
reduceScatter(const Value& x, int64_t axis)
{
    return collective(OpKind::ReduceScatter, x, axis);
}

} // namespace F
} // namespace nn
} // namespace slapo
