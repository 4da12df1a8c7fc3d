#include "analysis/sharding.h"

#include <sstream>

#include "graph/graph.h"

namespace slapo {
namespace analysis {

namespace {

using graph::Node;
using graph::NodeKind;
using graph::OpKind;

std::string
joinPath(const std::string& base, const std::string& name)
{
    return base.empty() ? name : base + "." + name;
}

/** Shard spec with an effective (> 1) tensor-parallel degree, or null. */
const nn::ShardSpec*
effectiveSpec(const nn::Module& m, const std::string& pname)
{
    auto it = m.meta().sharded_params.find(pname);
    if (it == m.meta().sharded_params.end() || it->second.world_size <= 1) {
        return nullptr;
    }
    return &it->second;
}

bool
hasForwardSync(const nn::Module& m)
{
    for (const nn::SyncSpec& s : m.meta().syncs) {
        if (s.direction != nn::SyncDirection::Backward) {
            return true;
        }
    }
    return false;
}

} // namespace

DistState
DistState::sharded(int64_t axis, size_t rank)
{
    if (axis < 0) {
        axis += static_cast<int64_t>(rank);
    }
    DistState s;
    s.axis = axis;
    s.kind = (rank > 0 && axis == static_cast<int64_t>(rank) - 1)
                 ? Kind::ColSharded
                 : Kind::RowSharded;
    return s;
}

const char*
DistState::name() const
{
    switch (kind) {
      case Kind::Unknown: return "unknown";
      case Kind::Replicated: return "replicated";
      case Kind::RowSharded: return "row-sharded";
      case Kind::ColSharded: return "col-sharded";
      case Kind::PartialSum: return "partial-sum";
    }
    return "unknown";
}

namespace {

using Kind = DistState::Kind;

/**
 * Structural checks over the recorded shard / sync specs; these hold
 * regardless of dataflow and double as the `unshard()` cleanup oracle.
 */
void
structuralChecks(nn::Module& root, int world_size, Diagnostics& diags)
{
    for (auto& [path, m] : root.namedModules()) {
        for (const auto& [pname, spec] : m->meta().sharded_params) {
            if (!m->hasParam(pname)) {
                diags.add("SLP201", Severity::Error,
                          "shard spec names '" + pname +
                              "', which is not a parameter of this module",
                          path);
                continue;
            }
            const Shape& shape = m->paramTensor(pname).shape();
            if (spec.axis < 0 ||
                spec.axis >= static_cast<int64_t>(shape.size())) {
                diags.add("SLP201", Severity::Error,
                          "shard axis " + std::to_string(spec.axis) +
                              " out of range for parameter '" + pname +
                              "' of shape " + shapeToString(shape),
                          path);
                continue;
            }
            if (spec.world_size <= 1) {
                continue; // degenerate spec: a no-op shard
            }
            const int64_t extent = shape[spec.axis];
            const int64_t groups = spec.interleave * spec.world_size;
            if (groups <= 0 || extent % groups != 0) {
                diags.add("SLP202", Severity::Error,
                          "parameter '" + pname + "' axis " +
                              std::to_string(spec.axis) + " extent " +
                              std::to_string(extent) +
                              " is not divisible by interleave x world "
                              "size = " +
                              std::to_string(spec.interleave) + " x " +
                              std::to_string(spec.world_size),
                          path);
            }
            if (world_size > 1 && spec.world_size != world_size) {
                diags.add("SLP203", Severity::Error,
                          "parameter '" + pname + "' is sharded for world "
                          "size " +
                              std::to_string(spec.world_size) +
                              " but the schedule executes under world "
                              "size " +
                              std::to_string(world_size),
                          path);
            }
        }
        if (!m->meta().syncs.empty()) {
            bool any_shard = false;
            for (auto& [sub_path, sub] : m->namedModules()) {
                (void)sub_path;
                if (!sub->meta().sharded_params.empty()) {
                    any_shard = true;
                    break;
                }
            }
            if (!any_shard) {
                diags.add("SLP210", Severity::Error,
                          "module has " +
                              std::to_string(m->meta().syncs.size()) +
                              " .sync() point(s) but no sharded parameter "
                              "anywhere in its subtree — orphaned sync "
                              "(aggregating replicated values corrupts "
                              "them)",
                          path);
            }
            for (size_t i = 0; i < m->meta().syncs.size(); ++i) {
                for (size_t j = i + 1; j < m->meta().syncs.size(); ++j) {
                    const nn::SyncSpec& a = m->meta().syncs[i];
                    const nn::SyncSpec& b = m->meta().syncs[j];
                    if (a.direction == b.direction && a.kind == b.kind &&
                        a.axis == b.axis) {
                        diags.add("SLP220", Severity::Warning,
                                  "duplicate .sync() spec applied twice at "
                                  "the same point",
                                  path);
                    }
                }
            }
        }
    }
}

/** The lattice dataflow walker (world_size > 1 only). */
class Walker
{
  public:
    Walker(int world_size, Diagnostics& diags)
        : world_size_(world_size), diags_(diags)
    {
    }

    /**
     * Analyze a module whose real input distribution the caller knows
     * (or Unknown). Applies the module's own forward `.sync()` points,
     * mirroring nn::Module::call().
     */
    DistState analyzeModule(const std::string& path, nn::Module& m,
                            const std::vector<DistState>& inputs,
                            bool ancestor_fwd);

    /**
     * Analyze a module in an unknown context (container child): inputs
     * Unknown, and a PartialSum output with no enclosing forward sync is
     * an escape error (SLP231).
     */
    void analyzeOrphan(const std::string& path, nn::Module& m,
                       bool ancestor_fwd);

  private:
    DistState inputAt(const std::vector<DistState>& in, size_t i) const
    {
        return i < in.size() ? in[i] : DistState::unknown();
    }

    DistState transferLeaf(const std::string& path, nn::Module& m,
                           const std::vector<DistState>& inputs);
    DistState analyzeGraph(const std::string& path, nn::Module& m,
                           const graph::Graph& graph,
                           const std::vector<DistState>& inputs,
                           bool ancestor_fwd);
    DistState transferOp(const Node* node,
                         const std::vector<DistState>& inputs,
                         const std::string& path);
    DistState applySyncs(const std::string& path, nn::Module& m,
                         DistState state);
    DistState applyCollective(OpKind kind, int64_t axis, DistState state,
                              const std::string& path, const Node* node);

    void reportPartialConsumer(const std::string& path, const Node* node,
                               const std::string& what)
    {
        Diagnostic& d = diags_.add(
            "SLP230", Severity::Error,
            "partial-sum value consumed by " + what +
                " — the cross-rank sum has not been aggregated; insert "
                ".sync(Forward) at the producing module first",
            path);
        if (node != nullptr) {
            d.node = node->name();
            d.node_id = node->id();
            d.primitive = node->provenance().primitive;
        }
    }

    void reportShardMismatch(const std::string& path, const Node* node,
                             const std::string& what)
    {
        Diagnostic& d = diags_.add(
            "SLP232", Severity::Error,
            what + " — a sharded value reaches an operation that needs "
                   "the full (replicated) tensor",
            path);
        if (node != nullptr) {
            d.node = node->name();
            d.node_id = node->id();
            d.primitive = node->provenance().primitive;
        }
    }

    int world_size_;
    Diagnostics& diags_;
};

void
Walker::analyzeOrphan(const std::string& path, nn::Module& m,
                      bool ancestor_fwd)
{
    const DistState out =
        analyzeModule(path, m, {DistState::unknown()}, ancestor_fwd);
    if (out.is(Kind::PartialSum) && !ancestor_fwd) {
        diags_.add("SLP231", Severity::Error,
                   "module output is a partial sum and no enclosing "
                   "module aggregates it — missing .sync(Forward) after "
                   ".shard()",
                   path);
    }
}

DistState
Walker::analyzeModule(const std::string& path, nn::Module& m,
                      const std::vector<DistState>& inputs,
                      bool ancestor_fwd)
{
    const bool fwd_here = ancestor_fwd || hasForwardSync(m);
    DistState out;
    if (m.meta().traced_graph) {
        out = analyzeGraph(path, m, *m.meta().traced_graph, inputs,
                           fwd_here);
    } else if (m.typeName() == "Sequential") {
        DistState s = inputAt(inputs, 0);
        for (const auto& [name, child] : m.children()) {
            s = analyzeModule(joinPath(path, name), *child, {s}, fwd_here);
        }
        out = s;
    } else if (m.children().empty()) {
        out = transferLeaf(path, m, inputs);
    } else {
        // Unknown container: children are checked independently (their
        // own shard/sync pairing must close locally); the container's
        // output cannot be tracked.
        for (const auto& [name, child] : m.children()) {
            analyzeOrphan(joinPath(path, name), *child, fwd_here);
        }
        out = DistState::unknown();
    }

    // Direction check: a partial-sum output with only backward syncs is
    // almost certainly a misdirected `.sync()`.
    if (out.is(Kind::PartialSum) && !m.meta().syncs.empty() &&
        !hasForwardSync(m)) {
        diags_.add("SLP211", Severity::Warning,
                   "module output is a partial sum but every .sync() here "
                   "is backward-only — the forward value stays "
                   "unaggregated",
                   path);
    }
    return applySyncs(path, m, out);
}

DistState
Walker::transferLeaf(const std::string& path, nn::Module& m,
                     const std::vector<DistState>& inputs)
{
    const std::string& type = m.typeName();
    const DistState in = inputAt(inputs, 0);

    if (type == "Linear") {
        const nn::ShardSpec* spec = effectiveSpec(m, "weight");
        if (in.is(Kind::PartialSum)) {
            reportPartialConsumer(path, nullptr, "linear layer '" + path +
                                                     "'");
            return DistState::unknown();
        }
        if (spec == nullptr) {
            if (in.is(Kind::ColSharded)) {
                reportShardMismatch(path, nullptr,
                                    "column-sharded activation fed into "
                                    "the unsharded linear layer '" +
                                        path + "'");
                return DistState::unknown();
            }
            return in; // replicated/row-sharded/unknown pass through
        }
        if (spec->axis == 0) { // column-parallel: output features split
            if (in.is(Kind::ColSharded)) {
                reportShardMismatch(path, nullptr,
                                    "column-sharded activation fed into "
                                    "the column-parallel linear layer '" +
                                        path +
                                        "' (its weight holds full input "
                                        "features)");
            }
            return DistState::sharded(-1, 2);
        }
        // axis 1: row-parallel — needs the column-sharded activation,
        // produces a partial sum.
        if (in.is(Kind::Replicated)) {
            reportShardMismatch(
                path, nullptr,
                "replicated activation fed into the row-parallel linear "
                "layer '" +
                    path + "' (its weight holds a slice of the input "
                           "features)");
        }
        return DistState::partial();
    }
    if (type == "Embedding" || type == "PositionalEmbedding") {
        const nn::ShardSpec* spec = effectiveSpec(m, "weight");
        if (in.is(Kind::PartialSum)) {
            reportPartialConsumer(path, nullptr, "embedding lookup '" +
                                                     path + "'");
            return DistState::unknown();
        }
        if (spec != nullptr && spec->axis == 0) {
            return DistState::partial(); // masked vocab-parallel lookup
        }
        if (spec != nullptr) {
            return DistState::sharded(-1, 2);
        }
        return in.is(Kind::Replicated) ? DistState::replicated()
                                       : DistState::unknown();
    }
    if (type == "VocabParallelLinear") {
        if (in.is(Kind::PartialSum)) {
            reportPartialConsumer(path, nullptr,
                                  "vocab-parallel head '" + path + "'");
            return DistState::unknown();
        }
        if (in.is(Kind::ColSharded)) {
            reportShardMismatch(path, nullptr,
                                "column-sharded activation fed into the "
                                "vocab-parallel head '" +
                                    path + "'");
            return DistState::unknown();
        }
        // Gathers its own output internally: always full logits.
        return in.is(Kind::Replicated) ? DistState::replicated()
                                       : DistState::unknown();
    }
    if (type == "LayerNorm" || type == "BatchNorm2d") {
        if (in.is(Kind::PartialSum)) {
            reportPartialConsumer(path, nullptr,
                                  "normalization layer '" + path + "'");
            return DistState::unknown();
        }
        if (in.is(Kind::ColSharded)) {
            reportShardMismatch(path, nullptr,
                                "normalization layer '" + path +
                                    "' would normalize over a sliced "
                                    "feature axis");
            return DistState::unknown();
        }
        return in;
    }
    if (type == "GELU" || type == "ReLU" || type == "TanhAct" ||
        type == "Dropout" || type == "FusedBiasGelu") {
        if (in.is(Kind::PartialSum)) {
            reportPartialConsumer(path, nullptr,
                                  "the non-linear op '" + type + "' at '" +
                                      path + "'");
            return DistState::unknown();
        }
        return in;
    }
    // Unknown leaf (attention cores, custom modules): cannot transfer.
    return DistState::unknown();
}

DistState
Walker::applyCollective(OpKind kind, int64_t axis, DistState state,
                        const std::string& path, const Node* node)
{
    auto warnRedundant = [&](const std::string& msg) {
        Diagnostic& d = diags_.add("SLP220", Severity::Warning, msg, path);
        if (node != nullptr) {
            d.node = node->name();
            d.node_id = node->id();
            d.primitive = node->provenance().primitive;
        }
    };
    auto errKind = [&](const std::string& msg) {
        Diagnostic& d = diags_.add("SLP212", Severity::Error, msg, path);
        if (node != nullptr) {
            d.node = node->name();
            d.node_id = node->id();
            d.primitive = node->provenance().primitive;
        }
    };

    switch (kind) {
      case OpKind::AllReduce:
        if (state.is(Kind::PartialSum)) {
            return DistState::replicated();
        }
        if (state.is(Kind::Replicated)) {
            warnRedundant("all-reduce of an already-replicated value — "
                          "redundant sync (and the sum scales the value "
                          "by world size)");
            return DistState::unknown();
        }
        if (state.is(Kind::RowSharded) || state.is(Kind::ColSharded)) {
            errKind("all-reduce of a sharded value sums ranks holding "
                    "*different* slices; use all_gather to reassemble "
                    "shards");
            return DistState::unknown();
        }
        return DistState::replicated();
      case OpKind::AllGather:
        if (state.is(Kind::PartialSum)) {
            errKind("all-gather cannot aggregate a partial sum — the "
                    "ranks hold addends, not slices; use all_reduce");
            return DistState::unknown();
        }
        if (state.is(Kind::Replicated)) {
            warnRedundant("all-gather of an already-replicated value — "
                          "redundant sync (concatenates identical "
                          "copies)");
            return DistState::unknown();
        }
        if (state.is(Kind::RowSharded) && axis >= 0 && state.axis != axis) {
            errKind("all-gather axis " + std::to_string(axis) +
                    " does not match the shard axis " +
                    std::to_string(state.axis));
            return DistState::unknown();
        }
        return DistState::replicated();
      case OpKind::ReduceScatter:
        if (state.is(Kind::RowSharded) || state.is(Kind::ColSharded)) {
            errKind("reduce-scatter of an already-sharded value");
            return DistState::unknown();
        }
        if (state.is(Kind::Replicated)) {
            warnRedundant("reduce-scatter of a replicated value — "
                          "redundant sync (scales the kept slice by "
                          "world size)");
            return DistState::unknown();
        }
        return axis < 0 ? DistState::sharded(-1, 2)
                        : DistState::sharded(axis, axis + 2);
      default:
        return state;
    }
}

DistState
Walker::applySyncs(const std::string& path, nn::Module& m, DistState state)
{
    for (const nn::SyncSpec& sync : m.meta().syncs) {
        if (sync.direction == nn::SyncDirection::Backward) {
            continue; // gradient-side; no forward dataflow effect
        }
        OpKind kind = OpKind::AllReduce;
        if (sync.kind == nn::SyncKind::AllGather) {
            kind = OpKind::AllGather;
        } else if (sync.kind == nn::SyncKind::ReduceScatter) {
            kind = OpKind::ReduceScatter;
        }
        state = applyCollective(kind, sync.axis, state, path, nullptr);
    }
    return state;
}

/** True if `node` is a 0/1 mask (range/causal mask through view ops). */
bool
isMaskLineage(const Node* node)
{
    for (int depth = 0; node != nullptr && depth < 16; ++depth) {
        if (node->kind() == NodeKind::CallOp) {
            switch (node->op()) {
              case OpKind::RangeMask:
                return true;
              case OpKind::Reshape:
              case OpKind::Permute:
              case OpKind::Identity:
              case OpKind::TransposeLast2:
              case OpKind::Narrow:
                node = node->inputs().empty() ? nullptr : node->inputs()[0];
                continue;
              default:
                return false;
            }
        }
        return false;
    }
    return false;
}

DistState
Walker::transferOp(const Node* node, const std::vector<DistState>& in,
                   const std::string& path)
{
    const OpKind op = node->op();
    const DistState a = inputAt(in, 0);
    const DistState b = inputAt(in, 1);

    auto joinElementwise = [&](const DistState& x,
                               const DistState& y) -> DistState {
        if (x.kind == y.kind && (x.kind != Kind::RowSharded ||
                                 x.axis == y.axis)) {
            return x;
        }
        // Broadcasting makes "col-sharded" rank-relative: a [H/ws] bias
        // added to a [B,S,H/ws] activation is the same split.
        if (x.is(Kind::ColSharded) && y.is(Kind::ColSharded)) {
            return DistState::sharded(-1, 2);
        }
        if (x.is(Kind::Unknown) || y.is(Kind::Unknown)) {
            return DistState::unknown();
        }
        // Definite but different states: replicated + sharded mixes are
        // shape-incompatible at best, silently wrong at worst.
        if ((x.is(Kind::Replicated) &&
             (y.is(Kind::ColSharded) || y.is(Kind::RowSharded))) ||
            (y.is(Kind::Replicated) &&
             (x.is(Kind::ColSharded) || x.is(Kind::RowSharded)))) {
            // Broadcast against a replicated scalar-ish operand is fine;
            // we cannot separate that case statically, stay quiet.
            return DistState::unknown();
        }
        return DistState::unknown();
    };

    switch (op) {
      case OpKind::Add:
      case OpKind::Sub: {
        const bool pa = a.is(Kind::PartialSum);
        const bool pb = b.is(Kind::PartialSum);
        if (pa && pb) {
            return DistState::partial(); // sum of partials is partial
        }
        if (pa || pb) {
            const DistState& other = pa ? b : a;
            if (other.is(Kind::Unknown)) {
                // Cannot prove the other side full; stay partial so the
                // escape check still fires if nothing aggregates it.
                return DistState::partial();
            }
            reportPartialConsumer(path, node,
                                  "an add/sub against a full value (the "
                                  "other operand is not a partial sum)");
            return DistState::unknown();
        }
        return joinElementwise(a, b);
      }
      case OpKind::Mul:
      case OpKind::Div: {
        const bool pa = a.is(Kind::PartialSum);
        const bool pb = b.is(Kind::PartialSum);
        if (pa || pb) {
            // Masked vocab-parallel lookups multiply the partial
            // embedding rows by a 0/1 mask — linear, and thus safe.
            const Node* other_node =
                node->inputs().size() == 2
                    ? node->inputs()[pa ? 1 : 0]
                    : nullptr;
            if (op == OpKind::Mul && !(pa && pb) &&
                isMaskLineage(other_node)) {
                return DistState::partial();
            }
            reportPartialConsumer(path, node,
                                  std::string(op == OpKind::Mul
                                                  ? "a multiply"
                                                  : "a divide") +
                                      " (non-linear in the cross-rank "
                                      "sum)");
            return DistState::unknown();
        }
        return joinElementwise(a, b);
      }
      case OpKind::Scale:
      case OpKind::Identity:
        return a;
      case OpKind::AddScalar:
      case OpKind::Gelu:
      case OpKind::Relu:
      case OpKind::Tanh:
      case OpKind::Clamp:
      case OpKind::RangeMask:
      case OpKind::CausalMask:
      case OpKind::Dropout:
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node,
                                  "the non-linear op '" +
                                      node->signature() + "'");
            return DistState::unknown();
        }
        return a;
      case OpKind::Softmax:
      case OpKind::LayerNormOp:
      case OpKind::BatchNormOp:
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node,
                                  "the normalization op '" +
                                      node->signature() + "'");
            return DistState::unknown();
        }
        if (a.is(Kind::ColSharded)) {
            reportShardMismatch(path, node,
                                "'" + node->signature() +
                                    "' normalizes over a sliced feature "
                                    "axis");
            return DistState::unknown();
        }
        return a;
      case OpKind::RelPosBias:
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "a relative-position bias");
            return DistState::unknown();
        }
        return a;
      case OpKind::Attention: {
        // What the decomposed ops give: a partial q, k or v reaches a
        // score or context matmul; replicated ones stay replicated; a
        // head-split layout is not tracked through the head reshapes.
        const size_t operands = node->inputs().size() <= 2 ? 1 : 3;
        bool all_replicated = true;
        for (size_t i = 0; i < operands; ++i) {
            const DistState s = inputAt(in, i);
            if (s.is(Kind::PartialSum)) {
                reportPartialConsumer(path, node, "an attention op");
                return DistState::unknown();
            }
            all_replicated = all_replicated && s.is(Kind::Replicated);
        }
        return all_replicated ? DistState::replicated()
                              : DistState::unknown();
      }
      case OpKind::LinearOp: {
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "a linear projection");
            return DistState::unknown();
        }
        if (b.is(Kind::RowSharded) && b.axis == 0) { // column-parallel
            if (a.is(Kind::ColSharded)) {
                reportShardMismatch(path, node,
                                    "column-sharded activation into a "
                                    "column-parallel linear");
            }
            return DistState::sharded(-1, 2);
        }
        if (b.is(Kind::ColSharded)) { // weight (out, in) split on in
            if (a.is(Kind::Replicated)) {
                reportShardMismatch(path, node,
                                    "replicated activation into a "
                                    "row-parallel linear");
            }
            return DistState::partial();
        }
        if (b.is(Kind::Replicated)) {
            if (a.is(Kind::ColSharded)) {
                reportShardMismatch(path, node,
                                    "column-sharded activation into an "
                                    "unsharded linear");
                return DistState::unknown();
            }
            return a;
        }
        return DistState::unknown();
      }
      case OpKind::Matmul: {
        if (a.is(Kind::PartialSum) || b.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "a matmul");
            return DistState::unknown();
        }
        if (a.is(Kind::Replicated) && b.is(Kind::Replicated)) {
            return DistState::replicated();
        }
        if (a.is(Kind::ColSharded) && b.is(Kind::RowSharded)) {
            return DistState::partial(); // contraction over the shard
        }
        return DistState::unknown();
      }
      case OpKind::TransposeLast2:
      case OpKind::Permute:
      case OpKind::Reshape:
      case OpKind::Narrow:
        // Pure data movement: partial-ness survives; shard-axis tracking
        // through layout changes is out of scope, degrade to unknown.
        if (a.is(Kind::PartialSum) || a.is(Kind::Replicated)) {
            return a;
        }
        return DistState::unknown();
      case OpKind::Concat: {
        bool all_rep = !in.empty();
        bool all_partial = !in.empty();
        for (size_t i = 0; i < node->inputs().size(); ++i) {
            all_rep = all_rep && inputAt(in, i).is(Kind::Replicated);
            all_partial =
                all_partial && inputAt(in, i).is(Kind::PartialSum);
        }
        if (all_rep) {
            return DistState::replicated();
        }
        if (all_partial) {
            return DistState::partial();
        }
        return DistState::unknown();
      }
      case OpKind::EmbeddingOp: {
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "an embedding-ids input");
            return DistState::unknown();
        }
        if (b.is(Kind::RowSharded) && b.axis == 0) {
            return DistState::partial(); // vocab-parallel masked lookup
        }
        if (b.is(Kind::ColSharded)) {
            return DistState::sharded(-1, 2);
        }
        if (b.is(Kind::Replicated)) {
            return a.is(Kind::Replicated) ? DistState::replicated()
                                          : DistState::unknown();
        }
        return DistState::unknown();
      }
      case OpKind::CrossEntropyOp:
      case OpKind::MseLossOp:
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "a loss head");
            return DistState::unknown();
        }
        if (a.is(Kind::ColSharded) || a.is(Kind::RowSharded)) {
            reportShardMismatch(path, node,
                                "loss computed over a sharded "
                                "prediction");
            return DistState::unknown();
        }
        return a.is(Kind::Replicated) && b.is(Kind::Replicated)
                   ? DistState::replicated()
                   : DistState::unknown();
      case OpKind::Conv2dOp:
      case OpKind::GlobalAvgPoolOp:
        if (a.is(Kind::PartialSum)) {
            reportPartialConsumer(path, node, "a convolution/pooling op");
            return DistState::unknown();
        }
        return a.is(Kind::Replicated) ? DistState::replicated()
                                      : DistState::unknown();
      case OpKind::AllReduce:
      case OpKind::AllGather:
      case OpKind::ReduceScatter: {
        int64_t axis = node->hasAttr("axis") ? node->attrInt("axis") : -1;
        if (axis >= 0 && !node->shapes().empty()) {
            // normalize against the output rank for matching
            axis = axis < static_cast<int64_t>(node->shapes()[0].size())
                       ? axis
                       : -1;
        }
        return applyCollective(op, axis, a, path, node);
      }
    }
    return DistState::unknown();
}

DistState
Walker::analyzeGraph(const std::string& path, nn::Module& m,
                     const graph::Graph& graph,
                     const std::vector<DistState>& inputs, bool ancestor_fwd)
{
    std::map<const Node*, DistState> states;
    size_t placeholder_index = 0;
    DistState result = DistState::unknown();
    for (const Node* node : graph.nodes()) {
        DistState s = DistState::unknown();
        switch (node->kind()) {
          case NodeKind::Placeholder:
            s = inputAt(inputs, placeholder_index++);
            break;
          case NodeKind::GetParam: {
            nn::Module* owner =
                node->module() != nullptr ? node->module() : &m;
            const nn::ShardSpec* spec =
                effectiveSpec(*owner, node->target());
            if (spec != nullptr && !node->shapes().empty()) {
                s = DistState::sharded(spec->axis,
                                       node->shapes()[0].size());
            } else {
                s = DistState::replicated();
            }
            break;
          }
          case NodeKind::CallOp: {
            std::vector<DistState> op_in;
            op_in.reserve(node->inputs().size());
            for (const Node* input : node->inputs()) {
                auto it = states.find(input);
                op_in.push_back(it == states.end() ? DistState::unknown()
                                                   : it->second);
            }
            s = transferOp(node, op_in, path);
            break;
          }
          case NodeKind::CallModule: {
            std::vector<DistState> call_in;
            call_in.reserve(node->inputs().size());
            for (const Node* input : node->inputs()) {
                auto it = states.find(input);
                call_in.push_back(it == states.end()
                                      ? DistState::unknown()
                                      : it->second);
            }
            if (node->module() != nullptr) {
                s = analyzeModule(joinPath(path, node->target()),
                                  *node->module(), call_in, ancestor_fwd);
            }
            break;
          }
          case NodeKind::FusedOp: {
            std::vector<DistState> sub_in;
            sub_in.reserve(node->inputs().size());
            for (const Node* input : node->inputs()) {
                auto it = states.find(input);
                sub_in.push_back(it == states.end() ? DistState::unknown()
                                                    : it->second);
            }
            if (node->subgraph() != nullptr) {
                s = analyzeGraph(path, m, *node->subgraph(), sub_in,
                                 ancestor_fwd);
            }
            break;
          }
          case NodeKind::TupleGet:
            s = DistState::unknown();
            break;
          case NodeKind::Output:
            if (!node->inputs().empty()) {
                auto it = states.find(node->inputs()[0]);
                result = it == states.end() ? DistState::unknown()
                                            : it->second;
            }
            break;
        }
        states.emplace(node, s);
    }
    return result;
}

} // namespace

void
checkSharding(nn::Module& root, int world_size, Diagnostics& diags)
{
    structuralChecks(root, world_size, diags);
    if (world_size <= 1) {
        return; // no tensor-parallel group: the lattice is trivial
    }
    Walker walker(world_size, diags);
    const DistState out = walker.analyzeModule(
        "", root, {DistState::replicated()}, /*ancestor_fwd=*/false);
    if (out.is(DistState::Kind::PartialSum)) {
        diags.add("SLP231", Severity::Error,
                  "the model output is a partial sum — missing "
                  ".sync(Forward) after .shard()",
                  "");
    }
}

} // namespace analysis
} // namespace slapo
