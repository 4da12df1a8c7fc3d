#include "runtime/dist_executor.h"

#include <chrono>
#include <exception>
#include <thread>

#include "analysis/lint.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/failpoint.h"
#include "tensor/ops.h"

namespace slapo {
namespace runtime {

namespace {
const std::string kBaseline = "baseline";
} // namespace

DistExecutor::DistExecutor(int world_size, ProcessGroupOptions options)
    : world_size_(world_size), group_(world_size, options)
{
    SLAPO_CHECK(world_size >= 1, "DistExecutor: world size must be >= 1");
}

void
DistExecutor::shardParamsForRank(nn::Module& replica, int rank, int world_size)
{
    // Shard slices are this rank's parameter storage: tag them so the
    // peak report shows .shard() shrinking per-rank parameter bytes.
    obs::MemCategoryScope mem_cat(obs::MemCategory::Parameter);
    for (auto& [path, module] : replica.namedModules()) {
        for (const auto& [pname, spec] : module->meta().sharded_params) {
            // Register the slice under its full dotted path so the
            // provenance prefix lookup resolves it to .shard().
            obs::ModuleScope mem_path(path.empty() ? pname
                                                   : path + "." + pname);
            SLAPO_CHECK(spec.world_size == world_size,
                        "shard spec world size " << spec.world_size
                                                 << " != executor world "
                                                 << world_size);
            Tensor& param = module->paramTensor(pname);
            if (param.isMeta()) {
                Shape s = param.shape();
                s[spec.axis] /= world_size;
                module->setParamTensor(pname, Tensor::meta(s));
                continue;
            }
            const int64_t extent = param.size(spec.axis);
            const int64_t groups = spec.interleave;
            SLAPO_CHECK(extent % (groups * world_size) == 0,
                        "cannot shard axis extent " << extent << " into "
                                                    << groups << "x"
                                                    << world_size);
            const int64_t group_len = extent / groups;
            const int64_t shard_len = group_len / world_size;
            std::vector<Tensor> pieces;
            for (int64_t g = 0; g < groups; ++g) {
                pieces.push_back(ops::narrow(param, spec.axis,
                                             g * group_len + rank * shard_len,
                                             shard_len));
            }
            module->setParamTensor(
                pname, pieces.size() == 1 ? pieces[0]
                                          : ops::concat(pieces, spec.axis));
        }
        // Row-parallel Linear: an unsharded bias would be summed
        // world_size times by the output all-reduce; pre-scale it.
        auto wit = module->meta().sharded_params.find("weight");
        if (module->typeName() == "Linear" && wit != module->meta().sharded_params.end() &&
            wit->second.axis == 1 && module->hasParam("bias") &&
            module->meta().sharded_params.count("bias") == 0) {
            Tensor& bias = module->paramTensor("bias");
            if (bias.materialized()) {
                bias.scaleInPlace(1.0f / static_cast<float>(world_size));
            }
        }
    }
}

std::vector<nn::ModulePtr>
DistExecutor::replicate(const nn::Module& model) const
{
    // Static gate: the unsharded schedule must lint clean before any
    // replica is cloned or a parameter slice is cut. (namedModules is
    // non-const; the lint never mutates the model.)
    analysis::enforceLint(const_cast<nn::Module&>(model), world_size_,
                          "executor.replicate");

    std::vector<nn::ModulePtr> replicas;
    replicas.reserve(world_size_);
    for (int r = 0; r < world_size_; ++r) {
        nn::ModulePtr replica = model.clone();
        shardParamsForRank(*replica, r, world_size_);
        replicas.push_back(std::move(replica));
    }
    return replicas;
}

void
DistExecutor::run(const std::vector<nn::ModulePtr>& replicas, const RankFn& fn)
{
    SLAPO_CHECK(static_cast<int>(replicas.size()) == world_size_,
                "run: need one replica per rank");
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(world_size_);
    // Per-rank body wall time, filled in on successful completion; used
    // after the join to attribute each rank's unused window (thread
    // spawn latency, join wait) as executor overhead in step reports.
    std::vector<int64_t> body_walls(world_size_, -1);
    const auto run_start = std::chrono::steady_clock::now();
    for (int r = 0; r < world_size_; ++r) {
        threads.emplace_back([this, r, &replicas, &fn, &errors,
                              &body_walls] {
            // Each rank gets its own process row in the trace (pid 1+r;
            // pid 0 is the main process).
            obs::setThreadTrack(1 + r, "rank " + std::to_string(r));
            obs::setMemThreadRank(r);
            nn::DistContext context;
            context.rank = r;
            context.world_size = world_size_;
            context.group = &group_;
            // Pin the world epoch this thread belongs to: if the group
            // is elastically rebuilt while (buggy) stale threads are
            // still around, their deposits are rejected, not mixed in.
            context.membership_generation = group_.membershipGeneration();
            nn::DistGuard guard(&context);
            try {
                support::failpoint::hit("executor.rank", r);
                obs::TraceSpan span("executor.rank", "executor");
                if (span.live()) {
                    span.arg("rank", static_cast<int64_t>(r));
                }
                // Rank-body time the scopes inside do not see (engine
                // set-up and teardown, user loop code) is the body's own
                // row, so step reports attribute the whole body.
                obs::OpScope body("executor.body", kBaseline,
                                  {.self_time = true});
                fn(r, *replicas[r], group_);
                body_walls[r] = body.elapsedNs();
            } catch (const support::failpoint::RankLostError& e) {
                errors[r] = std::current_exception();
                // Permanent loss: mark the rank gone (survives the
                // post-join reset) and unblock its peers.
                group_.declareLost(r, e.what());
            } catch (const std::exception& e) {
                errors[r] = std::current_exception();
                // Contain the failure: unblock peers stuck waiting for
                // this rank in a collective.
                group_.abort("executor.rank", r, e.what());
            } catch (...) {
                errors[r] = std::current_exception();
                group_.abort("executor.rank", r, "unknown error");
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    // Attribute each rank's unused window — thread spawn latency before
    // its body started, join wait after it finished — as executor
    // overhead. One row per rank so the step report's per-rank mean
    // (profiler totals / world size) covers the full run() wall.
    const int64_t run_wall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count();
    for (int64_t body : body_walls) {
        if (body >= 0 && run_wall > body) {
            obs::profileOp("executor.spawn", "", kBaseline, run_wall - body);
        }
    }
    // Rethrow the *originating* failure: a non-CollectiveError if any
    // rank has one (victim ranks observe secondary CollectiveErrors),
    // else the first CollectiveError — all copies carry the origin's
    // (site, rank, generation) anyway.
    std::exception_ptr primary;
    std::exception_ptr first;
    for (auto& e : errors) {
        if (!e) {
            continue;
        }
        if (!first) {
            first = e;
        }
        if (!primary) {
            try {
                std::rethrow_exception(e);
            } catch (const CollectiveError&) {
            } catch (...) {
                primary = e;
            }
        }
    }
    if (first) {
        group_.reset(); // leave the group reusable for a retried step
        std::rethrow_exception(primary ? primary : first);
    }
}

std::vector<int>
DistExecutor::shrink()
{
    const std::vector<int> lost = group_.lostRanks();
    SLAPO_CHECK(!lost.empty(),
                "DistExecutor::shrink: no rank is declared lost");
    std::vector<int> survivors;
    survivors.reserve(static_cast<size_t>(world_size_) - lost.size());
    size_t li = 0;
    for (int r = 0; r < world_size_; ++r) {
        if (li < lost.size() && lost[li] == r) {
            ++li;
        } else {
            survivors.push_back(r);
        }
    }
    group_.rebuild(survivors);
    world_size_ = static_cast<int>(survivors.size());
    return survivors;
}

std::vector<std::vector<Tensor>>
DistExecutor::forward(const nn::Module& model, const std::vector<Tensor>& inputs)
{
    auto replicas = replicate(model);
    std::vector<std::vector<Tensor>> outputs(world_size_);
    run(replicas, [&](int rank, nn::Module& m, ProcessGroup&) {
        std::vector<nn::Value> values;
        values.reserve(inputs.size());
        for (const Tensor& t : inputs) {
            values.emplace_back(t);
        }
        for (nn::Value& v : m.call(values)) {
            outputs[rank].push_back(v.tensor());
        }
    });
    return outputs;
}

} // namespace runtime
} // namespace slapo
