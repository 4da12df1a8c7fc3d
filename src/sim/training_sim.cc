#include "sim/training_sim.h"

#include <algorithm>

#include "core/pipeline.h"
#include "core/schedule.h"
#include "obs/mem_profiler.h"
#include "runtime/dist_executor.h"

namespace slapo {
namespace sim {

TrainingSimulator::TrainingSimulator(const ClusterSpec& cluster,
                                     double bytes_per_element)
    : cluster_(cluster),
      bytes_per_element_(bytes_per_element),
      cost_model_(cluster, bytes_per_element)
{
}

nn::Profile
TrainingSimulator::profileModel(const nn::Module& model,
                                const std::vector<Shape>& input_shapes,
                                int tp) const
{
    // Rank 0's view of the model: clone and narrow sharded parameters.
    nn::ModulePtr replica = model.clone();
    if (tp > 1) {
        runtime::DistExecutor::shardParamsForRank(*replica, 0, tp);
    }

    nn::DistContext dist;
    dist.rank = 0;
    dist.world_size = tp;
    dist.group = nullptr; // meta profiling: collectives are accounted only

    nn::CostRecorder recorder(bytes_per_element_);
    {
        nn::DistGuard dist_guard(&dist);
        nn::CostRecorderGuard recorder_guard(&recorder);
        std::vector<nn::Value> inputs;
        inputs.reserve(input_shapes.size());
        for (const Shape& s : input_shapes) {
            inputs.emplace_back(Tensor::meta(s));
        }
        replica->call(inputs);
    }
    return recorder.takeProfile();
}

StepStats
TrainingSimulator::simulate(const nn::Module& model, const ShapeFn& shapes,
                            const ParallelConfig& config,
                            const ProfileTransform& transform) const
{
    SLAPO_CHECK(config.worldSize() == cluster_.worldSize(),
                "simulate: tp*pp*dp = " << config.worldSize()
                                        << " != cluster world "
                                        << cluster_.worldSize());
    SLAPO_CHECK(config.micro_batch >= 1 && config.grad_accum >= 1,
                "simulate: bad batch configuration");

    // Honor .pipeline_split() annotations when present: the bottleneck
    // stage paces the pipeline instead of an idealized even split.
    if (config.pp > 1) {
        bool annotated = false;
        for (auto& [path, m] :
             const_cast<nn::Module&>(model).namedModules()) {
            annotated |= m->meta().pipeline_split_after;
        }
        if (annotated) {
            return simulateAnnotatedPipeline(model, shapes, config, transform);
        }
    }

    StepStats stats;
    stats.config = config;
    stats.capacity = cluster_.device.mem_capacity;

    nn::Profile profile =
        profileModel(model, shapes(config.micro_batch), config.tp);
    if (transform) {
        profile = transform(std::move(profile));
    }

    // Rank-local parameter count: the TP replica's shapes are already
    // narrowed; pipeline stages take an even 1/pp share.
    nn::ModulePtr replica = model.clone();
    if (config.tp > 1) {
        runtime::DistExecutor::shardParamsForRank(*replica, 0, config.tp);
    }
    const double local_params =
        static_cast<double>(replica->numParams()) / config.pp;

    // --- phase times (per pipeline stage, per micro-batch) -----------------
    const double pp_scale = 1.0 / config.pp;
    double recompute = 0;
    const double fwd_compute =
        cost_model_.forwardComputeTime(profile) * pp_scale;
    const double bwd_compute =
        cost_model_.backwardComputeTime(profile, &recompute) * pp_scale;
    recompute *= pp_scale;

    // TP collectives: the TP group always sits inside one node in the
    // Megatron-style placement unless tp exceeds the node size.
    const bool tp_cross_node = config.tp > cluster_.gpus_per_node;
    const double tp_fwd = cost_model_.commTime(profile, config.tp,
                                               tp_cross_node, false) *
                          pp_scale;
    const double tp_bwd = cost_model_.commTime(profile, config.tp,
                                               tp_cross_node, true) *
                          pp_scale;

    const double f = fwd_compute + tp_fwd;  // one micro-batch forward
    const double b = bwd_compute + tp_bwd;  // one micro-batch backward

    const int m = config.grad_accum;

    // Inter-stage activation sends: one boundary tensor per micro-batch
    // per direction. Use the largest single activation as the boundary
    // size estimate (a [mb, seq, hidden] hidden-state tensor).
    double boundary_bytes = 0;
    for (const nn::KernelRecord& k : profile.kernels) {
        boundary_bytes = std::max(boundary_bytes, k.activation_bytes);
    }
    double p2p_time = 0;
    if (config.pp > 1) {
        // PP neighbours sit gpus-per-node apart when TP fills the node.
        const bool pp_cross_node =
            config.tp * config.pp > cluster_.gpus_per_node;
        const double link = pp_cross_node ? cluster_.inter_node_bw
                                          : cluster_.intra_node_bw;
        p2p_time = 2.0 * boundary_bytes / link + cluster_.comm_latency;
    }

    // Pipeline timing: m micro-batches over pp stages. 1F1B and GPipe
    // share the (m + pp - 1) critical-path bubble term.
    const double per_micro = f + b + p2p_time;
    const double compute_time =
        per_micro * (m + config.pp - 1);

    // --- data-parallel communication --------------------------------------
    // DP ranks are tp*pp apart; they cross nodes once tp*pp fills a node.
    const bool dp_cross_node =
        config.tp * config.pp * config.dp > cluster_.gpus_per_node &&
        config.dp > 1;
    const double param_bytes = local_params * bytes_per_element_;
    double dp_comm = 0;
    if (config.dp > 1) {
        if (config.zero_stage >= 3) {
            // ZeRO-3 gathers weights for every micro-batch's forward and
            // backward, and reduce-scatters gradients once. The forward
            // gathers prefetch against forward compute; a larger micro
            // batch therefore amortizes them — one reason the Fig. 11
            // optimum sits at the largest feasible batch.
            const double ag = cost_model_.collectiveTime(
                "all_gather", param_bytes, config.dp, dp_cross_node);
            const double fwd_comm = m * ag;
            const double bwd_comm =
                m * ag + cost_model_.collectiveTime("reduce_scatter",
                                                    param_bytes, config.dp,
                                                    dp_cross_node);
            dp_comm =
                std::max(fwd_comm - 0.5 * f * m, 0.3 * fwd_comm) +
                std::max(bwd_comm - 0.6 * b * m, 0.15 * bwd_comm);
        } else {
            // DDP / ZeRO-1/2: one gradient all-reduce per step,
            // overlapped with backward by bucketing.
            dp_comm = cost_model_.collectiveTime("all_reduce", param_bytes,
                                                 config.dp, dp_cross_node);
            dp_comm = std::max(dp_comm - 0.6 * b * m, 0.15 * dp_comm);
        }
    }

    // --- optimizer ---------------------------------------------------------
    // AdamW touches 16 B of state per local parameter (ZeRO shards it).
    double opt_params = local_params;
    if (config.zero_stage >= 1) {
        opt_params /= config.dp;
    }
    const double optimizer_time =
        (opt_params * 16.0) /
        (cluster_.device.mem_bandwidth * cluster_.device.bandwidth_efficiency);

    stats.phases.forward = f * m;
    stats.phases.backward = b * m;
    stats.phases.recompute = recompute * m;
    stats.phases.tp_comm = (tp_fwd + tp_bwd) * m;
    stats.phases.dp_comm = dp_comm;
    stats.phases.optimizer = optimizer_time;
    stats.step_time = compute_time + dp_comm + optimizer_time;

    // --- memory ------------------------------------------------------------
    MemoryModel memory_model(bytes_per_element_, config.zero_stage, config.dp);
    MemoryBreakdown mem = memory_model.stateMemory(*replica);
    mem.weights /= config.pp;
    mem.gradients /= config.pp;
    mem.optimizer_states /= config.pp;
    const int in_flight =
        config.pp == 1
            ? 1
            : (config.pipe_schedule == PipeSchedule::GPipe
                   ? m
                   : std::min(m, config.pp));
    mem.activations =
        memory_model.activationMemory(profile, in_flight) / config.pp;
    // CUDA context + framework workspace floor.
    const double workspace = 1.2e9;
    stats.memory = mem;
    stats.oom = mem.total() + workspace > cluster_.device.mem_capacity;
    // Side channel for the tuner's measured-vs-predicted comparison
    // (obs/mem_profiler.h): the model-state + activation prediction,
    // without the fixed workspace floor.
    obs::reportSimPeakBytes(mem.total());

    stats.throughput =
        stats.oom ? 0.0 : config.globalBatch() / stats.step_time;
    return stats;
}

StepStats
TrainingSimulator::simulateAnnotatedPipeline(
    const nn::Module& model, const ShapeFn& shapes,
    const ParallelConfig& config, const ProfileTransform& transform) const
{
    StepStats stats;
    stats.config = config;
    stats.capacity = cluster_.device.mem_capacity;

    // Rank-0 view with TP shards applied, then partition by annotations.
    nn::ModulePtr replica = model.clone();
    if (config.tp > 1) {
        runtime::DistExecutor::shardParamsForRank(*replica, 0, config.tp);
    }
    core::SchedulePtr schedule =
        core::Schedule::create(replica, std::max(2, config.worldSize()));
    nn::DistContext partition_dist;
    partition_dist.rank = 0;
    partition_dist.world_size = config.tp;
    std::vector<core::PipelineStage> stages;
    {
        // The container traces during partitioning must see the TP
        // context: sharded modules shape-propagate per-rank.
        nn::DistGuard guard(&partition_dist);
        stages = core::partitionPipeline(*schedule, shapes(config.micro_batch));
    }
    SLAPO_CHECK(static_cast<int>(stages.size()) == config.pp,
                "simulate: model has " << stages.size()
                                       << " annotated pipeline stages but "
                                          "config.pp = "
                                       << config.pp);

    // Profile each stage, chaining boundary shapes through the pipeline.
    nn::DistContext dist;
    dist.rank = 0;
    dist.world_size = config.tp;
    std::vector<nn::Profile> profiles;
    std::vector<double> stage_params;
    std::vector<Shape> boundary = shapes(config.micro_batch);
    double max_boundary_bytes = 0;
    {
        nn::DistGuard dist_guard(&dist);
        for (const core::PipelineStage& stage : stages) {
            nn::ModulePtr stage_module = stage.toModule();
            stage_params.push_back(
                static_cast<double>(stage_module->numParams()));
            nn::CostRecorder recorder(bytes_per_element_);
            std::vector<nn::Value> inputs;
            for (const Shape& s : boundary) {
                inputs.emplace_back(Tensor::meta(s));
            }
            std::vector<nn::Value> outputs;
            {
                nn::CostRecorderGuard guard(&recorder);
                outputs = stage_module->call(inputs);
            }
            boundary.clear();
            double bytes = 0;
            for (const nn::Value& v : outputs) {
                boundary.push_back(v.shape());
                bytes += static_cast<double>(v.tensor().numel()) *
                         bytes_per_element_;
            }
            max_boundary_bytes = std::max(max_boundary_bytes, bytes);
            nn::Profile profile = recorder.takeProfile();
            if (transform) {
                profile = transform(std::move(profile));
            }
            profiles.push_back(std::move(profile));
        }
    }

    // Per-stage times; the slowest stage paces every micro-batch slot.
    const bool tp_cross_node = config.tp > cluster_.gpus_per_node;
    const bool pp_cross_node = config.tp * config.pp > cluster_.gpus_per_node;
    const double link =
        pp_cross_node ? cluster_.inter_node_bw : cluster_.intra_node_bw;
    const double p2p_time =
        2.0 * max_boundary_bytes / link + cluster_.comm_latency;

    double bottleneck = 0;
    double sum_f = 0;
    double sum_b = 0;
    double sum_recompute = 0;
    double sum_tp = 0;
    for (const nn::Profile& profile : profiles) {
        double recompute = 0;
        const double f = cost_model_.forwardComputeTime(profile) +
                         cost_model_.commTime(profile, config.tp,
                                              tp_cross_node, false);
        const double b = cost_model_.backwardComputeTime(profile, &recompute) +
                         cost_model_.commTime(profile, config.tp,
                                              tp_cross_node, true);
        bottleneck = std::max(bottleneck, f + b + p2p_time);
        sum_f += f;
        sum_b += b;
        sum_recompute += recompute;
        sum_tp += cost_model_.commTime(profile, config.tp, tp_cross_node,
                                       false) +
                  cost_model_.commTime(profile, config.tp, tp_cross_node,
                                       true);
    }

    const int m = config.grad_accum;
    const double compute_time = bottleneck * (m + config.pp - 1);

    // DP communication / optimizer on the *largest* stage's parameters.
    const double max_params =
        *std::max_element(stage_params.begin(), stage_params.end());
    const bool dp_cross_node =
        config.tp * config.pp * config.dp > cluster_.gpus_per_node &&
        config.dp > 1;
    const double param_bytes = max_params * bytes_per_element_;
    double dp_comm = 0;
    if (config.dp > 1) {
        dp_comm = cost_model_.collectiveTime("all_reduce", param_bytes,
                                             config.dp, dp_cross_node);
        dp_comm = std::max(dp_comm - 0.6 * sum_b * m / config.pp,
                           0.15 * dp_comm);
    }
    double opt_params = max_params;
    if (config.zero_stage >= 1) {
        opt_params /= config.dp;
    }
    const double optimizer_time =
        (opt_params * 16.0) /
        (cluster_.device.mem_bandwidth * cluster_.device.bandwidth_efficiency);

    stats.phases.forward = sum_f / config.pp * m;
    stats.phases.backward = sum_b / config.pp * m;
    stats.phases.recompute = sum_recompute / config.pp * m;
    stats.phases.tp_comm = sum_tp / config.pp * m;
    stats.phases.dp_comm = dp_comm;
    stats.phases.optimizer = optimizer_time;
    stats.step_time = compute_time + dp_comm + optimizer_time;

    // Memory: the heaviest stage decides OOM.
    MemoryModel memory_model(bytes_per_element_, config.zero_stage, config.dp);
    double worst_total = 0;
    MemoryBreakdown worst;
    const int in_flight = config.pipe_schedule == PipeSchedule::GPipe
                              ? m
                              : std::min(m, config.pp);
    for (size_t i = 0; i < stages.size(); ++i) {
        MemoryBreakdown mem;
        mem.weights = stage_params[i] * bytes_per_element_;
        mem.gradients = mem.weights;
        mem.optimizer_states = stage_params[i] * 12.0;
        if (config.zero_stage >= 1) mem.optimizer_states /= config.dp;
        if (config.zero_stage >= 2) mem.gradients /= config.dp;
        if (config.zero_stage >= 3) mem.weights /= config.dp;
        mem.activations =
            memory_model.activationMemory(profiles[i], in_flight);
        if (mem.total() > worst_total) {
            worst_total = mem.total();
            worst = mem;
        }
    }
    const double workspace = 1.2e9;
    stats.memory = worst;
    stats.oom = worst_total + workspace > cluster_.device.mem_capacity;
    obs::reportSimPeakBytes(worst_total);
    stats.throughput =
        stats.oom ? 0.0 : config.globalBatch() / stats.step_time;
    return stats;
}

StepStats
TrainingSimulator::tuneMicroBatch(const nn::Module& model, const ShapeFn& shapes,
                                  ParallelConfig config, int max_micro_batch,
                                  int fixed_global_batch,
                                  const ProfileTransform& transform) const
{
    StepStats best;
    best.oom = true;
    best.config = config;
    for (int mb = 1; mb <= max_micro_batch; mb *= 2) {
        ParallelConfig c = config;
        c.micro_batch = mb;
        if (fixed_global_batch > 0) {
            const int per_rank = fixed_global_batch / c.dp;
            if (per_rank <= 0 || per_rank % mb != 0) {
                continue;
            }
            c.grad_accum = per_rank / mb;
        }
        StepStats stats = simulate(model, shapes, c, transform);
        if (stats.oom) {
            // Larger micro-batches only use more memory; stop scanning.
            if (!best.oom) break;
            continue;
        }
        if (best.oom || stats.throughput > best.throughput) {
            best = stats;
        }
    }
    return best;
}

} // namespace sim
} // namespace slapo
