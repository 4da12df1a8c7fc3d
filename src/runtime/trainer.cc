#include "runtime/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>
#include <optional>
#include <utility>

#include "obs/mem_profiler.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "support/failpoint.h"

namespace slapo {
namespace runtime {

namespace {

using StepClock = std::chrono::steady_clock;

double
msSince(StepClock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
               StepClock::now() - t0)
        .count();
}

const std::string kBaseline = "baseline";
const std::string kDataParallel = "data_parallel";

/**
 * What both trainers observe over one step: its wall time, the step
 * report's window (when step reports are on; disabled cost is the one
 * relaxed atomic load in stepReportsEnabled) and the in-step memory
 * window (when the memory profiler is on).
 */
struct StepWindows
{
    explicit StepWindows(int world) : world_size(world)
    {
        if (obs::stepReportsEnabled()) {
            report.emplace(world);
        }
        if (obs::memProfilingEnabled()) {
            mem.emplace();
        }
    }

    /**
     * Append the run-log step record of optimizer step `step`. When step
     * reports are on, build the step's report into `out` and return
     * true; the caller adds to it and writes it.
     */
    bool
    finish(int64_t step, const TrainStepStats& stats, obs::StepReport& out)
    {
        if (obs::RunLog* log = obs::runLog()) {
            obs::StepRecord record;
            record.step = step;
            record.loss = stats.loss;
            record.grad_norm = stats.grad_norm;
            record.micro_batches = stats.micro_batches;
            record.tokens = stats.tokens;
            record.step_ms = msSince(start);
            if (mem && mem->active()) {
                record.mem_peak_bytes = mem->peakBytes();
                record.mem_live_bytes = obs::memLiveBytes();
                record.mem_retained_bytes =
                    obs::metrics().alloc_pooled_bytes.get();
                record.mem_categories_json = mem->categoriesJson();
            } else {
                record.mem_peak_bytes = obs::metrics().tensor_live_bytes.peak();
            }
            record.world_size = world_size;
            log->logStep(record);
        }
        if (!report) {
            return false;
        }
        out = report->finish(step);
        return true;
    }

    int world_size;
    StepClock::time_point start = StepClock::now();
    std::optional<obs::StepReportBuilder> report;
    std::optional<obs::MemWindow> mem;
};

/**
 * Gradient-allreduce bucket size in bytes. SLAPO_BUCKET_BYTES overrides
 * the 4 MiB default; <= 0 disables coalescing (one allreduce per
 * parameter, the pre-bucketing behaviour). Re-read on every step so
 * tests can flip it without process-lifetime caching.
 */
int64_t
gradBucketBytes()
{
    const char* env = std::getenv("SLAPO_BUCKET_BYTES");
    if (env == nullptr || *env == '\0') {
        return int64_t{4} << 20;
    }
    return static_cast<int64_t>(std::strtoll(env, nullptr, 10));
}

/**
 * Average per-parameter gradients across ranks by packing them, in
 * parameter order, into flat fixed-size buckets and running one
 * allreduce per bucket instead of one per parameter. Packing is
 * element-wise, and allReduce sums every element independently in rank
 * order, so the result is bitwise identical to the per-parameter loop;
 * only the rendezvous count changes (#buckets instead of #params).
 * Each bucket records its own "pg.allreduce.bucket" flight-recorder
 * event with the bucket length as its shape.
 */
std::vector<Tensor>
bucketedGradAllReduce(ProcessGroup& group, int rank,
                      const std::vector<Tensor>& local, int world)
{
    // Everything allocated here is gradient storage except the flat
    // pack/reduce buckets, which are tagged comm-buffer below.
    obs::MemCategoryScope mem_cat(obs::MemCategory::Gradient);
    const float inv_world = 1.0f / static_cast<float>(world);
    const int64_t bucket_bytes = gradBucketBytes();
    std::vector<Tensor> grads;
    grads.reserve(local.size());
    if (bucket_bytes <= 0) {
        for (const Tensor& g : local) {
            Tensor r = group.allReduce(rank, g);
            r.scaleInPlace(inv_world);
            grads.push_back(std::move(r));
        }
        return grads;
    }
    const int64_t bucket_elems = std::max<int64_t>(
        1, bucket_bytes / static_cast<int64_t>(sizeof(float)));
    int64_t total = 0;
    for (const Tensor& g : local) {
        grads.push_back(Tensor::empty(g.shape()));
        total += g.numel();
    }
    // Pack cursor (param pp, offset pc) and unpack cursor (up, uc)
    // advance through the same flat element stream one bucket apart.
    size_t pp = 0, up = 0;
    int64_t pc = 0, uc = 0;
    for (int64_t off = 0; off < total; off += bucket_elems) {
        const int64_t n = std::min(bucket_elems, total - off);
        std::optional<Tensor> bucket_storage;
        {
            obs::MemCategoryScope bucket_cat(obs::MemCategory::CommBuffer);
            bucket_storage.emplace(Tensor::empty({n}));
        }
        Tensor& bucket = *bucket_storage;
        float* b = bucket.data();
        for (int64_t filled = 0; filled < n;) {
            const int64_t take = std::min(local[pp].numel() - pc, n - filled);
            std::memcpy(b + filled, local[pp].data() + pc,
                        static_cast<size_t>(take) * sizeof(float));
            filled += take;
            pc += take;
            if (pc == local[pp].numel()) {
                ++pp;
                pc = 0;
            }
        }
        std::optional<Tensor> reduced_storage;
        {
            obs::MemCategoryScope bucket_cat(obs::MemCategory::CommBuffer);
            reduced_storage.emplace(group.allReduceBucket(rank, bucket));
        }
        Tensor& reduced = *reduced_storage;
        reduced.scaleInPlace(inv_world);
        const float* r = reduced.data();
        for (int64_t drained = 0; drained < n;) {
            const int64_t take = std::min(grads[up].numel() - uc, n - drained);
            std::memcpy(grads[up].data() + uc, r + drained,
                        static_cast<size_t>(take) * sizeof(float));
            drained += take;
            uc += take;
            if (uc == grads[up].numel()) {
                ++up;
                uc = 0;
            }
        }
    }
    return grads;
}

/** Input elements consumed by one step (first tensor of each tuple —
 * the token ids for the language models trained here). */
int64_t
countTokens(const std::vector<std::vector<Tensor>>& batches)
{
    int64_t tokens = 0;
    for (const std::vector<Tensor>& inputs : batches) {
        if (!inputs.empty()) {
            tokens += inputs[0].numel();
        }
    }
    return tokens;
}

/** What a thrown step error says (for the run-log recovery record). */
std::string
describeException(const std::exception_ptr& error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

/** Deterministic (jitter-free) exponential backoff before restore sweep
 * `attempt` (1-based): 0 for the first sweep, then restore_backoff_ms
 * doubling per further sweep. */
int64_t
restoreBackoffMs(const RecoveryOptions& recovery, int attempt)
{
    if (attempt <= 1 || recovery.restore_backoff_ms <= 0) {
        return 0;
    }
    return recovery.restore_backoff_ms << (attempt - 2);
}

/**
 * The recovery state machine shared by both trainers
 * (docs/ROBUSTNESS.md): RUN a step; on failure classify the loss
 * (`on_rank_loss` shrinks the world if ranks are permanently gone),
 * RESTORE the newest loadable checkpoint (corrupt files are skipped;
 * up to max_restore_attempts sweeps with deterministic backoff) and
 * REPLAY from its step. Deterministic steps + bit-exact checkpoints
 * make the replayed trajectory identical to an uninterrupted run.
 * Exhausting retries or restore attempts emits a "recovery.giveup"
 * run-log record and rethrows the step's error.
 */
TrainRunStats
runWithRecovery(
    const RecoveryOptions& recovery, const BatchProvider& batches,
    int64_t num_steps,
    const std::function<TrainStepStats(const std::vector<std::vector<Tensor>>&)>&
        do_step,
    const std::function<CheckpointState(int64_t)>& capture,
    const std::function<void(const CheckpointState&)>& restore,
    const std::function<bool(const std::exception_ptr&)>& on_rank_loss)
{
    SLAPO_CHECK(batches != nullptr, "trainSteps: null batch provider");
    const bool enabled = !recovery.checkpoint_dir.empty();
    const std::filesystem::path dir(recovery.checkpoint_dir);
    if (enabled) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    auto save_at = [&](int64_t step) {
        obs::TraceSpan span("trainer.checkpoint", "trainer");
        if (span.live()) {
            span.arg("step", step);
        }
        // saveCheckpoint itself appends the "checkpoint.save" run-log
        // record (it knows path, bytes, and timing exactly).
        saveCheckpoint((dir / checkpointFileName(step)).string(),
                       capture(step));
    };

    TrainRunStats stats;
    auto give_up = [&](int restore_attempts, int64_t failed_step,
                       const std::string& error_text) {
        if (obs::RunLog* log = obs::runLog()) {
            obs::RunLogRecord record("recovery.giveup");
            record.num("restore_attempts",
                       static_cast<int64_t>(restore_attempts))
                .num("recoveries", static_cast<int64_t>(stats.recoveries))
                .num("failed_step", failed_step)
                .str("error", error_text);
            log->write(record);
        }
    };

    int64_t step = 0;
    int handler_failures = 0;
    while (step < num_steps) {
        if (enabled && recovery.checkpoint_every > 0 &&
            step % recovery.checkpoint_every == 0) {
            save_at(step);
        }
        std::exception_ptr pending;
        try {
            stats.last = do_step(batches(step));
            ++step;
            ++stats.steps_run;
            handler_failures = 0;
        } catch (...) {
            pending = std::current_exception();
        }
        // Failure handler. It may itself fail — a failpoint armed on an
        // elastic.* site, or another rank dying during the restore
        // sweep; each such failure loops back in as the new pending
        // error, bounded by max_retries consecutive handler failures.
        while (pending) {
            const std::exception_ptr original =
                std::exchange(pending, nullptr);
            const std::string error_text = describeException(original);
            const int64_t failed_step = step;
            if (!enabled) {
                std::rethrow_exception(original);
            }
            if (stats.recoveries >= recovery.max_retries ||
                handler_failures > recovery.max_retries) {
                give_up(0, failed_step, error_text);
                std::rethrow_exception(original);
            }
            obs::TraceSpan restore_span("trainer.restore", "trainer");
            int attempts = 0;
            int64_t restored_step = -1;
            try {
                if (on_rank_loss && on_rank_loss(original)) {
                    ++stats.elastic_rebuilds;
                }
                const int max_attempts =
                    std::max(1, recovery.max_restore_attempts);
                for (int attempt = 1;
                     attempt <= max_attempts && restored_step < 0;
                     ++attempt) {
                    ++attempts;
                    const int64_t backoff =
                        restoreBackoffMs(recovery, attempt);
                    if (backoff > 0) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(backoff));
                    }
                    auto checkpoints =
                        listCheckpoints(recovery.checkpoint_dir);
                    for (auto it = checkpoints.rbegin();
                         it != checkpoints.rend(); ++it) {
                        try {
                            // loadCheckpoint appends the
                            // "checkpoint.restore" run-log record.
                            CheckpointState state =
                                loadCheckpoint(it->second);
                            restore(state);
                            restored_step = state.step;
                            break;
                        } catch (const CheckpointError&) {
                            continue; // corrupt: fall back to older
                        }
                    }
                }
            } catch (...) {
                pending = std::current_exception();
                ++handler_failures;
                continue;
            }
            if (restored_step < 0) {
                give_up(attempts, failed_step, error_text);
                std::rethrow_exception(original);
            }
            step = restored_step;
            ++stats.recoveries;
            obs::metrics().recovery_restores.add(1);
            handler_failures = 0;
            if (obs::RunLog* log = obs::runLog()) {
                obs::RunLogRecord record("recovery");
                record.num("attempt", static_cast<int64_t>(stats.recoveries))
                    .num("failed_step", failed_step)
                    .str("error", error_text)
                    .num("restored_to_step", step);
                log->write(record);
            }
        }
    }
    if (enabled && recovery.checkpoint_every > 0) {
        save_at(num_steps); // durable final state for a later resume
    }
    return stats;
}

} // namespace

Trainer::Trainer(nn::ModulePtr model, AdamWConfig config,
                 RecoveryOptions recovery)
    : model_(std::move(model)), optimizer_(config),
      recovery_(std::move(recovery))
{
    SLAPO_CHECK(model_ != nullptr, "Trainer: null model");
    params_ = model_->namedParams();
    for (auto& [path, tensor] : params_) {
        SLAPO_CHECK(tensor->materialized(),
                    "Trainer: parameter '" << path
                                           << "' is meta; call "
                                              "initializeParams first");
        optimizer_.addParam(*tensor);
    }
}

TrainStepStats
Trainer::step(const std::vector<std::vector<Tensor>>& micro_batches)
{
    support::failpoint::hit("trainer.step");
    SLAPO_CHECK(!micro_batches.empty(), "Trainer: no micro-batches");
    obs::TraceSpan step_span("trainer.step", "trainer");
    StepWindows windows(/*world=*/1);
    TrainStepStats stats;
    stats.micro_batches = static_cast<int64_t>(micro_batches.size());
    stats.tokens = countTokens(micro_batches);

    std::vector<Tensor> grads;
    int64_t micro_index = 0;
    for (const std::vector<Tensor>& inputs : micro_batches) {
        obs::TraceSpan micro_span("trainer.micro_batch", "trainer");
        if (micro_span.live()) {
            micro_span.arg("micro_batch", micro_index);
        }
        ++micro_index;
        AutogradEngine engine;
        GradResult result = engine.run(*model_, inputs);
        stats.loss += result.outputs[0].at(0);
        stats.stored_activation_bytes =
            std::max(stats.stored_activation_bytes,
                     result.stored_activation_bytes);
        stats.recomputed_nodes += result.recomputed_nodes;
        // Gradient extraction / accumulation across micro-batches is
        // unscheduled trainer work: attribute it to baseline so step
        // reports cover it instead of leaving it in "other".
        obs::OpScope reduce("grad.reduce", kBaseline, {.category = "trainer"});
        if (grads.empty()) {
            for (auto& [path, tensor] : params_) {
                grads.push_back(AutogradEngine::gradFor(result, *tensor));
            }
        } else {
            for (size_t i = 0; i < params_.size(); ++i) {
                grads[i].addInPlace(
                    AutogradEngine::gradFor(result, *params_[i].second));
            }
        }
    }
    if (micro_batches.size() > 1) {
        // Averaging one micro-batch would multiply by 1.0f: no bit
        // changes, so skip the pass over every gradient.
        obs::OpScope reduce("grad.reduce", kBaseline, {.category = "trainer"});
        const float inv = 1.0f / static_cast<float>(micro_batches.size());
        for (Tensor& g : grads) {
            g.scaleInPlace(inv);
        }
    }
    {
        // Unscheduled step work: attribute explicitly to baseline so the
        // report's coverage includes the optimizer. The update's pass
        // also sums the gradient norm.
        obs::OpScope optim("optimizer.step", kBaseline,
                           {.span = "trainer.optim", .category = "trainer"});
        stats.grad_norm = optimizer_.step(grads);
    }
    stats.loss /= static_cast<double>(micro_batches.size());
    if (windows.finish(optimizer_.stepCount() - 1, stats, last_report_)) {
        obs::maybeWriteStepReport(last_report_);
    }
    return stats;
}

TrainRunStats
Trainer::trainSteps(const BatchProvider& batches, int64_t num_steps)
{
    return runWithRecovery(
        recovery_, batches, num_steps,
        [this](const std::vector<std::vector<Tensor>>& micros) {
            return step(micros);
        },
        [this](int64_t at_step) {
            return captureTrainerState(at_step, params_, optimizer_);
        },
        [this](const CheckpointState& state) {
            restoreTrainerState(state, params_, optimizer_);
        },
        nullptr); // single process: rank loss cannot happen
}

DataParallelTrainer::DataParallelTrainer(const nn::Module& model,
                                         int world_size, AdamWConfig config,
                                         RecoveryOptions recovery)
    : executor_(world_size), recovery_(std::move(recovery))
{
    // Pure data parallelism: every rank holds the full model. Combining
    // with tensor parallelism needs distinct DP/TP process groups, which
    // the performance simulator models; the numeric TP path is covered
    // by DistExecutor + AutogradEngine directly.
    for (auto& [path, m] : const_cast<nn::Module&>(model).namedModules()) {
        SLAPO_CHECK(m->meta().sharded_params.empty(),
                    "DataParallelTrainer: model has tensor-parallel shards "
                    "('" << path << "'); use DistExecutor for TP training");
    }
    replicas_ = executor_.replicate(model);
    base_world_ = world_size;
    for (int r = 0; r < world_size; ++r) {
        params_.push_back(replicas_[r]->namedParams());
        optimizers_.push_back(std::make_unique<AdamW>(config));
        for (auto& [path, tensor] : params_.back()) {
            SLAPO_CHECK(tensor->materialized(),
                        "DataParallelTrainer: parameter '"
                            << path << "' is meta; initialize before "
                                       "replicating");
            optimizers_.back()->addParam(*tensor);
        }
        // The data partition starts one shard per rank; elastic shrinks
        // reassign shards but never change base_world_ (the shard count).
        shard_map_.push_back({r});
        orig_rank_.push_back(r);
    }
}

TrainStepStats
DataParallelTrainer::step(
    const std::vector<std::vector<Tensor>>& per_shard_inputs)
{
    support::failpoint::hit("dp_trainer.step");
    obs::TraceSpan step_span("dp_trainer.step", "trainer");
    const int world = executor_.worldSize();
    StepWindows windows(world);
    SLAPO_CHECK(static_cast<int>(per_shard_inputs.size()) == base_world_,
                "DataParallelTrainer: need one input tuple per data shard ("
                    << base_world_ << "), got " << per_shard_inputs.size());
    std::vector<double> shard_losses(base_world_, 0.0);
    std::vector<int64_t> recomputed(world, 0);
    double grad_norm = 0.0; // written by rank 0 only

    executor_.run(replicas_, [&](int rank, nn::Module& replica,
                                 ProcessGroup& group) {
        // Run this rank's shards sequentially (gradient accumulation in
        // ascending shard order — one shard per rank until an elastic
        // shrink hands survivors orphaned shards), then average across
        // *shards* and step this rank's optimizer; identical updates
        // keep the replicas in lock-step. Distinct ranks write distinct
        // shard_losses slots, so no synchronization is needed.
        std::vector<Tensor> local;
        for (int shard : shard_map_[rank]) {
            AutogradEngine engine;
            GradResult result = engine.run(replica, per_shard_inputs[shard]);
            shard_losses[shard] = result.outputs[0].at(0);
            recomputed[rank] += result.recomputed_nodes;
            if (local.empty()) {
                local.reserve(params_[rank].size());
                for (auto& [path, tensor] : params_[rank]) {
                    local.push_back(AutogradEngine::gradFor(result, *tensor));
                }
            } else {
                for (size_t i = 0; i < params_[rank].size(); ++i) {
                    local[i].addInPlace(
                        AutogradEngine::gradFor(result,
                                                *params_[rank][i].second));
                }
            }
        }
        std::vector<Tensor> grads;
        {
            // The data-parallel gradient exchange is communication no
            // schedule primitive inserted: its own attribution bucket in
            // the step report. Scale by 1/#shards, not 1/#ranks: the
            // update is a mean over the fixed data partition, so the
            // math is well-defined at any (shrunken) world size.
            obs::OpScope exchange("grad.exchange", kDataParallel,
                                  {.span = "trainer.grad_allreduce",
                                   .category = "trainer"});
            grads = bucketedGradAllReduce(group, rank, local, base_world_);
        }
        obs::OpScope optim("optimizer.step", kBaseline,
                           {.span = "trainer.optim", .category = "trainer"});
        const double norm = optimizers_[rank]->step(grads);
        if (rank == 0) {
            // Post-allreduce grads are identical on every rank; rank 0's
            // norm is the global one.
            grad_norm = norm;
        }
    });

    TrainStepStats stats;
    stats.micro_batches = base_world_;
    stats.tokens = countTokens(per_shard_inputs);
    stats.grad_norm = grad_norm;
    // Sum losses in shard order — invariant across world sizes and
    // kernel thread counts.
    for (int s = 0; s < base_world_; ++s) {
        stats.loss += shard_losses[s];
    }
    for (int r = 0; r < world; ++r) {
        stats.recomputed_nodes += recomputed[r];
    }
    stats.loss /= base_world_;
    if (windows.finish(optimizers_[0]->stepCount() - 1, stats,
                       last_report_)) {
        // Straggler detection: attach the cross-rank min/max/mean/spread
        // of the collective counters (runs the same gather collectives
        // the report describes — only while reports are enabled).
        last_report_.per_rank_json = gatherMetrics().toJson();
        obs::maybeWriteStepReport(last_report_);
    }
    return stats;
}

obs::DistMetricsReport
DataParallelTrainer::gatherMetrics()
{
    const int world = executor_.worldSize();
    const std::vector<std::string> names = obs::distMetricNames();
    std::vector<std::vector<int64_t>> per_rank(world);

    executor_.run(replicas_, [&](int rank, nn::Module& /*replica*/,
                                 ProcessGroup& group) {
        const RankPgStats mine = group.rankStats(rank);
        const obs::Metrics& m = obs::metrics();
        const std::vector<int64_t> values = {
            mine.count,
            mine.wait_ns,
            mine.copy_ns,
            m.tensor_allocated_bytes.get(),
            m.tensor_live_bytes.peak(),
            m.pipeline_queue_wait_ns.get(),
        };
        // Move the packed snapshots through the group itself: the
        // aggregation uses (and therefore exercises) the same collective
        // path it reports on.
        const std::vector<float> packed = obs::packInt64s(values);
        Tensor mine_t = Tensor::fromValues(
            {1, static_cast<int64_t>(packed.size())}, packed);
        Tensor gathered = group.allGather(rank, mine_t, 0);
        if (rank == 0) {
            const float* data = gathered.data();
            const size_t floats_per_rank =
                names.size() * obs::kFloatsPerInt64;
            for (int r = 0; r < world; ++r) {
                per_rank[r] = obs::unpackInt64s(
                    data + static_cast<size_t>(r) * floats_per_rank,
                    names.size());
            }
        }
    });

    return obs::buildDistMetricsReport(names, per_rank);
}

bool
DataParallelTrainer::handleRankLoss(const std::exception_ptr& failure)
{
    if (!recovery_.elastic) {
        return false;
    }
    ProcessGroup& group = executor_.group();
    if (group.lostRanks().empty()) {
        // No loss declared. If the step died with a *current-world*
        // collective error, give the origin rank the liveness deadline
        // to be declared lost ("gone") before concluding it was merely
        // slow ("replay at the same world size"). Stale-generation
        // errors name ranks of a world that no longer exists, so their
        // origin is not consulted.
        int origin = -1;
        try {
            std::rethrow_exception(failure);
        } catch (const CollectiveError& e) {
            if (e.memberGeneration() == 0 ||
                e.memberGeneration() == group.membershipGeneration()) {
                origin = e.rank();
            }
        } catch (...) {
        }
        if (origin < 0 || origin >= executor_.worldSize() ||
            !group.confirmLost(origin, recovery_.liveness_deadline_ms)) {
            // Slow, not gone. Repair a possibly half-finished earlier
            // shrink (rebalanceShards is idempotent) and let the
            // same-world replay proceed.
            rebalanceShards();
            return false;
        }
    }
    elasticShrink();
    return true;
}

void
DataParallelTrainer::remapSurvivors(const std::vector<int>& survivors)
{
    std::vector<nn::ModulePtr> replicas;
    std::vector<std::unique_ptr<AdamW>> optimizers;
    std::vector<std::vector<std::pair<std::string, Tensor*>>> params;
    std::vector<std::vector<int>> shards;
    std::vector<int> orig;
    replicas.reserve(survivors.size());
    optimizers.reserve(survivors.size());
    params.reserve(survivors.size());
    shards.reserve(survivors.size());
    orig.reserve(survivors.size());
    for (int prev : survivors) {
        replicas.push_back(std::move(replicas_[prev]));
        optimizers.push_back(std::move(optimizers_[prev]));
        params.push_back(std::move(params_[prev]));
        shards.push_back(std::move(shard_map_[prev]));
        orig.push_back(orig_rank_[prev]);
    }
    replicas_ = std::move(replicas);
    optimizers_ = std::move(optimizers);
    params_ = std::move(params);
    shard_map_ = std::move(shards);
    orig_rank_ = std::move(orig);

    // Memory attribution after the shrink: a survivor's replica now
    // runs as a *new* rank index, so re-tag its live parameter storage
    // to the post-rebuild rank (orphaned shards inherited via shard_map_
    // reuse the survivor's own replica — no extra tensors to move).
    if (obs::memProfilingEnabled()) {
        for (size_t r = 0; r < params_.size(); ++r) {
            for (auto& [path, tensor] : params_[r]) {
                if (tensor->materialized()) {
                    obs::memRetagRank(tensor->storageKey(),
                                      static_cast<int>(r));
                }
            }
        }
    }
}

void
DataParallelTrainer::rebalanceShards()
{
    const int world = static_cast<int>(shard_map_.size());
    std::vector<char> assigned(base_world_, 0);
    for (const std::vector<int>& shards : shard_map_) {
        for (int s : shards) {
            assigned[s] = 1;
        }
    }
    for (int s = 0; s < base_world_; ++s) {
        if (assigned[s]) {
            continue;
        }
        // Orphaned by a lost rank: hand it to the least-loaded survivor
        // (ties → lowest rank) so accumulation work stays balanced and
        // the assignment is a pure function of (survivors, lost shards).
        int target = 0;
        for (int r = 1; r < world; ++r) {
            if (shard_map_[r].size() < shard_map_[target].size()) {
                target = r;
            }
        }
        shard_map_[target].push_back(s);
    }
    for (std::vector<int>& shards : shard_map_) {
        std::sort(shards.begin(), shards.end());
    }
}

void
DataParallelTrainer::elasticShrink()
{
    ProcessGroup& group = executor_.group();
    obs::TraceSpan span("elastic.rebuild", "trainer");
    const auto t0 = StepClock::now();
    const int old_world = executor_.worldSize();
    std::vector<int> lost_orig;
    // abort happened upstream (the failed step); from here every arrow
    // of the state machine — drain → agree-on-survivors/rebuild →
    // rebalance → resume — is failpoint-injectable, and a rank dying
    // *during* the rendezvous simply loops back into another shrink.
    while (true) {
        for (int r : group.lostRanks()) {
            lost_orig.push_back(orig_rank_[r]);
        }
        // Drain: all rank threads are already joined (DistExecutor::run
        // joins before rethrowing), so in-flight collectives have
        // settled; the site marks the arrow for fault injection.
        support::failpoint::hit("elastic.drain");
        support::failpoint::hit("elastic.rebuild");
        const std::vector<int> survivors = executor_.shrink();
        SLAPO_CHECK(!survivors.empty(),
                    "elastic recovery: every rank was lost");
        remapSurvivors(survivors);
        support::failpoint::hit("elastic.rebalance");
        rebalanceShards();
        // Survivor rendezvous: every new rank gathers the full original
        // id list through the *rebuilt* group and checks it against the
        // membership the main thread computed — the agree-on-survivors
        // barrier. Old-generation deposits are rejected by the group, so
        // agreement here is agreement about the new world.
        const std::vector<int> expected = orig_rank_;
        try {
            executor_.run(replicas_, [&](int rank, nn::Module&,
                                         ProcessGroup& g) {
                support::failpoint::hit("elastic.rendezvous", rank);
                Tensor mine = Tensor::fromValues(
                    {1, 1}, {static_cast<float>(expected[rank])});
                Tensor all = g.allGather(rank, mine, 0);
                for (size_t i = 0; i < expected.size(); ++i) {
                    SLAPO_CHECK(all.at(static_cast<int64_t>(i)) ==
                                    static_cast<float>(expected[i]),
                                "elastic rendezvous: membership "
                                "disagreement at new rank " << i);
                }
            });
        } catch (const support::failpoint::RankLostError&) {
            continue; // another rank died while agreeing: shrink again
        } catch (const CollectiveError&) {
            if (!group.lostRanks().empty()) {
                continue; // the rendezvous failed because a peer died
            }
            throw;
        }
        break;
    }
    std::sort(lost_orig.begin(), lost_orig.end());
    obs::metrics().elastic_rebuilds.add(1);
    obs::metrics().elastic_lost_ranks.add(
        static_cast<int64_t>(lost_orig.size()));
    if (span.live()) {
        span.arg("old_world", static_cast<int64_t>(old_world));
        span.arg("new_world", static_cast<int64_t>(executor_.worldSize()));
    }
    if (obs::RunLog* log = obs::runLog()) {
        std::string lost_json = "[";
        for (size_t i = 0; i < lost_orig.size(); ++i) {
            lost_json += (i ? "," : "") + std::to_string(lost_orig[i]);
        }
        lost_json += "]";
        obs::RunLogRecord record("elastic.rebuild");
        record.raw("lost_ranks", lost_json)
            .num("old_world", static_cast<int64_t>(old_world))
            .num("new_world", static_cast<int64_t>(executor_.worldSize()))
            .num("generation", group.membershipGeneration())
            .num("rebuild_ms", msSince(t0));
        log->write(record);
    }
}

TrainRunStats
DataParallelTrainer::trainSteps(const BatchProvider& batches,
                                int64_t num_steps)
{
    TrainRunStats stats = runWithRecovery(
        recovery_, batches, num_steps,
        [this](const std::vector<std::vector<Tensor>>& per_shard) {
            return step(per_shard);
        },
        // Replicas are in lock-step between steps, so rank 0's state is
        // the global state.
        [this](int64_t at_step) {
            return captureTrainerState(at_step, params_[0], *optimizers_[0],
                                       executor_.worldSize());
        },
        // A failed step can leave ranks diverged (some optimizers
        // stepped, some not); every rank restores the checkpoint in
        // parallel — re-synchronizing them — and the closing barrier
        // proves the whole (possibly shrunken) world came back: the
        // resume arrow. The per-rank "elastic.restore" site makes
        // death-during-restore injectable.
        [this](const CheckpointState& state) {
            executor_.run(replicas_, [&](int rank, nn::Module&,
                                         ProcessGroup& group) {
                support::failpoint::hit("elastic.restore", rank);
                restoreTrainerState(state, params_[rank], *optimizers_[rank]);
                group.barrier();
            });
        },
        [this](const std::exception_ptr& failure) {
            return handleRankLoss(failure);
        });
    if (obs::RunLog* log = obs::runLog()) {
        log->writeLine(gatherMetrics().toJson());
    }
    return stats;
}

} // namespace runtime
} // namespace slapo
