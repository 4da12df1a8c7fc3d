/**
 * @file
 * A complete training loop over scheduled models — the harness a Slapo
 * user runs after scheduling (§5 setups: AdamW, mixed data-parallel /
 * tensor-parallel execution, gradient accumulation).
 *
 * Single-process mode drives the autograd engine + AdamW directly;
 * distributed mode runs one replica per rank on the DistExecutor,
 * all-reducing data-parallel gradients through the ProcessGroup before
 * every optimizer step — so a data-parallel run is *bitwise comparable*
 * to a single-process run on the concatenated batch (tests assert this).
 */
#pragma once

#include <functional>

#include "nn/module.h"
#include "obs/dist_metrics.h"
#include "obs/step_report.h"
#include "runtime/autograd.h"
#include "runtime/dist_executor.h"
#include "tensor/optim.h"

namespace slapo {
namespace runtime {

/** Statistics of one optimizer step. */
struct TrainStepStats
{
    double loss = 0;               ///< mean loss over micro-batches/ranks
    /** Global L2 norm of the averaged gradients, as AdamW::step sums it
     * (bitwise identical at any kernel thread count). */
    double grad_norm = 0;
    int64_t micro_batches = 0;     ///< gradient-accumulation count
    int64_t tokens = 0;            ///< input elements consumed this step
    int64_t stored_activation_bytes = 0;
    int64_t recomputed_nodes = 0;
};

/** Checkpoint/retry policy of the recovering train loops. */
struct RecoveryOptions
{
    /**
     * Save a checkpoint every N steps (including step 0, so the initial
     * state is always recoverable). 0 disables periodic saving; restore
     * from existing checkpoints in `checkpoint_dir` still works.
     */
    int64_t checkpoint_every = 0;
    /** Directory for "ckpt-<step>.slpc" files. Empty disables recovery. */
    std::string checkpoint_dir;
    /** Failed steps tolerated across one trainSteps call before the
     * original error is rethrown. */
    int max_retries = 2;
    /**
     * Elastic world-size recovery (DataParallelTrainer only): when a
     * rank is *permanently* lost (failpoint `die` mode →
     * ProcessGroup::declareLost), rebuild the group over the survivors,
     * rebalance the data-parallel shard assignment, restore the last
     * checkpoint into the shrunken world, and keep training. Off by
     * default: a lost rank then fails the run like any other error once
     * retries are exhausted.
     */
    bool elastic = false;
    /**
     * Liveness deadline (ms) distinguishing "slow" from "gone": when a
     * step fails with a collective error but no rank is declared lost
     * yet, the elastic handler waits up to this long for a loss
     * declaration before deciding on a same-world replay.
     */
    int64_t liveness_deadline_ms = 2000;
    /**
     * Restore sweeps attempted per failure before giving up (each sweep
     * walks the checkpoint directory newest→oldest, skipping corrupt
     * files). Exhaustion emits a "recovery.giveup" run-log record and
     * rethrows the step's error.
     */
    int max_restore_attempts = 3;
    /**
     * Delay before restore sweep k (k >= 2): restore_backoff_ms <<
     * (k - 2) — exponential, jitter-free, so recovery timing is as
     * deterministic as the training math.
     */
    int64_t restore_backoff_ms = 50;
};

/** Outcome of a recovering train loop. */
struct TrainRunStats
{
    TrainStepStats last;     ///< stats of the final successful step
    int64_t steps_run = 0;   ///< successful steps, including replayed ones
    int recoveries = 0;      ///< times a failure was recovered from
    int elastic_rebuilds = 0; ///< world-shrinking rebuilds performed
};

/**
 * Deterministic batch source for the recovering train loops: must return
 * the same batches for the same step index, or replayed steps after a
 * restore would diverge from the uninterrupted run.
 * For Trainer: micro-batch input tuples. For DataParallelTrainer: one
 * input tuple per *data shard* — always baseWorldSize() tuples, even
 * after an elastic shrink, so the global batch is invariant across
 * world-size changes (survivors pick up orphaned shards by gradient
 * accumulation).
 */
using BatchProvider =
    std::function<std::vector<std::vector<Tensor>>(int64_t step)>;

/** Single-process trainer: model must end in a scalar loss. */
class Trainer
{
  public:
    /** @param model a loss-headed model (see withCrossEntropyLoss). */
    Trainer(nn::ModulePtr model, AdamWConfig config = {},
            RecoveryOptions recovery = {});

    /**
     * One optimizer step over `micro_batches` input tuples (gradients
     * are accumulated and averaged across them).
     */
    TrainStepStats step(const std::vector<std::vector<Tensor>>& micro_batches);

    /**
     * Run `num_steps` optimizer steps with checkpoint/restore recovery:
     * checkpoints are written every `recovery.checkpoint_every` steps;
     * when a step throws, the newest loadable checkpoint is restored
     * (corrupt files are skipped) and training replays from there —
     * bit-exactly, because parameters, AdamW moments, and both step
     * counters round-trip through the checkpoint. Rethrows the step's
     * error once `recovery.max_retries` is exhausted, or if no
     * checkpoint can be restored.
     */
    TrainRunStats trainSteps(const BatchProvider& batches, int64_t num_steps);

    nn::Module& model() { return *model_; }

    /**
     * The attributed breakdown of the most recent step
     * (obs/step_report.h). Only populated while
     * `obs::stepReportsEnabled()` — `step` stays -1 otherwise.
     */
    const obs::StepReport& lastStepReport() const { return last_report_; }

  private:
    nn::ModulePtr model_;
    AdamW optimizer_;
    RecoveryOptions recovery_;
    std::vector<std::pair<std::string, Tensor*>> params_;
    obs::StepReport last_report_;
};

/**
 * Data-parallel trainer: replicates the scheduled model across
 * `world_size` rank threads, partitions the global batch into
 * `world_size` fixed data shards (initially one per rank), all-reduces
 * (averages) gradients, and steps every rank's optimizer identically —
 * the replicas stay synchronized by construction.
 *
 * The shard partition, not the rank count, defines the math: with
 * RecoveryOptions::elastic the trainer survives *permanent* rank loss
 * by rebuilding the group over the survivors and handing the lost
 * ranks' shards to the least-loaded survivors (gradient accumulation
 * keeps the global batch intact), so post-shrink training is
 * deterministic and the loss trajectory continues from the restored
 * checkpoint.
 */
class DataParallelTrainer
{
  public:
    DataParallelTrainer(const nn::Module& model, int world_size,
                        AdamWConfig config = {}, RecoveryOptions recovery = {});

    /**
     * One step over `per_shard_inputs[s]` for every data shard s (always
     * baseWorldSize() tuples). Rank r executes its assigned shards
     * (`shardAssignment()[r]`, ascending) sequentially with gradient
     * accumulation, then all ranks average gradients with a single
     * bucketed all-reduce scaled by 1/baseWorldSize() — so the update
     * (and the mean loss, summed in shard order) is a function of the
     * shard set only, bitwise reproducible at any world size.
     * @return mean loss across shards.
     */
    TrainStepStats step(
        const std::vector<std::vector<Tensor>>& per_shard_inputs);

    /**
     * Recovering train loop (see Trainer::trainSteps); `batches(step)`
     * returns the per-shard input tuples of that step. Recovery covers
     * rank failures too: a killed/throwing rank aborts the collective
     * group (peers fail fast with CollectiveError), all rank threads are
     * joined, rank 0's checkpoint is restored into *every* replica —
     * re-synchronizing ranks that had already stepped their optimizer —
     * and the step is replayed.
     *
     * With `recovery.elastic` set, a *permanently lost* rank (failpoint
     * `die` mode) additionally triggers the elastic state machine
     * (docs/ROBUSTNESS.md): abort → drain → agree-on-survivors →
     * rebuild → rebalance → resume. The group is rebuilt over the
     * survivors (membership generation bumped), the lost ranks' shards
     * are redistributed to the least-loaded survivors, the last
     * checkpoint is restored into the shrunken world, and the run-log
     * gains an "elastic.rebuild" record naming the lost ranks.
     */
    TrainRunStats trainSteps(const BatchProvider& batches, int64_t num_steps);

    /** Rank r's replica (for inspection/tests). */
    nn::Module& replica(int rank) { return *replicas_[rank]; }
    /** Current world size (shrinks on elastic rebuilds). */
    int worldSize() const { return executor_.worldSize(); }
    /** World size the trainer was built with = the fixed shard count. */
    int baseWorldSize() const { return base_world_; }
    /** Current rank → data shards it executes (each list ascending). */
    const std::vector<std::vector<int>>& shardAssignment() const
    {
        return shard_map_;
    }
    /** Current rank → the rank id it was *born* with (pre-shrink). */
    const std::vector<int>& origRanks() const { return orig_rank_; }

    /** The executor's collective group (e.g. to tune its timeout). */
    ProcessGroup& group() { return executor_.group(); }

    /**
     * Cross-rank metric aggregation (obs/dist_metrics.h): every rank
     * packs its per-rank counters (collective count/wait/copy plus the
     * process-wide tensor/pipeline numbers), the group all-gathers the
     * packed snapshots — exercising the same collectives it reports on —
     * and rank 0 unpacks them into a min/max/mean/spread skew report.
     * Also appended to the run log (kind "dist_metrics") at the end of
     * every trainSteps call when a run log is open.
     */
    obs::DistMetricsReport gatherMetrics();

    /**
     * The attributed breakdown of the most recent step (per-rank means;
     * includes the cross-rank spread block). Only populated while
     * `obs::stepReportsEnabled()` — `step` stays -1 otherwise.
     */
    const obs::StepReport& lastStepReport() const { return last_report_; }

  private:
    /**
     * Elastic handler invoked by the recovery loop on a failed step.
     * Decides "gone" vs "slow" (ProcessGroup::confirmLost under the
     * liveness deadline) and runs the shrink state machine when ranks
     * are lost. Returns true if the world was rebuilt.
     */
    bool handleRankLoss(const std::exception_ptr& failure);
    /** abort → drain → rebuild → rebalance → survivor rendezvous. */
    void elasticShrink();
    /** Drop per-rank state of non-survivors; renumber the rest. */
    void remapSurvivors(const std::vector<int>& survivors);
    /** Assign every orphaned shard to the least-loaded survivor
     * (ties → lowest rank); idempotent, so a half-finished shrink can
     * be repaired by calling it again. */
    void rebalanceShards();

    DistExecutor executor_;
    RecoveryOptions recovery_;
    std::vector<nn::ModulePtr> replicas_;
    std::vector<std::unique_ptr<AdamW>> optimizers_;
    std::vector<std::vector<std::pair<std::string, Tensor*>>> params_;
    int base_world_ = 1;                     ///< shard count, never shrinks
    std::vector<std::vector<int>> shard_map_; ///< rank → shards (ascending)
    std::vector<int> orig_rank_;              ///< rank → original rank id
    obs::StepReport last_report_;
};

} // namespace runtime
} // namespace slapo
