/**
 * @file
 * Schedule-aware step attribution: primitive provenance on graph nodes,
 * the provenance registry, per-step attributed reports, and the report
 * diff / regression gate (docs/OBSERVABILITY.md, "Attribution & step
 * reports").
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "core/schedule.h"
#include "dialects/deepspeed_dialect.h"
#include "graph/pattern.h"
#include "json_validator.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/step_report.h"
#include "runtime/autograd.h"
#include "runtime/dist_executor.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"

namespace slapo {
namespace {

using testutil::JsonValidator;

const obs::PrimitiveTotal*
findPrimitive(const obs::StepReport& report, const std::string& name)
{
    for (const obs::PrimitiveTotal& p : report.primitives) {
        if (p.primitive == name) {
            return &p;
        }
    }
    return nullptr;
}

// --- provenance stamping on graph nodes ---------------------------------

TEST(Provenance, FuseStampsFusedNodeAndInnerClones)
{
    obs::clearProvenance();
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model);
    core::Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    // Untouched traced nodes carry no provenance.
    for (graph::Node* n : ffn.graph().nodes()) {
        EXPECT_FALSE(n->hasProvenance());
    }

    auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
    ASSERT_FALSE(matches.empty());
    ffn.fuse(matches[0]);

    graph::Node* fused = nullptr;
    for (graph::Node* n : ffn.graph().nodes()) {
        if (n->kind() == graph::NodeKind::FusedOp) {
            fused = n;
        }
    }
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(fused->provenance().primitive, "fuse");
    EXPECT_EQ(fused->provenance().module_path, "encoder.layer.0.ffn");
    EXPECT_GE(fused->provenance().apply_seq, 0);
    // The inner clones the autograd engine executes individually carry
    // the same stamp, so fused compute never falls back to baseline.
    ASSERT_NE(fused->subgraph(), nullptr);
    for (graph::Node* inner : fused->subgraph()->nodes()) {
        EXPECT_EQ(inner->provenance().primitive, "fuse");
    }
}

TEST(Provenance, ClonePreservesStamps)
{
    obs::clearProvenance();
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model);
    core::Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
    ASSERT_FALSE(matches.empty());
    ffn.fuse(matches[0]);

    auto cloned = ffn.graph().clone();
    int stamped = 0;
    for (graph::Node* n : cloned->nodes()) {
        if (n->kind() == graph::NodeKind::FusedOp) {
            EXPECT_EQ(n->provenance().primitive, "fuse");
            ++stamped;
        }
    }
    EXPECT_EQ(stamped, 1);
}

// --- provenance registry ------------------------------------------------

TEST(Provenance, RegistryLongestPrefixWinsAndSyncIsSkipped)
{
    obs::clearProvenance();
    EXPECT_EQ(obs::lookupProvenance("encoder.layer.0"), nullptr);

    obs::recordPrimitive("checkpoint", "encoder.layer.0");
    obs::recordPrimitive("shard", "encoder.layer.0.ffn.fc1");
    obs::recordPrimitive("sync", "encoder.layer.0.ffn.fc1");
    obs::recordPrimitive("trace", "encoder.layer.0");
    EXPECT_EQ(obs::provenanceCount(), 4);

    // Exact path: the shard record wins (sync/trace never claim compute).
    const obs::ProvenanceRecord* rec =
        obs::lookupProvenance("encoder.layer.0.ffn.fc1");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->primitive, "shard");

    // Sibling subtree: falls back to the enclosing checkpoint.
    rec = obs::lookupProvenance("encoder.layer.0.attention.self");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->primitive, "checkpoint");

    // Unscheduled subtree: baseline.
    EXPECT_EQ(obs::lookupProvenance("pooler.dense"), nullptr);

    obs::clearProvenance();
    EXPECT_EQ(obs::provenanceCount(), 0);
}

TEST(Provenance, RootRecordClaimsEverything)
{
    obs::clearProvenance();
    obs::recordPrimitive("decompose", "");
    const obs::ProvenanceRecord* rec = obs::lookupProvenance("a.b.c");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->primitive, "decompose");
    obs::clearProvenance();
}

TEST(Provenance, SchedulePrimitivesRecordIntoRegistry)
{
    obs::clearProvenance();
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    (*sch)["pooler.dense"].shard("weight", 0);
    (*sch)["encoder.layer.1"].checkpoint();
    (*sch)["encoder.layer.0"].pipelineSplit();

    bool saw_shard = false, saw_checkpoint = false, saw_split = false;
    for (const obs::ProvenanceRecord& r : obs::provenanceRecords()) {
        saw_shard |= r.primitive == "shard" &&
                     r.module_path == "pooler.dense";
        saw_checkpoint |= r.primitive == "checkpoint" &&
                          r.module_path == "encoder.layer.1";
        saw_split |= r.primitive == "pipeline_split" &&
                     r.module_path == "encoder.layer.0";
    }
    EXPECT_TRUE(saw_shard);
    EXPECT_TRUE(saw_checkpoint);
    EXPECT_TRUE(saw_split);
    obs::clearProvenance();
}

// --- report building from profiler rows ---------------------------------

TEST(StepReport, BuildAttributesRowsAndDecomposesWall)
{
    obs::clearProvenance();
    obs::recordPrimitive("shard", "enc.fc1");

    obs::OpProfiler profiler;
    profiler.record("LinearOp", "enc.fc1", "", 4000000);     // registry
    profiler.record("GeluOp", "enc.act", "", 1000000);       // baseline
    profiler.record("FusedOp", "enc.ffn", "fuse", 2000000);  // stamped
    profiler.record("sync", "enc.fc1", "sync", 3000000);     // comm

    std::vector<std::pair<std::string, int64_t>> window = {
        {"pg.wait_ns", 500000},
        {"pipeline.queue_wait_ns", 0},
        {"alloc.pool_hits", 3},
    };
    obs::StepReport report =
        obs::buildStepReport(profiler, window, 12000000, 1, 7);

    EXPECT_EQ(report.step, 7);
    EXPECT_EQ(report.compute_ns, 7000000); // shard + baseline + fuse
    EXPECT_EQ(report.comm_ns, 3000000);
    EXPECT_EQ(report.pg_wait_ns, 500000);
    EXPECT_EQ(report.other_ns, 2000000); // 12 − 7 − 3
    EXPECT_EQ(report.alloc_pool_hits, 3);

    const obs::PrimitiveTotal* shard = findPrimitive(report, "shard");
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->total_ns, 4000000);
    const obs::PrimitiveTotal* baseline = findPrimitive(report, "baseline");
    ASSERT_NE(baseline, nullptr);
    EXPECT_EQ(baseline->total_ns, 1000000);
    EXPECT_NE(findPrimitive(report, "fuse"), nullptr);
    EXPECT_NE(findPrimitive(report, "sync"), nullptr);
    for (const obs::AttributedOp& op : report.ops) {
        EXPECT_FALSE(op.primitive.empty());
    }

    // (4+1+2+3)/12 of the wall is attributed.
    EXPECT_NEAR(report.attributedFraction(), 10.0 / 12.0, 1e-9);
    EXPECT_TRUE(JsonValidator(report.toJson()).valid()) << report.toJson();
    obs::clearProvenance();
}

TEST(StepReport, WorldSizeNormalizesToPerRankMeans)
{
    obs::clearProvenance();
    obs::OpProfiler profiler;
    // Two ranks each spent 3 ms: the report shows the per-rank mean.
    profiler.record("LinearOp", "m", "", 3000000);
    profiler.record("LinearOp", "m", "", 3000000);
    obs::StepReport report =
        obs::buildStepReport(profiler, {}, 3500000, 2, 0);
    EXPECT_EQ(report.compute_ns, 3000000);
    const obs::PrimitiveTotal* baseline = findPrimitive(report, "baseline");
    ASSERT_NE(baseline, nullptr);
    EXPECT_EQ(baseline->total_ns, 3000000);
    EXPECT_GT(report.attributedFraction(), 0.85);
}

// --- diff + regression gate ---------------------------------------------

TEST(ReportDiff, FlagsInjectedRegressionIgnoresNoiseFloor)
{
    obs::StepReport before, after;
    before.wall_ns = 10000000;
    after.wall_ns = 16000000;
    before.primitives = {{"fuse", 5000000, 10}, {"tiny", 1000, 1}};
    after.primitives = {{"fuse", 9000000, 10}, {"tiny", 900000, 1}};

    obs::ReportDiff diff = obs::diffReports(before, after);
    EXPECT_NEAR(diff.wall_pct, 60.0, 1e-9);
    ASSERT_TRUE(diff.hasRegressions());
    ASSERT_EQ(diff.regressions.size(), 1u);
    EXPECT_EQ(diff.regressions[0].key, "primitive:fuse");
    EXPECT_NEAR(diff.regressions[0].pct, 80.0, 1e-9);
    EXPECT_TRUE(JsonValidator(diff.toJson()).valid()) << diff.toJson();

    // Sub-floor rows are noise, never regressions, even at +900x.
    for (const obs::ReportDelta& d : diff.primitives) {
        if (d.key == "primitive:tiny") {
            EXPECT_FALSE(d.regression);
        }
    }
}

TEST(ReportDiff, IdenticalReportsHaveZeroRegressions)
{
    obs::StepReport report;
    report.wall_ns = 10000000;
    report.primitives = {{"baseline", 6000000, 40}, {"shard", 3000000, 8}};
    report.ops.push_back({"LinearOp", "enc.fc1", "shard", 8, 3000000,
                          375000.0, 400000});
    obs::ReportDiff diff = obs::diffReports(report, report);
    EXPECT_FALSE(diff.hasRegressions());
    EXPECT_EQ(diff.wall_pct, 0.0);
}

TEST(ReportDiff, NewWorkAboveFloorIsFlagged)
{
    obs::StepReport before, after;
    before.wall_ns = after.wall_ns = 10000000;
    after.primitives = {{"replace", 5000000, 4}};
    obs::ReportDiff diff = obs::diffReports(before, after);
    ASSERT_TRUE(diff.hasRegressions());
    EXPECT_EQ(diff.regressions[0].key, "primitive:replace");
}

// --- end-to-end: scheduled transformer training step --------------------

TEST(Attribution, ScheduledTransformerStepCoversWall)
{
    obs::clearProvenance();
    auto inner = models::buildTinyModel("bert");
    auto model = runtime::withCrossEntropyLoss(inner);
    model->initializeParams(211);
    auto sch = core::Schedule::create(model, 2);

    // Fusion (stamped graph rewrite) on layer-0's ffn.
    core::Schedule& ffn = (*sch)["model.encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
    ASSERT_FALSE(matches.empty());
    ffn.fuse(matches[0]);

    // Tensor parallelism (registry-attributed) on layer-1's ffn.
    (*sch)["model.encoder.layer.1.ffn.fc1"].shard("weight", 0);
    (*sch)["model.encoder.layer.1.ffn.fc1"].shard("bias", 0);
    (*sch)["model.encoder.layer.1.ffn.fc2"].shard("weight", 1);
    (*sch)["model.encoder.layer.1.ffn.fc2"].sync(nn::SyncDirection::Forward);

    // Activation checkpointing on layer-0's attention, and a pipeline
    // boundary mark after layer 0.
    (*sch)["model.encoder.layer.0.attention"].checkpoint();
    (*sch)["model.encoder.layer.0"].pipelineSplit();

    Tensor ids = Tensor::randint({2, 8}, 64, 221);
    Tensor targets = Tensor::randint({2, 8}, 64, 223);

    runtime::DistExecutor executor(2);
    auto replicas = executor.replicate(*model);

    obs::StepReportBuilder builder(2);
    executor.run(replicas,
                 [&](int /*rank*/, nn::Module& m, runtime::ProcessGroup&) {
                     for (int it = 0; it < 8; ++it) {
                         runtime::AutogradEngine engine;
                         runtime::GradResult result =
                             engine.run(m, {ids, targets});
                         ASSERT_FALSE(result.outputs.empty());
                     }
                 });
    obs::StepReport report = builder.finish(0);

    EXPECT_GT(report.wall_ns, 0);
    EXPECT_EQ(report.world_size, 2);

    // The acceptance gate: per-primitive times account for >= 95% of the
    // step's wall time.
    EXPECT_GE(report.attributedFraction(), 0.95)
        << "attributed fraction " << report.attributedFraction() << "\n"
        << report.toJson();

    // Every applied primitive shows up; baseline covers the unscheduled
    // modules (embeddings, pooler, layer-1 attention, loss head).
    EXPECT_NE(findPrimitive(report, "fuse"), nullptr);
    EXPECT_NE(findPrimitive(report, "shard"), nullptr);
    EXPECT_NE(findPrimitive(report, "sync"), nullptr);
    EXPECT_NE(findPrimitive(report, "checkpoint"), nullptr);
    const obs::PrimitiveTotal* baseline = findPrimitive(report, "baseline");
    ASSERT_NE(baseline, nullptr);
    EXPECT_GT(baseline->total_ns, 0);

    // Rows never carry an empty primitive, and the sharded module rolls
    // up under "shard".
    for (const obs::AttributedOp& op : report.ops) {
        EXPECT_FALSE(op.primitive.empty()) << op.op << "@" << op.module_path;
    }
    bool fc1_sharded = false;
    for (const obs::ModuleTotal& m : report.modules) {
        if (m.module_path == "model.encoder.layer.1.ffn.fc1") {
            fc1_sharded = m.primitive == "shard";
        }
    }
    EXPECT_TRUE(fc1_sharded);

    EXPECT_TRUE(JsonValidator(report.toJson()).valid());
    obs::clearProvenance();
}

TEST(Attribution, SameSeedRunsDiffClean)
{
    // Two identical runs of the same step must never flag a regression
    // under the default thresholds (the determinism acceptance).
    obs::clearProvenance();
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(401);
    Tensor ids = Tensor::randint({2, 8}, 64, 311);
    Tensor targets = Tensor::randint({2, 8}, 64, 313);
    auto single_run = [&] {
        obs::StepReportBuilder builder(1);
        runtime::AutogradEngine engine;
        engine.run(*model, {ids, targets});
        return builder.finish(0);
    };
    // Each report folds several engine runs by per-row MINIMUM: a
    // scheduler preemption spike inflates one run's rows but never the
    // minimum across runs, while a systematic slowdown (the thing
    // diffReports exists to catch) inflates every run and survives.
    auto run_once = [&] {
        obs::StepReport merged = single_run();
        for (int it = 1; it < 8; ++it) {
            obs::StepReport next = single_run();
            merged.wall_ns = std::min(merged.wall_ns, next.wall_ns);
            auto fold = [](auto& rows, const auto& other, auto key) {
                for (auto& row : rows) {
                    for (const auto& candidate : other) {
                        if (key(candidate) == key(row)) {
                            row.total_ns =
                                std::min(row.total_ns, candidate.total_ns);
                            break;
                        }
                    }
                }
            };
            fold(merged.ops, next.ops, [](const obs::AttributedOp& r) {
                return r.op + "@" + r.module_path;
            });
            fold(merged.primitives, next.primitives,
                 [](const obs::PrimitiveTotal& r) { return r.primitive; });
        }
        return merged;
    };
    obs::StepReport warm = run_once(); // warm trace cache / pool / allocator
    // A loaded CI box can make the second run *genuinely* slower, or
    // make both runs mostly preemption gaps; that is a correct diff,
    // not an attribution bug. Only assert on a pair of runs whose
    // walls match each other AND are not inflated over the fastest run
    // seen (retry a few times), and skip when the machine never quiets
    // down. A systematic attribution bug fails every comparable pair
    // on a quiet box, so the skip cannot mask one.
    int64_t best_wall = warm.wall_ns;
    for (int attempt = 0; attempt < 5; ++attempt) {
        obs::StepReport a = run_once();
        obs::StepReport b = run_once();
        best_wall = std::min({best_wall, a.wall_ns, b.wall_ns});
        obs::ReportDiff diff = obs::diffReports(a, b);
        if (std::abs(diff.wall_pct) > 10.0 ||
            a.wall_ns > 2 * best_wall || b.wall_ns > 2 * best_wall) {
            continue;
        }
        EXPECT_FALSE(diff.hasRegressions()) << diff.toJson();
        return;
    }
    GTEST_SKIP() << "machine too loaded for comparable same-seed runs";
}

// --- pipeline bubble accounting -----------------------------------------

TEST(Attribution, PipelineRunReportsBubbleTime)
{
    obs::clearProvenance();
    auto model = models::buildTinyModel("opt");
    model->initializeParams(3);
    auto sch = core::Schedule::create(model, 4);
    (*sch)["decoder.layer.0"].pipelineSplit();
    auto stages = core::partitionPipeline(*sch, {{1, 8}});
    ASSERT_GE(stages.size(), 2u);
    auto wrapped = dialects::wrapForDeepSpeedPipeline(stages);
    runtime::PipelineRuntime pipeline(wrapped);

    std::vector<std::vector<Tensor>> micros;
    for (int m = 0; m < 6; ++m) {
        micros.push_back({Tensor::randint({1, 8}, 64, 5 + m)});
    }
    obs::StepReportBuilder builder(1);
    runtime::PipelineRunResult result = pipeline.forward(micros);
    obs::StepReport report = builder.finish(0);

    EXPECT_EQ(result.outputs.size(), micros.size());
    EXPECT_GT(report.wall_ns, 0);
    EXPECT_GT(report.compute_ns, 0);
    EXPECT_GE(report.pipeline_bubble_ns, 0);
    EXPECT_GE(report.other_ns, 0);
    EXPECT_FALSE(report.ops.empty());
    EXPECT_TRUE(JsonValidator(report.toJson()).valid());
    obs::clearProvenance();
}

// --- trainer integration ------------------------------------------------

TEST(Attribution, TrainerPublishesLastStepReport)
{
    obs::clearProvenance();
    obs::setStepReportsEnabled(false);
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(101);
    runtime::Trainer trainer(model);
    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({1, 8}, 64, 110), Tensor::randint({1, 8}, 64, 120)},
    };

    // Disabled: the report member stays untouched.
    trainer.step(micros);
    EXPECT_EQ(trainer.lastStepReport().step, -1);

    obs::setStepReportsEnabled(true);
    trainer.step(micros);
    const obs::StepReport& report = trainer.lastStepReport();
    EXPECT_EQ(report.step, 1); // second optimizer step
    EXPECT_FALSE(report.primitives.empty());
    // The optimizer's own work is explicitly baseline.
    bool saw_optimizer = false;
    for (const obs::AttributedOp& op : report.ops) {
        if (op.op == "optimizer.step") {
            saw_optimizer = true;
            EXPECT_EQ(op.primitive, "baseline");
        }
    }
    EXPECT_TRUE(saw_optimizer);
    EXPECT_GT(report.attributedFraction(), 0.5);
    obs::setStepReportsEnabled(false);
}

TEST(Attribution, DataParallelReportHasPerRankSpreadAndGradExchange)
{
    obs::clearProvenance();
    obs::setStepReportsEnabled(true);
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(131);
    runtime::DataParallelTrainer dp(*model, 2);
    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({1, 8}, 64, 141), Tensor::randint({1, 8}, 64, 142)},
        {Tensor::randint({1, 8}, 64, 143), Tensor::randint({1, 8}, 64, 144)},
    };
    dp.step(micros);
    const obs::StepReport& report = dp.lastStepReport();
    obs::setStepReportsEnabled(false);

    EXPECT_EQ(report.step, 0);
    EXPECT_EQ(report.world_size, 2);

    // The bucketed gradient all-reduce is attributed to data_parallel...
    const obs::PrimitiveTotal* data_parallel =
        findPrimitive(report, "data_parallel");
    ASSERT_NE(data_parallel, nullptr);
    bool saw_exchange = false, saw_bwd = false;
    for (const obs::AttributedOp& op : report.ops) {
        saw_exchange |= op.op == "grad.exchange";
        saw_bwd |= op.op.size() > 4 &&
                   op.op.compare(op.op.size() - 4, 4, ".bwd") == 0;
    }
    EXPECT_TRUE(saw_exchange);
    // ...and the backward rows keep their .bwd suffix under it.
    EXPECT_TRUE(saw_bwd);

    // Cross-rank spread rides along for straggler detection.
    ASSERT_FALSE(report.per_rank_json.empty());
    EXPECT_TRUE(JsonValidator(report.per_rank_json).valid());
    EXPECT_NE(report.per_rank_json.find("\"pg.wait_ns\""),
              std::string::npos);
    EXPECT_TRUE(JsonValidator(report.toJson()).valid());
}

// --- consumers compose --------------------------------------------------

/** (op, module path, primitive) -> count, one entry per profiler row. */
using RowCounts =
    std::map<std::tuple<std::string, std::string, std::string>, int64_t>;

RowCounts
rowCounts(const obs::OpProfiler& profiler)
{
    RowCounts rows;
    for (const obs::OpStats& s : profiler.report()) {
        rows[{s.op, s.module_path, s.primitive}] = s.count;
    }
    return rows;
}

int64_t
totalCount(const RowCounts& rows)
{
    int64_t total = 0;
    for (const auto& [key, count] : rows) {
        total += count;
    }
    return total;
}

/**
 * The rows a user profiler collects over `steps` steps of a fresh
 * `trainer`, with step reports on or off; `report_count` gets the sum
 * of the reports' op counts (none while reports are off).
 */
template <typename TrainerT>
RowCounts
userRows(TrainerT& trainer,
         const std::vector<std::vector<Tensor>>& batches, int steps,
         bool reports, int64_t* report_count)
{
    obs::setStepReportsEnabled(reports);
    obs::OpProfiler profiler;
    {
        obs::OpProfilerGuard guard(&profiler);
        for (int i = 0; i < steps; ++i) {
            trainer.step(batches);
            const obs::StepReport& report = trainer.lastStepReport();
            for (const obs::AttributedOp& op : report.ops) {
                *report_count += op.count;
            }
        }
    }
    obs::setStepReportsEnabled(false);
    return rowCounts(profiler);
}

TEST(Attribution, CheckpointRecomputeRowsNameTheirModule)
{
    // A checkpointed layer's forward runs again inside the backward walk;
    // those rows, and the recomputed layer's nested modules, carry the
    // layer's own path, so every row's module resolves in the model.
    obs::clearProvenance();
    auto model = runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(191);
    auto sch = core::Schedule::create(model);
    (*sch)["model.encoder.layer.1"].checkpoint();
    runtime::Trainer trainer(model);
    obs::OpProfiler profiler;
    {
        obs::OpProfilerGuard guard(&profiler);
        trainer.step({{Tensor::randint({2, 8}, 64, 193),
                       Tensor::randint({2, 8}, 64, 194)}});
    }
    int64_t recomputed = 0;
    for (const obs::OpStats& s : profiler.report()) {
        EXPECT_NO_THROW(model->findByPath(s.module_path))
            << s.op << " under " << s.module_path;
        if (s.module_path.starts_with("model.encoder.layer.1.") &&
            !s.op.ends_with(".bwd")) {
            recomputed += s.count;
        }
    }
    // The layer's forward rows: once in the forward, once recomputed.
    EXPECT_GT(recomputed, 0);
    obs::clearProvenance();
}

TEST(Attribution, StepReportsLeaveUserProfilerRowsUnchanged)
{
    obs::clearProvenance();
    const std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({2, 8}, 64, 161), Tensor::randint({2, 8}, 64, 162)},
        {Tensor::randint({2, 8}, 64, 163), Tensor::randint({2, 8}, 64, 164)},
    };
    RowCounts rows[2];
    int64_t report_count = 0;
    for (bool reports : {false, true}) {
        auto model =
            runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
        model->initializeParams(151);
        runtime::Trainer trainer(model);
        rows[reports] = userRows(trainer, micros, 2, reports, &report_count);
    }
    EXPECT_GT(totalCount(rows[false]), 0);
    // The step report collects next to the user's profiler instead of
    // hiding it, and sees every row the user's profiler sees.
    EXPECT_EQ(rows[true], rows[false]);
    EXPECT_EQ(report_count, totalCount(rows[true]));
}

TEST(Attribution, StepReportsLeaveDataParallelUserRowsUnchanged)
{
    obs::clearProvenance();
    constexpr int kWorld = 2;
    constexpr int kSteps = 2;
    const std::vector<std::vector<Tensor>> shards = {
        {Tensor::randint({1, 8}, 64, 171), Tensor::randint({1, 8}, 64, 172)},
        {Tensor::randint({1, 8}, 64, 173), Tensor::randint({1, 8}, 64, 174)},
    };
    RowCounts rows[2];
    int64_t report_count = 0;
    for (bool reports : {false, true}) {
        auto model =
            runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
        model->initializeParams(181);
        runtime::DataParallelTrainer dp(*model, kWorld);
        rows[reports] = userRows(dp, shards, kSteps, reports, &report_count);
    }
    EXPECT_GT(totalCount(rows[false]), 0);
    // With reports on, each step's gatherMetrics runs the executor once
    // more after its report is built: one executor.body and one
    // executor.spawn row per rank that only the user's profiler sees.
    constexpr int64_t kGatherRows = kSteps * kWorld;
    EXPECT_EQ(report_count, totalCount(rows[true]) - 2 * kGatherRows);
    for (const char* op : {"executor.body", "executor.spawn"}) {
        const std::tuple<std::string, std::string, std::string> key{
            op, "", "baseline"};
        EXPECT_EQ(rows[true][key], rows[false][key] + kGatherRows) << op;
        rows[true].erase(key);
        rows[false].erase(key);
    }
    EXPECT_EQ(rows[true], rows[false]);
}

} // namespace
} // namespace slapo
