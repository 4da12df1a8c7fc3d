/**
 * @file
 * Micro-benchmarks (google-benchmark) of the framework itself: numeric
 * kernels, symbolic tracing, pattern matching, schedule application,
 * model cloning, and one full simulator evaluation — the costs a Slapo
 * user pays at schedule-construction time (the paper argues these are
 * negligible next to training).
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "baselines/baselines.h"
#include "models/registry.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "nn/tracer.h"
#include "runtime/autograd.h"
#include "analysis/lint.h"
#include "core/auto_shard.h"
#include "core/pipeline.h"
#include "runtime/dist_executor.h"
#include "runtime/trainer.h"
#include "tensor/alloc.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace slapo;

void
BM_TensorMatmul(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Tensor a = Tensor::uniform({n, n}, 1.0f, 1);
    Tensor b = Tensor::uniform({n, n}, 1.0f, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::matmul(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_TensorMatmulThreads(benchmark::State& state)
{
    const int64_t n = state.range(0);
    slapo::bench::setKernelThreads(static_cast<int>(state.range(1)));
    Tensor a = Tensor::uniform({n, n}, 1.0f, 1);
    Tensor b = Tensor::uniform({n, n}, 1.0f, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::matmul(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    slapo::bench::setKernelThreads(0);
}
BENCHMARK(BM_TensorMatmulThreads)
    ->ArgsProduct({{128, 256, 512}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

void
BM_TensorLayerNorm(benchmark::State& state)
{
    Tensor x = Tensor::uniform({64, 1024}, 1.0f, 3);
    Tensor gamma = Tensor::full({1024}, 1.0f);
    Tensor beta = Tensor::zeros({1024});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::layerNorm(x, gamma, beta, 1e-5f));
    }
}
BENCHMARK(BM_TensorLayerNorm);

void
BM_TensorLayerNormBackward(benchmark::State& state)
{
    // The mid model's hidden rows: 4 x 64 tokens of width 256.
    Tensor x = Tensor::uniform({256, 256}, 1.0f, 3);
    Tensor gamma = Tensor::uniform({256}, 1.0f, 4);
    Tensor g = Tensor::uniform({256, 256}, 1.0f, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::layerNormBackward(g, x, gamma, 1e-5f));
    }
    state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_TensorLayerNormBackward);

void
BM_TensorCrossEntropy(benchmark::State& state)
{
    // The mid model's MLM loss: 256 tokens over a 2048-word vocabulary.
    Tensor logits = Tensor::uniform({256, 2048}, 4.0f, 6);
    Tensor targets = Tensor::randint({256}, 2048, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::crossEntropy(logits, targets));
    }
    state.SetItemsProcessed(state.iterations() * logits.numel());
}
BENCHMARK(BM_TensorCrossEntropy);

void
BM_TensorCrossEntropyBackward(benchmark::State& state)
{
    Tensor logits = Tensor::uniform({256, 2048}, 4.0f, 6);
    Tensor targets = Tensor::randint({256}, 2048, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::crossEntropyBackward(logits, targets));
    }
    state.SetItemsProcessed(state.iterations() * logits.numel());
}
BENCHMARK(BM_TensorCrossEntropyBackward);

void
BM_TensorSoftmax(benchmark::State& state)
{
    Tensor x = Tensor::uniform({8, 16, 128, 128}, 1.0f, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::softmax(x));
    }
}
BENCHMARK(BM_TensorSoftmax);

void
BM_AttentionForwardBackward(benchmark::State& state)
{
    // The mid model's fused attention: the packed QKV of a [4, 64] batch,
    // hidden 256 in 4 heads of 64, forward then backward.
    Tensor qkv = Tensor::uniform({4, 64, 768}, 1.0f, 11);
    Tensor grad = Tensor::uniform({4, 64, 256}, 1.0f, 12);
    const ops::AttentionSpec spec{64, false, 0.0f, 0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::attention({qkv}, spec));
        benchmark::DoNotOptimize(ops::attentionBackward(grad, {qkv}, spec));
    }
    // Forward 2 GEMMs, backward 4 plus the recomputed one, each
    // 2 * 64^3 flops per head, over 4 x 4 heads.
    state.SetItemsProcessed(state.iterations() * 7 * 2 * 4 * 4 * 64 * 64 *
                            64);
}
BENCHMARK(BM_AttentionForwardBackward);

void
BM_TensorGelu(benchmark::State& state)
{
    Tensor x = Tensor::uniform({256, 1024}, 3.0f, 9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::gelu(x));
    }
    state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_TensorGelu);

void
BM_TensorGeluBackward(benchmark::State& state)
{
    Tensor x = Tensor::uniform({256, 1024}, 3.0f, 9);
    Tensor g = Tensor::uniform({256, 1024}, 1.0f, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::geluBackward(g, x));
    }
    state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_TensorGeluBackward);

void
BM_TensorLinearThreads(benchmark::State& state)
{
    slapo::bench::setKernelThreads(static_cast<int>(state.range(0)));
    Tensor x = Tensor::uniform({64, 1024}, 1.0f, 7);
    Tensor w = Tensor::uniform({1024, 1024}, 0.02f, 8);
    Tensor b = Tensor::zeros({1024});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::linear(x, w, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 64 * 1024 * 1024);
    slapo::bench::setKernelThreads(0);
}
BENCHMARK(BM_TensorLinearThreads)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

void
BM_TensorLinear(benchmark::State& state)
{
    // The mid model's wide linears, fc1 (256 -> 1024) and the MLM decoder
    // (256 -> 2048), at a 256-row batch and at the pipeline's 64-row
    // micro-batch.
    const int64_t rows = state.range(0);
    const int64_t out = state.range(1);
    Tensor x = Tensor::uniform({rows, 256}, 1.0f, 7);
    Tensor w = Tensor::uniform({out, 256}, 0.02f, 8);
    Tensor b = Tensor::zeros({out});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::linear(x, w, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * rows * 256 * out);
}
BENCHMARK(BM_TensorLinear)
    ->ArgsProduct({{64, 256}, {1024, 2048}})
    ->ArgNames({"rows", "out"});

void
BM_TensorLinearBaselineIsa(benchmark::State& state)
{
    // fc1 at 256 rows (256 -> 1024) on the baseline x86-64 path, which
    // emulates the GEMM's fused multiply-add in double: what a CPU without
    // AVX2 pays. The default path is restored afterwards.
    const kernels::Isa saved = kernels::kernels().isa;
    kernels::setIsaForTesting(kernels::Isa::X86_64);
    Tensor x = Tensor::uniform({256, 256}, 1.0f, 7);
    Tensor w = Tensor::uniform({1024, 256}, 0.02f, 8);
    Tensor b = Tensor::zeros({1024});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::linear(x, w, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 256 * 256 * 1024);
    kernels::setIsaForTesting(saved);
}
BENCHMARK(BM_TensorLinearBaselineIsa)->Unit(benchmark::kMillisecond);

void
BM_TensorLinearBackward(benchmark::State& state)
{
    // Both GEMMs and the bias sum of the decoder's backward at 256 rows.
    Tensor x = Tensor::uniform({256, 256}, 1.0f, 7);
    Tensor w = Tensor::uniform({2048, 256}, 0.02f, 8);
    Tensor g = Tensor::uniform({256, 2048}, 1.0f, 9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::linearBackward(g, x, w, true));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 2 * 256 * 256 * 2048);
}
BENCHMARK(BM_TensorLinearBackward);

void
BM_TraceFfnFlattened(benchmark::State& state)
{
    nn::FFN ffn(1024, 4096, 0.1);
    nn::TraceOptions options;
    options.flatten = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::traceModule(ffn, {{1, 512, 1024}}, options));
    }
}
BENCHMARK(BM_TraceFfnFlattened);

void
BM_TraceBertLayerHierarchy(benchmark::State& state)
{
    models::TransformerConfig config = models::modelConfig("bert", 0);
    models::TransformerLayer layer(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            nn::traceModule(layer, {{1, 512, config.hidden}}));
    }
}
BENCHMARK(BM_TraceBertLayerHierarchy);

void
BM_PatternMatchFfn(benchmark::State& state)
{
    nn::FFN ffn(1024, 4096, 0.1);
    ffn.child("fc1")->meta().decomposed = true;
    nn::TraceOptions options;
    options.flatten = true;
    auto g = nn::traceModule(ffn, {{1, 512, 1024}}, options);
    const auto pattern = graph::Pattern::chain({"add", "gelu"});
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::findPattern(*g, pattern));
    }
}
BENCHMARK(BM_PatternMatchFfn);

void
BM_ScheduleFullBertRecipe(benchmark::State& state)
{
    // The whole §2.2 optimization flow on paper-scale BERT: fused QKV,
    // flash attention, bias+gelu fusion, checkpointing.
    for (auto _ : state) {
        auto sch = baselines::applyRecipe(
            models::buildModel("bert", 0),
            baselines::ScheduleRecipe::kernelOptimized(0.25));
        benchmark::DoNotOptimize(sch);
    }
}
BENCHMARK(BM_ScheduleFullBertRecipe)->Unit(benchmark::kMillisecond);

void
BM_LintScheduledTransformer(benchmark::State& state)
{
    // The static schedule lint (docs/VERIFICATION.md stage one) over an
    // auto-sharded tiny BERT with traced FFNs — the cost every gate and
    // every tuner trial admission pays.
    auto model = models::buildTinyModel("bert");
    auto sch = core::Schedule::create(model, 2);
    core::autoShard(*sch);
    nn::TraceOptions topts;
    topts.flatten = true;
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "FFN") {
            (*sch)[path].trace({{2, 8, 16}}, topts);
        }
    }
    for (auto _ : state) {
        analysis::Diagnostics diags = analysis::lintModule(*model, 2);
        benchmark::DoNotOptimize(diags);
    }
}
BENCHMARK(BM_LintScheduledTransformer);

void
BM_CloneBert335M(benchmark::State& state)
{
    auto model = models::buildModel("bert", 0); // meta parameters
    for (auto _ : state) {
        benchmark::DoNotOptimize(model->clone());
    }
}
BENCHMARK(BM_CloneBert335M)->Unit(benchmark::kMillisecond);

void
BM_SimulatorStepBert(benchmark::State& state)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    auto sch = baselines::applyRecipe(
        models::buildModel("bert", 0),
        baselines::ScheduleRecipe::kernelOptimized(0.25));
    auto shapes = baselines::modelShapeFn("bert", 0);
    sim::ParallelConfig config;
    config.micro_batch = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.simulate(*sch->module(), shapes, config));
    }
    state.SetLabel("one cost-model evaluation of BERT-335M");
}
BENCHMARK(BM_SimulatorStepBert)->Unit(benchmark::kMillisecond);

void
BM_AutogradTinyBertStep(benchmark::State& state)
{
    auto model = runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(7);
    Tensor ids = Tensor::randint({2, 8}, 64, 1);
    Tensor targets = Tensor::randint({2, 8}, 64, 2);
    for (auto _ : state) {
        runtime::AutogradEngine engine;
        benchmark::DoNotOptimize(engine.run(*model, {ids, targets}));
    }
    state.SetLabel("numeric fwd+bwd of the tiny test model");
}
BENCHMARK(BM_AutogradTinyBertStep)->Unit(benchmark::kMillisecond);

void
BM_VerifierShardedFfn(benchmark::State& state)
{
    // One end-to-end verification of a 2-way sharded linear pair: the
    // cost of the paper's §3.5 numeric check at test scale.
    auto seq = std::make_shared<nn::Sequential>();
    seq->append(std::make_shared<nn::Linear>(32, 64));
    seq->append(std::make_shared<nn::Linear>(64, 32));
    seq->initializeParams(3);
    nn::ShardSpec col;
    col.axis = 0;
    col.world_size = 2;
    seq->child("0")->meta().sharded_params["weight"] = col;
    seq->child("0")->meta().sharded_params["bias"] = col;
    nn::ShardSpec row;
    row.axis = 1;
    row.world_size = 2;
    seq->child("1")->meta().sharded_params["weight"] = row;
    nn::SyncSpec sync;
    seq->child("1")->meta().syncs.push_back(sync);

    Tensor x = Tensor::uniform({4, 32}, 1.0f, 9);
    for (auto _ : state) {
        runtime::DistExecutor executor(2);
        benchmark::DoNotOptimize(executor.forward(*seq, {x}));
    }
}
BENCHMARK(BM_VerifierShardedFfn)->Unit(benchmark::kMillisecond);

void
BM_AutoShardBert335M(benchmark::State& state)
{
    // Automatic shard/sync generation for the full paper-scale model.
    for (auto _ : state) {
        auto sch =
            core::Schedule::create(models::buildModel("bert", 0), 8);
        core::autoShard(*sch);
        benchmark::DoNotOptimize(sch);
    }
}
BENCHMARK(BM_AutoShardBert335M)->Unit(benchmark::kMillisecond);

void
BM_PipelinePartitionBert(benchmark::State& state)
{
    for (auto _ : state) {
        auto model = models::buildModel("bert", 0);
        auto sch = core::Schedule::create(model, 2);
        (*sch)["encoder.layer.11"].pipelineSplit();
        benchmark::DoNotOptimize(core::partitionPipeline(*sch, {{1, 512}}));
    }
}
BENCHMARK(BM_PipelinePartitionBert)->Unit(benchmark::kMillisecond);

void
BM_TrainerStepTinyBert(benchmark::State& state)
{
    auto model = runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(11);
    runtime::Trainer trainer(model);
    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({2, 8}, 64, 1), Tensor::randint({2, 8}, 64, 2)}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(trainer.step(micros));
    }
    state.SetLabel("fwd+bwd+AdamW on the tiny test model");
}
BENCHMARK(BM_TrainerStepTinyBert)->Unit(benchmark::kMillisecond);

void
BM_AllocStep(benchmark::State& state)
{
    // The A/B the caching allocator is judged by: one full training step
    // (fwd+bwd+AdamW) with the size-class pool on (pool=1) vs plain heap
    // alloc/free (pool=0). A warm-up step outside the timed loop fills
    // the free lists, so in pool mode the timed steps perform zero
    // tensor-storage heap allocations (tests/test_alloc.cc asserts the
    // counter; this measures what that buys).
    const bool pool = state.range(0) != 0;
    alloc::setMode(pool ? alloc::Mode::Pool : alloc::Mode::Malloc);
    auto model = runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(11);
    runtime::Trainer trainer(model);
    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({4, 16}, 64, 1), Tensor::randint({4, 16}, 64, 2)}};
    trainer.step(micros);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trainer.step(micros));
    }
    state.SetLabel(pool ? "SLAPO_ALLOC=pool" : "SLAPO_ALLOC=malloc");
    alloc::setMode(alloc::Mode::Pool);
    alloc::clearPool();
}
BENCHMARK(BM_AllocStep)->Arg(0)->Arg(1)->ArgName("pool")
    ->Unit(benchmark::kMillisecond);

void
BM_AllocAcquireRelease(benchmark::State& state)
{
    // Raw allocator hot path: acquire/release round-trips of a 1 MiB
    // buffer, free-list hit vs heap round-trip.
    const bool pool = state.range(0) != 0;
    alloc::setMode(pool ? alloc::Mode::Pool : alloc::Mode::Malloc);
    const int64_t numel = 256 * 1024;
    // Touch one float per 4 KiB page, as every kernel writing its output
    // would: a heap round-trip of an mmap-sized buffer re-faults freshly
    // zeroed pages each iteration, a pooled buffer keeps its pages warm.
    constexpr int64_t kFloatsPerPage = 4096 / sizeof(float);
    for (auto _ : state) {
        int64_t cap = 0;
        float* p = alloc::acquire(numel, &cap);
        for (int64_t i = 0; i < numel; i += kFloatsPerPage) {
            p[i] = static_cast<float>(i);
        }
        benchmark::DoNotOptimize(p);
        alloc::release(p, cap);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(pool ? "pool" : "malloc");
    alloc::setMode(alloc::Mode::Pool);
    alloc::clearPool();
}
BENCHMARK(BM_AllocAcquireRelease)->Arg(0)->Arg(1)->ArgName("pool");

void
BM_ProfilerDisabledCheck(benchmark::State& state)
{
    // What every executed node pays when nothing observes it: open and
    // close a disabled OpScope, one relaxed atomic load
    // (docs/OBSERVABILITY.md, "Overhead").
    const std::string primitive = "fuse";
    const std::string node = "linear_1";
    for (auto _ : state) {
        obs::OpScope scope("linear", primitive,
                           {.node_id = 1, .node = &node});
        benchmark::DoNotOptimize(&scope);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerDisabledCheck);

void
BM_ProfilerRecord(benchmark::State& state)
{
    // The per-node cost with a profiler installed: clock reads happen in
    // the OpScope; this measures the record() fold itself (map lookup +
    // histogram bump under the profiler mutex).
    obs::OpProfiler profiler;
    const std::string op = "linear";
    const std::string path = "encoder.layer.0.ffn.fc1";
    const std::string primitive = "shard";
    int64_t ns = 0;
    for (auto _ : state) {
        profiler.record(op, path, primitive, ++ns);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerRecord);

void
BM_MemProfilerDisabledCheck(benchmark::State& state)
{
    // The per-allocation cost of memory attribution when the profiler
    // is off: one relaxed atomic load in memProfilingEnabled() — the
    // only thing TensorStorage's ctor/dtor pay (obs/mem_profiler.h).
    obs::setMemProfilingEnabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(obs::memProfilingEnabled());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemProfilerDisabledCheck);

void
BM_MemProfilerRecord(benchmark::State& state)
{
    // The enabled-path cost: one registry insert + erase per
    // allocate/free pair (mutex, hash map, category counters, watermark
    // check). Uses a synthetic key so no real tensor traffic mixes in.
    obs::setMemProfilingEnabled(true);
    obs::memProfilerReset();
    int64_t key = 0;
    for (auto _ : state) {
        const void* k = reinterpret_cast<const void*>(++key);
        obs::memRecordAlloc(k, 4096);
        obs::memRecordFree(k);
    }
    state.SetItemsProcessed(state.iterations());
    obs::setMemProfilingEnabled(false);
    obs::memProfilerReset();
}
BENCHMARK(BM_MemProfilerRecord);

} // namespace

int
main(int argc, char** argv)
{
    // Kernel rows from different ISA paths do not compare; record which
    // path ran in the JSON context (docs/PERFORMANCE.md, "ISA dispatch").
    benchmark::AddCustomContext(
        "kernel_isa", slapo::kernels::isaName(slapo::kernels::kernels().isa));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
