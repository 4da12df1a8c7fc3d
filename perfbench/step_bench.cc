/**
 * @file
 * Step-level training benchmark of the numeric runtime (README.md in
 * this directory). One process runs one closed-loop workload: a single
 * caller issues the next training step (or pipelined forward) only after
 * the previous one returned.
 *
 *   perfbench_step --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                  [--steps <k>] [--out <dir>] [--source-id <id>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
 * a traced window, records spans around every call into a runtime module
 * (kept in memory, written to <out>/spans-<workload>-<seed>.json at the
 * end), runs per-layer probes and prints the per-layer metrics. --steps
 * replaces the timed window by a fixed step count (self-check mode).
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics.
 */
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/lint.h"
#include "baselines/slapo_schedules.h"
#include "core/pipeline.h"
#include "core/schedule.h"
#include "dialects/deepspeed_dialect.h"
#include "graph/memplan.h"
#include "models/dataset.h"
#include "models/registry.h"
#include "models/transformer.h"
#include "nn/tracer.h"
#include "obs/metrics.h"
#include "runtime/autograd.h"
#include "runtime/dist_executor.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"
#include "support/parallel.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

using namespace slapo;

namespace {

using Clock = std::chrono::steady_clock;
using Micros = std::vector<std::vector<Tensor>>;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]) of an unsorted sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/** FNV-1a over raw bytes: equal digests <=> bit-identical data. */
uint64_t
fnv(const void* data, size_t bytes, uint64_t h = 1469598103934665603ull)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h = (h ^ p[i]) * 1099511628211ull;
    }
    return h;
}

uint64_t
digestOf(const std::vector<Tensor>& tensors, uint64_t h = 1469598103934665603ull)
{
    for (const Tensor& t : tensors) {
        h = fnv(t.data(), static_cast<size_t>(t.numel()) * sizeof(float), h);
    }
    return h;
}

uint64_t bitsOf(double x) { return std::bit_cast<uint64_t>(x); }

// --- spans -------------------------------------------------------------------

/**
 * Spans recorded around calls into the runtime's modules, kept in memory
 * and written out once at the end. Disabled, open() is one branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string layer;
        std::string name;
        int parent;
        int thread;
        int64_t step;
        double start_us;
        double end_us;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    void setStep(int64_t step) { step_.store(step, std::memory_order_relaxed); }

    int
    open(const char* layer, const char* name)
    {
        if (!enabled_) return -1;
        const double t = usNow();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({layer, name, tls_current_, threadIndex(),
                          step_.load(std::memory_order_relaxed), t, t});
        tls_current_ = static_cast<int>(spans_.size()) - 1;
        return tls_current_;
    }

    void
    close(int id)
    {
        if (id < 0) return;
        const double t = usNow();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].end_us = t;
        tls_current_ = spans_[id].parent;
    }

    /** Make `parent` the enclosing span of this (worker) thread's spans. */
    void adopt(int parent) { tls_current_ = parent; }

    /** Chrome-trace JSON (load in chrome://tracing or Perfetto). */
    bool
    write(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"ts\":"
                << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
                << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":"
                << i << ",\"parent\":" << s.parent << ",\"step\":" << s.step
                << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

    /** Per layer: {spans, total ms, self ms}. Self time is a span's
     * duration minus the union of its children's intervals. */
    std::map<std::string, std::vector<double>>
    layerTimes() const
    {
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                children[s.parent].push_back({s.start_us, s.end_us});
            }
        }
        std::map<std::string, std::vector<double>> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            auto& kids = children[i];
            std::sort(kids.begin(), kids.end());
            double covered = 0;
            double reach = s.start_us;
            for (auto [b, e] : kids) {
                b = std::max(b, reach);
                e = std::min(e, s.end_us);
                if (e > b) {
                    covered += e - b;
                    reach = e;
                }
            }
            auto& row = out[s.layer];
            row.resize(3, 0.0);
            row[0] += 1;
            row[1] += (s.end_us - s.start_us) / 1e3;
            row[2] += (s.end_us - s.start_us - covered) / 1e3;
        }
        return out;
    }

    size_t size() const { return spans_.size(); }

  private:
    double
    usNow() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    int
    threadIndex()
    {
        const auto id = std::this_thread::get_id();
        auto it = threads_.find(id);
        if (it == threads_.end()) {
            it = threads_.emplace(id, static_cast<int>(threads_.size())).first;
        }
        return it->second;
    }

    static thread_local int tls_current_;

    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    std::atomic<int64_t> step_{-1};
    std::mutex mu_; ///< guards spans_ and threads_
    std::vector<Span> spans_;
    std::map<std::thread::id, int> threads_;
};

thread_local int SpanLog::tls_current_ = -1;

/**
 * Span log plus per-metric timing samples: every call the benchmark makes
 * into a runtime module goes through call(), which opens a span named
 * after the module's public function and, when `metric` is given,
 * appends the call's wall time (ms) to that metric's samples.
 */
class Recorder
{
  public:
    explicit Recorder(bool trace) : spans(trace) {}

    template <class F>
    auto
    call(const char* layer, const char* fn, const char* metric, F&& f)
    {
        const int id = spans.open(layer, fn);
        const auto start = Clock::now();
        struct Close
        {
            SpanLog& log;
            int id;
            ~Close() { log.close(id); }
        } close{spans, id};
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            f();
            note(metric, msSince(start));
        } else {
            auto result = f();
            note(metric, msSince(start));
            return result;
        }
    }

    void
    note(const char* metric, double ms)
    {
        if (metric != nullptr) samples[metric].push_back(ms);
    }

    SpanLog spans;
    std::map<std::string, std::vector<double>> samples;
};

/** Samples `fn`'s wall time into `metric` over at least 3 and at most
 * `max_reps` calls, stopping once `budget_ms` is spent. One warm call
 * first. */
template <class F>
void
probe(Recorder& rec, const char* layer, const char* fn, const char* metric,
      F&& f, int max_reps = 50, double budget_ms = 400)
{
    f();
    const auto start = Clock::now();
    for (int i = 0; i < max_reps; ++i) {
        rec.call(layer, fn, metric, f);
        if (i >= 2 && msSince(start) > budget_ms) break;
    }
}

// --- workloads -------------------------------------------------------------------

/** What one step returned. */
struct StepResult
{
    double loss = 0;         ///< training loss (compared bit for bit)
    uint64_t digest = 0;     ///< outputs digest (eval workloads)
    int64_t tokens = 0;
    int64_t recomputed_nodes = 0;
    int64_t stored_activation_bytes = 0;
    int64_t peak_in_flight = 0;
    bool ranks_agree = true; ///< every rank returned the same loss bits
};

/** Mid-size BERT of the step benchmark: ~4.3M parameters, no dropout. */
models::TransformerConfig
midConfig()
{
    models::TransformerConfig c =
        models::modelConfig("bert").scaled(256, 4, 4, 2048, 64);
    c.dropout = 0.0;
    return c;
}

nn::ModulePtr
buildMid()
{
    return std::make_shared<models::BertModel>(midConfig(), "BertModel");
}

/** `ring` distinct seeded steps of `micros` micro-batches [batch, seq],
 * cycled through by step index. */
std::vector<Micros>
makeInputs(int64_t vocab, int64_t seq, int64_t batch, int micros, int ring,
           uint64_t seed, bool with_targets)
{
    models::SyntheticDataset data("MLM", vocab, seq, seed);
    std::vector<Micros> steps(ring);
    for (int s = 0; s < ring; ++s) {
        for (int m = 0; m < micros; ++m) {
            models::Batch b = data.batch(batch, s * micros + m);
            steps[s].push_back(with_targets ? b.withTargets() : b.inputs);
        }
    }
    return steps;
}

int64_t
countTokens(const Micros& micros)
{
    int64_t n = 0;
    for (const auto& m : micros) n += m.at(0).numel();
    return n;
}

std::vector<Shape>
shapesOf(const std::vector<Tensor>& ts)
{
    std::vector<Shape> shapes;
    for (const Tensor& t : ts) shapes.push_back(t.shape());
    return shapes;
}

std::vector<nn::Value>
valuesOf(const std::vector<Tensor>& ts)
{
    return std::vector<nn::Value>(ts.begin(), ts.end());
}

void
lintOrThrow(Recorder& rec, nn::Module& model, int world)
{
    analysis::Diagnostics d = rec.call("analysis", "lintModule",
                                       "analysis.lint_ms",
                                       [&] { return analysis::lintModule(model, world); });
    if (d.hasErrors()) {
        throw std::runtime_error("lint rejected the workload's schedule");
    }
}

/**
 * Kernel threads (slapo::setNumThreads) per busy thread while timed. Not
 * 2: a host stall on either vCPU then holds up every parallel op, and on
 * mid-train the step times of runs taken minutes apart spread by 40%
 * (7% at one thread). The gates re-run at kGateThreads and require the
 * same bits.
 */
constexpr int kTimedThreads = 1;
constexpr int kGateThreads = 2;

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Busy threads in total during a step. */
    virtual int busyThreads() const = 0;
    /** Build a fresh state and run the warm-up step; the last one is kept. */
    virtual void setup(Recorder& rec) = 0;
    /** One closed-loop step on the kept state. */
    virtual StepResult step(Recorder& rec, int64_t index) = 0;
    /** Correctness gate over the timed steps: returns the failures. */
    virtual std::vector<std::string> verify(const std::vector<StepResult>& timed) = 0;
    /** Per-layer probes of the traced run. */
    virtual void probes(Recorder& rec) = 0;
};

/** Steps re-run at the other thread count by the correctness gates. */
constexpr int kGateSteps = 2;

/** Compare losses bit for bit; appends a failure message on mismatch. */
void
expectSameBits(std::vector<std::string>& failures, const std::string& what,
               double expected, double got)
{
    if (bitsOf(expected) != bitsOf(got)) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s: %.17g != %.17g", what.c_str(),
                      expected, got);
        failures.push_back(buf);
    }
}

/** tiny-train / mid-train: a scheduled model stepped by runtime::Trainer. */
class TrainerWorkload : public Workload
{
  public:
    struct Spec
    {
        std::function<nn::ModulePtr()> build;
        baselines::ScheduleRecipe recipe;
        int64_t vocab, seq, batch;
        int micros;
    };

    TrainerWorkload(Spec spec, uint64_t seed)
        : spec_(std::move(spec)), seed_(seed),
          inputs_(makeInputs(spec_.vocab, spec_.seq, spec_.batch, spec_.micros,
                             8, seed, true))
    {
    }

    int busyThreads() const override { return 1; }

    void
    setup(Recorder& rec) override
    {
        state_ = build(rec);
        warmup_losses_.push_back(state_.warmup_loss);
    }

    StepResult
    step(Recorder& rec, int64_t index) override
    {
        const Micros& micros = inputs_[index % inputs_.size()];
        runtime::TrainStepStats stats = rec.call(
            "runtime", "Trainer::step", nullptr,
            [&] { return state_.trainer->step(micros); });
        StepResult r;
        r.loss = stats.loss;
        r.tokens = stats.tokens;
        r.recomputed_nodes = stats.recomputed_nodes;
        r.stored_activation_bytes = stats.stored_activation_bytes;
        return r;
    }

    std::vector<std::string>
    verify(const std::vector<StepResult>& timed) override
    {
        std::vector<std::string> failures;
        for (double loss : warmup_losses_) {
            expectSameBits(failures, "warm-up loss across setups",
                           warmup_losses_[0], loss);
        }
        setNumThreads(kGateThreads);
        Recorder quiet(false);
        State fresh = build(quiet);
        expectSameBits(failures, "warm-up loss at 2 kernel threads",
                       warmup_losses_[0], fresh.warmup_loss);
        for (int k = 0; k < kGateSteps && k < static_cast<int>(timed.size());
             ++k) {
            const double loss =
                fresh.trainer->step(inputs_[(k + 1) % inputs_.size()]).loss;
            expectSameBits(failures,
                           "step " + std::to_string(k + 1) +
                               " loss at 2 kernel threads",
                           timed[k].loss, loss);
        }
        setNumThreads(kTimedThreads);
        return failures;
    }

    void
    probes(Recorder& rec) override
    {
        nn::Module& model = *state_.loss_model;
        const std::vector<Tensor>& micro = inputs_[0][0];
        const std::vector<Shape> shapes = shapesOf(micro);
        probe(rec, "nn", "traceModule", "nn.trace_ms",
              [&] { nn::traceModule(model, shapes); });
        std::shared_ptr<graph::Graph> g = nn::traceModule(model, shapes);
        probe(rec, "graph", "buildMemPlan", "graph.memplan_ms",
              [&] { graph::buildMemPlan(*g, shapes); });
        const std::vector<nn::Value> values = valuesOf(micro);
        probe(rec, "nn", "Module::call", "nn.forward_ms",
              [&] { model.call(values); });
        probe(rec, "runtime", "AutogradEngine::run", "runtime.autograd_ms",
              [&] {
                  runtime::AutogradEngine engine;
                  engine.run(model, micro);
              });
        runtime::AutogradEngine engine;
        engine.run(model, micro);
        probe(rec, "runtime", "AutogradEngine::run", "runtime.autograd_cached_ms",
              [&] { engine.run(model, micro); });
    }

  private:
    struct State
    {
        nn::ModulePtr loss_model;
        std::unique_ptr<runtime::Trainer> trainer;
        double warmup_loss = 0;
    };

    State
    build(Recorder& rec)
    {
        State s;
        nn::ModulePtr model =
            rec.call("models", "build", nullptr, [&] { return spec_.build(); });
        rec.call("nn", "Module::initializeParams", nullptr,
                 [&] { model->initializeParams(seed_); });
        core::SchedulePtr sch = rec.call(
            "baselines", "applyRecipe", "baselines.recipe_ms", [&] {
                return baselines::applyRecipe(model, spec_.recipe, spec_.seq);
            });
        s.loss_model = runtime::withCrossEntropyLoss(sch->module());
        lintOrThrow(rec, *s.loss_model, 1);
        s.trainer = std::make_unique<runtime::Trainer>(s.loss_model);
        s.warmup_loss = rec.call("runtime", "Trainer::step", nullptr, [&] {
                               return s.trainer->step(inputs_[0]).loss;
                           });
        return s;
    }

    Spec spec_;
    uint64_t seed_;
    std::vector<Micros> inputs_;
    State state_;
    std::vector<double> warmup_losses_;
};

/**
 * mid-tp2: the mid model under tensorParallel(2), replicated by
 * DistExecutor; each step runs AutogradEngine::run + AdamW::step on both
 * rank threads (DataParallelTrainer rejects TP models, so the step is
 * composed from the public calls).
 */
class TensorParallelWorkload : public Workload
{
  public:
    static constexpr int kWorld = 2;

    explicit TensorParallelWorkload(uint64_t seed)
        : seed_(seed), inputs_(makeInputs(2048, 64, 4, 1, 8, seed, true))
    {
    }

    int busyThreads() const override { return kWorld; }

    void
    setup(Recorder& rec) override
    {
        state_ = build(rec);
        warmup_losses_.push_back(state_->warmup_loss);
    }

    StepResult
    step(Recorder& rec, int64_t index) override
    {
        return runStep(rec, *state_, inputs_[index % inputs_.size()][0]);
    }

    std::vector<std::string>
    verify(const std::vector<StepResult>& timed) override
    {
        std::vector<std::string> failures;
        for (size_t i = 0; i < timed.size(); ++i) {
            if (!timed[i].ranks_agree) {
                failures.push_back("ranks disagree on the loss of step " +
                                   std::to_string(i + 1));
            }
        }
        for (double loss : warmup_losses_) {
            expectSameBits(failures, "warm-up loss across setups",
                           warmup_losses_[0], loss);
        }
        setNumThreads(kGateThreads);
        Recorder quiet(false);
        std::unique_ptr<State> fresh = build(quiet);
        expectSameBits(failures, "warm-up loss at 2 kernel threads",
                       warmup_losses_[0], fresh->warmup_loss);
        for (int k = 0; k < kGateSteps && k < static_cast<int>(timed.size());
             ++k) {
            StepResult r =
                runStep(quiet, *fresh, inputs_[(k + 1) % inputs_.size()][0]);
            expectSameBits(failures,
                           "step " + std::to_string(k + 1) +
                               " loss at 2 kernel threads",
                           timed[k].loss, r.loss);
        }
        setNumThreads(kTimedThreads);
        // Named observation, not gated: the TP loss differs from the
        // single-device model's (README.md, "Known gap").
        nn::ModulePtr single = buildMid();
        single->initializeParams(seed_);
        auto dense = runtime::withCrossEntropyLoss(single);
        runtime::AutogradEngine engine;
        const double dense_loss =
            engine.run(*dense, inputs_[0][0]).outputs[0].at(0);
        std::printf("observation tp2_vs_single_device_step0_loss_gap=%.6g "
                    "(tp2 %.9g, single device %.9g)\n",
                    std::fabs(warmup_losses_[0] - dense_loss),
                    warmup_losses_[0], dense_loss);
        return failures;
    }

    void
    probes(Recorder& rec) override
    {
        State& s = *state_;
        const std::vector<Tensor>& micro = inputs_[0][0];
        const std::vector<Shape> shapes = shapesOf(micro);
        probe(rec, "nn", "traceModule", "nn.trace_ms",
              [&] { nn::traceModule(*s.loss_model, shapes); });
        std::shared_ptr<graph::Graph> g = nn::traceModule(*s.loss_model, shapes);
        probe(rec, "graph", "buildMemPlan", "graph.memplan_ms",
              [&] { graph::buildMemPlan(*g, shapes); });
        // Forward and autograd need the rank context: time rank 0's call
        // inside the executor, so rank-thread spawn is not included.
        const std::vector<nn::Value> values = valuesOf(micro);
        for (int rep = 0; rep < 5; ++rep) {
            s.executor->run(s.replicas, [&](int rank, nn::Module& m,
                                            runtime::ProcessGroup&) {
                auto timed = [&](const char* metric, auto&& f) {
                    const auto start = Clock::now();
                    f();
                    if (rank == 0 && rep > 0) rec.note(metric, msSince(start));
                };
                timed("nn.forward_ms", [&] { m.call(values); });
                runtime::AutogradEngine engine;
                timed("runtime.autograd_ms", [&] { engine.run(m, micro); });
                timed("runtime.autograd_cached_ms",
                      [&] { engine.run(m, micro); });
            });
        }
    }

  private:
    struct State
    {
        core::SchedulePtr schedule;
        nn::ModulePtr loss_model;
        std::unique_ptr<runtime::DistExecutor> executor;
        std::vector<nn::ModulePtr> replicas;
        std::vector<AdamW> optimizers;
        std::vector<std::vector<Tensor*>> params;
        double warmup_loss = 0;
    };

    std::unique_ptr<State>
    build(Recorder& rec)
    {
        auto s = std::make_unique<State>();
        nn::ModulePtr model =
            rec.call("models", "build", nullptr, [&] { return buildMid(); });
        rec.call("nn", "Module::initializeParams", nullptr,
                 [&] { model->initializeParams(seed_); });
        s->schedule = rec.call("baselines", "applyRecipe", "baselines.recipe_ms",
                               [&] {
                                   return baselines::applyRecipe(
                                       model,
                                       baselines::ScheduleRecipe::tensorParallel(
                                           kWorld, 0.0, true),
                                       64);
                               });
        s->loss_model = runtime::withCrossEntropyLoss(s->schedule->module());
        lintOrThrow(rec, *s->loss_model, kWorld);
        s->executor = std::make_unique<runtime::DistExecutor>(kWorld);
        s->replicas = rec.call("runtime", "DistExecutor::replicate",
                               "runtime.replicate_ms", [&] {
                                   return s->executor->replicate(*s->loss_model);
                               });
        for (const nn::ModulePtr& replica : s->replicas) {
            AdamW optimizer;
            std::vector<Tensor*> params;
            for (auto& [path, tensor] : replica->namedParams()) {
                optimizer.addParam(*tensor);
                params.push_back(tensor);
            }
            s->optimizers.push_back(std::move(optimizer));
            s->params.push_back(std::move(params));
        }
        s->warmup_loss = runStep(rec, *s, inputs_[0][0]).loss;
        return s;
    }

    static StepResult
    runStep(Recorder& rec, State& s, const std::vector<Tensor>& inputs)
    {
        std::vector<double> losses(kWorld);
        StepResult r;
        const int parent = rec.spans.open("runtime", "DistExecutor::run");
        s.executor->run(s.replicas, [&](int rank, nn::Module& m,
                                        runtime::ProcessGroup&) {
            rec.spans.adopt(parent);
            runtime::GradResult g = rec.call(
                "runtime", "AutogradEngine::run", nullptr, [&] {
                    runtime::AutogradEngine engine;
                    return engine.run(m, inputs);
                });
            std::vector<Tensor> grads;
            for (Tensor* p : s.params[rank]) {
                grads.push_back(runtime::AutogradEngine::gradFor(g, *p));
            }
            rec.call("tensor", "AdamW::step", nullptr,
                     [&] { s.optimizers[rank].step(grads); });
            losses[rank] = g.outputs[0].at(0);
            if (rank == 0) {
                r.recomputed_nodes = g.recomputed_nodes;
                r.stored_activation_bytes = g.stored_activation_bytes;
            }
        });
        rec.spans.close(parent);
        r.loss = losses[0];
        r.tokens = inputs[0].numel();
        for (double loss : losses) {
            r.ranks_agree = r.ranks_agree && bitsOf(loss) == bitsOf(losses[0]);
        }
        return r;
    }

    uint64_t seed_;
    std::vector<Micros> inputs_;
    std::unique_ptr<State> state_;
    std::vector<double> warmup_losses_;
};

/**
 * mid-pp2-fwd: the unscheduled mid model split after encoder.layer.1,
 * partitioned, wrapped in the DeepSpeed dialect and streamed through the
 * threaded PipelineRuntime, 8 micro-batches of [1, 64] per step.
 */
class PipelineWorkload : public Workload
{
  public:
    static constexpr int kStages = 2;
    static constexpr int kRing = 2;

    explicit PipelineWorkload(uint64_t seed)
        : seed_(seed), inputs_(makeInputs(2048, 64, 1, 8, kRing, seed, false))
    {
    }

    int busyThreads() const override { return kStages; }

    void
    setup(Recorder& rec) override
    {
        state_ = build(rec);
        warmup_digests_.push_back(state_->warmup_digest);
    }

    StepResult
    step(Recorder& rec, int64_t index) override
    {
        const Micros& micros = inputs_[index % kRing];
        runtime::PipelineRunResult out = rec.call(
            "runtime", "PipelineRuntime::forward", nullptr,
            [&] { return state_->pipeline->forward(micros); });
        StepResult r;
        r.digest = digestAll(out.outputs);
        r.tokens = countTokens(micros);
        r.peak_in_flight = out.peak_in_flight;
        return r;
    }

    std::vector<std::string>
    verify(const std::vector<StepResult>& timed) override
    {
        std::vector<std::string> failures;
        // Every step must equal the unpartitioned Module::call, bit for bit.
        std::vector<uint64_t> expected(kRing);
        for (int s = 0; s < kRing; ++s) {
            std::vector<std::vector<Tensor>> outs;
            for (const auto& micro : inputs_[s]) {
                std::vector<Tensor> o;
                for (nn::Value& v : state_->reference->call(valuesOf(micro))) {
                    o.push_back(v.tensor());
                }
                outs.push_back(std::move(o));
            }
            expected[s] = digestAll(outs);
        }
        for (size_t i = 0; i < timed.size(); ++i) {
            if (timed[i].digest != expected[(i + 1) % kRing]) {
                failures.push_back("pipeline outputs of step " +
                                   std::to_string(i + 1) +
                                   " differ from the unpartitioned forward");
            }
        }
        for (uint64_t d : warmup_digests_) {
            if (d != expected[0]) {
                failures.push_back("warm-up pipeline outputs differ from the "
                                   "unpartitioned forward");
            }
        }
        setNumThreads(kGateThreads);
        Recorder quiet(false);
        std::unique_ptr<State> fresh = build(quiet);
        if (fresh->warmup_digest != expected[0]) {
            failures.push_back("pipeline outputs differ at 2 kernel threads");
        }
        setNumThreads(kTimedThreads);
        return failures;
    }

    void
    probes(Recorder& rec) override
    {
        nn::Module& model = *state_->reference;
        const std::vector<Tensor>& micro = inputs_[0][0];
        const std::vector<Shape> shapes = shapesOf(micro);
        probe(rec, "nn", "traceModule", "nn.trace_ms",
              [&] { nn::traceModule(model, shapes); });
        std::shared_ptr<graph::Graph> g = nn::traceModule(model, shapes);
        probe(rec, "graph", "buildMemPlan", "graph.memplan_ms",
              [&] { graph::buildMemPlan(*g, shapes); });
        const std::vector<nn::Value> values = valuesOf(micro);
        probe(rec, "nn", "Module::call", "nn.forward_ms",
              [&] { model.call(values); });
    }

  private:
    struct State
    {
        nn::ModulePtr reference;
        core::SchedulePtr schedule;
        std::unique_ptr<runtime::PipelineRuntime> pipeline;
        uint64_t warmup_digest = 0;
    };

    static uint64_t
    digestAll(const std::vector<std::vector<Tensor>>& outputs)
    {
        uint64_t h = 1469598103934665603ull;
        for (const auto& o : outputs) h = digestOf(o, h);
        return h;
    }

    std::unique_ptr<State>
    build(Recorder& rec)
    {
        auto s = std::make_unique<State>();
        nn::ModulePtr model =
            rec.call("models", "build", nullptr, [&] { return buildMid(); });
        rec.call("nn", "Module::initializeParams", nullptr,
                 [&] { model->initializeParams(seed_); });
        s->reference = rec.call("nn", "Module::clone", nullptr,
                                [&] { return model->clone(); });
        s->schedule = core::Schedule::create(model, kStages);
        (*s->schedule)["encoder.layer.1"].pipelineSplit();
        lintOrThrow(rec, *model, kStages);
        std::vector<core::PipelineStage> stages = rec.call(
            "core", "partitionPipeline", "core.partition_ms", [&] {
                return core::partitionPipeline(*s->schedule, {{1, 64}});
            });
        std::vector<nn::ModulePtr> wrapped =
            rec.call("dialects", "wrapForDeepSpeedPipeline", "dialects.wrap_ms",
                     [&] { return dialects::wrapForDeepSpeedPipeline(stages); });
        s->pipeline = std::make_unique<runtime::PipelineRuntime>(wrapped);
        runtime::PipelineRunResult out = rec.call(
            "runtime", "PipelineRuntime::forward", nullptr,
            [&] { return s->pipeline->forward(inputs_[0]); });
        s->warmup_digest = digestAll(out.outputs);
        return s;
    }

    uint64_t seed_;
    std::vector<Micros> inputs_;
    std::unique_ptr<State> state_;
    std::vector<uint64_t> warmup_digests_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string& name, uint64_t seed)
{
    if (name == "tiny-train") {
        TrainerWorkload::Spec spec{
            [] { return models::buildTinyModel("bert"); },
            baselines::ScheduleRecipe::vanilla(), 64, 8, 2, 2};
        return std::make_unique<TrainerWorkload>(std::move(spec), seed);
    }
    if (name == "mid-train") {
        TrainerWorkload::Spec spec{
            buildMid, baselines::ScheduleRecipe::kernelOptimized(0.5), 2048,
            64, 4, 1};
        return std::make_unique<TrainerWorkload>(std::move(spec), seed);
    }
    if (name == "mid-tp2") {
        return std::make_unique<TensorParallelWorkload>(seed);
    }
    if (name == "mid-pp2-fwd") {
        return std::make_unique<PipelineWorkload>(seed);
    }
    return nullptr;
}

/** Kernel and rank probes shared by every workload (traced run). */
void
commonProbes(Recorder& rec)
{
    // FFN fc1 of the mid model at its training shape: [4*64, 256] x [1024, 256].
    Tensor x = Tensor::uniform({256, 256}, 1.0f, 1);
    Tensor w = Tensor::uniform({1024, 256}, 1.0f, 2);
    Tensor b = Tensor::uniform({1024}, 1.0f, 3);
    probe(rec, "tensor", "ops::linear", "tensor.ffn_linear_ms",
          [&] { ops::linear(x, w, b); });

    // AdamW over the mid model's parameter set.
    nn::ModulePtr model = buildMid();
    model->initializeParams(5);
    AdamW optimizer;
    std::vector<Tensor> grads;
    for (auto& [path, tensor] : model->namedParams()) {
        optimizer.addParam(*tensor);
        grads.push_back(Tensor::uniform(tensor->shape(), 1e-3f, 7));
    }
    probe(rec, "tensor", "AdamW::step", "tensor.adamw_ms",
          [&] { optimizer.step(grads); }, 20);
    rec.note("tensor.adamw_params", static_cast<double>(model->numParams()));

    // Rank-thread spawn + join: DistExecutor::run with a no-op body.
    runtime::DistExecutor executor(2);
    std::vector<nn::ModulePtr> replicas = {std::make_shared<nn::Linear>(2, 2, true),
                                           std::make_shared<nn::Linear>(2, 2, true)};
    probe(rec, "runtime", "DistExecutor::run", "runtime.rank_spawn_ms",
          [&] { executor.run(replicas, [](int, nn::Module&, runtime::ProcessGroup&) {}); },
          100);
}

// --- timed windows ------------------------------------------------------------------

volatile double g_probe_sink = 0;

/**
 * Host speed probe. The benchmark runs on shared virtual machines whose
 * speed drifts by up to 40% over minutes as other tenants load the host,
 * and a dispatch-bound step slows with it. Between steps the probe times
 * one call of a fixed kernel that does not use the runtime (heap
 * allocations, an ordered map, scalar arithmetic), at most every 50 ms.
 * It runs right after a step, with the step's data still in cache, as
 * the next step would: its ratio to a tiny-train step stayed within ±5%
 * while the raw step moved by ±17%. Time metrics are reported at nominal
 * host speed: multiplied by speed() = kNominalMs / (median probe time of
 * the run). Raw values are printed beside them.
 */
class SpeedProbe
{
  public:
    /** Typical probe time after a tiny-train step on the reference host
     * (4-vCPU KVM guest, Xeon family 6 model 207). */
    static constexpr double kNominalMs = 0.25;

    /** Take a sample unless one was taken in the last 50 ms; returns the
     * ms spent. */
    double
    maybeSample()
    {
        if (!ms_.empty() && msSince(last_) < 50) return 0;
        const auto start = Clock::now();
        kernel();
        ms_.push_back(msSince(start));
        last_ = Clock::now();
        return msSince(start);
    }

    /** Host speed relative to nominal (< 1 when slower). */
    double speed() const { return ms_.empty() ? 1.0 : kNominalMs / median(ms_); }
    size_t samples() const { return ms_.size(); }

  private:
    static void
    kernel()
    {
        uint64_t x = 12345;
        double acc = 0;
        for (int i = 0; i < 100; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::vector<float> v(64 + (x >> 55));
            for (float& f : v) {
                x = x * 6364136223846793005ull + 1;
                f = static_cast<float>(x >> 40) * 1e-6f;
            }
            std::map<int, int> m;
            for (int k = 0; k < 8; ++k) m[static_cast<int>((x >> (k * 4)) & 255)] = k;
            for (float f : v) acc += f;
            acc += static_cast<double>(m.size());
        }
        g_probe_sink = acc;
    }

    std::vector<double> ms_;
    Clock::time_point last_;
};

/**
 * High watermark of tensor_live_bytes over a window. The gauge only keeps
 * an all-time peak, so the window zeroes it and adds back the level it
 * started from: peak = level at start + highest rise above it.
 */
class LiveBytesWindow
{
  public:
    LiveBytesWindow() : start_(obs::metrics().tensor_live_bytes.get())
    {
        obs::metrics().tensor_live_bytes.reset();
    }
    ~LiveBytesWindow() { obs::metrics().tensor_live_bytes.add(start_); }
    LiveBytesWindow(const LiveBytesWindow&) = delete;
    LiveBytesWindow& operator=(const LiveBytesWindow&) = delete;

    int64_t peak() const { return start_ + obs::metrics().tensor_live_bytes.peak(); }
    int64_t live() const { return start_ + obs::metrics().tensor_live_bytes.get(); }

  private:
    int64_t start_;
};

struct Window
{
    std::vector<double> step_ms;
    std::vector<StepResult> results;
    std::vector<std::string> errors;
    int64_t attempted = 0;
    int64_t tokens = 0;
    double elapsed_s = 0; ///< window wall time less speed-probe time
    int64_t peak_bytes = 0;
    int64_t retained_bytes = 0;
    std::vector<std::pair<std::string, int64_t>> counters; ///< obs deltas
};

/**
 * Closed loop: step, wait for it, step again — for `seconds` (or exactly
 * `fixed_steps` when > 0), and at least `min_steps` steps.
 */
Window
runWindow(Workload& w, Recorder& rec, SpeedProbe& probe, int64_t first_index,
          double seconds, int64_t min_steps, int64_t fixed_steps)
{
    double probe_ms = 0;
    Window win;
    LiveBytesWindow live;
    obs::MetricsDelta delta;
    const auto start = Clock::now();
    for (int64_t i = 0;; ++i) {
        const bool done = fixed_steps > 0
                              ? i >= fixed_steps
                              : i >= min_steps && msSince(start) >= seconds * 1e3;
        if (done) break;
        rec.spans.setStep(first_index + i);
        const auto step_start = Clock::now();
        ++win.attempted;
        try {
            StepResult r = w.step(rec, first_index + i);
            win.step_ms.push_back(msSince(step_start));
            win.tokens += r.tokens;
            win.results.push_back(r);
        } catch (const std::exception& e) {
            win.errors.push_back(e.what());
            if (win.errors.size() > 3) break;
        }
        // Between steps every worker thread has joined: live + pooled is
        // what the process holds for tensors.
        win.retained_bytes =
            std::max(win.retained_bytes,
                     live.live() + obs::metrics().alloc_pooled_bytes.get());
        probe_ms += probe.maybeSample();
    }
    win.elapsed_s = (msSince(start) - probe_ms) / 1e3;
    win.peak_bytes = live.peak();
    win.counters = rec.call("obs", "MetricsDelta::values", nullptr,
                            [&] { return delta.values(); });
    return win;
}

/**
 * Highest of p50/p75/p90/p95 with >= 10 samples beyond it. Capped at p95:
 * on tiny-train the p99 of ten runs spread by 46% (interquartile range
 * over median), set by the host's stalls rather than by the program.
 */
double
tailPercentile(size_t n)
{
    double best = 50;
    for (double p : {75.0, 90.0, 95.0}) {
        const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
        if (beyond >= 10.0) best = p;
    }
    return best;
}

int64_t
counter(const Window& w, const std::string& name)
{
    for (const auto& [k, v] : w.counters) {
        if (k == name) return v;
    }
    return 0;
}

// --- output ------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    double base; ///< samples or steps the value rests on
};

std::string
resultJson(bool correct, int64_t attempted, int64_t failed,
           const std::vector<Metric>& metrics)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    int64_t steps = 0;
    std::string out_dir = ".";
    std::string source_id = "unknown";
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") a.workload = val;
        else if (key == "--seed") { a.seed = std::stoull(val); have_seed = true; }
        else if (key == "--seconds") a.seconds = std::stod(val);
        else if (key == "--trace") a.trace = val == "1";
        else if (key == "--steps") a.steps = std::stoll(val);
        else if (key == "--out") a.out_dir = val;
        else if (key == "--source-id") a.source_id = val;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || !have_seed) {
        throw std::invalid_argument("--workload and --seed are required");
    }
    if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    return a;
}

/** Setup repetitions: median setup time over at least 3 fresh builds,
 * more while they stay cheap. */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetMs = 1500;

int
run(const Args& args)
{
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    setNumThreads(kTimedThreads);
    std::printf("meta workload=%s seed=%llu seconds=%g trace=%d kernel_threads=%d "
                "busy_threads=%d nproc=%u build_type=%s source=%s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, getNumThreads(),
                w->busyThreads(), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, args.source_id.c_str());

    Recorder rec(args.trace);
    SpeedProbe probe;
    std::vector<double> setup_ms;
    const auto setups_start = Clock::now();
    for (int i = 0; i < kMaxSetups; ++i) {
        const auto start = Clock::now();
        rec.call("bench", "setup", nullptr, [&] { w->setup(rec); });
        setup_ms.push_back(msSince(start));
        probe.maybeSample();
        if (i + 1 >= kMinSetups && msSince(setups_start) > kSetupBudgetMs) break;
    }

    // Enough steps that the tail percentile has 10 samples beyond p75.
    const int64_t min_steps = args.steps > 0 ? 0 : 40;
    std::vector<Metric> metrics;
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<StepResult> checked;
    auto account = [&](const Window& win) {
        attempted += win.attempted;
        failed += win.attempted - static_cast<int64_t>(win.results.size());
        for (const std::string& e : win.errors) {
            std::printf("step-error %s\n", e.c_str());
        }
    };

    if (!args.trace) {
        Window win =
            runWindow(*w, rec, probe, 1, args.seconds, min_steps, args.steps);
        account(win);
        checked = win.results;
        const double tail = tailPercentile(win.step_ms.size());
        const double raw_tokens_per_s = win.tokens / win.elapsed_s;
        const double raw_p50 = median(win.step_ms);
        const double raw_tail = quantile(win.step_ms, tail / 100);
        const double raw_setup_s = median(setup_ms) / 1e3;
        const double speed = probe.speed();
        std::printf("info steps=%zu window_s=%.3f tail_percentile=p%g "
                    "samples_beyond_tail=%.0f setups=%zu\n",
                    win.step_ms.size(), win.elapsed_s, tail,
                    std::floor(win.step_ms.size() * (1 - tail / 100)),
                    setup_ms.size());
        std::printf("info host_speed=%.4f probe_samples=%zu raw_tokens_per_s=%.6g "
                    "raw_step_ms_p50=%.6g raw_step_ms_tail=%.6g raw_setup_s=%.6g\n",
                    speed, probe.samples(), raw_tokens_per_s, raw_p50, raw_tail,
                    raw_setup_s);
        metrics = {
            {"tokens_per_s", raw_tokens_per_s / speed, "1/s",
             static_cast<double>(win.tokens)},
            {"step_ms_p50", raw_p50 * speed, "ms",
             static_cast<double>(win.step_ms.size())},
            {"step_ms_tail", raw_tail * speed, "ms",
             static_cast<double>(win.step_ms.size())},
            {"peak_mem_bytes", static_cast<double>(win.peak_bytes), "bytes",
             static_cast<double>(win.step_ms.size())},
            {"retained_mem_bytes", static_cast<double>(win.retained_bytes),
             "bytes", static_cast<double>(win.step_ms.size())},
            {"setup_s", raw_setup_s * speed, "s",
             static_cast<double>(setup_ms.size())},
            {"step_ok_frac",
             static_cast<double>(win.results.size()) /
                 static_cast<double>(std::max<int64_t>(win.attempted, 1)),
             "frac", static_cast<double>(win.attempted)},
        };
    } else {
        // Untraced, then traced window of half the run each: their p50
        // difference is the tracing overhead.
        Recorder untraced(false);
        Window plain = runWindow(*w, untraced, probe, 1, args.seconds / 2,
                                 min_steps / 2, args.steps);
        account(plain);
        checked = plain.results;
        Window win = runWindow(*w, rec, probe, 1 + plain.attempted,
                               args.seconds / 2, min_steps / 2, args.steps);
        account(win);
        rec.spans.setStep(-1);
        w->probes(rec);
        commonProbes(rec);

        const double steps = static_cast<double>(std::max<size_t>(win.results.size(), 1));
        const int64_t hits = counter(win, "alloc.pool_hits");
        const int64_t misses = counter(win, "alloc.pool_misses");
        auto last = [&](auto field) {
            return win.results.empty() ? 0.0
                                       : static_cast<double>(win.results.back().*field);
        };
        int64_t in_flight = 0;
        for (const StepResult& r : win.results) {
            in_flight = std::max(in_flight, r.peak_in_flight);
        }
        auto sampled = [&](const char* name, const char* unit) {
            auto it = rec.samples.find(name);
            const bool have = it != rec.samples.end();
            return Metric{name, have ? median(it->second) : 0.0, unit,
                          have ? static_cast<double>(it->second.size()) : 0.0};
        };
        const double plain_p50 = median(plain.step_ms);
        const double traced_p50 = median(win.step_ms);
        const double n = static_cast<double>(win.results.size());
        metrics = {
            sampled("nn.trace_ms", "ms"),
            sampled("nn.forward_ms", "ms"),
            sampled("graph.memplan_ms", "ms"),
            sampled("runtime.autograd_ms", "ms"),
            sampled("runtime.autograd_cached_ms", "ms"),
            {"runtime.recomputed_nodes", last(&StepResult::recomputed_nodes),
             "count", n},
            {"runtime.stored_activation_bytes",
             last(&StepResult::stored_activation_bytes), "bytes", n},
            {"runtime.pg_calls", counter(win, "pg.count") / steps, "count", n},
            {"runtime.pg_wait_ms", counter(win, "pg.wait_ns") / steps / 1e6, "ms", n},
            {"runtime.pg_copy_ms", counter(win, "pg.copy_ns") / steps / 1e6, "ms", n},
            sampled("runtime.rank_spawn_ms", "ms"),
            {"runtime.pipeline_queue_wait_ms",
             counter(win, "pipeline.queue_wait_ns") / steps / 1e6, "ms", n},
            {"runtime.pipeline_push_wait_ms",
             counter(win, "pipeline.push_wait_ns") / steps / 1e6, "ms", n},
            {"runtime.pipeline_peak_in_flight", static_cast<double>(in_flight),
             "count", n},
            sampled("runtime.replicate_ms", "ms"),
            {"tensor.alloc_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
             "frac", static_cast<double>(hits + misses)},
            {"tensor.alloc_pool_hits", hits / steps, "count", n},
            {"tensor.alloc_pool_misses", misses / steps, "count", n},
            sampled("tensor.ffn_linear_ms", "ms"),
            {"tensor.ffn_linear_flops", 2.0 * 256 * 256 * 1024, "count", 1},
            sampled("tensor.adamw_ms", "ms"),
            sampled("tensor.adamw_params", "count"),
            sampled("baselines.recipe_ms", "ms"),
            sampled("analysis.lint_ms", "ms"),
            sampled("core.partition_ms", "ms"),
            sampled("dialects.wrap_ms", "ms"),
            {"obs.trace_overhead_frac",
             plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 : 0.0, "frac",
             static_cast<double>(plain.results.size() + win.results.size())},
        };
        std::printf("info untraced_p50_ms=%.6g (n=%zu) traced_p50_ms=%.6g (n=%zu) "
                    "spans=%zu\n",
                    plain_p50, plain.results.size(), traced_p50,
                    win.results.size(), rec.spans.size());
        for (const auto& [layer, row] : rec.spans.layerTimes()) {
            std::printf("layer %-10s spans=%-7.0f total_ms=%-12.3f self_ms=%.3f\n",
                        layer.c_str(), row[0], row[1], row[2]);
        }
        const std::string path = args.out_dir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        if (!rec.spans.write(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("info spans_file=%s\n", path.c_str());
    }

    std::vector<std::string> failures = w->verify(checked);
    for (const std::string& f : failures) {
        std::printf("gate-failure %s\n", f.c_str());
    }
    correct = failures.empty() && !checked.empty();
    uint64_t h = 1469598103934665603ull;
    for (int k = 0; k < kGateSteps && k < static_cast<int>(checked.size()); ++k) {
        const uint64_t bits[2] = {bitsOf(checked[k].loss), checked[k].digest};
        h = fnv(bits, sizeof bits, h);
    }
    std::printf("info gate=%s first_steps_digest=%016llx\n",
                correct ? "pass" : "FAIL", static_cast<unsigned long long>(h));
    for (const Metric& m : metrics) {
        std::printf("metric %-34s %-16.6g %-6s n=%.0f\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.base);
    }
    std::printf("%s\n", resultJson(correct, attempted, failed, metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_step: %s\n", e.what());
        return 1;
    }
}
