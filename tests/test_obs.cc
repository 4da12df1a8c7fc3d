/**
 * @file
 * Observability subsystem tests (docs/OBSERVABILITY.md): Chrome-trace
 * span recording (nesting, multi-thread emission, JSON validity,
 * disabled fast path), the per-op aggregate profiler against
 * hand-counted node executions, always-on metrics, and the
 * elapsed-wait annotation on CollectiveError.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "runtime/autograd.h"
#include "support/error.h"
#include "tensor/tensor.h"

namespace slapo {
namespace {

using testutil::JsonValidator; // tests/json_validator.h

/** The dump line of the first 'X' event named `name` ("" if absent). */
std::string
eventLine(const std::string& dump, const std::string& name)
{
    const std::string needle = "{\"name\":\"" + name + "\"";
    size_t at = 0;
    while ((at = dump.find(needle, at)) != std::string::npos) {
        const size_t end = dump.find('\n', at);
        std::string line = dump.substr(at, end - at);
        if (line.find("\"ph\":\"X\"") != std::string::npos) {
            return line;
        }
        at += needle.size();
    }
    return "";
}

/** Parse `"key":<number>` out of an event line. */
double
numField(const std::string& line, const char* key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    if (at == std::string::npos) return -1;
    return std::atof(line.c_str() + at + needle.size());
}

int
countOccurrences(const std::string& text, const std::string& needle)
{
    int n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

// --- trace recorder --------------------------------------------------------

TEST(Trace, DisabledPathIsNoOp)
{
    ASSERT_FALSE(obs::tracingEnabled());
    obs::clearTrace();
    {
        obs::TraceSpan span("never.recorded", "test");
        EXPECT_FALSE(span.live());
        span.arg("ignored", static_cast<int64_t>(1));
    }
    obs::traceCounter("never.counted", 7);
    EXPECT_EQ(obs::stopTracing(), 0);
    const std::string dump = obs::dumpTraceJson();
    EXPECT_EQ(dump.find("never.recorded"), std::string::npos);
    EXPECT_EQ(dump.find("never.counted"), std::string::npos);
}

TEST(Trace, SpansNestCorrectly)
{
    obs::startTracing();
    {
        obs::TraceSpan outer("outer.span", "test");
        EXPECT_TRUE(outer.live());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        {
            obs::TraceSpan inner("inner.span", "test");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    obs::stopTracing();
    const std::string dump = obs::dumpTraceJson();

    const std::string outer = eventLine(dump, "outer.span");
    const std::string inner = eventLine(dump, "inner.span");
    ASSERT_FALSE(outer.empty()) << dump;
    ASSERT_FALSE(inner.empty()) << dump;
    const double outer_ts = numField(outer, "ts");
    const double outer_dur = numField(outer, "dur");
    const double inner_ts = numField(inner, "ts");
    const double inner_dur = numField(inner, "dur");
    // The inner span opens after and closes before the outer one.
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
    EXPECT_GE(outer_dur, inner_dur);
}

TEST(Trace, DumpIsValidChromeTraceJson)
{
    obs::startTracing();
    {
        // Dynamic name with characters that need escaping.
        obs::TraceSpan span(std::string("weird \"name\"\nwith\tescapes"),
                            "test");
        span.arg("str", std::string("value with \"quotes\""));
        span.arg("num", static_cast<int64_t>(-42));
    }
    obs::traceCounter("test.counter", 5);
    obs::stopTracing();
    const std::string dump = obs::dumpTraceJson();

    EXPECT_TRUE(JsonValidator(dump).valid()) << dump;
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\":\"M\""), std::string::npos); // metadata rows
    EXPECT_NE(dump.find("\"ph\":\"X\""), std::string::npos); // complete spans
    EXPECT_NE(dump.find("\"ph\":\"C\""), std::string::npos); // counters
    EXPECT_NE(dump.find("\"process_name\""), std::string::npos);
    EXPECT_NE(dump.find("\"thread_name\""), std::string::npos);
}

TEST(Trace, MultiThreadEmissionIsRaceFree)
{
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 500;
    obs::startTracing();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            obs::setThreadTrack(0, "emitter " + std::to_string(t));
            for (int i = 0; i < kSpansPerThread; ++i) {
                obs::TraceSpan span("mt.span", "test");
                span.arg("i", static_cast<int64_t>(i));
                obs::traceCounter("mt.counter", i);
            }
        });
    }
    // Concurrent dump while the emitters are running: must be safe.
    (void)obs::dumpTraceJson();
    for (auto& t : threads) {
        t.join();
    }
    const int64_t events = obs::stopTracing();
    EXPECT_GE(events, static_cast<int64_t>(2 * kThreads * kSpansPerThread));
    const std::string dump = obs::dumpTraceJson();
    EXPECT_TRUE(JsonValidator(dump).valid());
    EXPECT_EQ(countOccurrences(dump, "{\"name\":\"mt.span\""),
              kThreads * kSpansPerThread);
    EXPECT_EQ(countOccurrences(dump, "{\"name\":\"mt.counter\""),
              kThreads * kSpansPerThread);
}

TEST(Trace, StartClearsPreviousEvents)
{
    obs::startTracing();
    { obs::TraceSpan span("first.trace", "test"); }
    obs::stopTracing();
    obs::startTracing();
    { obs::TraceSpan span("second.trace", "test"); }
    obs::stopTracing();
    const std::string dump = obs::dumpTraceJson();
    EXPECT_EQ(dump.find("first.trace"), std::string::npos);
    EXPECT_NE(dump.find("second.trace"), std::string::npos);
    obs::clearTrace();
}

// --- per-op profiler -------------------------------------------------------

/** The stats row for (op, module) or a zeroed row if absent. */
obs::OpStats
statsFor(const obs::OpProfiler& profiler, const std::string& op,
         const std::string& module)
{
    for (const obs::OpStats& s : profiler.report()) {
        if (s.op == op && s.module_path == module) {
            return s;
        }
    }
    return {};
}

TEST(OpProfiler, AggregatesMatchHandCountedNodeExecutions)
{
    // withMseLoss(Linear): the loss wrapper's graph is exactly one
    // CallModule ("model" -> linear once traced) plus one mse_loss op.
    // Per engine.run: 1 linear + 1 mse_loss forward, and the same two
    // backward (.bwd). Three runs => count 3 for each.
    auto model = runtime::withMseLoss(std::make_shared<nn::Linear>(3, 1));
    model->initializeParams(7);

    obs::OpProfiler profiler;
    constexpr int kRuns = 3;
    {
        obs::OpProfilerGuard guard(&profiler);
        for (int i = 0; i < kRuns; ++i) {
            runtime::AutogradEngine engine;
            engine.run(*model, {Tensor::full({2, 3}, 0.5f),
                                Tensor::full({2, 1}, 1.0f)});
        }
    }

    EXPECT_EQ(statsFor(profiler, "linear", "model").count, kRuns);
    EXPECT_EQ(statsFor(profiler, "mse_loss", "").count, kRuns);
    EXPECT_EQ(statsFor(profiler, "linear.bwd", "model").count, kRuns);
    EXPECT_EQ(statsFor(profiler, "mse_loss.bwd", "").count, kRuns);

    // Nothing recorded outside the guard.
    profiler.clear();
    runtime::AutogradEngine engine;
    engine.run(*model,
               {Tensor::full({2, 3}, 0.5f), Tensor::full({2, 1}, 1.0f)});
    EXPECT_TRUE(profiler.report().empty());
}

TEST(OpProfiler, MeanExactAndP99WithinHistogramError)
{
    obs::OpProfiler profiler;
    for (int i = 0; i < 100; ++i) {
        profiler.record("op", "", "", 1000);
    }
    const obs::OpStats s = statsFor(profiler, "op", "");
    EXPECT_EQ(s.count, 100);
    EXPECT_EQ(s.total_ns, 100000);
    EXPECT_DOUBLE_EQ(s.mean_ns, 1000.0);
    // p99 reports the log-bucket upper bound: within 25% above the truth.
    EXPECT_GE(s.p99_ns, 1000);
    EXPECT_LE(s.p99_ns, 1250);

    const std::string table = profiler.table();
    EXPECT_NE(table.find("op"), std::string::npos);
    EXPECT_NE(table.find("(root)"), std::string::npos);
    EXPECT_TRUE(JsonValidator(profiler.toJson()).valid());
}

TEST(OpProfiler, ModuleScopeOnlyTracksWhenActive)
{
    ASSERT_EQ(obs::observing(), 0);
    {
        obs::ModuleScope scope("ignored");
        EXPECT_EQ(obs::ModuleScope::currentPath(), "");
    }
    obs::OpProfiler profiler;
    obs::OpProfilerGuard guard(&profiler);
    obs::ModuleScope outer("encoder");
    EXPECT_EQ(obs::ModuleScope::currentPath(), "encoder");
    {
        obs::ModuleScope inner("layer.0");
        EXPECT_EQ(obs::ModuleScope::currentPath(), "encoder.layer.0");
    }
    EXPECT_EQ(obs::ModuleScope::currentPath(), "encoder");
}

/** op -> count of a profiler's rows. */
std::map<std::string, int64_t>
opCounts(const std::vector<obs::OpStats>& rows)
{
    std::map<std::string, int64_t> counts;
    for (const obs::OpStats& s : rows) {
        counts[s.op] += s.count;
    }
    return counts;
}

TEST(OpProfilerGuard, ThreadsRemoveGuardsOutOfOrder)
{
    // Two threads each install a profiler, record, and remove their
    // guards out of LIFO order: A, installed first, leaves first. Each
    // row reaches every profiler installed when it closes, and no row
    // reaches a profiler whose guard has returned. A third thread
    // records throughout, so installs and removals race the fan-out.
    static const std::string kPrimitive = "test";
    auto row = [](const char* op) { obs::OpScope scope(op, kPrimitive); };
    obs::OpProfiler a;
    obs::OpProfiler b;
    std::vector<obs::OpStats> a_at_removal;
    std::vector<obs::OpStats> b_at_removal;
    std::atomic<bool> stop{false};
    std::thread hammer([&] {
        while (!stop.load()) {
            row("hammer");
        }
    });
    std::barrier phase(2);
    std::thread first([&] {
        std::optional<obs::OpProfilerGuard> guard(std::in_place, &a);
        row("a.only");
        phase.arrive_and_wait(); // A installed
        phase.arrive_and_wait(); // B installed
        row("both.first");
        phase.arrive_and_wait();
        guard.reset();
        a_at_removal = a.report();
        phase.arrive_and_wait(); // A removed
        phase.arrive_and_wait(); // B removed
        row("none.first");
    });
    std::thread second([&] {
        phase.arrive_and_wait();
        std::optional<obs::OpProfilerGuard> guard(std::in_place, &b);
        phase.arrive_and_wait();
        row("both.second");
        phase.arrive_and_wait();
        phase.arrive_and_wait();
        row("b.only");
        guard.reset();
        b_at_removal = b.report();
        phase.arrive_and_wait();
        row("none.second");
    });
    first.join();
    second.join();
    stop = true;
    hammer.join();

    // Nothing, the hammer's rows included, arrived after the removal.
    std::map<std::string, int64_t> a_rows = opCounts(a.report());
    std::map<std::string, int64_t> b_rows = opCounts(b.report());
    EXPECT_EQ(a_rows, opCounts(a_at_removal));
    EXPECT_EQ(b_rows, opCounts(b_at_removal));
    a_rows.erase("hammer");
    b_rows.erase("hammer");
    using Counts = std::map<std::string, int64_t>;
    EXPECT_EQ(a_rows,
              (Counts{{"a.only", 1}, {"both.first", 1}, {"both.second", 1}}));
    EXPECT_EQ(b_rows,
              (Counts{{"b.only", 1}, {"both.first", 1}, {"both.second", 1}}));
    EXPECT_EQ(obs::observing() & obs::kObserveProfile, 0);
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, TensorStorageAccounting)
{
    obs::Metrics& m = obs::metrics();
    const int64_t allocated_before = m.tensor_allocated_bytes.get();
    const int64_t live_before = m.tensor_live_bytes.get();
    {
        Tensor t = Tensor::zeros({256});
        EXPECT_GE(m.tensor_allocated_bytes.get(),
                  allocated_before + 256 * static_cast<int64_t>(sizeof(float)));
        EXPECT_GE(m.tensor_live_bytes.get(),
                  live_before + 256 * static_cast<int64_t>(sizeof(float)));
    }
    EXPECT_EQ(m.tensor_live_bytes.get(), live_before);
    EXPECT_GE(m.tensor_live_bytes.peak(),
              live_before + 256 * static_cast<int64_t>(sizeof(float)));
}

TEST(Metrics, SnapshotAndJson)
{
    obs::Metrics& m = obs::metrics();
    Tensor warm = Tensor::zeros({8}); // each ctest case is a fresh process
    const auto snapshot = m.snapshot();
    ASSERT_FALSE(snapshot.empty());
    bool found = false;
    for (const auto& [name, value] : snapshot) {
        if (name == "tensor.allocated_bytes") {
            found = true;
            EXPECT_GT(value, 0);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(JsonValidator(m.toJson()).valid());
}

// --- CollectiveError wait annotation ---------------------------------------

TEST(CollectiveErrorWait, MessageIncludesElapsedWait)
{
    CollectiveError with_wait("pg.allreduce", 1, 7, "timed out", 123);
    EXPECT_NE(std::string(with_wait.what()).find("[this rank waited 123ms]"),
              std::string::npos)
        << with_wait.what();
    EXPECT_EQ(with_wait.waitedMs(), 123);

    CollectiveError without("pg.allreduce", 1, 7, "shape mismatch");
    EXPECT_EQ(std::string(without.what()).find("waited"), std::string::npos)
        << without.what();
    EXPECT_EQ(without.waitedMs(), -1);
}

// --- scoped/resettable metrics ----------------------------------------------

TEST(MetricsScoping, SnapshotAndResetZerosForTheNextWindow)
{
    obs::Metrics& m = obs::metrics();
    m.reset();
    m.pg_count.add(3);
    m.pg_wait_ns.add(500);

    auto first = m.snapshotAndReset();
    int64_t pg_count = -1;
    for (const auto& [name, value] : first) {
        if (name == "pg.count") pg_count = value;
    }
    EXPECT_EQ(pg_count, 3);

    // The next window starts from zero.
    for (const auto& [name, value] : m.snapshot()) {
        if (name == "pg.count" || name == "pg.wait_ns") {
            EXPECT_EQ(value, 0) << name;
        }
    }
}

TEST(MetricsScoping, MetricsDeltaSeesOnlyItsOwnWindow)
{
    obs::Metrics& m = obs::metrics();
    m.pg_count.add(7); // pre-window noise the delta must not see

    obs::MetricsDelta window;
    m.pg_count.add(2);
    m.checkpoint_write_bytes.add(100);
    EXPECT_EQ(window.get("pg.count"), 2);
    EXPECT_EQ(window.get("checkpoint.write_bytes"), 100);
    // Unknown names are zero, not an error.
    EXPECT_EQ(window.get("no.such.metric"), 0);
}

// --- structured run log ------------------------------------------------------

namespace fs = std::filesystem;

std::string
runLogScratch(const std::string& name)
{
    const auto path = fs::path(::testing::TempDir()) / name;
    fs::remove(path);
    return path.string();
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

TEST(RunLog, WritesValidJsonlWithDerivedAnomalyFlags)
{
    const std::string path = runLogScratch("runlog_unit.jsonl");
    obs::RunLog log(path);
    ASSERT_TRUE(log.good());

    // Steady losses, then a spike, then a NaN.
    obs::StepRecord step;
    for (int i = 0; i < 5; ++i) {
        step.step = i;
        step.loss = 1.0 + 0.01 * i;
        step.grad_norm = 0.5;
        step.micro_batches = 2;
        step.tokens = 32;
        step.step_ms = 10.0;
        log.logStep(step);
    }
    step.step = 5;
    step.loss = 10.0; // > 2x mean and > mean + 1.0
    log.logStep(step);
    step.step = 6;
    step.loss = std::numeric_limits<double>::quiet_NaN();
    log.logStep(step);

    obs::RunLogRecord custom("recovery");
    custom.num("attempt", static_cast<int64_t>(1))
        .str("error", "site \"pg.allreduce\"\nkilled");
    log.write(custom);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 8u);
    for (const std::string& line : lines) {
        EXPECT_TRUE(JsonValidator(line).valid()) << line;
    }
    // Normal steps carry no anomalies.
    EXPECT_NE(lines[0].find("\"anomaly_nan\":false"), std::string::npos);
    EXPECT_NE(lines[0].find("\"anomaly_loss_spike\":false"),
              std::string::npos);
    // The spike step is flagged.
    EXPECT_NE(lines[5].find("\"anomaly_loss_spike\":true"),
              std::string::npos)
        << lines[5];
    // The NaN step is flagged and its loss serializes as null (valid JSON).
    EXPECT_NE(lines[6].find("\"anomaly_nan\":true"), std::string::npos)
        << lines[6];
    EXPECT_NE(lines[6].find("\"loss\":null"), std::string::npos) << lines[6];
    // The custom record keeps its kind and escapes the error text.
    EXPECT_NE(lines[7].find("\"kind\":\"recovery\""), std::string::npos);
}

TEST(RunLog, TokensPerSecondDerivedFromWallTime)
{
    const std::string path = runLogScratch("runlog_tps.jsonl");
    obs::RunLog log(path);
    obs::StepRecord step;
    step.tokens = 500;
    step.step_ms = 250.0; // 2000 tokens/s
    log.logStep(step);
    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"tokens_per_s\":2000"), std::string::npos)
        << lines[0];
}

TEST(RunLog, GlobalSinkOpensAndCloses)
{
    const std::string path = runLogScratch("runlog_global.jsonl");
    obs::openRunLog(path);
    ASSERT_NE(obs::runLog(), nullptr);
    obs::RunLogRecord record("step");
    record.num("step", static_cast<int64_t>(0));
    obs::runLog()->write(record);
    obs::closeRunLog();
    EXPECT_EQ(obs::runLog(), nullptr);
    EXPECT_EQ(readLines(path).size(), 1u);
}


// --- profiler edge cases (attribution PR satellite) ----------------------

TEST(OpProfiler, EmptyProfilerReportsNothing)
{
    obs::OpProfiler profiler;
    EXPECT_TRUE(profiler.report().empty());
    // Empty histogram: the table and JSON render without rows and
    // without dividing by a zero total.
    EXPECT_TRUE(JsonValidator(profiler.toJson()).valid());
    EXPECT_FALSE(profiler.table().empty());
}

TEST(OpProfiler, ZeroDurationSampleHasZeroP99)
{
    obs::OpProfiler profiler;
    profiler.record("noop", "", "", 0);
    const obs::OpStats s = statsFor(profiler, "noop", "");
    EXPECT_EQ(s.count, 1);
    EXPECT_EQ(s.total_ns, 0);
    EXPECT_DOUBLE_EQ(s.mean_ns, 0.0);
    EXPECT_EQ(s.p99_ns, 0);
}

TEST(OpProfiler, SingleSampleP99WithinHistogramError)
{
    obs::OpProfiler profiler;
    profiler.record("op", "", "", 5000);
    const obs::OpStats s = statsFor(profiler, "op", "");
    EXPECT_EQ(s.count, 1);
    // p99 of a single sample is that sample's log-bucket upper bound:
    // never below the truth, at most 19% above (4 sub-buckets/octave).
    EXPECT_GE(s.p99_ns, 5000);
    EXPECT_LE(s.p99_ns, static_cast<int64_t>(5000 * 1.25));
}

TEST(OpProfiler, DeeplyNestedModuleScopeBuildsFullDottedPath)
{
    obs::OpProfiler profiler;
    obs::OpProfilerGuard guard(&profiler);
    std::string want;
    {
        obs::ModuleScope l0("model");
        obs::ModuleScope l1("encoder");
        obs::ModuleScope l2("layer.11");
        obs::ModuleScope l3("attention");
        obs::ModuleScope l4("self");
        obs::ModuleScope l5("query");
        want = "model.encoder.layer.11.attention.self.query";
        EXPECT_EQ(obs::ModuleScope::currentPath(), want);
        profiler.record("linear", obs::ModuleScope::currentPath(), "",
                        1000);
    }
    EXPECT_EQ(obs::ModuleScope::currentPath(), "");
    EXPECT_EQ(statsFor(profiler, "linear", want).count, 1);
}

// --- recovery / elastic counters are window-scoped -----------------------

TEST(MetricsScoping, RecoveryAndElasticCountersAreWindowed)
{
    obs::Metrics& m = obs::metrics();
    m.recovery_restores.add(3); // pre-window noise the delta must not see
    obs::MetricsDelta window;
    m.recovery_restores.add(1);
    m.elastic_rebuilds.add(1);
    m.elastic_lost_ranks.add(2);
    EXPECT_EQ(window.get("recovery.restores"), 1);
    EXPECT_EQ(window.get("elastic.rebuilds"), 1);
    EXPECT_EQ(window.get("elastic.lost_ranks"), 2);
}

// --- run-log schema versioning (docs/OBSERVABILITY.md) --------------------

TEST(RunLog, EveryRecordKindCarriesSchemaVersion)
{
    const std::string path = runLogScratch("runlog_schema.jsonl");
    obs::RunLog log(path);
    ASSERT_TRUE(log.good());

    // One record of every kind documented in docs/OBSERVABILITY.md.
    obs::StepRecord step;
    step.tokens = 8;
    step.step_ms = 1.0;
    log.logStep(step);
    for (const char* kind :
         {"checkpoint.save", "checkpoint.restore", "recovery",
          "recovery.giveup", "elastic.rebuild", "pipeline.forward",
          "tuner.trial", "dist_metrics", "step_report", "mem.budget"}) {
        obs::RunLogRecord record(kind);
        record.num("x", static_cast<int64_t>(1));
        log.write(record);
    }

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 11u);
    for (const std::string& line : lines) {
        EXPECT_TRUE(JsonValidator(line).valid()) << line;
        EXPECT_NE(line.find("\"schema_version\":2"), std::string::npos)
            << line;
    }
}

TEST(RunLog, StepRecordCarriesMemoryFields)
{
    const std::string path = runLogScratch("runlog_mem_fields.jsonl");
    obs::RunLog log(path);
    ASSERT_TRUE(log.good());

    obs::StepRecord step;
    step.tokens = 8;
    step.step_ms = 1.0;
    step.mem_peak_bytes = 4096;
    step.mem_live_bytes = 1024;
    step.mem_retained_bytes = 512;
    step.mem_categories_json = "{\"parameter\":1024}";
    log.logStep(step);

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(JsonValidator(lines[0]).valid()) << lines[0];
    EXPECT_NE(lines[0].find("\"mem_peak_bytes\":4096"), std::string::npos);
    EXPECT_NE(lines[0].find("\"mem_live_bytes\":1024"), std::string::npos);
    EXPECT_NE(lines[0].find("\"mem_retained_bytes\":512"), std::string::npos);
    EXPECT_NE(lines[0].find("\"mem_categories\":{\"parameter\":1024}"),
              std::string::npos);

    // Profiler off: the per-category object is omitted, the scalar
    // fields stay (zeros) so the schema is stable.
    obs::StepRecord off;
    off.tokens = 8;
    off.step_ms = 1.0;
    log.logStep(off);
    const auto lines2 = readLines(path);
    ASSERT_EQ(lines2.size(), 2u);
    EXPECT_EQ(lines2[1].find("mem_categories"), std::string::npos);
    EXPECT_NE(lines2[1].find("\"mem_live_bytes\":0"), std::string::npos);
}

} // namespace
} // namespace slapo
