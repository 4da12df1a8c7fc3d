#include "runtime/pipeline_runtime.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/mem_profiler.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "support/failpoint.h"

namespace slapo {
namespace runtime {

namespace {

const std::string kPipelineSplit = "pipeline_split";

/** Bounded MPSC queue of micro-batch tuples between two stages. */
class TupleQueue
{
  public:
    explicit TupleQueue(size_t capacity) : capacity_(capacity) {}

    /** Blocks while full; silently drops the tuple once aborted.
     * Returns the queue depth right after the push (0 if dropped). */
    size_t
    push(std::vector<Tensor> tuple)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock,
                       [&] { return items_.size() < capacity_ || aborted_; });
        if (aborted_) {
            return 0;
        }
        items_.push_back(std::move(tuple));
        not_empty_.notify_one();
        return items_.size();
    }

    /** Returns nullopt once closed and drained, or immediately after an
     * abort (in-flight tuples are discarded — fail fast). */
    std::optional<std::vector<Tensor>>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        not_empty_.wait(lock,
                        [&] { return !items_.empty() || closed_ || aborted_; });
        if (aborted_ || items_.empty()) {
            return std::nullopt;
        }
        std::vector<Tensor> tuple = std::move(items_.front());
        items_.pop_front();
        not_full_.notify_one();
        return tuple;
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        not_empty_.notify_all();
    }

    /** Failure containment: unblock every producer and consumer. */
    void
    abort()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        aborted_ = true;
        not_empty_.notify_all();
        not_full_.notify_all();
    }

  private:
    size_t capacity_;
    std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<std::vector<Tensor>> items_;
    bool closed_ = false;
    bool aborted_ = false;
};

int64_t
nsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Pop with bubble accounting: the time a stage thread spends here is
 * time it is starved for input (pipeline.queue_wait_ns). */
std::optional<std::vector<Tensor>>
timedPop(TupleQueue& queue)
{
    obs::TraceSpan span("queue.pop", "pipeline");
    const auto t0 = std::chrono::steady_clock::now();
    auto tuple = queue.pop();
    obs::metrics().pipeline_queue_wait_ns.add(nsSince(t0));
    return tuple;
}

/** Push with back-pressure accounting and queue-depth watermark. */
void
timedPush(TupleQueue& queue, std::vector<Tensor> tuple)
{
    obs::TraceSpan span("queue.push", "pipeline");
    const auto t0 = std::chrono::steady_clock::now();
    const size_t depth = queue.push(std::move(tuple));
    obs::metrics().pipeline_push_wait_ns.add(nsSince(t0));
    obs::metrics().pipeline_queue_depth.observe(static_cast<int64_t>(depth));
    obs::traceCounter("pipeline.queue_depth", static_cast<int64_t>(depth));
}

} // namespace

PipelineRuntime::PipelineRuntime(std::vector<nn::ModulePtr> stages,
                                 size_t queue_capacity)
    : stages_(std::move(stages)), queue_capacity_(queue_capacity)
{
    SLAPO_CHECK(!stages_.empty(), "PipelineRuntime: no stages");
    SLAPO_CHECK(queue_capacity_ >= 1, "PipelineRuntime: bad queue capacity");
}

PipelineRunResult
PipelineRuntime::forward(const std::vector<std::vector<Tensor>>& micro_batches)
{
    const auto forward_start = std::chrono::steady_clock::now();
    obs::MetricsDelta metrics_window;
    const size_t num_stages = stages_.size();
    // Queue i feeds stage i; queue num_stages collects outputs.
    std::vector<std::unique_ptr<TupleQueue>> queues;
    for (size_t i = 0; i <= num_stages; ++i) {
        queues.push_back(std::make_unique<TupleQueue>(queue_capacity_));
    }

    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    std::vector<std::exception_ptr> errors(num_stages);

    std::vector<std::thread> workers;
    for (size_t s = 0; s < num_stages; ++s) {
        workers.emplace_back([&, s] {
            // Pipeline stage threads share pid 0 ("slapo") and get a
            // labelled track each in the trace.
            obs::setThreadTrack(0, "stage " + std::to_string(s));
            // Memory profiler: attribute this worker's allocations to
            // its pipeline stage (separate "rank" track per stage).
            obs::setMemThreadRank(static_cast<int>(s));
            const std::string stage_path = "stage" + std::to_string(s);
            int64_t micro_index = 0;
            try {
                while (auto tuple = timedPop(*queues[s])) {
                    // Stage handoff failpoint: rank = stage index, one
                    // invocation per micro-batch this stage consumes.
                    support::failpoint::hit("pipeline.stage",
                                            static_cast<int>(s));
                    if (s == 0) {
                        const int now = in_flight.fetch_add(1) + 1;
                        int expected = peak.load();
                        while (now > expected &&
                               !peak.compare_exchange_weak(expected, now)) {
                        }
                    }
                    std::vector<nn::Value> values;
                    values.reserve(tuple->size());
                    for (Tensor& t : *tuple) {
                        values.emplace_back(std::move(t));
                    }
                    std::vector<nn::Value> outputs;
                    {
                        // Stage bodies run through Module::call, below
                        // the graph interpreter's per-node scopes, so
                        // time the stage itself: attributed to the
                        // pipeline_split primitive that created the
                        // boundary (docs/OBSERVABILITY.md).
                        obs::OpScope stage("pipeline.stage", kPipelineSplit,
                                           {.span = "stage.run",
                                            .category = "pipeline",
                                            .module = &stage_path});
                        if (obs::TraceSpan* span = stage.span()) {
                            span->arg("stage", static_cast<int64_t>(s));
                            span->arg("micro_batch", micro_index);
                        }
                        outputs = stages_[s]->call(values);
                    }
                    ++micro_index;
                    std::vector<Tensor> next;
                    next.reserve(outputs.size());
                    for (nn::Value& v : outputs) {
                        next.push_back(v.tensor());
                    }
                    if (s + 1 == num_stages) {
                        in_flight.fetch_sub(1);
                    }
                    timedPush(*queues[s + 1], std::move(next));
                }
                queues[s + 1]->close();
            } catch (...) {
                errors[s] = std::current_exception();
                // A dead stage starves its consumers *and* back-pressures
                // its producers (bounded queues). Abort every queue so
                // the feeder, the peers, and the collector all unblock —
                // the run fails in milliseconds instead of deadlocking.
                for (auto& q : queues) {
                    q->abort();
                }
            }
        });
    }

    // Feed micro-batches from a dedicated thread (bounded queues apply
    // GPipe back-pressure). The collector below must drain outputs
    // concurrently: with the whole pipeline holding at most
    // (num_stages + 1) * capacity + num_stages tuples, feeding everything
    // before draining would deadlock once micro_batches exceeds that.
    std::thread feeder([&] {
        obs::setThreadTrack(0, "feeder");
        try {
            for (const auto& micro : micro_batches) {
                timedPush(*queues[0], micro);
            }
        } catch (...) {
            for (auto& q : queues) {
                q->abort();
            }
        }
        queues[0]->close();
    });

    PipelineRunResult result;
    while (auto tuple = queues[num_stages]->pop()) {
        result.outputs.push_back(std::move(*tuple));
    }
    feeder.join();
    for (auto& worker : workers) {
        worker.join();
    }
    for (auto& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    SLAPO_CHECK(result.outputs.size() == micro_batches.size(),
                "PipelineRuntime: lost micro-batches (stage failure?)");
    result.peak_in_flight = peak.load();
    if (obs::RunLog* log = obs::runLog()) {
        const double wall_ms =
            std::chrono::duration_cast<
                std::chrono::duration<double, std::milli>>(
                std::chrono::steady_clock::now() - forward_start)
                .count();
        obs::RunLogRecord record("pipeline.forward");
        record.num("stages", static_cast<int64_t>(num_stages))
            .num("micro_batches",
                 static_cast<int64_t>(micro_batches.size()))
            .num("wall_ms", wall_ms)
            .num("bubble_ns",
                 metrics_window.get("pipeline.queue_wait_ns"))
            .num("push_wait_ns",
                 metrics_window.get("pipeline.push_wait_ns"))
            .num("peak_in_flight",
                 static_cast<int64_t>(result.peak_in_flight));
        log->write(record);
    }
    return result;
}

} // namespace runtime
} // namespace slapo
