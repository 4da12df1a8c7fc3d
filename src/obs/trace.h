/**
 * @file
 * Runtime span tracer emitting Chrome-trace-format JSON.
 *
 * The measurement substrate of slapo-cc (docs/OBSERVABILITY.md): every
 * layer of the runtime — graph interpreter nodes, autograd phases,
 * kernel-pool jobs, ProcessGroup collectives, pipeline stages, trainer
 * step phases, checkpoint I/O — opens a TraceSpan around its work, and
 * the recorder turns the spans into a `chrome://tracing` / Perfetto
 * loadable file with one track per registered thread (rank threads and
 * pipeline stage threads label their tracks via setThreadTrack).
 *
 * Recording discipline (same as support/failpoint.h): when tracing is
 * disabled the entire cost of an instrumented site is ONE relaxed atomic
 * load (`tracingEnabled()`, a bit of `observing()`), so instrumentation
 * can stay in hot loops permanently. When enabled, each thread appends
 * finished spans to its own buffer — there is no shared lock on the
 * recording path; a per-buffer mutex (uncontended: only the owning
 * thread records, only the dump takes it) makes concurrent dump/record
 * well-defined under TSan.
 *
 * Enabling:
 *   - `SLAPO_TRACE=out.json` in the environment: tracing starts at the
 *     first instrumented event and the file is written at process exit.
 *   - programmatic: `obs::startTracing("out.json"); ...; obs::stopTracing();`
 *
 * Timestamps are steady-clock microseconds relative to tracing start;
 * durations are microseconds with nanosecond resolution (Chrome trace
 * accepts fractional values).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace slapo {
namespace obs {

/** The measurement consumers, one bit each of observing(). */
enum Observer : int
{
    kObserveTrace = 1,   ///< a trace is recording
    kObserveProfile = 2, ///< at least one OpProfiler is installed
    kObserveMemory = 4,  ///< the memory profiler is on
};

namespace detail {
extern std::atomic<int> g_observing; ///< -1 until the probe has run
/** The one-time probe of SLAPO_TRACE, SLAPO_OP_PROFILE and SLAPO_MEM_*. */
int observingSlow();
/** Its parts: arm a consumer from the environment, return its bit. */
int opProfilerFromEnv();
int memProfilingFromEnv();
/** Turn a consumer's bit on or off. */
void setObserving(int bit, bool on);
} // namespace detail

/**
 * Which consumers are on, as Observer bits (0 = none): the one check
 * every instrumented site makes. One relaxed atomic load once the
 * first call has probed the environment.
 */
inline int
observing()
{
    const int bits = detail::g_observing.load(std::memory_order_relaxed);
    return bits >= 0 ? bits : detail::observingSlow();
}

/** True while a trace is being recorded (one relaxed atomic load). */
inline bool
tracingEnabled()
{
    return (observing() & kObserveTrace) != 0;
}

/**
 * Start recording. `path` is where stopTracing()/process exit writes the
 * JSON ("" = keep in memory, fetch with dumpTraceJson). Clears any
 * previously recorded events.
 */
void startTracing(const std::string& path = "");

/**
 * Stop recording and, if a path was configured, write the trace file.
 * Returns the number of events recorded. Safe to call when not tracing
 * (returns 0).
 */
int64_t stopTracing();

/**
 * Write the trace collected *so far* to the configured path without
 * stopping the recording — the hang/abort story: ProcessGroup::abort()
 * and the flight-recorder watchdog call this so a killed run leaves its
 * SLAPO_TRACE output on disk next to the hang dump instead of losing it
 * with the process. Best effort (never throws); returns the number of
 * events flushed, 0 when tracing is off or no path was configured.
 */
int64_t flushTrace();

/** Serialize everything recorded so far as a Chrome-trace JSON string. */
std::string dumpTraceJson();

/** Write the current trace to `path` (trailing newline included). */
void writeTrace(const std::string& path);

/** Drop all recorded events and thread-track registrations kept so far.
 * Call only while tracing is stopped. */
void clearTrace();

/**
 * Label the calling thread's track: `pid` selects the process row
 * (ranks use their rank index so every rank gets its own row group in
 * Perfetto; 0 = the main process), `name` the thread row ("rank 1",
 * "stage 2", ...). Cheap; callable whether or not tracing is live.
 */
void setThreadTrack(int pid, const std::string& name);

/** Record an instant counter sample (Chrome-trace "C" event), e.g. a
 * pipeline queue depth. No-op when tracing is disabled. */
void traceCounter(const char* name, int64_t value);

/**
 * RAII span. Construction samples the clock only when tracing is
 * enabled; destruction records one complete ("X") event on the calling
 * thread's buffer. `name` must outlive the span (string literals) —
 * dynamic labels go through the `std::string` overload, which callers
 * should guard behind `tracingEnabled()` to keep the disabled path
 * allocation-free.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name, const char* category = nullptr)
    {
        if (tracingEnabled()) {
            begin(name, category);
        }
    }

    TraceSpan(std::string name, const char* category = nullptr)
    {
        if (tracingEnabled()) {
            beginOwned(std::move(name), category);
        }
    }

    ~TraceSpan()
    {
        if (live_) {
            end();
        }
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /** Attach a key=value argument (shown in the Perfetto side panel).
     * No-op unless the span is live. */
    void arg(const char* key, const std::string& value);
    void arg(const char* key, int64_t value);

    /** True when this span is actually recording. */
    bool live() const { return live_; }

  private:
    void begin(const char* name, const char* category);
    void beginOwned(std::string name, const char* category);
    void end();

    bool live_ = false;
    const char* name_ = nullptr;     ///< literal name (not owned)
    std::string owned_name_;         ///< dynamic name (when non-empty)
    const char* category_ = nullptr;
    std::chrono::steady_clock::time_point start_;
    std::string args_; ///< pre-rendered JSON object body ("" = none)
};

} // namespace obs
} // namespace slapo
