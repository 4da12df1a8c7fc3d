#include "obs/trace.h"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "support/error.h"

namespace slapo {
namespace obs {

namespace {

/** One finished event, stored per producing thread. */
struct TraceEvent
{
    char phase = 'X';            ///< 'X' complete span, 'C' counter sample
    const char* name = nullptr;  ///< literal name (preferred)
    std::string owned_name;      ///< dynamic name (used when name == nullptr)
    const char* category = nullptr;
    int64_t ts_ns = 0;  ///< start, relative to the trace epoch
    int64_t dur_ns = 0; ///< span duration ('X' only)
    int64_t value = 0;  ///< counter sample ('C' only)
    std::string args;   ///< pre-rendered JSON object body ("" = none)
};

/**
 * Per-thread event buffer. The owning thread appends; the dumper reads.
 * The mutex is virtually uncontended (taken by the dumper only at
 * start/stop/dump), so recording stays effectively thread-private while
 * remaining well-defined under concurrent dump.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    int pid = 0;
    std::string name; ///< thread track label ("" = "thread <tid>")
    int tid = 0;      ///< registration-order track id
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string path; ///< output file ("" = in-memory only)
    /** Trace start, as steady-clock ns — atomic so recording threads can
     * read it without the registry lock. */
    std::atomic<int64_t> epoch_ns{0};
};

Registry&
registry()
{
    static Registry* r = new Registry(); // leaked: outlives thread statics
    return *r;
}

/** The calling thread's buffer, registered on first use and kept alive
 * by the registry even after the thread exits. */
ThreadBuffer&
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> t_buffer = [] {
        auto buffer = std::make_shared<ThreadBuffer>();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        buffer->tid = static_cast<int>(r.buffers.size());
        r.buffers.push_back(buffer);
        return buffer;
    }();
    return *t_buffer;
}

int64_t
sinceEpochNs(std::chrono::steady_clock::time_point tp)
{
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count();
    return now_ns - registry().epoch_ns.load(std::memory_order_relaxed);
}

void
appendJsonEscaped(std::string& out, const char* s)
{
    for (; *s; ++s) {
        const char c = *s;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

std::string
jsonString(const char* s)
{
    std::string out = "\"";
    appendJsonEscaped(out, s);
    out += '"';
    return out;
}

void
emitMicros(std::string& out, int64_t ns)
{
    // Microseconds with nanosecond resolution, no float rounding noise.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%lld.%03d",
                  static_cast<long long>(ns / 1000),
                  static_cast<int>(ns % 1000));
    out += buf;
}

void
emitEvent(std::string& out, const ThreadBuffer& buffer, const TraceEvent& e)
{
    out += "{\"name\":";
    out += jsonString(e.name ? e.name : e.owned_name.c_str());
    out += ",\"ph\":\"";
    out += e.phase;
    out += '"';
    if (e.category != nullptr) {
        out += ",\"cat\":";
        out += jsonString(e.category);
    }
    out += ",\"ts\":";
    emitMicros(out, e.ts_ns);
    if (e.phase == 'X') {
        out += ",\"dur\":";
        emitMicros(out, e.dur_ns);
    }
    out += ",\"pid\":" + std::to_string(buffer.pid);
    out += ",\"tid\":" + std::to_string(buffer.tid);
    if (e.phase == 'C') {
        out += ",\"args\":{\"value\":" + std::to_string(e.value) + "}";
    } else if (!e.args.empty()) {
        out += ",\"args\":{" + e.args + "}";
    }
    out += '}';
}

void
emitMetadata(std::string& out, int pid, int tid, const char* kind,
             const std::string& label, bool& first)
{
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"ts\":0,\"pid\":" + std::to_string(pid);
    if (tid >= 0) {
        out += ",\"tid\":" + std::to_string(tid);
    }
    out += ",\"args\":{\"name\":" + jsonString(label.c_str()) + "}}";
}

/** Clear the recorded events and restart the clock; `path` is where the
 * trace goes when it stops. */
void
resetRecorder(const std::string& path)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.path = path;
    r.epoch_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    for (auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        buffer->events.clear();
    }
}

std::once_flag g_env_once;

} // namespace

namespace detail {

std::atomic<int> g_observing{-1};

int
observingSlow()
{
    // Every consumer arms from the environment in this one probe, so
    // each later disabled check is the single load in observing().
    std::call_once(g_env_once, [] {
        int bits = opProfilerFromEnv() | memProfilingFromEnv();
        const char* env = std::getenv("SLAPO_TRACE");
        if (env != nullptr && env[0] != '\0') {
            resetRecorder(env);
            std::atexit([] { stopTracing(); });
            bits |= kObserveTrace;
        }
        g_observing.store(bits, std::memory_order_relaxed);
    });
    return g_observing.load(std::memory_order_relaxed);
}

void
setObserving(int bit, bool on)
{
    (void)observing(); // settle the probe so it cannot overwrite the bit
    if (on) {
        g_observing.fetch_or(bit, std::memory_order_relaxed);
    } else {
        g_observing.fetch_and(~bit, std::memory_order_relaxed);
    }
}

} // namespace detail

void
startTracing(const std::string& path)
{
    (void)observing(); // probe first: SLAPO_TRACE must not replace `path`
    resetRecorder(path);
    detail::setObserving(kObserveTrace, true);
}

int64_t
stopTracing()
{
    if (!tracingEnabled()) {
        return 0;
    }
    detail::setObserving(kObserveTrace, false);
    Registry& r = registry();
    std::string path;
    int64_t events = 0;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        path = r.path;
        for (auto& buffer : r.buffers) {
            std::lock_guard<std::mutex> blk(buffer->mutex);
            events += static_cast<int64_t>(buffer->events.size());
        }
    }
    if (!path.empty()) {
        writeTrace(path);
    }
    return events;
}

std::string
dumpTraceJson()
{
    Registry& r = registry();
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    std::lock_guard<std::mutex> lock(r.mutex);
    // Track metadata rows: process names (one per distinct pid, labelled
    // by the first thread that claimed it) and per-thread names.
    bool named_pid0 = false;
    for (const auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        if (buffer->pid == 0) {
            if (!named_pid0) {
                emitMetadata(out, 0, -1, "process_name", "slapo", first);
                named_pid0 = true;
            }
        } else {
            emitMetadata(out, buffer->pid, -1, "process_name",
                         buffer->name.empty()
                             ? "pid " + std::to_string(buffer->pid)
                             : buffer->name,
                         first);
        }
        emitMetadata(out, buffer->pid, buffer->tid, "thread_name",
                     buffer->name.empty()
                         ? "thread " + std::to_string(buffer->tid)
                         : buffer->name,
                     first);
    }
    for (const auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        for (const TraceEvent& e : buffer->events) {
            if (!first) out += ",\n";
            first = false;
            emitEvent(out, *buffer, e);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}";
    return out;
}

void
writeTrace(const std::string& path)
{
    std::string json = dumpTraceJson();
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    SLAPO_CHECK(file.good(), "trace: cannot open '" << path << "' for write");
    file << json << "\n";
    SLAPO_CHECK(file.good(), "trace: write to '" << path << "' failed");
}

int64_t
flushTrace()
{
    if (!tracingEnabled()) {
        return 0;
    }
    Registry& r = registry();
    std::string path;
    int64_t events = 0;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        path = r.path;
        for (auto& buffer : r.buffers) {
            std::lock_guard<std::mutex> blk(buffer->mutex);
            events += static_cast<int64_t>(buffer->events.size());
        }
    }
    if (path.empty()) {
        return 0; // in-memory session: nothing durable to flush to
    }
    // Best effort by design: the flush runs on abort/watchdog paths that
    // must never turn a hang diagnosis into a new exception.
    try {
        writeTrace(path);
    } catch (...) {
        return 0;
    }
    return events;
}

void
clearTrace()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& buffer : r.buffers) {
        std::lock_guard<std::mutex> blk(buffer->mutex);
        buffer->events.clear();
    }
}

void
setThreadTrack(int pid, const std::string& name)
{
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.pid = pid;
    buffer.name = name;
}

void
traceCounter(const char* name, int64_t value)
{
    if (!tracingEnabled()) {
        return;
    }
    TraceEvent e;
    e.phase = 'C';
    e.name = name;
    e.ts_ns = sinceEpochNs(std::chrono::steady_clock::now());
    e.value = value;
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(e));
}

void
TraceSpan::begin(const char* name, const char* category)
{
    live_ = true;
    name_ = name;
    category_ = category;
    start_ = std::chrono::steady_clock::now();
}

void
TraceSpan::beginOwned(std::string name, const char* category)
{
    live_ = true;
    owned_name_ = std::move(name);
    category_ = category;
    start_ = std::chrono::steady_clock::now();
}

void
TraceSpan::arg(const char* key, const std::string& value)
{
    if (!live_) return;
    if (!args_.empty()) args_ += ',';
    args_ += jsonString(key) + ":" + jsonString(value.c_str());
}

void
TraceSpan::arg(const char* key, int64_t value)
{
    if (!live_) return;
    if (!args_.empty()) args_ += ',';
    args_ += jsonString(key) + ":" + std::to_string(value);
}

void
TraceSpan::end()
{
    const auto now = std::chrono::steady_clock::now();
    TraceEvent e;
    e.phase = 'X';
    e.name = name_;
    e.owned_name = std::move(owned_name_);
    e.category = category_;
    e.ts_ns = sinceEpochNs(start_);
    e.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   now - start_)
                   .count();
    e.args = std::move(args_);
    ThreadBuffer& buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(e));
}

} // namespace obs
} // namespace slapo
