#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "support/error.h"

namespace slapo {
namespace obs {

namespace {

/** 4 sub-buckets per power-of-two octave: <= 19% relative error on p99. */
constexpr int kSubBuckets = 4;
constexpr int kNumBuckets = 64 * kSubBuckets;

int
bucketOf(int64_t ns)
{
    if (ns < kSubBuckets) {
        return static_cast<int>(ns < 0 ? 0 : ns);
    }
    const uint64_t v = static_cast<uint64_t>(ns);
    const int octave = 63 - __builtin_clzll(v);
    const int sub = static_cast<int>((v >> (octave - 2)) & 3);
    return octave * kSubBuckets + sub;
}

/** Inclusive upper bound of a bucket (inverse of bucketOf). */
int64_t
bucketUpperBound(int bucket)
{
    if (bucket < kSubBuckets) {
        return bucket;
    }
    const int octave = bucket / kSubBuckets;
    const int sub = bucket % kSubBuckets;
    return ((static_cast<int64_t>(sub) + 5) << (octave - 2)) - 1;
}

std::string
formatUs(double ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", ns / 1000.0);
    return buf;
}

} // namespace

struct OpProfiler::Impl
{
    struct Agg
    {
        int64_t count = 0;
        int64_t total_ns = 0;
        int64_t buckets[kNumBuckets] = {};
    };

    mutable std::mutex mutex;
    // Ordered map keyed by (op, module_path, primitive): deterministic
    // report order for ties, and no hashing of composite keys. The
    // comparator is transparent, so a row finds its aggregate through a
    // tuple of references and only a new key copies the strings.
    std::map<std::tuple<std::string, std::string, std::string>, Agg,
             std::less<>>
        aggs;
};

OpProfiler::OpProfiler() : impl_(new Impl()) {}

OpProfiler::~OpProfiler()
{
    delete impl_;
}

void
OpProfiler::record(const std::string& op, const std::string& module_path,
                   const std::string& primitive, int64_t duration_ns)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->aggs.find(std::tie(op, module_path, primitive));
    if (it == impl_->aggs.end()) {
        it = impl_->aggs.try_emplace({op, module_path, primitive}).first;
    }
    Impl::Agg& agg = it->second;
    ++agg.count;
    agg.total_ns += duration_ns;
    ++agg.buckets[bucketOf(duration_ns)];
}

std::vector<OpStats>
OpProfiler::report() const
{
    std::vector<OpStats> stats;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        stats.reserve(impl_->aggs.size());
        for (const auto& [key, agg] : impl_->aggs) {
            OpStats s;
            s.op = std::get<0>(key);
            s.module_path = std::get<1>(key);
            s.primitive = std::get<2>(key);
            s.count = agg.count;
            s.total_ns = agg.total_ns;
            s.mean_ns = static_cast<double>(agg.total_ns) /
                        static_cast<double>(agg.count);
            // p99: first bucket at which the cumulative count covers 99%.
            const int64_t threshold = (agg.count * 99 + 99) / 100;
            int64_t seen = 0;
            for (int b = 0; b < kNumBuckets; ++b) {
                seen += agg.buckets[b];
                if (seen >= threshold) {
                    s.p99_ns = bucketUpperBound(b);
                    break;
                }
            }
            stats.push_back(std::move(s));
        }
    }
    std::stable_sort(stats.begin(), stats.end(),
                     [](const OpStats& a, const OpStats& b) {
                         return a.total_ns > b.total_ns;
                     });
    return stats;
}

std::string
OpProfiler::table() const
{
    const std::vector<OpStats> stats = report();
    int64_t grand_total = 0;
    size_t op_width = 2, path_width = 6, prim_width = 9;
    for (const OpStats& s : stats) {
        grand_total += s.total_ns;
        op_width = std::max(op_width, s.op.size());
        path_width = std::max(path_width,
                              std::max<size_t>(s.module_path.size(), 6));
        prim_width = std::max(prim_width,
                              std::max<size_t>(s.primitive.size(), 9));
    }
    std::ostringstream os;
    char line[512];
    std::snprintf(line, sizeof line,
                  "%-*s  %-*s  %-*s  %8s  %12s  %10s  %10s  %6s\n",
                  static_cast<int>(op_width), "op",
                  static_cast<int>(path_width), "module",
                  static_cast<int>(prim_width), "primitive", "count",
                  "total(us)", "mean(us)", "p99(us)", "%");
    os << line;
    for (const OpStats& s : stats) {
        const double pct =
            grand_total > 0
                ? 100.0 * static_cast<double>(s.total_ns) /
                      static_cast<double>(grand_total)
                : 0.0;
        std::snprintf(line, sizeof line,
                      "%-*s  %-*s  %-*s  %8lld  %12s  %10s  %10s  %5.1f%%\n",
                      static_cast<int>(op_width), s.op.c_str(),
                      static_cast<int>(path_width),
                      s.module_path.empty() ? "(root)" : s.module_path.c_str(),
                      static_cast<int>(prim_width),
                      s.primitive.empty() ? "-" : s.primitive.c_str(),
                      static_cast<long long>(s.count),
                      formatUs(static_cast<double>(s.total_ns)).c_str(),
                      formatUs(s.mean_ns).c_str(),
                      formatUs(static_cast<double>(s.p99_ns)).c_str(), pct);
        os << line;
    }
    std::snprintf(line, sizeof line, "total: %s us across %zu (op, module) pairs\n",
                  formatUs(static_cast<double>(grand_total)).c_str(),
                  stats.size());
    os << line;
    return os.str();
}

std::string
OpProfiler::toJson() const
{
    std::string out = "[";
    bool first = true;
    for (const OpStats& s : report()) {
        if (!first) out += ",";
        first = false;
        out += "{\"op\":\"" + s.op + "\",\"module\":\"" + s.module_path +
               "\",\"primitive\":\"" + s.primitive +
               "\",\"count\":" + std::to_string(s.count) +
               ",\"total_ns\":" + std::to_string(s.total_ns) +
               ",\"mean_ns\":" + std::to_string(s.mean_ns) +
               ",\"p99_ns\":" + std::to_string(s.p99_ns) + "}";
    }
    out += "]";
    return out;
}

void
OpProfiler::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->aggs.clear();
}

namespace {

/** The installed profilers. The fan-out holds the mutex, so removing a
 * profiler waits out any thread still recording into it. */
struct Profilers
{
    std::mutex mutex;
    std::vector<OpProfiler*> list;
};

Profilers&
profilers()
{
    static Profilers* p = new Profilers(); // leaked: used at exit
    return *p;
}

/** Nanoseconds this thread's closed rows have recorded: a self-time
 * scope's nested time is the change across it. */
thread_local int64_t t_recorded_ns = 0;
thread_local std::string t_module_path;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
detail::opProfilerFromEnv()
{
    // SLAPO_OP_PROFILE=1 (table to stderr at exit) or
    // SLAPO_OP_PROFILE=report.json (JSON file at exit).
    const char* env = std::getenv("SLAPO_OP_PROFILE");
    if (env == nullptr || env[0] == '\0') {
        return 0;
    }
    static OpProfiler* profiler = new OpProfiler();
    static std::string out = env;
    {
        Profilers& p = profilers();
        std::lock_guard<std::mutex> lock(p.mutex);
        p.list.push_back(profiler); // installed for the whole process
    }
    std::atexit([] {
        if (out == "1") {
            std::fputs(profiler->table().c_str(), stderr);
        } else if (std::FILE* f = std::fopen(out.c_str(), "wb")) {
            const std::string json = profiler->toJson();
            std::fwrite(json.data(), 1, json.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
        }
    });
    return kObserveProfile;
}

OpProfilerGuard::OpProfilerGuard(OpProfiler* profiler) : profiler_(profiler)
{
    (void)observing(); // SLAPO_OP_PROFILE's profiler joins the list first
    Profilers& p = profilers();
    std::lock_guard<std::mutex> lock(p.mutex);
    SLAPO_CHECK(profiler != nullptr &&
                    std::find(p.list.begin(), p.list.end(), profiler) ==
                        p.list.end(),
                "OpProfilerGuard: null or already-installed profiler");
    p.list.push_back(profiler);
    detail::setObserving(kObserveProfile, true);
}

OpProfilerGuard::~OpProfilerGuard()
{
    Profilers& p = profilers();
    std::lock_guard<std::mutex> lock(p.mutex);
    p.list.erase(std::find(p.list.begin(), p.list.end(), profiler_));
    if (p.list.empty()) {
        detail::setObserving(kObserveProfile, false);
    }
}

void
profileOp(const std::string& op, const std::string& module_path,
          const std::string& primitive, int64_t duration_ns)
{
    t_recorded_ns += duration_ns;
    Profilers& p = profilers();
    std::lock_guard<std::mutex> lock(p.mutex);
    for (OpProfiler* profiler : p.list) {
        profiler->record(op, module_path, primitive, duration_ns);
    }
}

ModuleScope::ModuleScope(const std::string& name, int observed)
{
    if (observed == 0) {
        return;
    }
    restore_len_ = t_module_path.size();
    if (!t_module_path.empty()) {
        t_module_path += '.';
    }
    t_module_path += name;
}

ModuleScope::~ModuleScope()
{
    if (restore_len_ != SIZE_MAX) {
        t_module_path.resize(restore_len_);
    }
}

const std::string&
ModuleScope::currentPath()
{
    return t_module_path;
}

void
OpScope::open(const char* op, const std::string& primitive,
              const OpSite& site, int observed)
{
    // A remainder row is only a row: no span, no memory tag.
    observed_ = site.self_time ? observed & kObserveProfile : observed;
    primitive_ = &primitive;
    module_ = site.module;
    self_time_ = site.self_time;
    if (site.node_id >= 0 && (observed_ & kObserveMemory)) {
        mem_.emplace(site.node_id, primitive_);
    }
    if (observed_ & (kObserveTrace | kObserveProfile)) {
        name_ = op;
        name_ += site.suffix;
    }
    if (observed_ & kObserveTrace) {
        span_.emplace(site.span != nullptr ? std::string(site.span) : name_,
                      site.category);
        if (site.node != nullptr) {
            span_->arg("node", *site.node);
        }
        const std::string& module =
            module_ != nullptr ? *module_ : ModuleScope::currentPath();
        if (!module.empty()) {
            span_->arg("module", module);
        }
        if (!primitive.empty()) {
            span_->arg("primitive", primitive);
        }
    }
    if (observed_ & kObserveProfile) {
        nested_before_ns_ = t_recorded_ns;
        start_ns_ = nowNs();
    }
}

int64_t
OpScope::elapsedNs() const
{
    return (observed_ & kObserveProfile) ? nowNs() - start_ns_ : -1;
}

void
OpScope::close()
{
    if (!(observed_ & kObserveProfile)) {
        return;
    }
    int64_t ns = nowNs() - start_ns_;
    if (self_time_) {
        // A FusedOp's row nests its inner ops' rows, so the remainder
        // may come out negative; only a positive gap is a real cost.
        ns -= t_recorded_ns - nested_before_ns_;
        if (ns <= 0) {
            return;
        }
    }
    profileOp(name_, module_ != nullptr ? *module_ : ModuleScope::currentPath(),
              *primitive_, ns);
}

} // namespace obs
} // namespace slapo
