#include "obs/mem_profiler.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "support/error.h"

namespace slapo {
namespace obs {

namespace {

/** Per-category Chrome-trace counter track names (literal lifetime). */
constexpr const char* kCategoryName[kNumMemCategories] = {
    "parameter",       "gradient", "activation",
    "optimizer_state", "scratch",  "comm_buffer",
};
constexpr const char* kCategoryTrack[kNumMemCategories] = {
    "mem.parameter_bytes",       "mem.gradient_bytes",
    "mem.activation_bytes",      "mem.optimizer_state_bytes",
    "mem.scratch_bytes",         "mem.comm_buffer_bytes",
};

/** Top-K live tensors kept in each peak snapshot. */
constexpr size_t kTopTensors = 16;

/** Thread-local allocation tag the RAII scopes maintain. */
struct ThreadTag
{
    MemCategory category = MemCategory::Activation;
    int64_t node_id = -1;
    const std::string* primitive = nullptr; ///< stamped node provenance
    int rank = -1;
};

thread_local ThreadTag t_tag;

/** Budget configuration: read on the alloc path without the registry
 * lock (plain relaxed atomics, set rarely). */
std::atomic<int64_t> g_budget{-1};
std::atomic<int> g_budget_action{0}; ///< 0 = warn, 1 = throw

std::mutex g_dump_mutex;
std::string g_dump_path; ///< SLAPO_MEM_DUMP / setMemDumpPath ("" = none)

} // namespace

struct MemWindow::State
{
    int64_t peak = 0;
    int64_t cat_at_peak[kNumMemCategories] = {};
};

namespace {

/** The live-tensor registry. One mutex: the enabled path is a profiling
 * mode, and allocations come from a handful of rank/stage threads, never
 * from inside parallelFor chunks (tensor/alloc.h). */
struct Registry
{
    struct Entry
    {
        int64_t bytes = 0;
        MemCategory category = MemCategory::Activation;
        int64_t node_id = -1;
        int rank = -1;
        uint32_t path_id = 0; ///< index into `paths`
    };

    std::mutex mutex;
    std::unordered_map<const void*, Entry> entries;

    /** Interned (module path, primitive) pairs + per-pair live bytes by
     * category — the incremental aggregate a snapshot copies from. */
    std::map<std::pair<std::string, std::string>, uint32_t> path_ids;
    std::vector<std::pair<std::string, std::string>> paths;
    std::vector<std::array<int64_t, kNumMemCategories>> agg;

    int64_t live = 0;
    int64_t peak = 0;
    int64_t cat_live[kNumMemCategories] = {};

    MemPeakReport snapshot;
    int64_t snapshot_live = 0; ///< live bytes at the last snapshot

    std::vector<MemWindow::State*> windows;

    bool above_budget = false; ///< watchdog edge detector
};

Registry&
registry()
{
    static Registry* r = new Registry();
    return *r;
}

/** Re-snapshot hysteresis: skip rebuilds for watermark advances smaller
 * than ~0.4% of the peak (floor 4 KiB), bounding snapshot work to
 * O(log) rebuilds per doubling of peak memory. */
int64_t
snapshotThreshold(int64_t peak)
{
    return std::max<int64_t>(peak / 256, 4096);
}

uint32_t
internPathLocked(Registry& r, const std::string& module_path,
                 const std::string& primitive)
{
    const auto key = std::make_pair(module_path, primitive);
    auto it = r.path_ids.find(key);
    if (it != r.path_ids.end()) {
        return it->second;
    }
    const uint32_t id = static_cast<uint32_t>(r.paths.size());
    r.path_ids.emplace(key, id);
    r.paths.push_back(key);
    r.agg.emplace_back();
    r.agg.back().fill(0);
    return id;
}

void
rebuildSnapshotLocked(Registry& r)
{
    MemPeakReport& s = r.snapshot;
    s.rows.clear();
    s.top.clear();
    s.peak_bytes = r.peak;
    s.live_bytes = r.live;
    s.retained_bytes = metrics().alloc_pooled_bytes.get();
    s.budget_bytes = g_budget.load(std::memory_order_relaxed);
    std::copy(std::begin(r.cat_live), std::end(r.cat_live),
              std::begin(s.category_bytes));

    int64_t attributed = 0;
    for (size_t p = 0; p < r.agg.size(); ++p) {
        for (int c = 0; c < kNumMemCategories; ++c) {
            const int64_t bytes = r.agg[p][c];
            if (bytes <= 0) {
                continue;
            }
            MemRow row;
            row.category = static_cast<MemCategory>(c);
            row.module_path = r.paths[p].first;
            row.primitive = r.paths[p].second;
            row.bytes = bytes;
            attributed += bytes;
            s.rows.push_back(std::move(row));
        }
    }
    s.attributed_bytes = attributed;
    std::stable_sort(s.rows.begin(), s.rows.end(),
                     [](const MemRow& a, const MemRow& b) {
                         return a.bytes > b.bytes;
                     });

    // Top-K live tensors: partial sort over the entry set.
    std::vector<const std::pair<const void* const, Registry::Entry>*> all;
    all.reserve(r.entries.size());
    for (const auto& kv : r.entries) {
        all.push_back(&kv);
    }
    const size_t k = std::min(kTopTensors, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), [](const auto* a, const auto* b) {
                          return a->second.bytes > b->second.bytes;
                      });
    for (size_t i = 0; i < k; ++i) {
        const Registry::Entry& e = all[i]->second;
        MemTensorRow row;
        row.bytes = e.bytes;
        row.category = e.category;
        row.module_path = r.paths[e.path_id].first;
        row.primitive = r.paths[e.path_id].second;
        row.node_id = e.node_id;
        row.rank = e.rank;
        s.top.push_back(std::move(row));
    }
    r.snapshot_live = r.live;
}

void
writeDumpFile(const std::string& json)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(g_dump_mutex);
        path = g_dump_path;
    }
    if (path.empty()) {
        return;
    }
    std::ofstream file(path, std::ios::trunc);
    if (file.good()) {
        file << json << "\n";
    }
}

/**
 * Shared allocation-recording body. `enforce_budget` is false on the
 * scratch path (a throwing kernel temporary would leak its buffer).
 * Throws MemoryBudgetExceeded — with the entry rolled back first — when
 * the budget is crossed under action Throw.
 */
void
recordAllocImpl(const void* key, int64_t bytes, MemCategory category,
                bool enforce_budget)
{
    // Resolve the primitive before taking the registry lock
    // (lookupProvenance holds the provenance registry's own mutex).
    // Precedence mirrors step reports: stamped node provenance, then the
    // registry's longest-prefix match, then baseline.
    const std::string& module_path = ModuleScope::currentPath();
    std::string primitive;
    if (t_tag.primitive != nullptr && !t_tag.primitive->empty()) {
        primitive = *t_tag.primitive;
    } else if (const ProvenanceRecord* rec = lookupProvenance(module_path)) {
        primitive = rec->primitive;
    } else {
        primitive = "baseline";
    }

    const int64_t budget = g_budget.load(std::memory_order_relaxed);
    const bool throw_action = g_budget_action.load(std::memory_order_relaxed) == 1;

    bool crossed = false;
    bool do_throw = false;
    int64_t live_at_crossing = 0;
    int64_t cat_level = 0;
    std::string forensics;

    Registry& r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        const uint32_t path_id = internPathLocked(r, module_path, primitive);

        Registry::Entry& entry = r.entries[key];
        if (entry.bytes != 0) {
            // Stale entry: the key's previous owner was freed while the
            // profiler was toggled off (its free went unrecorded) and
            // the address was reused. Roll the stale bytes off first.
            const int stale_c = static_cast<int>(entry.category);
            r.live -= entry.bytes;
            r.cat_live[stale_c] -= entry.bytes;
            r.agg[entry.path_id][stale_c] -= entry.bytes;
        }
        entry.bytes = bytes;
        entry.category = category;
        entry.node_id = t_tag.node_id;
        entry.rank = t_tag.rank;
        entry.path_id = path_id;

        const int c = static_cast<int>(category);
        r.live += bytes;
        r.cat_live[c] += bytes;
        r.agg[path_id][c] += bytes;
        cat_level = r.cat_live[c];

        if (r.live > r.peak) {
            r.peak = r.live;
            if (r.peak - r.snapshot_live >= snapshotThreshold(r.peak)) {
                rebuildSnapshotLocked(r);
            }
        }
        for (MemWindow::State* w : r.windows) {
            if (r.live > w->peak) {
                w->peak = r.live;
                std::copy(std::begin(r.cat_live), std::end(r.cat_live),
                          std::begin(w->cat_at_peak));
            }
        }

        if (budget >= 0 && r.live > budget) {
            if (!r.above_budget) {
                // Rising edge: this allocation IS the over-budget peak —
                // snapshot right here so the forensics show the exact
                // composition at the crossing.
                r.above_budget = true;
                rebuildSnapshotLocked(r);
                forensics = r.snapshot.toJson();
                crossed = true;
                live_at_crossing = r.live;
                if (enforce_budget && throw_action) {
                    // Roll the allocation back: the caller releases the
                    // buffer, so the registry must not keep the entry.
                    r.entries.erase(key);
                    r.live -= bytes;
                    r.cat_live[c] -= bytes;
                    r.agg[path_id][c] -= bytes;
                    r.above_budget = r.live > budget;
                    do_throw = true;
                }
            }
        }
    }

    if (tracingEnabled()) {
        traceCounter(kCategoryTrack[static_cast<int>(category)], cat_level);
    }
    if (crossed) {
        if (RunLog* log = runLog()) {
            RunLogRecord record("mem.budget");
            record.num("live_bytes", live_at_crossing)
                .num("budget_bytes", budget)
                .str("action", throw_action ? "throw" : "warn")
                .raw("report", forensics);
            log->write(record);
        }
        writeDumpFile(forensics);
    }
    if (do_throw) {
        throw MemoryBudgetExceeded(live_at_crossing, budget);
    }
}

} // namespace

const char*
memCategoryName(MemCategory category)
{
    return kCategoryName[static_cast<int>(category)];
}

// --- enablement ----------------------------------------------------------

int
detail::memProfilingFromEnv()
{
    bool on = false;
    if (const char* env = std::getenv("SLAPO_MEM_PROFILE")) {
        on = env[0] != '\0' && std::strcmp(env, "0") != 0 &&
             std::strcmp(env, "off") != 0;
    }
    if (const char* env = std::getenv("SLAPO_MEM_BUDGET")) {
        if (env[0] != '\0') {
            const long long bytes = std::atoll(env);
            if (bytes > 0) {
                g_budget.store(bytes, std::memory_order_relaxed);
                on = true; // a budget implies watching live bytes
            }
        }
    }
    if (const char* env = std::getenv("SLAPO_MEM_BUDGET_ACTION")) {
        g_budget_action.store(std::strcmp(env, "throw") == 0 ? 1 : 0,
                              std::memory_order_relaxed);
    }
    if (const char* env = std::getenv("SLAPO_MEM_DUMP")) {
        if (env[0] != '\0') {
            std::lock_guard<std::mutex> lock(g_dump_mutex);
            g_dump_path = env;
            on = true; // a dump path implies wanting the report
        }
    }
    return on ? kObserveMemory : 0;
}

void
setMemProfilingEnabled(bool on)
{
    detail::setObserving(kObserveMemory, on);
}

// --- budget --------------------------------------------------------------

int64_t
memBudgetBytes()
{
    (void)observing(); // settle the environment probe
    return g_budget.load(std::memory_order_relaxed);
}

void
setMemBudget(int64_t bytes, MemBudgetAction action)
{
    (void)observing(); // settle the environment probe
    g_budget.store(bytes < 0 ? -1 : bytes, std::memory_order_relaxed);
    g_budget_action.store(action == MemBudgetAction::Throw ? 1 : 0,
                          std::memory_order_relaxed);
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.above_budget = bytes >= 0 && r.live > bytes;
}

void
setMemDumpPath(const std::string& path)
{
    (void)observing(); // settle the environment probe
    std::lock_guard<std::mutex> lock(g_dump_mutex);
    g_dump_path = path;
}

// --- recording hooks -----------------------------------------------------

void
memRecordAlloc(const void* key, int64_t bytes)
{
    recordAllocImpl(key, bytes, t_tag.category, /*enforce_budget=*/true);
}

void
memRecordAlloc(const void* key, int64_t bytes, MemCategory category)
{
    recordAllocImpl(key, bytes, category, /*enforce_budget=*/true);
}

void
memRecordScratch(const void* key, int64_t bytes) noexcept
{
    recordAllocImpl(key, bytes, MemCategory::Scratch,
                    /*enforce_budget=*/false);
}

void
memRecordFree(const void* key) noexcept
{
    Registry& r = registry();
    int c = -1;
    int64_t cat_level = 0;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        auto it = r.entries.find(key);
        if (it == r.entries.end()) {
            return; // allocated while the profiler was off
        }
        const Registry::Entry& entry = it->second;
        c = static_cast<int>(entry.category);
        r.live -= entry.bytes;
        r.cat_live[c] -= entry.bytes;
        r.agg[entry.path_id][c] -= entry.bytes;
        cat_level = r.cat_live[c];
        r.entries.erase(it);
        const int64_t budget = g_budget.load(std::memory_order_relaxed);
        if (r.above_budget && (budget < 0 || r.live <= budget)) {
            r.above_budget = false; // re-arm the watchdog
        }
    }
    if (tracingEnabled()) {
        traceCounter(kCategoryTrack[c], cat_level);
    }
}

// --- thread tag scopes ---------------------------------------------------

MemCategoryScope::MemCategoryScope(MemCategory category)
{
    if (!memProfilingEnabled()) {
        return;
    }
    active_ = true;
    prev_ = t_tag.category;
    t_tag.category = category;
}

MemCategoryScope::~MemCategoryScope()
{
    if (active_) {
        t_tag.category = prev_;
    }
}

MemNodeScope::MemNodeScope(int64_t node_id, const std::string* primitive)
{
    if (!memProfilingEnabled()) {
        return;
    }
    active_ = true;
    prev_id_ = t_tag.node_id;
    prev_primitive_ = t_tag.primitive;
    t_tag.node_id = node_id;
    t_tag.primitive = primitive;
}

MemNodeScope::~MemNodeScope()
{
    if (active_) {
        t_tag.node_id = prev_id_;
        t_tag.primitive = prev_primitive_;
    }
}

void
setMemThreadRank(int rank)
{
    t_tag.rank = rank;
}

void
memRetagRank(const void* key, int rank)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.entries.find(key);
    if (it != r.entries.end()) {
        it->second.rank = rank;
    }
}

// --- reports -------------------------------------------------------------

double
MemPeakReport::attributedFraction() const
{
    if (peak_bytes <= 0) {
        return 0;
    }
    return static_cast<double>(attributed_bytes) /
           static_cast<double>(peak_bytes);
}

std::string
MemPeakReport::categoriesJson() const
{
    std::string out = "{";
    for (int c = 0; c < kNumMemCategories; ++c) {
        if (c > 0) out += ",";
        out += json::quoted(kCategoryName[c]) + ":" +
               json::number(category_bytes[c]);
    }
    out += "}";
    return out;
}

std::string
MemPeakReport::toJson() const
{
    std::string out = "{\"kind\":\"mem_peak_report\",\"schema_version\":2";
    out += ",\"peak_bytes\":" + json::number(peak_bytes);
    out += ",\"live_bytes\":" + json::number(live_bytes);
    out += ",\"attributed_bytes\":" + json::number(attributed_bytes);
    out += ",\"attributed_fraction\":" + json::number(attributedFraction());
    out += ",\"retained_bytes\":" + json::number(retained_bytes);
    out += ",\"budget_bytes\":" + json::number(budget_bytes);
    out += ",\"categories\":" + categoriesJson();
    out += ",\"rows\":[";
    bool first = true;
    for (const MemRow& row : rows) {
        if (!first) out += ",";
        first = false;
        out += "{\"category\":" +
               json::quoted(kCategoryName[static_cast<int>(row.category)]) +
               ",\"module\":" + json::quoted(row.module_path) +
               ",\"primitive\":" + json::quoted(row.primitive) +
               ",\"bytes\":" + json::number(row.bytes) + "}";
    }
    out += "],\"top_tensors\":[";
    first = true;
    for (const MemTensorRow& t : top) {
        if (!first) out += ",";
        first = false;
        out += "{\"bytes\":" + json::number(t.bytes) + ",\"category\":" +
               json::quoted(kCategoryName[static_cast<int>(t.category)]) +
               ",\"module\":" + json::quoted(t.module_path) +
               ",\"primitive\":" + json::quoted(t.primitive) +
               ",\"node_id\":" + json::number(t.node_id) +
               ",\"rank\":" + json::number(static_cast<int64_t>(t.rank)) +
               "}";
    }
    out += "]}";
    return out;
}

MemPeakReport
memPeakReport()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    // Catch up on any watermark advance the hysteresis skipped so the
    // returned report is never staler than one threshold step.
    if (r.peak > r.snapshot.peak_bytes && r.live == r.peak) {
        rebuildSnapshotLocked(r);
    } else {
        r.snapshot.peak_bytes = r.peak;
    }
    return r.snapshot;
}

int64_t
memLiveBytes()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.live;
}

int64_t
memCategoryLiveBytes(MemCategory category)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.cat_live[static_cast<int>(category)];
}

int64_t
memRegistrySize()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return static_cast<int64_t>(r.entries.size());
}

bool
memLookup(const void* key, MemTensorRow* out)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.entries.find(key);
    if (it == r.entries.end()) {
        return false;
    }
    if (out != nullptr) {
        const Registry::Entry& e = it->second;
        out->bytes = e.bytes;
        out->category = e.category;
        out->module_path = r.paths[e.path_id].first;
        out->primitive = r.paths[e.path_id].second;
        out->node_id = e.node_id;
        out->rank = e.rank;
    }
    return true;
}

void
writeMemDump(const std::string& path)
{
    const std::string json = memPeakReport().toJson();
    std::ofstream file(path, std::ios::trunc);
    if (file.good()) {
        file << json << "\n";
    }
}

void
memProfilerReset()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    SLAPO_ASSERT(r.windows.empty(),
                 "memProfilerReset with " << r.windows.size()
                                          << " MemWindow(s) alive");
    r.entries.clear();
    r.path_ids.clear();
    r.paths.clear();
    r.agg.clear();
    r.live = 0;
    r.peak = 0;
    std::fill(std::begin(r.cat_live), std::end(r.cat_live), 0);
    r.snapshot = MemPeakReport();
    r.snapshot_live = 0;
    r.above_budget = false;
}

// --- MemWindow -----------------------------------------------------------

MemWindow::MemWindow()
{
    if (!memProfilingEnabled()) {
        return;
    }
    state_ = new State();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    // The window opens at the current level: a step that only *holds*
    // memory (no new watermark) still reports what it held.
    state_->peak = r.live;
    std::copy(std::begin(r.cat_live), std::end(r.cat_live),
              std::begin(state_->cat_at_peak));
    r.windows.push_back(state_);
}

MemWindow::~MemWindow()
{
    if (state_ == nullptr) {
        return;
    }
    Registry& r = registry();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        auto& w = r.windows;
        w.erase(std::remove(w.begin(), w.end(), state_), w.end());
    }
    delete state_;
}

bool
MemWindow::active() const
{
    return state_ != nullptr;
}

int64_t
MemWindow::peakBytes() const
{
    if (state_ == nullptr) {
        return 0;
    }
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return state_->peak;
}

int64_t
MemWindow::categoryPeakBytes(MemCategory category) const
{
    if (state_ == nullptr) {
        return 0;
    }
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return state_->cat_at_peak[static_cast<int>(category)];
}

std::string
MemWindow::categoriesJson() const
{
    std::string out = "{";
    for (int c = 0; c < kNumMemCategories; ++c) {
        if (c > 0) out += ",";
        out += json::quoted(kCategoryName[c]) + ":";
        out += json::number(
            categoryPeakBytes(static_cast<MemCategory>(c)));
    }
    out += "}";
    return out;
}

// --- sim-model side channel ----------------------------------------------

namespace {
thread_local double t_sim_peak_bytes = -1.0;
} // namespace

void
reportSimPeakBytes(double predicted_peak_bytes)
{
    t_sim_peak_bytes = predicted_peak_bytes;
}

double
takeSimPeakBytes()
{
    const double value = t_sim_peak_bytes;
    t_sim_peak_bytes = -1.0;
    return value;
}

} // namespace obs
} // namespace slapo
