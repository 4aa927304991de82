#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dsperf.hh"

namespace perfbench {

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[name, vu] : values_) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << num << ", \"unit\": \"" << vu.second << "\"}";
        first = false;
    }
    os << '}';
    return os.str();
}

// -------------------------------------------------------------------
// Correctness gate
// -------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
simulatedJson(const std::string &json)
{
    std::string out = json;
    const std::string meta_flag = ",\"profile\":1";
    std::size_t pos = out.find(meta_flag);
    if (pos != std::string::npos)
        out.erase(pos, meta_flag.size());
    const std::string group = ",\"profile\":{";
    pos = out.find(group);
    if (pos != std::string::npos) {
        std::size_t i = pos + group.size();
        int depth = 1;
        while (i < out.size() && depth > 0) {
            if (out[i] == '{')
                ++depth;
            else if (out[i] == '}')
                --depth;
            ++i;
        }
        out.erase(pos, i - pos);
    }
    return out;
}

double
sumCounter(const std::string &json, const std::string &name)
{
    const std::string needle = "\"" + name + "\":{\"value\":";
    double sum = 0.0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1))
        sum += std::strtod(json.c_str() + pos + needle.size(), nullptr);
    return sum;
}

std::string
requestKey(driver::RunRequest req)
{
    req.profile = false;
    return driver::formatRunRequest(req);
}

std::string
checkResponse(const driver::RunRequest &req,
              const driver::RunResponse &resp,
              const func::InstTrace &trace)
{
    if (!resp.ok())
        return "error: " + resp.error;
    if (req.system == driver::SystemKind::DataScalar && !resp.drained)
        return "protocol did not drain";
    if (resp.output != trace.outputPrefix(req.config.maxInsts))
        return "program output differs from the captured trace";
    return "";
}

void
Gate::record(const std::string &key, const std::string &sim_json,
             const std::string &why)
{
    std::uint64_t digest = fnv1a(sim_json);
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    std::string reason = why;
    auto it = digests_.find(key);
    if (it == digests_.end()) {
        if (reason.empty()) {
            digests_.emplace(key, digest);
            firstJson_.emplace(key, sim_json);
        }
    } else {
        if (plant_) {
            digest ^= 1; // the self-test's planted mismatch
            plant_ = false;
        }
        if (reason.empty() && digest != it->second)
            reason = "simulated-stats digest differs from an earlier "
                     "run of the same request";
    }
    if (!reason.empty()) {
        ++failed_;
        std::string first_line = key.substr(0, key.find('\n'));
        std::fprintf(stderr, "dsperf: FAILED op (%s ...): %s\n",
                     first_line.c_str(), reason.c_str());
    }
}

std::uint64_t
Gate::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t
Gate::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

void
Gate::declare(const std::vector<driver::RunRequest> &table)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const driver::RunRequest &req : table)
        declared_.push_back(requestKey(req));
    std::sort(declared_.begin(), declared_.end());
    declared_.erase(std::unique(declared_.begin(), declared_.end()),
                    declared_.end());
}

std::uint64_t
Gate::simDigest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string all;
    for (const std::string &key : declared_) {
        auto it = digests_.find(key);
        all += key + "=" +
               (it == digests_.end() ? "missing"
                                     : std::to_string(it->second)) +
               "\n";
    }
    return fnv1a(all);
}

double
Gate::simCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const std::string &key : declared_) {
        auto it = firstJson_.find(key);
        if (it != firstJson_.end())
            sum += sumCounter(it->second, name);
    }
    return sum;
}

// -------------------------------------------------------------------
// Tracing
// -------------------------------------------------------------------

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t
SpanLog::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                epoch_)
        .count();
}

int
SpanLog::begin(std::uint64_t request, int parent, const char *layer,
               const char *name)
{
    if (!enabled_)
        return -1;
    std::int64_t now = toNs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({request, parent, layer, name, now, -1});
    return int(spans_.size() - 1);
}

void
SpanLog::end(int index)
{
    if (!enabled_ || index < 0)
        return;
    std::int64_t now = toNs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[std::size_t(index)].endNs = now;
}

int
SpanLog::add(std::uint64_t request, int parent, const char *layer,
             const char *name, std::int64_t start_ns, std::int64_t end_ns)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({request, parent, layer, name, start_ns, end_ns});
    return int(spans_.size() - 1);
}

const char *
requestSpanName(const std::string &name)
{
    static const char *const kNames[] = {
        "admission", "queue_wait",      "build",           "trace_capture",
        "trace_disk_load", "trace_cache_hit", "sim_run", "render"};
    for (const char *known : kNames)
        if (name == known)
            return known;
    return "other";
}

const char *
requestSpanLayer(const std::string &name, const char *sim_layer)
{
    if (name == "sim_run")
        return sim_layer;
    if (name == "build")
        return "workloads";
    if (name == "trace_capture" || name == "trace_disk_load")
        return "func";
    if (name == "render")
        return "stats";
    if (name == "admission" || name == "queue_wait")
        return "serve";
    return "driver"; // trace_cache_hit: waiting on the shared cache
}

void
SpanLog::importRecorder(const obs::SpanRecorder &rec,
                        Clock::time_point epoch, std::uint64_t request,
                        int parent, const char *sim_layer)
{
    if (!enabled_)
        return;
    std::int64_t base = toNs(epoch);
    std::vector<int> stack{parent};
    for (const auto &s : rec.spans()) {
        if (s.open)
            continue;
        stack.resize(std::min<std::size_t>(stack.size(), s.depth + 1));
        std::int64_t start = base + std::int64_t(s.startNs);
        int idx = add(request, stack.back(),
                      requestSpanLayer(s.name, sim_layer), s.name, start,
                      start + std::int64_t(s.durNs));
        stack.push_back(idx);
    }
}

std::map<std::string, double>
SpanLog::selfMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.endNs >= 0)
            children[std::size_t(s.parent)].push_back(
                {s.startNs, s.endNs});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Children may overlap (worker threads), so cover their union.
        std::int64_t covered = 0, reach = s.startNs;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            b = std::min(b, s.endNs);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[s.layer] += double(s.endNs - s.startNs - covered) / 1e6;
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"request\": " << s.request
            << ", \"parent\": " << s.parent << ", \"layer\": \""
            << s.layer << "\", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << "}\n";
    }
    return bool(out);
}

const char *
simLayer(driver::SystemKind system)
{
    switch (system) {
      case driver::SystemKind::Perfect: return "ooo";
      case driver::SystemKind::Traditional: return "baseline";
      case driver::SystemKind::DataScalar: return "core";
    }
    return "core";
}

// -------------------------------------------------------------------
// Shared measurement pieces
// -------------------------------------------------------------------

driver::RunRequest
makeRequest(const std::string &workload, driver::SystemKind system,
            unsigned nodes, InstSeq budget)
{
    driver::RunRequest req;
    req.workload = workload;
    req.system = system;
    req.config.numNodes = nodes;
    req.config.maxInsts = budget;
    return req;
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

void
simMetrics(Context &ctx)
{
    const Gate &g = ctx.gate;
    Metrics &m = ctx.metrics;
    for (const char *name :
         {"cycles", "instructions", "bus_busy_cycles", "bus_messages",
          "owner_broadcasts", "remote_fetches", "bshr_squashes"})
        m.set(std::string("sim.") + name, g.simCounter(name), "count");
    double owner = g.simCounter("owner_broadcasts");
    double reparative = g.simCounter("reparative_broadcasts");
    double loads = g.simCounter("loads");
    m.set("sim.reparative_frac",
          owner + reparative > 0 ? reparative / (owner + reparative) : 0.0,
          "fraction");
    m.set("sim.false_hit_frac",
          loads > 0 ? g.simCounter("false_hits") / loads : 0.0,
          "fraction");
}

void
ledgerMetrics(Context &ctx, double traced_wall_ms, double untraced_time,
              double traced_time)
{
    std::map<std::string, double> self = ctx.log.selfMs();
    double sum = 0.0;
    for (const char *layer :
         {"workloads", "func", "driver", "core", "baseline", "ooo", "mem",
          "stats", "serve"}) {
        ctx.metrics.set(std::string("self_ms.") + layer, self[layer],
                        "ms");
        sum += self[layer];
    }
    ctx.metrics.set("bench.self_sum_frac", sum / traced_wall_ms,
                    "fraction");
    ctx.metrics.set("bench.traced_wall_ms", traced_wall_ms, "ms");
    ctx.metrics.set("bench.trace_overhead_frac",
                    traced_time / untraced_time - 1.0, "fraction");
}

} // namespace perfbench
