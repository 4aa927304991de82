/**
 * @file
 * dsperf — the repository benchmark's driver program.
 *
 * One process runs one workload (ds_single, fig_sweep or serve_open)
 * for a fixed wall-clock window and prints one JSON result line. It
 * drives the simulator only through its public entry points
 * (driver::RunRequest + runOne/runMany, driver::TraceCache,
 * func::InstTrace, serve::Client against a spawned dsserve, and the
 * core::DataScalarSystem / mem::Cache / mem::PageTable / core::Bshr
 * classes) and times every layer from the outside. See README.md in
 * this directory for the metric definitions.
 */

#ifndef PERFBENCH_DSPERF_HH
#define PERFBENCH_DSPERF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/run_request.hh"
#include "driver/trace_cache.hh"
#include "obs/span.hh"

namespace perfbench {

using namespace dscalar;
using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured window
    bool trace = false;     ///< per-layer run instead of end-to-end
    std::string dsserve;    ///< path of the dsserve binary to spawn
    std::string workDir;    ///< scratch directory (stores, sockets)
    bool smoke = false;     ///< tiny budgets, for the self-test
    bool plantMismatch = false; ///< corrupt one digest (self-test)
    unsigned jobs = 1;      ///< host hardware threads
};

/** splitmix64: the seed fixes request order and arrival times. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** Metric name -> (value, unit) for the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** `{"name": {"value": v, "unit": "u"}, ...}` */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

// -------------------------------------------------------------------
// Correctness gate
// -------------------------------------------------------------------

/** FNV-1a over @p s. */
std::uint64_t fnv1a(const std::string &s);

/** A stats JSON document without its wall-clock parts: the `profile`
 *  group and the run_meta `profile` line. */
std::string simulatedJson(const std::string &json);

/** Sum of every counter named @p name in a stats JSON document. */
double sumCounter(const std::string &json, const std::string &name);

/** Canonical text of @p req (profile cleared): the gate's key. */
std::string requestKey(driver::RunRequest req);

/** Why @p resp fails the gate ("" when it passes): not ok, a
 *  DataScalar run that did not drain, or program output that
 *  differs from @p trace's output prefix. */
std::string checkResponse(const driver::RunRequest &req,
                          const driver::RunResponse &resp,
                          const func::InstTrace &trace);

/**
 * Every executed op passes through record(). An op fails when the
 * caller found a reason, or when its simulated-stats digest differs
 * from the first digest recorded for the same request.
 */
class Gate
{
  public:
    explicit Gate(bool plant_mismatch) : plant_(plant_mismatch) {}

    /** Name the workload's own request table: sim_digest and the sim.*
     *  counts cover these, not the traced run's extra requests. */
    void declare(const std::vector<driver::RunRequest> &table);

    /** Record one op whose simulated stats JSON is @p sim_json. */
    void record(const std::string &key, const std::string &sim_json,
                const std::string &why);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    /** Digest over every declared request and its stats digest. */
    std::uint64_t simDigest() const;
    /** Sum of counter @p name over one run of each declared request. */
    double simCounter(const std::string &name) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::string> declared_;
    std::map<std::string, std::uint64_t> digests_;
    std::map<std::string, std::string> firstJson_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool plant_;
};

// -------------------------------------------------------------------
// Tracing: spans recorded from outside the layer calls
// -------------------------------------------------------------------

/** One span: a layer call of one request. */
struct Span
{
    std::uint64_t request;
    int parent;         ///< index of the enclosing span, -1 = root
    const char *layer;  ///< string literal
    const char *name;   ///< string literal
    std::int64_t startNs;
    std::int64_t endNs;
};

/** In-memory span store, written out at exit. Disabled = no-op. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }
    std::int64_t toNs(Clock::time_point t) const;

    int begin(std::uint64_t request, int parent, const char *layer,
              const char *name);
    void end(int index);
    int add(std::uint64_t request, int parent, const char *layer,
            const char *name, std::int64_t start_ns,
            std::int64_t end_ns);

    /** Import the closed spans of a request recorder created at
     *  @p epoch as children of @p parent; `sim_run` is booked to
     *  @p sim_layer. */
    void importRecorder(const obs::SpanRecorder &rec,
                        Clock::time_point epoch, std::uint64_t request,
                        int parent, const char *sim_layer);

    /** Self time per layer, in ms: each span minus the union of its
     *  children's intervals. */
    std::map<std::string, double> selfMs() const;

    /** One JSON object per span, one per line. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span over a SpanLog (no-op when the log is disabled). */
class Scope
{
  public:
    Scope(SpanLog &log, std::uint64_t request, int parent,
          const char *layer, const char *name)
        : log_(log), index_(log.begin(request, parent, layer, name))
    {
    }
    ~Scope() { log_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int index() const { return index_; }

  private:
    SpanLog &log_;
    int index_;
};

/** Layer that executes a request's timing run. */
const char *simLayer(driver::SystemKind system);

/** The string literal naming one of the driver's request-phase spans
 *  (build, trace_*, sim_run, render, admission, queue_wait), or
 *  "other". */
const char *requestSpanName(const std::string &name);

/** Layer a request-phase span's time belongs to. */
const char *requestSpanLayer(const std::string &name,
                             const char *sim_layer);

// -------------------------------------------------------------------
// Shared measurement pieces
// -------------------------------------------------------------------

/** Everything one workload run reports besides its own loop. */
struct Context
{
    const Options &opts;
    Gate &gate;
    SpanLog &log;
    Metrics &metrics;
    /** Next request id for spans; ds_single's streams share it. */
    std::atomic<std::uint64_t> nextRequest{1};
};

/** A DataScalar paper-configuration request. */
driver::RunRequest makeRequest(const std::string &workload,
                               driver::SystemKind system,
                               unsigned nodes, InstSeq budget);

/** Peak resident set size of this process, in MB. */
double selfPeakRssMb();

/**
 * Run @p req through runOne on @p cache and record it with the gate
 * (output checked against @p trace). Traced: under a `runOne` span
 * with the driver's request-phase spans imported, and @p sim_run_ns,
 * when given, receives the sim_run span's length.
 */
driver::RunResponse gatedRunOne(Context &ctx, const driver::RunRequest &req,
                                driver::TraceCache &cache,
                                const func::InstTrace &trace, bool traced,
                                double *sim_run_ns = nullptr);

/**
 * The traced run's per-layer pass over @p workloads at @p budget,
 * sequential and in-process: DataScalar at 4 and 8 nodes built and
 * run directly (page table, constructor, run() with the phase
 * profiler, statsJson each timed), plus a perfect and a 4-node
 * traditional run through runOne. Sets core.*, ooo.*, baseline.* and
 * stats.* metrics; every run passes the gate against runOne.
 */
void layerPass(Context &ctx, const std::vector<std::string> &workloads,
               InstSeq budget, driver::TraceCache &cache);

/**
 * Component replays: the effective-address stream of each captured
 * trace through a paper-L1 mem::Cache, the 8-node page table's
 * lookup, and an 8-node core::Bshr request/deliver pair per line.
 * Sets mem.cache_access_ns, mem.pagetable_lookup_ns, core.bshr_op_ns.
 */
void componentReplays(Context &ctx,
                      const std::vector<std::string> &workloads,
                      InstSeq budget, driver::TraceCache &cache);

/**
 * Time a fresh TraceCache over the filled trace store @p store_dir
 * loading every trace of @p workloads (programs built first, untimed
 * by this metric). Sets func.trace_load_ms.
 */
void traceLoad(Context &ctx, const std::vector<std::string> &workloads,
               InstSeq budget, const std::string &store_dir);

/** Capture all @p workloads into a store under @p store_dir. */
void fillStore(const std::vector<std::string> &workloads, InstSeq budget,
               const std::string &store_dir);

/** sim.* per-layer counts from the gate's one-run-per-request set. */
void simMetrics(Context &ctx);

/** self_ms.* ledger and bench.* figures of a traced run.
 *  @p traced_wall_ms is the wall time of the traced phases; the
 *  tracing overhead is @p traced_time / @p untraced_time - 1, two
 *  like-for-like host times of the workload's loop. */
void ledgerMetrics(Context &ctx, double traced_wall_ms,
                   double untraced_time, double traced_time);

// -------------------------------------------------------------------
// Serving
// -------------------------------------------------------------------

/** One request sent to the daemon, with its timing. */
struct Sent
{
    std::size_t entry = 0; ///< index into the request table
    double dueMs = 0;      ///< scheduled send, from the window start
    double freeMs = 0;     ///< when its connection became free
    double sendMs = 0;
    double recvMs = 0;
    bool ok = false;
    std::string error;
    std::string json;
    std::map<std::string, std::string> fields;
};

/** A dsserve child process on a private socket. */
class Daemon
{
  public:
    /** Spawn and wait until it answers a ping. Throws on failure. */
    Daemon(const Options &opts, const std::string &socket,
           const std::string &trace_dir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    /** Shut it down, reap it; @return its peak RSS in MB. */
    double stop();

  private:
    std::string socket_;
    int pid_ = -1;
};

/**
 * Send @p table[entry] at each scheduled (due ms, entry) of
 * @p schedule, open loop, over @p connections client connections;
 * each request is timed from its due time. @p start is the window
 * start the due times count from.
 */
std::vector<Sent>
openLoop(const std::string &socket,
         const std::vector<driver::RunRequest> &table,
         const std::vector<std::pair<double, std::size_t>> &schedule,
         unsigned connections, Clock::time_point start);

/** Gate every reply against its request's reference digest. */
void gateReplies(Context &ctx, const std::vector<driver::RunRequest> &table,
                 const std::vector<Sent> &sent);

/** Driver-level load of a serving window. */
struct ServeLoad
{
    double cacheHitFrac = 0; ///< replies served from a warm trace
    double busyFrac = 0;     ///< server run time / (jobs x window)
    double tailPointS = 0;   ///< longest single server run time
};

/** Set the serve.* per-layer metrics of @p sent and, when tracing,
 *  log each request's client span with the server's phases inside. */
ServeLoad serveMetrics(Context &ctx,
                  const std::vector<driver::RunRequest> &table,
                  const std::vector<Sent> &sent,
                  Clock::time_point start);

/** The traced run's serve burst for closed-loop workloads: every
 *  request of @p table at once through a fresh daemon. */
void serveBurst(Context &ctx,
                const std::vector<driver::RunRequest> &table);

// -------------------------------------------------------------------
// Workloads
// -------------------------------------------------------------------

void runDsSingle(Context &ctx);
void runFigSweep(Context &ctx);
void runServeOpen(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_DSPERF_HH
