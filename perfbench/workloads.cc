/**
 * @file
 * The benchmark's three workloads.
 *
 *  - ds_single: sequential runOne calls of the paper's DataScalar
 *    machine at 4 and 8 nodes over long budgets, one independent
 *    stream per core; the interactive "one long run" user, where the
 *    run loop's tick does ~90% of the work and capture, the pool and
 *    serving are bypassed.
 *  - fig_sweep: the five-system Figure 7 matrix over every registered
 *    workload through runMany on all cores with a fresh TraceCache per
 *    pass; the figure-regenerating user, bound by throughput, where
 *    capture, the baselines and pool scheduling carry weight.
 *  - serve_open: a warm-started dsserve under an open-loop Poisson
 *    load of short requests; independent users, where per-request
 *    costs (construction, stats render, the wire) show.
 */

#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/kv.hh"
#include "driver/driver.hh"
#include "serve/client.hh"
#include "workloads/workloads.hh"

#include "dsperf.hh"

namespace perfbench {

namespace {

using driver::SystemKind;

/** Stall-heavy, streaming, store-heavy and small-data workloads. */
const std::vector<std::string> kSingleWorkloads = {"turb3d_s", "swim_s",
                                                   "compress_s", "li_s"};
/** The four cheap workloads of the dsbench mix. */
const std::vector<std::string> kServeWorkloads = {"go_s", "compress_s",
                                                  "li_s", "perl_s"};

constexpr int kSetupRepeats = 11;
constexpr int kDaemonStarts = 5;
/** serve_open offered load: 15% of the closed-loop capacity of a quiet
 *  4-core host on this mix (about 1000 requests/s), so the queue stays
 *  stable even when co-tenants halve the host's speed. */
constexpr double kServeRatePerS = 150.0;
/** serve_open goodput counts replies within this latency. */
constexpr double kLatencyLimitMs = 50.0;

InstSeq
singleBudget(const Options &o)
{
    return o.smoke ? 20'000 : 200'000;
}
InstSeq
sweepBudget(const Options &o)
{
    return o.smoke ? 4'000 : 40'000;
}
InstSeq
serveBudget(const Options &o)
{
    return o.smoke ? 2'000 : 10'000;
}

double
secondsSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now()) / 1000.0;
}

/** Untraced end-to-end metrics every workload prints. */
void
setEndToEnd(Metrics &m, double minst_per_s, double p50, double p99,
            double goodput, double setup_s, double rss_mb)
{
    m.set("sim_minst_per_s", minst_per_s, "Minst/s");
    m.set("latency_ms_p50", p50, "ms");
    m.set("latency_ms_p99", p99, "ms");
    m.set("goodput_rps", goodput, "1/s");
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss_mb, "MB");
}

/** Program build + trace capture of a workload list into a fresh
 *  cache, and the median timings of repeated set-ups. */
struct Prepared
{
    std::unique_ptr<driver::TraceCache> cache;
    std::map<std::string, std::shared_ptr<const func::InstTrace>> traces;
    double setupS = 0;   ///< median over repeats
    double buildMs = 0;  ///< median program build
    double captureMs = 0;///< median capture
    double capturedInsts = 0;
};

/**
 * Sets up kSetupRepeats times on every core at once and keeps one
 * set-up's cache. A set-up takes tens of milliseconds, and on a shared
 * host one core's speed swings with its co-tenant's load; the median
 * over every core's set-ups is steadier than one core's.
 */
Prepared
prepare(Context &ctx, const std::vector<std::string> &names,
        InstSeq budget)
{
    const unsigned streams = ctx.opts.jobs;
    std::vector<Prepared> kept(streams);
    std::vector<std::vector<double>> setup(streams), build(streams),
        capture(streams);
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < streams; ++k)
        threads.emplace_back([&, k] {
            Prepared &p = kept[k];
            for (int rep = 0; rep < kSetupRepeats; ++rep) {
                p.traces.clear();
                p.cache.reset();
                std::uint64_t id = ctx.nextRequest++;
                Clock::time_point t0 = Clock::now();
                p.cache = std::make_unique<driver::TraceCache>();
                for (const std::string &w : names) {
                    Scope s(ctx.log, id, -1, "workloads",
                            "TraceCache::program");
                    p.cache->program(w, 1);
                }
                Clock::time_point t1 = Clock::now();
                for (const std::string &w : names) {
                    Scope s(ctx.log, id, -1, "func", "TraceCache::acquire");
                    p.traces[w] = p.cache->acquire(w, 1, budget);
                }
                Clock::time_point t2 = Clock::now();
                setup[k].push_back(msBetween(t0, t2) / 1000.0);
                build[k].push_back(msBetween(t0, t1));
                capture[k].push_back(msBetween(t1, t2));
            }
        });
    for (std::thread &t : threads)
        t.join();
    auto all = [](const std::vector<std::vector<double>> &per_stream) {
        std::vector<double> v;
        for (const auto &samples : per_stream)
            v.insert(v.end(), samples.begin(), samples.end());
        return v;
    };
    Prepared p = std::move(kept[0]);
    p.setupS = median(all(setup));
    p.buildMs = median(all(build));
    p.captureMs = median(all(capture));
    for (const auto &[w, trace] : p.traces)
        p.capturedInsts += double(trace->length());
    return p;
}

void
setPrepared(Metrics &m, const Prepared &p)
{
    m.set("prog.build_ms", p.buildMs, "ms");
    m.set("func.capture_ms", p.captureMs, "ms");
    m.set("func.capture_minst_per_s",
          p.capturedInsts / (p.captureMs * 1000.0), "Minst/s");
    m.set("func.trace_mb", double(p.cache->memoryBytes()) / 1e6, "MB");
}

/**
 * Host-time samples of a window that repeats a fixed table of
 * requests. Simulation is deterministic and host interference only
 * ever adds time, so each table entry's time is its fastest repeat;
 * percentiles run over the table.
 */
struct BestOf
{
    std::vector<std::vector<double>> ms; ///< per table entry
    std::vector<double> insts;           ///< per table entry, one run
    double good = 0, ops = 0, hits = 0;

    explicit BestOf(std::size_t entries) : ms(entries), insts(entries) {}

    /** Fastest repeat of each entry that ran at least once. */
    std::vector<double>
    bestMs() const
    {
        std::vector<double> best;
        for (const auto &samples : ms)
            if (!samples.empty())
                best.push_back(
                    *std::min_element(samples.begin(), samples.end()));
        return best;
    }
    double
    sumBestMs() const
    {
        double sum = 0;
        for (double b : bestMs())
            sum += b;
        return sum;
    }
    double
    sumInsts() const
    {
        double sum = 0;
        for (double n : insts)
            sum += n;
        return sum;
    }
    /** Share of ops that passed the gate. */
    double goodFrac() const { return good / ops; }
};

/** 0, 1, ..., n-1: a table's visiting order before shuffling. */
std::vector<std::size_t>
identity(std::size_t n)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

// -------------------------------------------------------------------
// ds_single
// -------------------------------------------------------------------

/**
 * One ds_single stream: whole rounds of the request table in a seeded
 * order, one runOne at a time, until the round boundary nearest the
 * window's end (every request weighs the same).
 */
BestOf
singleStream(Context &ctx, const std::vector<driver::RunRequest> &requests,
             const Prepared &prep, double seconds, int min_rounds,
             std::uint64_t stream, bool traced)
{
    Rng rng(ctx.opts.seed * 64 + stream);
    BestOf win(requests.size());
    std::vector<std::size_t> order = identity(requests.size());
    Clock::time_point start = Clock::now();
    for (int round = 0;
         round < min_rounds ||
         secondsSince(start) * (1.0 + 0.5 / round) < seconds;
         ++round) {
        shuffle(order, rng);
        for (std::size_t i : order) {
            const driver::RunRequest &req = requests[i];
            Clock::time_point t0 = Clock::now();
            driver::RunResponse resp =
                gatedRunOne(ctx, req, *prep.cache,
                            *prep.traces.at(req.workload), traced);
            win.ms[i].push_back(msBetween(t0, Clock::now()));
            win.insts[i] = double(resp.result.instructions);
            win.good += resp.ok();
            win.hits += resp.cacheHit;
            ++win.ops;
        }
    }
    return win;
}

/**
 * A ds_single window: one independent sequential stream per core,
 * merged. A co-tenant on a shared host can slow one core's runs by up
 * to 2x for seconds at a time, and a request's fastest repeat only
 * reads true when some repeat ran on a quiet core; sampling on every
 * core gives each request several times the chances. Each sample is
 * still one single-threaded runOne.
 */
BestOf
singleWindow(Context &ctx, const std::vector<driver::RunRequest> &requests,
             const Prepared &prep, double seconds, int min_rounds,
             std::uint64_t stream, bool traced)
{
    const unsigned streams = ctx.opts.jobs;
    std::vector<BestOf> wins(streams, BestOf(requests.size()));
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < streams; ++k)
        threads.emplace_back([&, k] {
            wins[k] = singleStream(ctx, requests, prep, seconds, min_rounds,
                                   stream * streams + k, traced);
        });
    for (std::thread &t : threads)
        t.join();
    BestOf win = std::move(wins[0]);
    for (unsigned k = 1; k < streams; ++k) {
        for (std::size_t i = 0; i < requests.size(); ++i)
            win.ms[i].insert(win.ms[i].end(), wins[k].ms[i].begin(),
                             wins[k].ms[i].end());
        win.good += wins[k].good;
        win.ops += wins[k].ops;
        win.hits += wins[k].hits;
    }
    return win;
}

} // namespace

void
runDsSingle(Context &ctx)
{
    const Options &o = ctx.opts;
    const InstSeq budget = singleBudget(o);
    std::vector<driver::RunRequest> requests;
    for (const std::string &w : kSingleWorkloads)
        for (unsigned nodes : {4u, 8u})
            requests.push_back(
                makeRequest(w, SystemKind::DataScalar, nodes, budget));

    Clock::time_point t0 = Clock::now();
    ctx.gate.declare(requests);
    Prepared prep = prepare(ctx, kSingleWorkloads, budget);
    double setup_wall = secondsSince(t0);

    if (!o.trace) {
        BestOf win = singleWindow(ctx, requests, prep, o.seconds, 2, 0,
                                  false);
        std::vector<double> best = win.bestMs();
        double sum_s = win.sumBestMs() / 1000.0;
        setEndToEnd(ctx.metrics, win.sumInsts() / sum_s / 1e6,
                    percentile(best, 0.5), percentile(best, 0.99),
                    win.goodFrac() * double(best.size()) / sum_s,
                    prep.setupS, selfPeakRssMb());
        return;
    }

    BestOf plain = singleWindow(ctx, requests, prep, o.seconds / 2, 1, 0,
                                false);
    Clock::time_point traced_start = Clock::now();
    BestOf traced = singleWindow(ctx, requests, prep, o.seconds / 2, 1, 1,
                                 true);
    double traced_s = secondsSince(traced_start);
    Metrics &m = ctx.metrics;
    setPrepared(m, prep);
    double busy_ms = 0;
    for (const auto &samples : traced.ms)
        for (double ms : samples)
            busy_ms += ms;
    m.set("driver.pool_busy_frac",
          busy_ms / (double(o.jobs) * traced_s * 1000.0), "fraction");
    m.set("driver.tail_point_s", percentile(traced.bestMs(), 1.0) / 1000.0,
          "s");
    m.set("driver.cache_hit_frac", traced.hits / traced.ops, "fraction");
    layerPass(ctx, kSingleWorkloads, budget, *prep.cache);
    componentReplays(ctx, kSingleWorkloads, budget, *prep.cache);
    fillStore(kSingleWorkloads, budget, o.workDir + "/store");
    traceLoad(ctx, kSingleWorkloads, budget, o.workDir + "/store");
    serveBurst(ctx, requests);
    simMetrics(ctx);
    ledgerMetrics(ctx, (setup_wall + secondsSince(traced_start)) * 1000.0,
                  plain.sumBestMs(), traced.sumBestMs());
}

// -------------------------------------------------------------------
// fig_sweep
// -------------------------------------------------------------------

namespace {

/** Per-pass layer figures of a traced sweep pass. */
struct PassLayers
{
    double captureMs = 0;
    double capturedInsts = 0;
    double busyFrac = 0;
    double tailS = 0;
    double hitFrac = 0;
};

/** A fig_sweep window: per-point service times and pass times. */
struct SweepWindow
{
    BestOf points;
    std::vector<double> passMs;
    explicit SweepWindow(std::size_t n) : points(n) {}
    double medianPassS() const { return median(passMs) / 1000.0; }
};

} // namespace

void
runFigSweep(Context &ctx)
{
    const Options &o = ctx.opts;
    const InstSeq budget = sweepBudget(o);
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    std::vector<driver::RunRequest> requests;
    for (const std::string &w : names) {
        requests.push_back(makeRequest(w, SystemKind::Perfect, 2, budget));
        requests.push_back(
            makeRequest(w, SystemKind::DataScalar, 2, budget));
        requests.push_back(
            makeRequest(w, SystemKind::DataScalar, 4, budget));
        requests.push_back(
            makeRequest(w, SystemKind::Traditional, 2, budget));
        requests.push_back(
            makeRequest(w, SystemKind::Traditional, 4, budget));
    }

    // Set-up is the sweep's cold start of its shared inputs; every
    // timed pass pays it again with a fresh cache.
    Clock::time_point t0 = Clock::now();
    ctx.gate.declare(requests);
    Prepared prep = prepare(ctx, names, budget);
    double setup_wall = secondsSince(t0);

    auto window = [&](double seconds, int min_passes, std::uint64_t stream,
                      bool traced, std::vector<PassLayers> &layers) {
        Rng rng(o.seed * 2 + stream);
        SpanLog untraced(false);
        SpanLog &log = traced ? ctx.log : untraced;
        SweepWindow win(requests.size());
        std::vector<std::size_t> index = identity(requests.size());
        Clock::time_point start = Clock::now();
        for (int pass = 0; pass < min_passes || secondsSince(start) < seconds;
             ++pass) {
            shuffle(index, rng);
            // Each point carries the driver's own request-phase
            // recorder (as every dsserve request does): its spans give
            // the point's service time, pool wait excluded.
            std::vector<driver::RunRequest> order;
            std::vector<std::unique_ptr<obs::SpanRecorder>> recs;
            std::vector<Clock::time_point> epochs;
            for (std::size_t i : index) {
                order.push_back(requests[i]);
                recs.push_back(std::make_unique<obs::SpanRecorder>());
                epochs.push_back(Clock::now());
                order.back().spans = recs.back().get();
            }
            std::uint64_t id = ctx.nextRequest++;
            driver::TraceCache cache;
            Clock::time_point p0 = Clock::now();
            std::vector<driver::RunResponse> resps;
            int root = -1;
            {
                Scope s(log, id, -1, "driver", "runMany");
                root = s.index();
                resps = driver::runMany(order, cache, o.jobs);
            }
            double pass_ms = msBetween(p0, Clock::now());
            win.passMs.push_back(pass_ms);

            PassLayers pl;
            double busy_ms = 0;
            for (std::size_t k = 0; k < order.size(); ++k) {
                const driver::RunResponse &resp = resps[k];
                std::string json;
                {
                    Scope s(log, id, -1, "stats", "statsJson");
                    json = resp.statsJson();
                }
                ctx.gate.record(
                    requestKey(order[k]), simulatedJson(json),
                    checkResponse(order[k], resp,
                                  *prep.traces.at(order[k].workload)));
                double point_ms = 0;
                for (const auto &sp : recs[k]->spans()) {
                    if (sp.depth == 0)
                        point_ms += double(sp.durNs) / 1e6;
                    if (std::string(sp.name) == "trace_capture") {
                        pl.captureMs += double(sp.durNs) / 1e6;
                        pl.capturedInsts += double(resp.result.instructions);
                    }
                }
                std::size_t i = index[k];
                win.points.ms[i].push_back(point_ms);
                win.points.insts[i] = double(resp.result.instructions);
                win.points.good += resp.ok();
                ++win.points.ops;
                busy_ms += point_ms;
                pl.tailS = std::max(pl.tailS, point_ms / 1000.0);
                if (traced)
                    log.importRecorder(*recs[k], epochs[k], id, root,
                                           simLayer(order[k].system));
            }
            pl.busyFrac = busy_ms / (double(o.jobs) * pass_ms);
            pl.hitFrac = double(cache.hits()) /
                         double(cache.hits() + cache.captures());
            layers.push_back(pl);
        }
        return win;
    };

    std::vector<PassLayers> layers;
    if (!o.trace) {
        SweepWindow win = window(o.seconds, 2, 0, false, layers);
        std::vector<double> best = win.points.bestMs();
        setEndToEnd(ctx.metrics,
                    win.points.sumInsts() / win.medianPassS() / 1e6,
                    percentile(best, 0.5), percentile(best, 0.99),
                    win.points.goodFrac() * double(best.size()) /
                        win.medianPassS(),
                    prep.setupS, selfPeakRssMb());
        return;
    }

    SweepWindow plain = window(o.seconds / 2, 1, 0, false, layers);
    layers.clear();
    Clock::time_point traced_start = Clock::now();
    SweepWindow traced = window(o.seconds / 2, 1, 1, true, layers);
    Metrics &m = ctx.metrics;
    setPrepared(m, prep);
    std::vector<double> cap_ms, cap_rate, busy, tail, hit;
    for (const PassLayers &pl : layers) {
        cap_ms.push_back(pl.captureMs);
        cap_rate.push_back(pl.capturedInsts / (pl.captureMs * 1000.0));
        busy.push_back(pl.busyFrac);
        tail.push_back(pl.tailS);
        hit.push_back(pl.hitFrac);
    }
    // Capture runs inside the sweep here: report it from the passes.
    m.set("func.capture_ms", median(cap_ms), "ms");
    m.set("func.capture_minst_per_s", median(cap_rate), "Minst/s");
    m.set("driver.pool_busy_frac", median(busy), "fraction");
    m.set("driver.tail_point_s", median(tail), "s");
    m.set("driver.cache_hit_frac", median(hit), "fraction");
    layerPass(ctx, names, budget, *prep.cache);
    componentReplays(ctx, names, budget, *prep.cache);
    fillStore(names, budget, o.workDir + "/store");
    traceLoad(ctx, names, budget, o.workDir + "/store");
    serveBurst(ctx, requests);
    simMetrics(ctx);
    ledgerMetrics(ctx, (setup_wall + secondsSince(traced_start)) * 1000.0,
                  plain.medianPassS(), traced.medianPassS());
}

// -------------------------------------------------------------------
// serve_open
// -------------------------------------------------------------------

void
runServeOpen(Context &ctx)
{
    const Options &o = ctx.opts;
    const InstSeq budget = serveBudget(o);
    // The dsbench mix: 4 cheap workloads x 3 systems x 2 node counts,
    // plus a 4-node ring variant per workload.
    std::vector<driver::RunRequest> mix;
    for (const std::string &w : kServeWorkloads) {
        for (SystemKind system : {SystemKind::DataScalar,
                                  SystemKind::Traditional,
                                  SystemKind::Perfect})
            for (unsigned nodes : {2u, 4u})
                mix.push_back(makeRequest(w, system, nodes, budget));
        driver::RunRequest ring =
            makeRequest(w, SystemKind::DataScalar, 4, budget);
        ring.config.interconnect = core::InterconnectKind::Ring;
        mix.push_back(ring);
    }

    // Untimed earlier pass: capture into the daemon's trace store and
    // run every mix entry in-process as the gate's reference.
    const std::string store = o.workDir + "/store";
    ctx.gate.declare(mix);
    Prepared prep = prepare(ctx, kServeWorkloads, budget);
    fillStore(kServeWorkloads, budget, store);
    for (const driver::RunRequest &req : mix)
        gatedRunOne(ctx, req, *prep.cache, *prep.traces.at(req.workload),
                    false);

    // Set-up: daemon start plus its warm load of the stored traces.
    std::vector<double> setup;
    std::unique_ptr<Daemon> daemon;
    Clock::time_point setup_start = Clock::now();
    for (int rep = 0; rep < kDaemonStarts; ++rep) {
        if (daemon)
            daemon->stop();
        daemon.reset();
        std::uint64_t id = ctx.nextRequest++;
        Clock::time_point t0 = Clock::now();
        {
            Scope s(ctx.log, id, -1, "serve", "Daemon::start");
            daemon = std::make_unique<Daemon>(
                o, o.workDir + "/d" + std::to_string(rep) + ".sock", store);
        }
        serve::Client client;
        std::string error;
        if (!client.connect(daemon->socket(), error))
            throw std::runtime_error(error);
        for (const std::string &w : kServeWorkloads) {
            Scope s(ctx.log, id, -1, "serve", "Client::run(warm)");
            serve::Reply r =
                client.run(makeRequest(w, SystemKind::Perfect, 2, budget));
            if (!r.ok)
                throw std::runtime_error("warm-up request: " + r.error);
        }
        setup.push_back(secondsSince(t0));
        std::string stats = client.serverStats().json;
        if (sumCounter(stats, "captures") != 0 ||
            sumCounter(stats, "disk_hits") != double(kServeWorkloads.size()))
            throw std::runtime_error("dsserve did not start warm from the "
                                     "trace store");
    }
    double setup_wall = secondsSince(setup_start);

    struct OpenWindow
    {
        std::vector<Sent> sent;
        /** Per mix entry: due time -> reply of each send. */
        BestOf latency;
        double goodput = 0, minstPerS = 0;
        Clock::time_point start;
        explicit OpenWindow(std::size_t entries) : latency(entries) {}
    };
    auto window = [&](double seconds, std::uint64_t stream) {
        Rng rng(o.seed * 2 + stream);
        std::vector<std::pair<double, std::size_t>> schedule;
        for (double t = 0;;) {
            t += -std::log(1.0 - rng.uniform()) / kServeRatePerS * 1000.0;
            if (t >= seconds * 1000.0)
                break;
            schedule.push_back({t, rng.below(mix.size())});
        }
        OpenWindow win(mix.size());
        win.start = Clock::now() + std::chrono::milliseconds(20);
        win.sent = openLoop(daemon->socket(), mix, schedule, o.jobs,
                            win.start);
        gateReplies(ctx, mix, win.sent);
        // A failed request counts as late as the whole window; the
        // window ends with the last reply.
        double good = 0, insts = 0, last = 0;
        for (const Sent &s : win.sent) {
            double ms = s.ok ? s.recvMs - s.dueMs : seconds * 1000.0;
            win.latency.ms[s.entry].push_back(ms);
            good += s.ok && ms <= kLatencyLimitMs;
            last = std::max(last, s.recvMs);
            std::uint64_t n = 0;
            if (s.ok && s.fields.count("instructions") &&
                common::kv::parseU64(s.fields.at("instructions"), n))
                insts += double(n);
        }
        win.goodput = good * 1000.0 / last;
        win.minstPerS = insts / last / 1000.0;
        return win;
    };

    if (!o.trace) {
        OpenWindow win = window(o.seconds, 0);
        double rss = daemon->stop();
        std::vector<double> best = win.latency.bestMs();
        setEndToEnd(ctx.metrics, win.minstPerS, percentile(best, 0.5),
                    percentile(best, 0.99), win.goodput, median(setup),
                    rss);
        return;
    }

    OpenWindow plain = window(o.seconds / 2, 0);
    Clock::time_point traced_start = Clock::now();
    OpenWindow traced = window(o.seconds / 2, 1);
    daemon->stop();
    Metrics &m = ctx.metrics;
    ServeLoad load = serveMetrics(ctx, mix, traced.sent, traced.start);
    m.set("driver.cache_hit_frac", load.cacheHitFrac, "fraction");
    m.set("driver.pool_busy_frac", load.busyFrac, "fraction");
    m.set("driver.tail_point_s", load.tailPointS, "s");
    setPrepared(m, prep);
    layerPass(ctx, kServeWorkloads, budget, *prep.cache);
    componentReplays(ctx, kServeWorkloads, budget, *prep.cache);
    traceLoad(ctx, kServeWorkloads, budget, store);
    simMetrics(ctx);
    // Open loop: the offered rate is fixed, so tracing cost shows as
    // latency, not throughput.
    ledgerMetrics(ctx, (setup_wall + secondsSince(traced_start)) * 1000.0,
                  plain.latency.sumBestMs(), traced.latency.sumBestMs());
}

} // namespace perfbench
