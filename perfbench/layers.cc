/**
 * @file
 * The traced run's per-layer measurements that sit outside a
 * workload's own loop: the direct layer pass, the component replays
 * and the trace-store load.
 */

#include <atomic>
#include <stdexcept>

#include "core/bshr.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"

#include "dsperf.hh"

namespace perfbench {

namespace {

/** Consumes the replays' results so they cannot be optimised away. */
std::atomic<std::uint64_t> replaySink{0};

} // namespace

driver::RunResponse
gatedRunOne(Context &ctx, const driver::RunRequest &req,
            driver::TraceCache &cache, const func::InstTrace &trace,
            bool traced, double *sim_run_ns)
{
    std::uint64_t id = ctx.nextRequest++;
    driver::RunResponse resp;
    std::string json;
    if (traced) {
        obs::SpanRecorder rec;
        Clock::time_point epoch = Clock::now();
        driver::RunRequest spanned = req;
        spanned.spans = &rec;
        {
            Scope root(ctx.log, id, -1, "driver", "runOne");
            resp = driver::runOne(spanned, &cache);
            ctx.log.importRecorder(rec, epoch, id, root.index(),
                                   simLayer(req.system));
        }
        for (const auto &s : rec.spans())
            if (sim_run_ns && std::string(s.name) == "sim_run")
                *sim_run_ns = double(s.durNs);
        Scope s(ctx.log, id, -1, "stats", "statsJson");
        json = resp.statsJson();
    } else {
        resp = driver::runOne(req, &cache);
        json = resp.statsJson();
    }
    ctx.gate.record(requestKey(req), simulatedJson(json),
                    checkResponse(req, resp, trace));
    return resp;
}

void
layerPass(Context &ctx, const std::vector<std::string> &workloads,
          InstSeq budget, driver::TraceCache &cache)
{
    std::vector<double> construct_ms, render_ms;
    double run_ns[2] = {0, 0}, inst_nodes[2] = {0, 0};
    double phase_us[4] = {0, 0, 0, 0}, total_us = 0;
    static const char *const kPhases[4] = {
        "phase_tick_us", "phase_delivery_us", "phase_recovery_us",
        "phase_bookkeeping_us"};
    double perfect_ns = 0, perfect_inst = 0, trad_ns = 0, trad_inst = 0;

    for (const std::string &w : workloads) {
        std::shared_ptr<const prog::Program> program = cache.program(w, 1);
        std::shared_ptr<const func::InstTrace> trace =
            cache.acquire(w, 1, budget);

        for (unsigned n = 0; n < 2; ++n) {
            unsigned nodes = n == 0 ? 4 : 8;
            driver::RunRequest req = makeRequest(
                w, driver::SystemKind::DataScalar, nodes, budget);
            req.profile = true;
            std::uint64_t id = ctx.nextRequest++;
            Scope root(ctx.log, id, -1, "driver", "direct_run");

            mem::PageTable ptable;
            {
                Scope s(ctx.log, id, root.index(), "driver",
                        "figure7PageTable");
                ptable = driver::figure7PageTable(*program, nodes);
            }
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<core::DataScalarSystem> sys;
            {
                Scope s(ctx.log, id, root.index(), "core", "construct");
                sys = std::make_unique<core::DataScalarSystem>(
                    *program, req.config, std::move(ptable), trace);
            }
            Clock::time_point t1 = Clock::now();
            obs::SpanRecorder profiler;
            sys->setProfiler(&profiler);
            driver::RunResponse resp;
            {
                Scope s(ctx.log, id, root.index(), "core", "run");
                resp.result = sys->run();
            }
            Clock::time_point t2 = Clock::now();
            resp.output = sys->output();
            resp.drained = sys->protocolDrained();
            resp.meta = driver::runMeta(req);
            std::string json;
            {
                Scope s(ctx.log, id, root.index(), "stats", "statsJson");
                json = resp.statsJson();
            }
            Clock::time_point t3 = Clock::now();

            construct_ms.push_back(msBetween(t0, t1));
            render_ms.push_back(msBetween(t2, t3));
            run_ns[n] += msBetween(t1, t2) * 1e6;
            inst_nodes[n] += double(resp.result.instructions) * nodes;
            for (int p = 0; p < 4; ++p)
                phase_us[p] += sumCounter(json, kPhases[p]);
            total_us += sumCounter(json, "total_us");
            ctx.gate.record(requestKey(req), simulatedJson(json),
                            checkResponse(req, resp, *trace));
        }

        double ns = 0;
        perfect_inst += double(
            gatedRunOne(ctx,
                        makeRequest(w, driver::SystemKind::Perfect, 2,
                                    budget),
                        cache, *trace, true, &ns)
                .result.instructions);
        perfect_ns += ns;
        trad_inst += double(
            gatedRunOne(ctx,
                        makeRequest(w, driver::SystemKind::Traditional, 4,
                                    budget),
                        cache, *trace, true, &ns)
                .result.instructions);
        trad_ns += ns;
    }

    Metrics &m = ctx.metrics;
    m.set("core.construct_ms", median(construct_ms), "ms");
    m.set("stats.json_render_ms", median(render_ms), "ms");
    m.set("core.ns_per_inst_node.n4", run_ns[0] / inst_nodes[0], "ns");
    m.set("core.ns_per_inst_node.n8", run_ns[1] / inst_nodes[1], "ns");
    m.set("core.phase_tick_frac", phase_us[0] / total_us, "fraction");
    m.set("core.phase_delivery_frac", phase_us[1] / total_us, "fraction");
    m.set("core.phase_recovery_frac", phase_us[2] / total_us, "fraction");
    m.set("core.phase_bookkeeping_frac", phase_us[3] / total_us,
          "fraction");
    m.set("ooo.ns_per_inst", perfect_ns / perfect_inst, "ns");
    m.set("baseline.trad_ns_per_inst", trad_ns / trad_inst, "ns");
}

void
componentReplays(Context &ctx, const std::vector<std::string> &workloads,
                 InstSeq budget, driver::TraceCache &cache)
{
    const core::SimConfig cfg = driver::paperConfig();
    constexpr int kRepeats = 3;
    std::vector<double> cache_ns, pt_ns, bshr_ns;
    std::uint64_t sink = 0;

    for (const std::string &w : workloads) {
        std::shared_ptr<const func::InstTrace> trace =
            cache.acquire(w, 1, budget);
        mem::PageTable ptable =
            driver::figure7PageTable(*cache.program(w, 1), 8);
        std::vector<Addr> addrs;
        std::vector<bool> writes;
        trace->forEach([&](Addr, const isa::Instruction &inst, Addr ea,
                           unsigned size) {
            if (size == 0)
                return;
            addrs.push_back(ea);
            writes.push_back(inst.isStore());
        });
        if (addrs.empty())
            continue;
        const double n = double(addrs.size());
        std::uint64_t id = ctx.nextRequest++;

        for (int rep = 0; rep < kRepeats; ++rep) {
            {
                Scope s(ctx.log, id, -1, "mem", "Cache::access");
                mem::Cache l1(cfg.core.dcache);
                Clock::time_point t0 = Clock::now();
                for (std::size_t i = 0; i < addrs.size(); ++i)
                    sink += l1.access(addrs[i], writes[i]).hit;
                cache_ns.push_back(msBetween(t0, Clock::now()) * 1e6 / n);
            }
            {
                Scope s(ctx.log, id, -1, "mem", "PageTable::lookup");
                Clock::time_point t0 = Clock::now();
                for (Addr a : addrs)
                    sink += ptable.lookup(a).owner;
                pt_ns.push_back(msBetween(t0, Clock::now()) * 1e6 / n);
            }
            {
                Scope s(ctx.log, id, -1, "core", "Bshr::requestLine");
                core::Bshr bshr(cfg.bshrLatency, cfg.bshrCapacity);
                const Addr line_mask = ~Addr(cfg.core.dcache.lineSize - 1);
                Cycle ready = 0;
                Clock::time_point t0 = Clock::now();
                // Alternate which side arrives first so both the
                // waiter path and the buffered path run.
                for (std::size_t i = 0; i < addrs.size(); ++i) {
                    Addr line = addrs[i] & line_mask;
                    Cycle now = Cycle(i);
                    if (i & 1) {
                        bshr.requestLine(line, now, ready);
                        bshr.deliver(line, now, ready);
                    } else {
                        bshr.deliver(line, now, ready);
                        bshr.requestLine(line, now, ready);
                    }
                    sink += ready;
                }
                bshr_ns.push_back(msBetween(t0, Clock::now()) * 1e6 /
                                  (2 * n));
                if (!bshr.drained())
                    throw std::runtime_error("BSHR replay left entries");
            }
        }
    }
    replaySink += sink;
    ctx.metrics.set("mem.cache_access_ns", median(cache_ns), "ns");
    ctx.metrics.set("mem.pagetable_lookup_ns", median(pt_ns), "ns");
    ctx.metrics.set("core.bshr_op_ns", median(bshr_ns), "ns");
}

void
fillStore(const std::vector<std::string> &workloads, InstSeq budget,
          const std::string &store_dir)
{
    driver::TraceCache cache;
    cache.setTraceDir(store_dir);
    for (const std::string &w : workloads)
        cache.acquire(w, 1, budget);
    if (cache.diskWrites() + cache.diskHits() != workloads.size())
        throw std::runtime_error("trace store under " + store_dir +
                                 " was not filled");
}

void
traceLoad(Context &ctx, const std::vector<std::string> &workloads,
          InstSeq budget, const std::string &store_dir)
{
    std::vector<double> load_ms;
    for (int rep = 0; rep < 3; ++rep) {
        driver::TraceCache cache;
        cache.setTraceDir(store_dir);
        std::uint64_t id = ctx.nextRequest++;
        for (const std::string &w : workloads) {
            Scope s(ctx.log, id, -1, "workloads", "TraceCache::program");
            cache.program(w, 1);
        }
        Clock::time_point t0 = Clock::now();
        for (const std::string &w : workloads) {
            Scope s(ctx.log, id, -1, "func", "TraceCache::acquire(load)");
            cache.acquire(w, 1, budget);
        }
        load_ms.push_back(msBetween(t0, Clock::now()));
        if (cache.diskHits() != workloads.size() || cache.captures() != 0)
            throw std::runtime_error("trace store load fell back to "
                                     "capture");
    }
    ctx.metrics.set("func.trace_load_ms", median(load_ms), "ms");
}

} // namespace perfbench
