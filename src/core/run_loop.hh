/**
 * @file
 * The one cycle loop every timing system runs. DataScalarSystem,
 * PerfectSystem and TraditionalSystem all call runLoop(); they differ
 * only in the port they hand it — N cores plus a delivery queue and
 * re-request recovery for DataScalar, one core and nothing else for
 * the baselines (SingleCorePort). The next-event, watchdog and
 * sampler contracts of docs/PERF.md are implemented here and nowhere
 * else.
 *
 * A port is any type providing (all called directly, so the
 * per-cycle hot path has no virtual or std::function dispatch):
 *
 *   std::size_t numCores() const;
 *   ooo::OoOCore &core(std::size_t i);
 *   void deliverDue(Cycle now, Cycle *wake);
 *       // deliver every message landing at or before now, and set
 *       // wake[i] = now for each core that received one
 *   Cycle nextDeliveryCycle() const;  // cycleMax when none in flight
 *   void checkRecovery(Cycle now);    // fire due re-requests
 *   Cycle nextRecoveryCycle() const;  // cycleMax when none armed
 *   void watchdogDump(std::ostream &os, Cycle now) const;
 */

#ifndef DSCALAR_CORE_RUN_LOOP_HH
#define DSCALAR_CORE_RUN_LOOP_HH

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/sim_config.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "ooo/core.hh"
#include "ooo/oracle_stream.hh"

namespace dscalar {
namespace core {

/** Optional observers a run loop drives (both null = off). */
struct LoopObservers
{
    /** Advanced once per executed cycle window; only reads state. */
    obs::Sampler *sampler = nullptr;
    /** Wall-clock phase profiler: delivery / recovery / tick /
     *  bookkeeping laps partition the loop's wall time. */
    obs::SpanRecorder *prof = nullptr;
    /** Written by runLoop() when @ref prof is set: wall ns the loop
     *  ran, the profile group's total_us the phases sum to. */
    std::uint64_t loopNs = 0;
};

/** Port for a system with one core, no interconnect deliveries and
 *  no recovery: the perfect and traditional baselines. */
class SingleCorePort
{
  public:
    explicit SingleCorePort(ooo::OoOCore &core) : core_(core) {}

    std::size_t numCores() const { return 1; }
    ooo::OoOCore &core(std::size_t) { return core_; }
    void deliverDue(Cycle, Cycle *) {}
    Cycle nextDeliveryCycle() const { return cycleMax; }
    void checkRecovery(Cycle) {}
    Cycle nextRecoveryCycle() const { return cycleMax; }
    /** No protocol state to dump; the panic message says it all. */
    void watchdogDump(std::ostream &, Cycle) const {}

  private:
    ooo::OoOCore &core_;
};

/**
 * Run @p port's cores to completion: every core done and no delivery
 * in flight. Each executed cycle runs delivery → recovery → tick →
 * watchdog → next-event advance → sampler, with one profiler lap per
 * stage group.
 *
 * Event-driven mode (SimConfig::eventDriven) elides ticks of a core
 * whose nextEventCycle lies in the future and fast-forwards the clock
 * to the earliest cycle any core, delivery, re-request or the
 * watchdog can act; simulated results are identical to stepping one
 * cycle at a time (test_cycle_skip).
 *
 * @return cycles, instructions and ipc; the caller adds the stats.
 */
template <class Port>
RunResult
runLoop(Port &port, ooo::OracleStream &stream, const SimConfig &config,
        LoopObservers &obs)
{
    const bool skipping = config.eventDriven;
    const std::size_t n = port.numCores();
    obs::Sampler *const sampler = obs.sampler;
    obs::SpanRecorder *const prof = obs.prof;
    // Per-core wake times: the earliest cycle each core's tick could
    // change any state (nextEventCycle contract). A core whose wake
    // lies in the future is provably idle, so its ticks are no-ops
    // and are elided entirely; an arriving delivery re-arms the
    // recipient for the current cycle. Single-stepping mode pins
    // every wake at "now" so every core ticks every cycle.
    std::vector<Cycle> wake(n, 0);

    // The lap pattern reads the clock once per phase transition, so
    // the four phases partition the loop's wall time exactly.
    unsigned ph_delivery = 0, ph_recovery = 0, ph_tick = 0, ph_book = 0;
    std::uint64_t start_ns = 0;
    if (prof) {
        ph_delivery = prof->addPhase("delivery");
        ph_recovery = prof->addPhase("recovery");
        ph_tick = prof->addPhase("tick");
        ph_book = prof->addPhase("bookkeeping");
        start_ns = prof->elapsedNs();
        prof->lapStart();
    }

    Cycle now = 0;
    Cycle last_progress_cycle = 0;
    InstSeq last_min_commit = 0;
    while (true) {
        port.deliverDue(now, wake.data());
        if (prof)
            prof->lap(ph_delivery);

        port.checkRecovery(now);
        if (prof)
            prof->lap(ph_recovery);

        bool all_done = true;
        InstSeq min_commit = ~static_cast<InstSeq>(0);
        for (std::size_t i = 0; i < n; ++i) {
            ooo::OoOCore &core = port.core(i);
            if (!skipping || wake[i] <= now) {
                core.tick(now);
                wake[i] = skipping ? core.nextEventCycle(now)
                                   : now + 1;
            }
            all_done = all_done && core.done();
            min_commit = std::min(min_commit, core.committedSeq());
        }
        if (prof)
            prof->lap(ph_tick);

        if (all_done && port.nextDeliveryCycle() == cycleMax) {
            // Final cycle's state is settled; flush pending samples.
            if (sampler)
                sampler->advance(now);
            if (prof)
                prof->lap(ph_book);
            break;
        }

        stream.trim(min_commit);

        if (min_commit > last_min_commit) {
            last_min_commit = min_commit;
            last_progress_cycle = now;
        } else if (now - last_progress_cycle > config.watchdogCycles) {
            port.watchdogDump(std::cerr, now);
            panic("no commit progress for %llu cycles "
                  "(min committed %llu @ cycle %llu; all_done=%d) -- "
                  "protocol deadlock?",
                  (unsigned long long)config.watchdogCycles,
                  (unsigned long long)min_commit,
                  (unsigned long long)now, all_done ? 1 : 0);
        }

        Cycle next = now + 1;
        if (skipping) {
            // Fast-forward to the earliest cycle anything can happen:
            // a core making internal progress, a broadcast landing or
            // a re-request firing. Intermediate ticks are no-ops, so
            // skipping them changes no simulated cycle count or
            // statistic.
            Cycle soonest = std::min(port.nextDeliveryCycle(),
                                     port.nextRecoveryCycle());
            for (Cycle w : wake)
                soonest = std::min(soonest, w);
            // Never skip past the cycle where the watchdog would
            // fire: a deadlocked run must panic at the same cycle
            // the single-stepping loop panics at.
            Cycle deadline =
                last_progress_cycle + config.watchdogCycles + 1;
            next = std::max(now + 1, std::min(soonest, deadline));
        }
        // Cycles [now, next-1] are final (skipped cycles are no-ops),
        // so any nominal sample cycle in that window observes exactly
        // the current state — identical in both run-loop modes.
        if (sampler)
            sampler->advance(next - 1);
        now = next;
        if (prof)
            prof->lap(ph_book);
    }

    if (prof)
        obs.loopNs = prof->elapsedNs() - start_ns;
    RunResult result;
    result.cycles = now + 1;
    result.instructions = stream.endSeq();
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    return result;
}

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_RUN_LOOP_HH
