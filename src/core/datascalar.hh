/**
 * @file
 * The complete DataScalar machine: N processor/memory nodes running
 * the same program asynchronously (SPSD), connected by a global
 * broadcast bus. The simulator switches contexts each cycle — cycle
 * n is simulated for all nodes before cycle n+1 for any node,
 * exactly as the paper's modified SimpleScalar did (Section 4.2).
 */

#ifndef DSCALAR_CORE_DATASCALAR_HH
#define DSCALAR_CORE_DATASCALAR_HH

#include <memory>
#include <ostream>
#include <queue>
#include <vector>

#include "common/trace.hh"
#include "core/node.hh"
#include "core/run_loop.hh"
#include "core/sim_config.hh"
#include "func/inst_trace.hh"
#include "interconnect/bus.hh"
#include "interconnect/fault_model.hh"
#include "mem/page_table.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "ooo/oracle_stream.hh"
#include "prog/program.hh"
#include "stats/snapshot.hh"

namespace dscalar {
namespace core {

/** A multi-node DataScalar timing simulation. */
class DataScalarSystem : public BroadcastPort
{
  public:
    /**
     * @param trace optional captured dynamic stream: when non-null
     *        the run replays it instead of executing the program
     *        functionally (byte-identical results, see
     *        driver::TraceCache); when null the stream captures
     *        the program chunk by chunk as the run goes.
     */
    DataScalarSystem(const prog::Program &program, const SimConfig &config,
                     mem::PageTable ptable,
                     std::shared_ptr<const func::InstTrace> trace =
                         nullptr);

    /** Run to completion (or the configured instruction budget)
     *  through core::runLoop(). */
    RunResult run();

    unsigned numNodes() const { return config_.numNodes; }
    const DataScalarNode &node(NodeId id) const { return *nodes_.at(id); }
    const interconnect::Bus &bus() const { return bus_; }
    const interconnect::Ring &ring() const { return ring_; }
    const interconnect::FaultModel &faultModel() const { return faults_; }

    /** Pages held in node @p id's local memory (owned + replicated),
     *  the per-node capacity an IRAM part would need. */
    std::size_t localPageCount(NodeId id) const;
    /** Program output (Print* syscalls) of the executed prefix. */
    const std::string &
    output() const
    {
        return stream_.output();
    }
    const mem::PageTable &pageTable() const { return ptable_; }

    /**
     * End-of-run protocol invariant: every broadcast was consumed —
     * no waiter, buffered line, or pending squash remains in any
     * BSHR, and no delivery is in flight.
     *
     * Holds only on a reliable medium. Injected faults and hard
     * BSHR capacity deliberately break exactly-once delivery, so
     * benign residue (a stranded pending squash, an unconsumed
     * duplicate) is expected on such runs; completion there means
     * every core committed and no waiter remains.
     */
    bool protocolDrained() const;

    /** Cycle the next in-flight broadcast lands at a receiver, or
     *  cycleMax when none is in flight. */
    Cycle
    nextDeliveryCycle() const
    {
        return deliveries_.empty() ? cycleMax : deliveries_.top().at;
    }

    /**
     * Emit typed protocol events (per-node, core disparity, and
     * fault events) to exactly @p sink, detaching any sinks attached
     * earlier (historically this replacement was silent; use
     * addTraceSink to fan out instead); nullptr disables tracing.
     */
    void setTraceSink(TraceSink *sink);

    /** Attach @p sink IN ADDITION to any already attached (text log,
     *  Perfetto exporter, and flight recorder can coexist). */
    void addTraceSink(TraceSink *sink);

    /**
     * Register @p sampler's timeline columns (per-node commit rate /
     * BSHR occupancy / DCUB depth, bus occupancy, leading-node id)
     * and advance it from the run loop; nullptr detaches. Sampling
     * only reads state — cycle counts and the retirement stream are
     * unchanged (locked by tests/test_obs_sampler.cc).
     */
    void setSampler(obs::Sampler *sampler);

    /**
     * Attach a wall-clock phase profiler; nullptr (the default)
     * costs nothing on the run loop. The run loop then attributes
     * its wall time to named phases via @p prof's lap() accumulators
     * — delivery / recovery / tick / bookkeeping — and
     * snapshotStats() appends them as the `profile` group
     * (`phase_<name>_us` plus an independently measured
     * `total_us`). Wall-clock only: simulated results are
     * byte-identical with or without a profiler (locked by
     * tests/test_obs_span.cc).
     */
    void setProfiler(obs::SpanRecorder *prof) { obs_.prof = prof; }

    /** Write a gem5-style stats dump for the whole system. */
    void dumpStats(std::ostream &os) const;

    /** Build the full stat snapshot (group "system" + one group per
     *  node); dumpStats and the JSON export render from this. */
    std::shared_ptr<const stats::Snapshot> snapshotStats() const;

    /** Structured deadlock diagnostics: per-node pipeline heads,
     *  BSHR contents with ages, and in-flight messages. Written to
     *  stderr automatically when the watchdog fires. */
    void watchdogDump(std::ostream &os, Cycle now) const;

    // BroadcastPort ---------------------------------------------------
    void broadcast(NodeId src, Addr line, interconnect::MsgKind kind,
                   Cycle ready) override;

  private:
    struct Delivery
    {
        Cycle at;
        std::uint64_t order; ///< tie-break for determinism
        NodeId src;
        Addr line;
        interconnect::MsgKind kind = interconnect::MsgKind::Broadcast;
        /** Single receiver (ring), or all non-src nodes (bus). */
        bool targeted = false;
        NodeId target = 0;
        bool
        operator>(const Delivery &other) const
        {
            if (at != other.at)
                return at > other.at;
            return order > other.order;
        }
    };

    /** core::runLoop() port over the nodes and delivery queue. */
    struct LoopPort;

    SimConfig config_;
    ooo::OracleStream stream_;
    mem::PageTable ptable_;
    interconnect::Bus bus_;
    interconnect::Ring ring_;
    interconnect::FaultModel faults_;
    bool recoveryActive_ = false;
    std::vector<std::unique_ptr<DataScalarNode>> nodes_;
    std::priority_queue<Delivery, std::vector<Delivery>,
                        std::greater<Delivery>>
        deliveries_;
    std::uint64_t deliveryOrder_ = 0;
    bool ran_ = false;
    RunResult lastResult_;
    /** Owned fan-out for attached trace sinks (empty = tracing off). */
    TeeTraceSink tee_;
    LoopObservers obs_;

    /** Point nodes and the fault model at the current effective
     *  sink (&tee_, or nullptr when no sink is attached). */
    void applyTraceSinks();
};

} // namespace core
} // namespace dscalar

#endif // DSCALAR_CORE_DATASCALAR_HH
