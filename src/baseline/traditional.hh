/**
 * @file
 * The paper's "more traditional" comparison system (Section 4.3,
 * Figure 6a): the same out-of-order core and commit-time cache
 * update, with 1/N of main memory on-chip and the remainder on dumb
 * memory chips across the same global bus, reached with explicit
 * request/response transactions and off-chip write-backs.
 */

#ifndef DSCALAR_BASELINE_TRADITIONAL_HH
#define DSCALAR_BASELINE_TRADITIONAL_HH

#include <memory>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "core/run_loop.hh"
#include "core/sim_config.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "stats/snapshot.hh"
#include "func/inst_trace.hh"
#include "interconnect/bus.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "ooo/core.hh"
#include "ooo/mem_backend.hh"
#include "ooo/oracle_stream.hh"
#include "prog/program.hh"

namespace dscalar {
namespace baseline {

/**
 * Single-processor system with a partitioned (on-chip/off-chip)
 * memory. The supplied page table's node-0 local set (replicated
 * pages plus pages owned by node 0) defines the on-chip fraction,
 * matching "the same amount of on-chip memory as does one chip in
 * each DataScalar experiment".
 */
class TraditionalSystem : private ooo::MemBackend
{
  public:
    /** A non-null @p trace replays a captured stream instead of
     *  executing the program functionally (see driver::TraceCache). */
    TraditionalSystem(const prog::Program &program,
                      const core::SimConfig &config,
                      mem::PageTable ptable,
                      std::shared_ptr<const func::InstTrace> trace =
                          nullptr);

    /** Run to completion (or the configured instruction budget). */
    core::RunResult run();

    const ooo::OoOCore &core() const { return core_; }
    const interconnect::Bus &bus() const { return bus_; }
    /** Program output of the executed prefix. */
    const std::string &
    output() const
    {
        return stream_.output();
    }

    std::uint64_t offChipReads() const { return offChipReads_; }
    std::uint64_t offChipWrites() const { return offChipWrites_; }

    /** Emit core disparity events to exactly @p sink, replacing any
     *  earlier sinks; use addTraceSink to fan out instead. */
    void setTraceSink(TraceSink *sink);
    /** Attach @p sink in addition to any already attached. */
    void addTraceSink(TraceSink *sink);

    /** Register timeline columns (commit rate, DCUB depth, bus
     *  occupancy, off-chip traffic) with @p sampler and advance it
     *  from the run loop; nullptr detaches. */
    void setSampler(obs::Sampler *sampler);

    /** Attach a wall-clock phase profiler (see
     *  core::DataScalarSystem::setProfiler; the same core::runLoop()
     *  phases). Never perturbs results. */
    void setProfiler(obs::SpanRecorder *prof) { obs_.prof = prof; }

    /** Write a gem5-style stats dump (rendered from the snapshot). */
    void dumpStats(std::ostream &os) const;
    /** Build the stat snapshot (groups "system" and "core"). */
    std::shared_ptr<const stats::Snapshot> snapshotStats() const;

  private:
    bool onChip(Addr line) const { return ptable_.isLocal(line, 0); }

    // MemBackend ------------------------------------------------------
    ooo::FillResult startLineFetch(Addr line, Cycle now) override;
    void onUnclaimedCanonicalMiss(Addr line, Cycle now) override;
    void writeBack(Addr line, Cycle now) override;
    void storeMiss(Addr line, Cycle now) override;
    Cycle fetchInstLine(Addr line, Cycle now) override;

    /** Request/response round trip for an off-chip line. */
    Cycle offChipLineRead(Addr line, Cycle now);

    core::SimConfig config_;
    ooo::OracleStream stream_;
    mem::PageTable ptable_;
    interconnect::Bus bus_;
    mem::MainMemory onChipMem_;
    mem::MainMemory offChipMem_;
    ooo::OoOCore core_;
    std::uint64_t offChipReads_ = 0;
    std::uint64_t offChipWrites_ = 0;
    bool ran_ = false;
    core::RunResult lastResult_;
    TeeTraceSink tee_;
    core::LoopObservers obs_;

    void applyTraceSinks();
};

} // namespace baseline
} // namespace dscalar

#endif // DSCALAR_BASELINE_TRADITIONAL_HH
