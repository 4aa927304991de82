/**
 * @file
 * The paper's upper bound: an identical processor with a perfect
 * data cache — single-cycle access to any operand (Section 4.3).
 * Instruction fetch still goes through a real I-cache backed by
 * local memory.
 */

#ifndef DSCALAR_BASELINE_PERFECT_HH
#define DSCALAR_BASELINE_PERFECT_HH

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
#include "mem/main_memory.hh"
#include "ooo/core.hh"
#include "ooo/mem_backend.hh"
#include "ooo/oracle_stream.hh"
#include "prog/program.hh"

namespace dscalar {
namespace baseline {

/** Single-processor system with a perfect data cache. */
class PerfectSystem : private ooo::MemBackend
{
  public:
    /** A non-null @p trace replays a captured stream instead of
     *  executing the program functionally (see driver::TraceCache). */
    PerfectSystem(const prog::Program &program,
                  const core::SimConfig &config,
                  std::shared_ptr<const func::InstTrace> trace =
                      nullptr);

    core::RunResult run();

    const ooo::OoOCore &core() const { return core_; }
    /** Program output of the executed prefix. */
    const std::string &
    output() const
    {
        return stream_.output();
    }

    /** Emit core disparity events to exactly @p sink, replacing any
     *  earlier sinks; use addTraceSink to fan out instead. */
    void setTraceSink(TraceSink *sink);
    /** Attach @p sink in addition to any already attached. */
    void addTraceSink(TraceSink *sink);

    /** Register timeline columns (commit rate, DCUB depth) with
     *  @p sampler and advance it from the run loop; nullptr
     *  detaches. Sampling never perturbs the simulation. */
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
    ooo::FillResult startLineFetch(Addr line, Cycle now) override;
    void onUnclaimedCanonicalMiss(Addr line, Cycle now) override;
    void writeBack(Addr line, Cycle now) override;
    void storeMiss(Addr line, Cycle now) override;
    Cycle fetchInstLine(Addr line, Cycle now) override;

    core::SimConfig config_;
    ooo::OracleStream stream_;
    mem::MainMemory localMem_;
    ooo::OoOCore core_;
    bool ran_ = false;
    core::RunResult lastResult_;
    TeeTraceSink tee_;
    core::LoopObservers obs_;

    void applyTraceSinks();
};

} // namespace baseline
} // namespace dscalar

#endif // DSCALAR_BASELINE_PERFECT_HH
