#include "baseline/traditional.hh"

#include "baseline/stats_util.hh"
#include "common/logging.hh"
#include "core/run_loop.hh"

namespace dscalar {
namespace baseline {

using interconnect::MsgKind;

TraditionalSystem::TraditionalSystem(
    const prog::Program &program, const core::SimConfig &config,
    mem::PageTable ptable,
    std::shared_ptr<const func::InstTrace> trace)
    : config_(config), stream_(program, std::move(trace), config.maxInsts),
      ptable_(std::move(ptable)),
      bus_(config.bus), onChipMem_(config.mem), offChipMem_(config.mem),
      core_(config.core, stream_, *this)
{
}

Cycle
TraditionalSystem::offChipLineRead(Addr line, Cycle now)
{
    // Two serialized bus crossings per operand: the request out, the
    // response back, with the memory access in between (Figure 3b).
    unsigned line_size = config_.core.dcache.lineSize;
    Cycle req_arrive = bus_.send(MsgKind::Request, line_size, now);
    Cycle mem_done = offChipMem_.request(line, req_arrive);
    return bus_.send(MsgKind::Response, line_size, mem_done);
}

ooo::FillResult
TraditionalSystem::startLineFetch(Addr line, Cycle now)
{
    if (onChip(line))
        return {onChipMem_.request(line, now), false};
    ++offChipReads_;
    return {offChipLineRead(line, now), false};
}

void
TraditionalSystem::onUnclaimedCanonicalMiss(Addr line, Cycle now)
{
    // The canonical fill needs the line even though the issue-time
    // access was served by a stale copy; perform the (non-blocking)
    // fetch traffic.
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipReads_;
        offChipLineRead(line, now);
    }
}

void
TraditionalSystem::writeBack(Addr line, Cycle now)
{
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipWrites_;
        Cycle arrive =
            bus_.send(MsgKind::WriteBack, config_.core.dcache.lineSize,
                      now);
        offChipMem_.request(line, arrive);
    }
}

void
TraditionalSystem::storeMiss(Addr line, Cycle now)
{
    if (onChip(line)) {
        onChipMem_.request(line, now);
    } else {
        ++offChipWrites_;
        Cycle arrive = bus_.send(MsgKind::Write, 8, now);
        offChipMem_.request(line, arrive);
    }
}

Cycle
TraditionalSystem::fetchInstLine(Addr line, Cycle now)
{
    if (onChip(line))
        return onChipMem_.request(line, now);
    ++offChipReads_;
    return offChipLineRead(line, now);
}

core::RunResult
TraditionalSystem::run()
{
    panic_if(ran_, "TraditionalSystem::run called twice");
    ran_ = true;
    core::SingleCorePort port(core_);
    lastResult_ = core::runLoop(port, stream_, config_, obs_);
    lastResult_.stats = snapshotStats();
    return lastResult_;
}

void
TraditionalSystem::setTraceSink(TraceSink *sink)
{
    tee_.clear();
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
TraditionalSystem::addTraceSink(TraceSink *sink)
{
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
TraditionalSystem::applyTraceSinks()
{
    core_.setTraceSink(tee_.empty() ? nullptr : &tee_, 0);
}

void
TraditionalSystem::setSampler(obs::Sampler *sampler)
{
    obs_.sampler = sampler;
    if (!sampler)
        return;
    sampler->addColumn("commit_rate", obs::Sampler::Mode::Delta,
                       [this] {
                           return static_cast<std::uint64_t>(
                               core_.committedSeq());
                       });
    sampler->addColumn("dcub_depth", obs::Sampler::Mode::Level,
                       [this] {
                           return static_cast<std::uint64_t>(
                               core_.dcubOccupancy());
                       });
    sampler->addColumn("bus_messages", obs::Sampler::Mode::Delta,
                       [this] { return bus_.totalMessages(); });
    sampler->addColumn("bus_busy_cycles", obs::Sampler::Mode::Delta,
                       [this] { return bus_.busyCycles(); });
    sampler->addColumn("offchip_reads", obs::Sampler::Mode::Delta,
                       [this] { return offChipReads_; });
    sampler->addColumn("offchip_writes", obs::Sampler::Mode::Delta,
                       [this] { return offChipWrites_; });
}

std::shared_ptr<const stats::Snapshot>
TraditionalSystem::snapshotStats() const
{
    auto snap = std::make_shared<stats::Snapshot>();
    stats::Snapshot::GroupEntry &sys =
        snap->addGroup("system", "---- TraditionalSystem ----");
    buildRunStats(*snap, sys, lastResult_);
    snap->addCounter(sys, "bus_messages", bus_.totalMessages(),
                     "global-bus transactions");
    snap->addCounter(sys, "bus_bytes", bus_.totalBytes(),
                     "global-bus payload+header bytes");
    snap->addCounter(sys, "bus_busy_cycles", bus_.busyCycles(),
                     "cycles the bus was occupied");
    snap->addCounter(sys, "offchip_reads", offChipReads_,
                     "off-chip line reads");
    snap->addCounter(sys, "offchip_writes", offChipWrites_,
                     "off-chip writes and write-backs");
    buildCoreStats(*snap, core_.coreStats());
    if (obs_.prof)
        obs::addProfileGroup(*snap, *obs_.prof, obs_.loopNs);
    return snap;
}

void
TraditionalSystem::dumpStats(std::ostream &os) const
{
    snapshotStats()->dump(os);
}

} // namespace baseline
} // namespace dscalar
