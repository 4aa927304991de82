#include "baseline/perfect.hh"

#include "baseline/stats_util.hh"
#include "common/logging.hh"
#include "core/run_loop.hh"

namespace dscalar {
namespace baseline {

PerfectSystem::PerfectSystem(
    const prog::Program &program, const core::SimConfig &config,
    std::shared_ptr<const func::InstTrace> trace)
    : config_(config), stream_(program, std::move(trace), config.maxInsts),
      localMem_(config.mem),
      core_([&config] {
          ooo::CoreParams p = config.core;
          p.perfectData = true;
          return p;
      }(), stream_, *this)
{
}

ooo::FillResult
PerfectSystem::startLineFetch(Addr line, Cycle now)
{
    (void)line;
    (void)now;
    panic("perfect data cache should never fetch a data line");
}

void
PerfectSystem::onUnclaimedCanonicalMiss(Addr, Cycle)
{
    panic("perfect data cache has no canonical misses");
}

void
PerfectSystem::writeBack(Addr, Cycle)
{
    panic("perfect data cache has no write-backs");
}

void
PerfectSystem::storeMiss(Addr, Cycle)
{
    panic("perfect data cache has no store misses");
}

Cycle
PerfectSystem::fetchInstLine(Addr line, Cycle now)
{
    return localMem_.request(line, now);
}

core::RunResult
PerfectSystem::run()
{
    panic_if(ran_, "PerfectSystem::run called twice");
    ran_ = true;
    core::SingleCorePort port(core_);
    lastResult_ = core::runLoop(port, stream_, config_, obs_);
    lastResult_.stats = snapshotStats();
    return lastResult_;
}

void
PerfectSystem::setTraceSink(TraceSink *sink)
{
    tee_.clear();
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
PerfectSystem::addTraceSink(TraceSink *sink)
{
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
PerfectSystem::applyTraceSinks()
{
    core_.setTraceSink(tee_.empty() ? nullptr : &tee_, 0);
}

void
PerfectSystem::setSampler(obs::Sampler *sampler)
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
}

std::shared_ptr<const stats::Snapshot>
PerfectSystem::snapshotStats() const
{
    auto snap = std::make_shared<stats::Snapshot>();
    stats::Snapshot::GroupEntry &sys =
        snap->addGroup("system", "---- PerfectSystem ----");
    buildRunStats(*snap, sys, lastResult_);
    buildCoreStats(*snap, core_.coreStats());
    if (obs_.prof)
        obs::addProfileGroup(*snap, *obs_.prof, obs_.loopNs);
    return snap;
}

void
PerfectSystem::dumpStats(std::ostream &os) const
{
    snapshotStats()->dump(os);
}

} // namespace baseline
} // namespace dscalar
