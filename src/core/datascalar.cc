#include "core/datascalar.hh"

#include <algorithm>
#include <iostream>

#include "common/logging.hh"

namespace dscalar {
namespace core {

DataScalarSystem::DataScalarSystem(
    const prog::Program &program, const SimConfig &config,
    mem::PageTable ptable,
    std::shared_ptr<const func::InstTrace> trace)
    : config_(config), stream_(program, std::move(trace), config.maxInsts),
      ptable_(std::move(ptable)),
      bus_(config.bus), ring_(config.numNodes, config.ring),
      faults_(config.fault),
      recoveryActive_(config.rerequestTimeout > 0)
{
    fatal_if(config_.numNodes < 1, "need at least one node");
    fatal_if(config_.bshrHardCapacity && !recoveryActive_,
             "bshrHardCapacity drops broadcasts at a full bank and "
             "needs re-request recovery (set rerequestTimeout > 0)");
    bus_.setFaultModel(&faults_);
    ring_.setFaultModel(&faults_);
    fatal_if(ptable_.numNodes() != config_.numNodes,
             "page table built for %u nodes, system has %u",
             ptable_.numNodes(), config_.numNodes);
    for (NodeId id = 0; id < config_.numNodes; ++id) {
        nodes_.push_back(std::make_unique<DataScalarNode>(
            id, config_, ptable_, stream_, *this));
    }
    if (config_.memCapacityPages != 0) {
        for (NodeId id = 0; id < config_.numNodes; ++id) {
            fatal_if(localPageCount(id) > config_.memCapacityPages,
                     "node %u needs %zu pages of local memory but "
                     "has capacity for %zu (reduce replication or "
                     "add nodes)",
                     id, localPageCount(id),
                     config_.memCapacityPages);
        }
    }
}

void
DataScalarSystem::broadcast(NodeId src, Addr line,
                            interconnect::MsgKind kind, Cycle ready)
{
    // A single-node "system" has nobody to push operands to.
    if (config_.numNodes == 1)
        return;
    unsigned line_size = config_.core.dcache.lineSize;
    if (config_.interconnect == InterconnectKind::Ring) {
        interconnect::RingBroadcastResult res =
            ring_.broadcast(kind, line_size, src, line, ready);
        for (const interconnect::RingDelivery &d : res.deliveries) {
            deliveries_.push(Delivery{d.at, deliveryOrder_++, src,
                                      line, kind, true, d.node});
        }
        return;
    }
    interconnect::BusTransmitResult res =
        bus_.transmit(kind, line_size, src, line, ready);
    for (unsigned i = 0; i < res.numDeliveries; ++i) {
        deliveries_.push(
            Delivery{res.at[i], deliveryOrder_++, src, line, kind});
    }
}

std::size_t
DataScalarSystem::localPageCount(NodeId id) const
{
    std::size_t n = ptable_.ownedPageCount(id);
    n += ptable_.replicatedPageCount();
    return n;
}

struct DataScalarSystem::LoopPort
{
    DataScalarSystem &sys;

    std::size_t numCores() const { return sys.nodes_.size(); }
    ooo::OoOCore &core(std::size_t i) { return sys.nodes_[i]->core(); }

    void
    deliverDue(Cycle now, Cycle *wake)
    {
        auto &queue = sys.deliveries_;
        while (!queue.empty() && queue.top().at <= now) {
            Delivery d = queue.top();
            queue.pop();
            bool rereq = d.kind == interconnect::MsgKind::Rerequest;
            if (d.targeted) {
                DataScalarNode &node = *sys.nodes_[d.target];
                if (rereq)
                    node.deliverRerequest(d.line, now);
                else
                    node.deliverBroadcast(d.line, now);
                wake[d.target] = now;
                continue;
            }
            for (auto &node : sys.nodes_) {
                if (node->id() == d.src)
                    continue;
                if (rereq)
                    node->deliverRerequest(d.line, now);
                else
                    node->deliverBroadcast(d.line, now);
                wake[node->id()] = now;
            }
        }
    }

    Cycle nextDeliveryCycle() const { return sys.nextDeliveryCycle(); }

    void
    checkRecovery(Cycle now)
    {
        if (!sys.recoveryActive_)
            return;
        for (auto &node : sys.nodes_)
            node->checkRecovery(now);
    }

    Cycle
    nextRecoveryCycle() const
    {
        Cycle soonest = cycleMax;
        if (sys.recoveryActive_) {
            for (const auto &node : sys.nodes_)
                soonest = std::min(soonest, node->nextRecoveryCycle());
        }
        return soonest;
    }

    void
    watchdogDump(std::ostream &os, Cycle now) const
    {
        sys.watchdogDump(os, now);
    }
};

RunResult
DataScalarSystem::run()
{
    panic_if(ran_, "DataScalarSystem::run called twice");
    ran_ = true;
    LoopPort port{*this};
    lastResult_ = runLoop(port, stream_, config_, obs_);
    lastResult_.stats = snapshotStats();
    return lastResult_;
}

void
DataScalarSystem::setTraceSink(TraceSink *sink)
{
    tee_.clear();
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
DataScalarSystem::addTraceSink(TraceSink *sink)
{
    if (sink)
        tee_.add(sink);
    applyTraceSinks();
}

void
DataScalarSystem::applyTraceSinks()
{
    TraceSink *eff = tee_.empty() ? nullptr : &tee_;
    for (auto &node : nodes_)
        node->setTraceSink(eff);
    faults_.setTraceSink(eff);
}

void
DataScalarSystem::setSampler(obs::Sampler *sampler)
{
    obs_.sampler = sampler;
    if (!sampler)
        return;
    for (const auto &node : nodes_) {
        const DataScalarNode *n = node.get();
        std::string prefix = "node" + std::to_string(n->id());
        sampler->addColumn(prefix + ".commit_rate",
                           obs::Sampler::Mode::Delta, [n] {
                               return static_cast<std::uint64_t>(
                                   n->core().committedSeq());
                           });
        sampler->addColumn(prefix + ".bshr_occupancy",
                           obs::Sampler::Mode::Level, [n] {
                               return static_cast<std::uint64_t>(
                                   n->bshr().occupancy());
                           });
        sampler->addColumn(prefix + ".dcub_depth",
                           obs::Sampler::Mode::Level, [n] {
                               return static_cast<std::uint64_t>(
                                   n->core().dcubOccupancy());
                           });
    }
    sampler->addColumn("bus_messages", obs::Sampler::Mode::Delta,
                       [this] { return bus_.totalMessages(); });
    sampler->addColumn("bus_busy_cycles", obs::Sampler::Mode::Delta,
                       [this] { return bus_.busyCycles(); });
    if (config_.interconnect == InterconnectKind::Ring) {
        sampler->addColumn("ring_link_busy_cycles",
                           obs::Sampler::Mode::Delta,
                           [this] { return ring_.linkBusyCycles(); });
    }
    // Datathread lead: the node with the highest committed sequence
    // this window (lowest id wins ties), i.e.\ the paper's notion of
    // which node currently leads the datathread.
    sampler->addColumn("lead_node", obs::Sampler::Mode::Level, [this] {
        NodeId lead = 0;
        InstSeq best = 0;
        for (const auto &node : nodes_) {
            InstSeq seq = node->core().committedSeq();
            if (seq > best) {
                best = seq;
                lead = node->id();
            }
        }
        return static_cast<std::uint64_t>(lead);
    });
}

void
DataScalarSystem::watchdogDump(std::ostream &os, Cycle now) const
{
    os << "==== watchdog diagnostics @ cycle " << now << " ====\n";
    for (const auto &node : nodes_)
        node->watchdogDump(os, now);
    os << "in-flight messages: " << deliveries_.size() << '\n';
    auto copy = deliveries_;
    while (!copy.empty()) {
        const Delivery &d = copy.top();
        os << "  " << interconnect::msgKindName(d.kind) << " 0x"
           << std::hex << d.line << std::dec << " from node " << d.src
           << ", delivers @" << d.at;
        if (d.targeted)
            os << " to node " << d.target;
        os << '\n';
        copy.pop();
    }
}

std::shared_ptr<const stats::Snapshot>
DataScalarSystem::snapshotStats() const
{
    auto snap = std::make_shared<stats::Snapshot>();
    stats::Snapshot::GroupEntry &sys = snap->addGroup(
        "system", "---- DataScalarSystem (" +
                      std::to_string(config_.numNodes) +
                      " nodes) ----");
    snap->addCounter(sys, "cycles", lastResult_.cycles,
                     "simulated cycles");
    snap->addCounter(sys, "instructions", lastResult_.instructions,
                     "committed per node (SPSD)");
    snap->addScalar(sys, "ipc", lastResult_.ipc,
                    "instructions per cycle");
    snap->addCounter(sys, "bus_messages", bus_.totalMessages(),
                     "global-bus transactions");
    snap->addCounter(sys, "bus_bytes", bus_.totalBytes(),
                     "global-bus payload+header bytes");
    snap->addCounter(sys, "bus_busy_cycles", bus_.busyCycles(),
                     "cycles the bus was occupied");
    if (config_.interconnect == InterconnectKind::Ring) {
        snap->addCounter(sys, "ring_messages", ring_.totalMessages(),
                         "ring broadcasts");
        snap->addCounter(sys, "ring_link_busy_cycles",
                         ring_.linkBusyCycles(),
                         "summed link occupancy");
    }
    if (faults_.enabled()) {
        const interconnect::FaultStats &fs = faults_.faultStats();
        snap->addCounter(sys, "fault_decisions", fs.decisions,
                         "transmissions considered");
        snap->addCounter(sys, "fault_drops", fs.drops,
                         "transmissions lost");
        snap->addCounter(sys, "fault_duplicates", fs.duplicates,
                         "transmissions duplicated");
        snap->addCounter(sys, "fault_delays", fs.delays,
                         "deliveries jittered");
        snap->addCounter(sys, "fault_delay_cycles", fs.delayCycles,
                         "summed injected jitter");
    }
    for (const auto &node : nodes_)
        node->buildStats(*snap);
    if (obs_.prof)
        obs::addProfileGroup(*snap, *obs_.prof, obs_.loopNs);
    return snap;
}

void
DataScalarSystem::dumpStats(std::ostream &os) const
{
    snapshotStats()->dump(os);
}

bool
DataScalarSystem::protocolDrained() const
{
    if (!deliveries_.empty())
        return false;
    for (const auto &node : nodes_)
        if (!node->bshr().drained())
            return false;
    return true;
}

} // namespace core
} // namespace dscalar
