/** @file
 * Cycle-exact equivalence of event-driven cycle skipping.
 *
 * The event-driven run loops (core::DataScalarSystem,
 * baseline::TraditionalSystem, baseline::PerfectSystem) fast-forward
 * time to the next cycle at which anything can happen instead of
 * ticking every cycle. That is a pure performance transformation:
 * for every system type, interconnect, and node count, a skipping
 * run must report exactly the cycle count, instruction count,
 * statistics dump, and interconnect totals of the single-stepping
 * reference (config.eventDriven = false, the pre-optimization loop).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace {

constexpr InstSeq kBudget = 20000;

core::SimConfig
testConfig(unsigned nodes, bool event_driven,
           core::InterconnectKind kind = core::InterconnectKind::Bus)
{
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = nodes;
    cfg.maxInsts = kBudget;
    cfg.eventDriven = event_driven;
    cfg.interconnect = kind;
    return cfg;
}

struct DsObservation
{
    core::RunResult result;
    std::string stats;
    std::uint64_t busMessages, busBytes, busBusy;
    std::uint64_t ringMessages, ringBytes, ringBusy;
};

DsObservation
runDs(const prog::Program &p, unsigned nodes, bool event_driven,
      core::InterconnectKind kind)
{
    core::DataScalarSystem sys(
        p, testConfig(nodes, event_driven, kind),
        driver::figure7PageTable(p, nodes));
    DsObservation obs;
    obs.result = sys.run();
    std::ostringstream ss;
    sys.dumpStats(ss);
    obs.stats = ss.str();
    obs.busMessages = sys.bus().totalMessages();
    obs.busBytes = sys.bus().totalBytes();
    obs.busBusy = sys.bus().busyCycles();
    obs.ringMessages = sys.ring().totalMessages();
    obs.ringBytes = sys.ring().totalBytes();
    obs.ringBusy = sys.ring().linkBusyCycles();
    return obs;
}

class CycleSkipDataScalar
    : public ::testing::TestWithParam<
          std::tuple<unsigned, core::InterconnectKind>>
{
};

TEST_P(CycleSkipDataScalar, MatchesSingleStepping)
{
    auto [nodes, kind] = GetParam();
    prog::Program p =
        workloads::findWorkload("compress_s").build(1);

    DsObservation ref = runDs(p, nodes, false, kind);
    DsObservation fast = runDs(p, nodes, true, kind);

    EXPECT_EQ(fast.result.cycles, ref.result.cycles);
    EXPECT_EQ(fast.result.instructions, ref.result.instructions);
    EXPECT_DOUBLE_EQ(fast.result.ipc, ref.result.ipc);
    EXPECT_EQ(fast.stats, ref.stats);
    EXPECT_EQ(fast.busMessages, ref.busMessages);
    EXPECT_EQ(fast.busBytes, ref.busBytes);
    EXPECT_EQ(fast.busBusy, ref.busBusy);
    EXPECT_EQ(fast.ringMessages, ref.ringMessages);
    EXPECT_EQ(fast.ringBytes, ref.ringBytes);
    EXPECT_EQ(fast.ringBusy, ref.ringBusy);
    // The run must have exercised real work to mean anything.
    EXPECT_GT(ref.result.instructions, 0u);
    EXPECT_GT(ref.result.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, CycleSkipDataScalar,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(core::InterconnectKind::Bus,
                                         core::InterconnectKind::Ring)),
    [](const auto &info) {
        return std::string(std::get<1>(info.param) ==
                                   core::InterconnectKind::Bus
                               ? "bus"
                               : "ring") +
               std::to_string(std::get<0>(info.param));
    });

class CycleSkipTraditional
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CycleSkipTraditional, MatchesSingleStepping)
{
    unsigned nodes = GetParam();
    prog::Program p =
        workloads::findWorkload("compress_s").build(1);

    auto runOnce = [&](bool event_driven) {
        baseline::TraditionalSystem sys(
            p, testConfig(nodes, event_driven),
            driver::figure7PageTable(p, nodes));
        core::RunResult r = sys.run();
        return std::make_tuple(r.cycles, r.instructions,
                               sys.offChipReads(),
                               sys.offChipWrites(),
                               sys.bus().totalMessages(),
                               sys.bus().totalBytes(),
                               sys.bus().busyCycles());
    };
    EXPECT_EQ(runOnce(true), runOnce(false));
}

INSTANTIATE_TEST_SUITE_P(AllNodeCounts, CycleSkipTraditional,
                         ::testing::Values(1u, 2u, 4u));

TEST(CycleSkipPerfect, MatchesSingleStepping)
{
    prog::Program p =
        workloads::findWorkload("compress_s").build(1);

    auto runOnce = [&](bool event_driven) {
        baseline::PerfectSystem sys(p, testConfig(2, event_driven));
        return sys.run();
    };
    core::RunResult ref = runOnce(false);
    core::RunResult fast = runOnce(true);
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.instructions, ref.instructions);
    EXPECT_DOUBLE_EQ(fast.ipc, ref.ipc);
    EXPECT_GT(ref.instructions, 0u);
}

/** A second workload with a different memory personality (go's
 *  pointer-heavy behaviour) to widen coverage of the skip paths. */
TEST(CycleSkipDataScalarGo, MatchesSingleStepping)
{
    prog::Program p = workloads::findWorkload("go_s").build(1);
    DsObservation ref =
        runDs(p, 2, false, core::InterconnectKind::Bus);
    DsObservation fast =
        runDs(p, 2, true, core::InterconnectKind::Bus);
    EXPECT_EQ(fast.result.cycles, ref.result.cycles);
    EXPECT_EQ(fast.result.instructions, ref.result.instructions);
    EXPECT_EQ(fast.stats, ref.stats);
    EXPECT_EQ(fast.busMessages, ref.busMessages);
    EXPECT_EQ(fast.busBytes, ref.busBytes);
}

/** A recovery-armed DataScalar shape: hard BSHR capacity with a
 *  small bank, or interconnect fault injection. */
struct RecoveryCase
{
    const char *name;
    unsigned bshrEntries; ///< hard capacity; 0 = soft BSHR
    bool faults;
};

/** Sum of stat @p name over every group of a stats dump. */
std::uint64_t
sumStat(const std::string &dump, const std::string &name)
{
    std::istringstream in(dump);
    std::uint64_t total = 0;
    std::string key;
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        std::uint64_t value = 0;
        if (fields >> key >> value && key == name)
            total += value;
    }
    return total;
}

/** Keeps the listed test names free of pointer bytes. */
void
PrintTo(const RecoveryCase &c, std::ostream *os)
{
    *os << c.name;
}

class CycleSkipRecovery : public ::testing::TestWithParam<RecoveryCase>
{
};

/** Re-requests, backoff timers and flow-control stalls are where the
 *  two loop modes could part: the whole stats dump and the sampler
 *  timeline must still match. */
TEST_P(CycleSkipRecovery, StatsAndTimelineMatchSingleStepping)
{
    const RecoveryCase &rc = GetParam();
    driver::RunRequest req;
    // turb3d_s on two nodes first fills a 16-entry bank near 90k
    // instructions.
    req.workload = "turb3d_s";
    req.system = driver::SystemKind::DataScalar;
    req.config = testConfig(2, true);
    req.config.maxInsts = 100000;
    req.config.rerequestTimeout = 2000;
    if (rc.bshrEntries) {
        req.config.bshrHardCapacity = true;
        req.config.bshrCapacity = rc.bshrEntries;
    }
    if (rc.faults) {
        req.config.fault.dropProb = 0.02;
        req.config.fault.dupProb = 0.02;
        req.config.fault.delayProb = 0.1;
        req.config.fault.maxDelay = 24;
        req.config.fault.seed = 7;
    }
    req.sampleInterval = 1000;

    auto observe = [&](bool event_driven) {
        req.config.eventDriven = event_driven;
        driver::RunResponse resp = driver::runOne(req);
        EXPECT_TRUE(resp.ok()) << resp.error;
        std::ostringstream ss;
        resp.result.stats->dump(ss);
        return std::make_tuple(resp.result.cycles, ss.str(),
                               resp.timelineJson, resp.output);
    };
    auto ref = observe(false);
    auto fast = observe(true);
    EXPECT_EQ(std::get<0>(fast), std::get<0>(ref));
    EXPECT_EQ(std::get<1>(fast), std::get<1>(ref));
    EXPECT_EQ(std::get<2>(fast), std::get<2>(ref));
    EXPECT_EQ(std::get<3>(fast), std::get<3>(ref));
    EXPECT_FALSE(std::get<2>(ref).empty());
    // The recovery machinery must actually have run.
    EXPECT_GT(sumStat(std::get<1>(ref), rc.faults
                                            ? "rerequests_sent"
                                            : "backend_stall_events"),
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    HardBshrAndFaults, CycleSkipRecovery,
    ::testing::Values(RecoveryCase{"hard4", 4, false},
                      RecoveryCase{"hard8", 8, false},
                      RecoveryCase{"hard16", 16, false},
                      RecoveryCase{"faults", 0, true}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace dscalar
