/** @file Tests for the experiment driver (Tables 1-2 machinery). */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "prog/assembler.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace driver {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

TEST(PaperConfig, MatchesSection42)
{
    core::SimConfig cfg = paperConfig();
    EXPECT_EQ(cfg.core.issueWidth, 8u);
    EXPECT_EQ(cfg.core.ruuEntries, 256u);
    EXPECT_EQ(cfg.core.lsqEntries, 128u);
    EXPECT_EQ(cfg.core.dcache.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.core.dcache.assoc, 1u);
    EXPECT_FALSE(cfg.core.dcache.writeAllocate);
    EXPECT_TRUE(cfg.core.icache.writeAllocate);
    EXPECT_EQ(cfg.mem.accessLatency, 8u);
    EXPECT_EQ(cfg.bus.widthBytes, 8u);
    EXPECT_EQ(cfg.bus.clockDivisor, 10u);
    EXPECT_EQ(cfg.bus.interfacePenalty, 2u);
    EXPECT_EQ(cfg.bshrCapacity, 128u);
}

TEST(ProfilePages, CountsHotPages)
{
    Program p;
    Addr hot = p.allocGlobal(prog::pageSize);
    Addr cold = p.allocGlobal(prog::pageSize);
    Assembler a(p);
    a.la(s1, hot);
    a.la(s2, cold);
    a.li(s0, 100);
    a.label("loop");
    a.lw(t0, s1, 0);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.lw(t0, s2, 0);
    a.halt();
    a.finalize();

    core::PageHeat heat = profilePages(*func::InstTrace::capture(p));
    EXPECT_GT(heat[prog::pageBase(hot)], 50u);
    EXPECT_EQ(heat[prog::pageBase(cold)], 1u);
    // Text pages counted too.
    EXPECT_GT(heat[prog::pageBase(p.textBaseAddr())], 100u);
}

TEST(TrafficResultTest, Fractions)
{
    TrafficResult t;
    t.requests = 10;
    t.requestBytes = 80;
    t.responses = 10;
    t.responseBytes = 400;
    t.writeBacks = 5;
    t.writeBackBytes = 200;
    EXPECT_DOUBLE_EQ(t.bytesEliminated(), 280.0 / 680.0);
    EXPECT_DOUBLE_EQ(t.transactionsEliminated(), 15.0 / 25.0);
}

TEST(MeasureEspTraffic, ReadOnlyStreamEliminatesHalfTransactions)
{
    // Pure read misses: request+response per miss; ESP removes the
    // requests = exactly half the transactions.
    Program p;
    Addr g = p.allocGlobal(256 * 1024);
    Assembler a(p);
    a.la(s1, g);
    a.li(s0, 4096);
    a.label("loop");
    a.lw(t0, s1, 0);
    a.addi(s1, s1, 64); // new line every access
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    TrafficResult t = measureEspTraffic(*func::InstTrace::capture(p));
    EXPECT_EQ(t.requests, t.responses);
    EXPECT_EQ(t.writeBacks, 0u);
    EXPECT_DOUBLE_EQ(t.transactionsEliminated(), 0.5);
    // Bytes: 8/(8+40) per pair.
    EXPECT_NEAR(t.bytesEliminated(), 8.0 / 48.0, 1e-9);
}

TEST(MeasureEspTraffic, DirtyDataRaisesElimination)
{
    // Read+write the same streaming data: write-backs add eliminated
    // traffic, so elimination exceeds the read-only case.
    Program p;
    Addr g = p.allocGlobal(512 * 1024);
    Assembler a(p);
    a.la(s1, g);
    a.li(s0, 8192);
    a.label("loop");
    a.lw(t0, s1, 0);
    a.sw(t0, s1, 4);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    TrafficResult t = measureEspTraffic(*func::InstTrace::capture(p));
    EXPECT_GT(t.writeBacks, 0u);
    EXPECT_GT(t.transactionsEliminated(), 0.5);
    EXPECT_GT(t.bytesEliminated(), 8.0 / 48.0);
}

TEST(RunCounterTest, MeanRunLength)
{
    RunCounter c;
    for (NodeId n : {0, 0, 0, 1, 1, 2})
        c.feed(n);
    EXPECT_EQ(c.refs(), 6u);
    EXPECT_EQ(c.runs(), 3u);
    EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(RunCounterTest, EmptyIsZero)
{
    RunCounter c;
    EXPECT_DOUBLE_EQ(c.mean(), 0.0);
    EXPECT_EQ(c.runs(), 0u);
}

TEST(MeasureDatathreads, SequentialStreamHasLongThreads)
{
    // Sequential misses walk pages in order: with block size 4,
    // runs should span multiple pages of consecutive misses.
    Program p;
    Addr g = p.allocGlobal(32 * prog::pageSize);
    Assembler a(p);
    a.la(s1, g);
    a.li(s0, static_cast<std::int32_t>(32 * prog::pageSize / 64));
    a.label("loop");
    a.lw(t0, s1, 0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    core::DistributionConfig dist;
    dist.numNodes = 4;
    dist.blockPages = 4;
    core::ReplicationReport rep;
    mem::PageTable table =
        core::buildPageTable(p, dist, nullptr, &rep);
    DatathreadResult r =
        measureDatathreads(*func::InstTrace::capture(p), table, rep);

    // 4 pages x 128 misses per page per node-run.
    EXPECT_GT(r.meanData, 100.0);
    // Text is replicated: no text entries in the communicated runs.
    EXPECT_EQ(r.meanText, 0.0);
    EXPECT_GT(r.missRefs, 0u);
}

TEST(MeasureDatathreads, InterleavedStreamsShortenThreads)
{
    // a[i] + b[i] across arrays owned by different nodes.
    Program p;
    constexpr unsigned pages = 8;
    Addr x = p.allocGlobal(pages * prog::pageSize);
    // One pad page shifts y's round-robin phase so that x[i] and
    // y[i] always land on opposite owners.
    p.allocGlobal(prog::pageSize);
    Addr y = p.allocGlobal(pages * prog::pageSize);
    Assembler a(p);
    a.la(s1, x);
    a.la(s2, y);
    a.li(s0, static_cast<std::int32_t>(pages * prog::pageSize / 64));
    a.label("loop");
    a.lw(t0, s1, 0);
    a.lw(t1, s2, 0);
    a.addi(s1, s1, 64);
    a.addi(s2, s2, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();

    core::DistributionConfig dist;
    dist.numNodes = 2;
    dist.blockPages = 1;
    // Round-robin with block 1: x page i and y page i land on
    // different owners whenever their page parity differs.
    core::ReplicationReport rep;
    mem::PageTable table =
        core::buildPageTable(p, dist, nullptr, &rep);
    DatathreadResult interleaved =
        measureDatathreads(*func::InstTrace::capture(p), table, rep);
    EXPECT_GT(interleaved.missRefs, 0u);
    EXPECT_LT(interleaved.meanData, 100.0);
}

TEST(Figure7PageTable, TextReplicatedNoDataReplication)
{
    prog::Program p = workloads::findWorkload("go_s").build(1);
    mem::PageTable table = figure7PageTable(p, 4);
    EXPECT_TRUE(table.isReplicated(p.textBaseAddr()));
    EXPECT_FALSE(table.isReplicated(prog::globalBase));
}

} // namespace
} // namespace driver
} // namespace dscalar
