/** @file Unit tests for the out-of-order core's timing behaviour. */

#include <gtest/gtest.h>

#include "local_backend.hh"
#include "ooo/core.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace ooo {
namespace {

using namespace prog::reg;
using prog::Assembler;
using prog::Program;

struct CoreRun
{
    Cycle cycles = 0;
    CoreStats stats;
    std::uint64_t backendFetches = 0;
    std::uint64_t backendInstFetches = 0;
    std::uint64_t backendStoreMisses = 0;
    std::uint64_t backendWriteBacks = 0;
};

CoreRun
runCore(const Program &p, const CoreParams &params,
        InstSeq max_insts = 0)
{
    OracleStream stream(p, nullptr, max_insts);
    LocalBackend backend{mem::MainMemoryParams{}};
    OoOCore core(params, stream, backend);
    Cycle now = 0;
    while (!core.done()) {
        core.tick(now);
        ++now;
        if (now > 10'000'000) {
            ADD_FAILURE() << "core did not finish";
            break;
        }
    }
    CoreRun r;
    r.cycles = now;
    r.stats = core.coreStats();
    r.backendFetches = backend.fetches;
    r.backendInstFetches = backend.instFetches;
    r.backendStoreMisses = backend.storeMisses;
    r.backendWriteBacks = backend.writeBacks;
    return r;
}

Program
independentAdds(int count)
{
    Program p;
    Assembler a(p);
    for (int i = 0; i < count; ++i)
        a.addi(static_cast<RegIndex>(1 + (i % 20)), zero, i & 0xff);
    a.halt();
    a.finalize();
    return p;
}

/** @p count independent adds per iteration, looped (warm I-cache). */
Program
loopedAdds(int count, int iters)
{
    Program p;
    Assembler a(p);
    a.li(s0, iters);
    a.label("loop");
    for (int i = 0; i < count; ++i) {
        // r1..r12 only: the loop counter lives in s0 (r16).
        a.addi(static_cast<RegIndex>(1 + (i % 12)), zero, i & 0xff);
    }
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

Program
serialChain(int count, int iters)
{
    Program p;
    Assembler a(p);
    a.li(t0, 1);
    a.li(s0, iters);
    a.label("loop");
    for (int i = 0; i < count; ++i)
        a.addi(t0, t0, 1);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(OoOCore, CommitsEveryInstruction)
{
    Program p = independentAdds(100);
    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.committed, 101u); // 100 adds + halt
}

TEST(OoOCore, WideIssueOnIndependentCode)
{
    // Looped so the I-cache warms; 8-wide should sustain above 4.
    Program p = loopedAdds(512, 16);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_GT(ipc, 4.0);
}

TEST(OoOCore, SerialChainLimitsToOnePerCycle)
{
    Program p = serialChain(200, 20);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LE(ipc, 1.1);
    EXPECT_GT(ipc, 0.8);
}

TEST(OoOCore, ColdStraightLineCodeIsFetchBound)
{
    // Straight-line code touches every I-line exactly once: fetch
    // stalls on the 8-cycle banks bound IPC near
    // lineInsts / (bank + transfer) regardless of issue width.
    Program p = independentAdds(2000);
    CoreRun r = runCore(p, CoreParams{});
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LT(ipc, 1.2);
    EXPECT_GT(ipc, 0.5);
}

TEST(OoOCore, NarrowIssueWidthCaps)
{
    Program p = independentAdds(2000);
    CoreParams narrow;
    narrow.issueWidth = 1;
    narrow.fetchWidth = 1;
    narrow.commitWidth = 1;
    CoreRun r = runCore(p, narrow);
    double ipc = static_cast<double>(r.stats.committed) / r.cycles;
    EXPECT_LE(ipc, 1.01);
}

TEST(OoOCore, TinyRuuStillCorrect)
{
    Program p = independentAdds(500);
    CoreParams tiny;
    tiny.ruuEntries = 2;
    tiny.lsqEntries = 1;
    CoreRun r = runCore(p, tiny);
    EXPECT_EQ(r.stats.committed, 501u);
}

TEST(OoOCore, LoadsHitAfterFill)
{
    // Repeatedly load the same line: 1 cold miss, rest hits.
    Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 16; ++i)
        a.lw(t0, s1, (i % 8) * 4);
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.loads, 16u);
    EXPECT_EQ(r.stats.loadIssueMisses, 1u);
    EXPECT_EQ(r.backendFetches, 1u);
    EXPECT_EQ(r.stats.canonicalLoadMisses, 1u);
    EXPECT_EQ(r.stats.falseHits, 0u);
    EXPECT_EQ(r.stats.falseMisses, 0u);
}

TEST(OoOCore, StoreToLoadForwarding)
{
    Program p;
    Addr g = p.allocGlobal(64);
    Assembler a(p);
    a.la(s1, g);
    a.li(t0, 42);
    a.sw(t0, s1, 0);
    a.lw(t1, s1, 0); // must forward from the store
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_GE(r.stats.forwardedLoads, 1u);
}

TEST(OoOCore, WriteNoAllocateStoreMissesGoToBackend)
{
    Program p;
    Addr g = p.allocGlobal(1024);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 8; ++i)
        a.sw(zero, s1, i * 64); // distinct lines, never loaded
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.storeCommitMisses, 8u);
    EXPECT_EQ(r.backendStoreMisses, 8u);
    EXPECT_EQ(r.backendFetches, 0u); // no allocations
}

TEST(OoOCore, WriteAllocatePolicyFetchesOnStoreMiss)
{
    Program p;
    Addr g = p.allocGlobal(1024);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 8; ++i)
        a.sw(zero, s1, i * 64);
    a.halt();
    a.finalize();

    CoreParams params;
    params.dcache.writeAllocate = true;
    CoreRun r = runCore(p, params);
    EXPECT_EQ(r.stats.storeCommitMisses, 8u);
    EXPECT_EQ(r.backendStoreMisses, 0u);
    // Fetch-for-write traffic instead.
    EXPECT_EQ(r.stats.unclaimedRepairs, 0u);
}

TEST(OoOCore, DirtyEvictionProducesWriteBack)
{
    Program p;
    // Two lines one cache-size apart: load+store the first, then
    // load the second to evict it dirty.
    Addr g = p.allocGlobal(64 * 1024);
    Assembler a(p);
    a.la(s1, g);
    a.lw(t0, s1, 0);
    a.sw(t0, s1, 0);       // dirty the line (write hit)
    a.lw(t1, s1, 16384);   // same set in a 16 KB direct-mapped L1
    a.halt();
    a.finalize();

    CoreRun r = runCore(p, CoreParams{});
    EXPECT_EQ(r.stats.dirtyWriteBacks, 1u);
    EXPECT_EQ(r.backendWriteBacks, 1u);
}

TEST(OoOCore, ICacheMissesCounted)
{
    Program p = independentAdds(4000); // 16 KB of text
    CoreRun r = runCore(p, CoreParams{});
    EXPECT_GT(r.stats.icacheMisses, 100u);
    EXPECT_EQ(r.stats.icacheMisses, r.backendInstFetches);
}

TEST(OoOCore, PerfectDataNeverTouchesBackend)
{
    Program p;
    Addr g = p.allocGlobal(4096);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 32; ++i) {
        a.lw(t0, s1, i * 64);
        a.sw(t0, s1, i * 64);
    }
    a.halt();
    a.finalize();

    CoreParams params;
    params.perfectData = true;
    CoreRun r = runCore(p, params);
    EXPECT_EQ(r.backendFetches, 0u);
    EXPECT_EQ(r.backendStoreMisses, 0u);
    EXPECT_EQ(r.backendWriteBacks, 0u);
}

TEST(OoOCore, MshrLimitBoundsOutstandingFills)
{
    // Independent loads to distinct lines: unlimited MSHRs overlap
    // them; a single MSHR serializes the fills.
    Program p;
    Addr g = p.allocGlobal(8192);
    Assembler a(p);
    a.la(s1, g);
    for (int i = 0; i < 32; ++i)
        a.lw(static_cast<RegIndex>(1 + (i % 12)), s1, i * 64);
    a.halt();
    a.finalize();

    CoreParams unlimited;
    CoreParams one;
    one.maxOutstandingFills = 1;
    CoreRun fast = runCore(p, unlimited);
    CoreRun slow = runCore(p, one);
    EXPECT_GT(slow.cycles, fast.cycles * 2);
    EXPECT_GT(slow.stats.mshrStallEvents, 0u);
    EXPECT_EQ(slow.stats.committed, fast.stats.committed);
}

TEST(OoOCore, MshrLimitDoesNotChangeArchitecture)
{
    Program p = independentAdds(200);
    CoreParams tiny;
    tiny.maxOutstandingFills = 1;
    CoreRun r = runCore(p, tiny);
    EXPECT_EQ(r.stats.committed, 201u);
}

TEST(OoOCore, MaxInstsTruncatesRun)
{
    Program p = independentAdds(1000);
    CoreRun r = runCore(p, CoreParams{}, 50);
    EXPECT_EQ(r.stats.committed, 50u);
}

TEST(OoOCore, TruncatedRunFinishesWithSingleEntryWindow)
{
    // Regression: with a 1-entry window, the truncated stream's end
    // is only discovered by the fetch probe after the final commit;
    // the core must still report done (it used to hang).
    Program p = independentAdds(1000);
    CoreParams tiny;
    tiny.ruuEntries = 1;
    tiny.lsqEntries = 1;
    tiny.fetchWidth = 1;
    tiny.issueWidth = 1;
    tiny.commitWidth = 1;
    CoreRun r = runCore(p, tiny, 50);
    EXPECT_EQ(r.stats.committed, 50u);
}

/**
 * Memory-order issue: store A's address waits on a two-deep IntDiv
 * chain while younger independent loads and ALU ops are ready. The
 * loads must wait for A; the ALU ops and store B (whose address is
 * ready after one IntMul) go ahead. When A finally issues, the loads
 * parked behind it issue in that same pass, one of them forwarding
 * from A, and a load after B forwards from B.
 */
Program
memoryOrderLoop(int iters)
{
    Program p;
    Addr g = p.allocGlobal(4096);
    Assembler a(p);
    a.la(s1, g);
    a.li(s2, 3);
    a.li(s0, iters);
    a.label("loop");
    a.div(t0, s0, s2);
    a.div(t0, t0, s2);
    a.sub(t0, t0, t0); // 0, known only once the chain completes
    a.add(t1, s1, t0);
    a.sw(s0, t1, 0); // store A
    for (int i = 0; i < 6; ++i) {
        a.lw(static_cast<RegIndex>(t2 + (i % 4)), s1, 64 * (i + 1));
        a.addi(static_cast<RegIndex>(s3 + (i % 4)), zero, i);
    }
    a.lw(t6, s1, 0); // forwards from store A
    a.mul(t7, s2, s2);
    a.sub(t7, t7, t7);
    a.add(t7, s1, t7);
    a.sw(s0, t7, 512); // store B
    a.lw(t6, s1, 512); // forwards from store B
    a.lw(t6, s1, 1024);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(OoOCore, MemoryOrderIssueIsPinned)
{
    // Pinned from the build whose issue stage rescanned every blocked
    // load each cycle: parking blocked loads must not move a cycle.
    // ruuEntries 3 and 100 are not powers of two (the RUU ring is).
    struct Case
    {
        unsigned ruu;
        Cycle cycles;
        std::uint64_t loadIssueHits;
        std::uint64_t forwardedLoads;
    };
    const Case cases[] = {
        {256, 209, 352, 47},
        {100, 343, 352, 40},
        {3, 2162, 351, 0},
    };
    Program p = memoryOrderLoop(40);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.ruu);
        CoreParams params;
        params.ruuEntries = c.ruu;
        params.lsqEntries = std::max(1u, c.ruu / 2);
        OracleStream stream(p, nullptr);
        LocalBackend backend{mem::MainMemoryParams{}};
        OoOCore core(params, stream, backend);
        Cycle now = 0;
        std::size_t max_window = 0;
        for (; !core.done() && now < 1'000'000; ++now) {
            core.tick(now);
            max_window = std::max(max_window, core.windowSize());
        }
        ASSERT_TRUE(core.done());
        EXPECT_LE(max_window, c.ruu);
        EXPECT_EQ(core.coreStats().committed, 3u + 40u * 26u + 1u);
        EXPECT_EQ(now, c.cycles);
        EXPECT_EQ(core.coreStats().loadIssueHits, c.loadIssueHits);
        EXPECT_EQ(core.coreStats().forwardedLoads, c.forwardedLoads);
    }
}

TEST(OoOCore, FpLatenciesSlowDependentChain)
{
    // A chain of dependent fmuls should take ~fpMulLat per inst.
    Program p;
    Addr g = p.allocGlobal(16);
    Assembler a(p);
    a.la(s1, g);
    a.ld(t0, s1, 0);
    for (int i = 0; i < 200; ++i)
        a.fmul(t0, t0, t0);
    a.halt();
    a.finalize();

    CoreParams params;
    CoreRun r = runCore(p, params);
    EXPECT_GT(r.cycles, 200u * (params.fpMulLat - 1));
}

} // namespace
} // namespace ooo
} // namespace dscalar
