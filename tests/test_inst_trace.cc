/** @file Unit tests for captured instruction traces and replay. */

#include <gtest/gtest.h>

#include "baseline/perfect.hh"
#include "driver/driver.hh"
#include "func/inst_trace.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace func {
namespace {

using namespace prog::reg;

prog::Program
countdownProgram(int n)
{
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, n);
    a.label("loop");
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

prog::Program
compressProgram()
{
    return workloads::findWorkload("compress_s").build(1);
}

prog::Program
printingCountdownProgram(int n)
{
    // li + (mv, syscall, addi, bne) x n + halt: prints n..1, one
    // PrintInt per loop iteration.
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, n);
    a.label("loop");
    a.addi(a0, t0, 0);
    a.syscall(isa::Syscall::PrintInt);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();
    return p;
}

TEST(InstTrace, CaptureMatchesLiveExecution)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 8000;
    auto trace = InstTrace::capture(p, budget);
    ASSERT_EQ(trace->length(), budget);

    // Every captured record must round-trip to exactly what a fresh
    // functional run produces, field by field.
    FuncSim sim(p);
    for (InstSeq seq = 0; seq < trace->length(); ++seq) {
        DynInst live;
        ASSERT_TRUE(sim.step(&live));
        DynInst replayed;
        trace->expand(seq, replayed);
        ASSERT_EQ(replayed.seq, live.seq);
        ASSERT_EQ(replayed.pc, live.pc);
        ASSERT_EQ(isa::encode(replayed.inst), isa::encode(live.inst));
        ASSERT_EQ(replayed.effAddr, live.effAddr);
        ASSERT_EQ(replayed.memSize, live.memSize);
        ASSERT_EQ(replayed.nextPc, live.nextPc);
    }
}

TEST(InstTrace, RecordsHaltAndLength)
{
    // li + (addi, bne) x10 + halt = 22 records, run to completion.
    prog::Program p = countdownProgram(10);
    auto full = InstTrace::capture(p);
    EXPECT_EQ(full->length(), 22u);
    EXPECT_TRUE(full->programHalted());

    // A budget below the program length is a prefix, not a halt.
    auto prefix = InstTrace::capture(p, 10);
    EXPECT_EQ(prefix->length(), 10u);
    EXPECT_FALSE(prefix->programHalted());
}

TEST(InstTrace, KeepsSyscallOutput)
{
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 50000;
    auto trace = InstTrace::capture(p, budget);

    FuncSim sim(p);
    sim.run(budget);
    EXPECT_EQ(trace->output(), sim.output());
}

TEST(InstTrace, OutputPrefixMatchesTruncatedLiveRun)
{
    prog::Program p = printingCountdownProgram(50); // 202 records
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());
    EXPECT_EQ(trace->outputPrefix(0), trace->output());

    // At every truncation point the prefix must be exactly what a
    // live run stopped at that budget prints — replaying a trace at
    // a smaller budget must not leak output from beyond it.
    for (InstSeq budget : {1, 2, 3, 41, 100, 201, 202, 500}) {
        FuncSim sim(p);
        sim.run(budget);
        EXPECT_EQ(trace->outputPrefix(budget), sim.output())
            << "budget " << budget;
    }
}

TEST(InstTrace, ReplayRejectsUnderCoveringTrace)
{
    prog::Program p = compressProgram();
    auto prefix = InstTrace::capture(p, 1000);
    ASSERT_FALSE(prefix->programHalted());
    // Budgets the capture covers replay fine...
    ooo::OracleStream ok(p, prefix, 1000);
    EXPECT_TRUE(ok.available(999));
    // ...but a run-to-completion or larger budget would silently
    // simulate fewer instructions than asked for; it must die.
    EXPECT_DEATH(ooo::OracleStream(p, prefix, 0), "cannot cover");
    EXPECT_DEATH(ooo::OracleStream(p, prefix, 1001), "cannot cover");
}

TEST(InstTrace, ReplayStreamMatchesLiveStream)
{
    // Both sources of a stream — its own capture and a captured
    // trace — must yield exactly what a FuncSim stepping the program
    // retires, and end at the budget.
    prog::Program p = compressProgram();
    constexpr InstSeq budget = 6000; // spans two chunks
    auto trace = InstTrace::capture(p, budget);

    for (bool replay : {false, true}) {
        SCOPED_TRACE(replay ? "trace" : "capture");
        ooo::OracleStream stream(p, replay ? trace : nullptr, budget);
        FuncSim sim(p);
        InstSeq seq = 0;
        for (; stream.available(seq); ++seq) {
            DynInst live;
            ASSERT_TRUE(sim.step(&live));
            const DynInst &b = stream.get(seq);
            ASSERT_EQ(b.seq, live.seq);
            ASSERT_EQ(b.pc, live.pc);
            ASSERT_EQ(isa::encode(b.inst), isa::encode(live.inst));
            ASSERT_EQ(b.effAddr, live.effAddr);
            ASSERT_EQ(b.memSize, live.memSize);
            ASSERT_EQ(b.nextPc, live.nextPc);
        }
        EXPECT_EQ(seq, budget);
        EXPECT_TRUE(stream.ended());
        EXPECT_EQ(stream.endSeq(), budget);
        EXPECT_EQ(stream.output(), sim.output());
    }
}

TEST(InstTrace, ReplayTruncatesBelowTraceLength)
{
    prog::Program p = compressProgram();
    auto trace = InstTrace::capture(p, 6000);
    ooo::OracleStream stream(p, trace, 1000);
    EXPECT_TRUE(stream.available(999));
    EXPECT_FALSE(stream.available(1000));
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.endSeq(), 1000u);
}

TEST(InstTrace, ExpansionDropsChunkReferences)
{
    // li + (addi, bne) x3000 + halt = 6002 records: two chunks.
    prog::Program p = countdownProgram(3000);
    auto trace = InstTrace::capture(p);
    ASSERT_EQ(trace->numChunks(), 2u);
    long base = trace->chunk(0).use_count();

    ooo::OracleStream stream(p, trace, 0);
    EXPECT_EQ(trace->chunk(0).use_count(), base + 1);
    EXPECT_EQ(trace->chunk(1).use_count(), base + 1);

    // Expanding a chunk releases the stream's reference into the
    // shared trace; the trace itself still holds the chunk, and
    // trim() never touches it.
    ASSERT_TRUE(stream.available(0));
    EXPECT_EQ(trace->chunk(0).use_count(), base);
    EXPECT_EQ(trace->chunk(1).use_count(), base + 1);
    ASSERT_TRUE(stream.available(6001));
    EXPECT_EQ(trace->chunk(1).use_count(), base);
    stream.trim(ooo::OracleStream::kChunkRecords);
    EXPECT_EQ(stream.get(6001).seq, 6001u);
}

TEST(TraceReplay, TruncatedReplayOutputMatchesLiveBudget)
{
    // A trace captured to completion, replayed at a smaller budget:
    // the reported syscall output must be what a FuncSim stopped at
    // that budget prints, not the full captured run's output.
    prog::Program p = printingCountdownProgram(3000);
    auto trace = InstTrace::capture(p);
    ASSERT_TRUE(trace->programHalted());

    core::SimConfig cfg = driver::paperConfig();
    cfg.maxInsts = 5000; // well below the ~12000 captured records
    baseline::PerfectSystem replay(p, cfg, trace);
    replay.run();
    FuncSim sim(p);
    sim.run(cfg.maxInsts);
    EXPECT_FALSE(sim.output().empty());
    EXPECT_EQ(replay.output(), sim.output());
    EXPECT_NE(replay.output(), trace->output());
}

} // namespace
} // namespace func
} // namespace dscalar
