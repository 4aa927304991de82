/** @file Unit tests for the shared dynamic-instruction stream. */

#include <gtest/gtest.h>

#include <algorithm>

#include "func/func_sim.hh"
#include "ooo/oracle_stream.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace ooo {
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

TEST(OracleStream, ProducesCompleteStream)
{
    prog::Program p = countdownProgram(3);
    OracleStream stream(p, nullptr);

    // li, (addi, bne) x3, halt = 8 records.
    EXPECT_TRUE(stream.available(7));
    EXPECT_FALSE(stream.available(8));
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.endSeq(), 8u);
    EXPECT_EQ(stream.get(7).inst.op, isa::Opcode::HALT);
}

TEST(OracleStream, SequentialSeqNumbers)
{
    prog::Program p = countdownProgram(5);
    OracleStream stream(p, nullptr);
    for (InstSeq s = 0; stream.available(s); ++s)
        EXPECT_EQ(stream.get(s).seq, s);
}

TEST(OracleStream, MultipleConsumersSeeSameRecords)
{
    prog::Program p = countdownProgram(10);
    OracleStream stream(p, nullptr);

    // Consumer A runs ahead; consumer B re-reads older entries.
    ASSERT_TRUE(stream.available(15));
    auto pc15 = stream.get(15).pc;
    auto pc3 = stream.get(3).pc;
    ASSERT_TRUE(stream.available(3));
    EXPECT_EQ(stream.get(3).pc, pc3);
    EXPECT_EQ(stream.get(15).pc, pc15);
}

TEST(OracleStream, TrimReleasesWholeChunksOnly)
{
    // li + (addi, bne) x3000 + halt = 6002 records: two chunks.
    prog::Program p = countdownProgram(3000);
    OracleStream stream(p, nullptr);
    ASSERT_TRUE(stream.available(6001));
    std::size_t before = stream.bufferedCount();
    ASSERT_EQ(before, 6002u);

    // Trimming inside the first chunk releases nothing...
    stream.trim(5);
    EXPECT_EQ(stream.bufferedCount(), before);
    EXPECT_EQ(stream.get(5).seq, 5u); // still accessible

    // ...and records just below a consumed chunk boundary keep the
    // chunk alive.
    stream.trim(OracleStream::kChunkRecords - 1);
    EXPECT_EQ(stream.bufferedCount(), before);

    // Once every record of the first chunk is passed, it goes at
    // once.
    stream.trim(OracleStream::kChunkRecords + 1);
    EXPECT_EQ(stream.bufferedCount(),
              before - OracleStream::kChunkRecords);
    EXPECT_EQ(stream.get(OracleStream::kChunkRecords + 1).seq,
              OracleStream::kChunkRecords + 1);
}

TEST(OracleStream, MaxInstsTruncates)
{
    prog::Program p = countdownProgram(1000);
    OracleStream stream(p, nullptr, 50);
    EXPECT_TRUE(stream.available(49));
    EXPECT_FALSE(stream.available(50));
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.endSeq(), 50u);
}

TEST(OracleStream, CaptureHoldsAtMostTwoChunksWhenTrimmed)
{
    // li + (addi, bne) x30000 + halt = 60002 records. A consumer
    // that trims as it reads keeps the capture to the chunk it is in
    // plus, at a boundary, the one just behind it.
    prog::Program p = countdownProgram(30000);
    OracleStream stream(p, nullptr);
    InstSeq seq = 0;
    std::size_t peak = 0;
    for (; stream.available(seq); ++seq) {
        EXPECT_EQ(stream.get(seq).seq, seq);
        peak = std::max(peak, stream.bufferedCount());
        stream.trim(seq);
    }
    EXPECT_EQ(seq, 60002u);
    EXPECT_EQ(stream.endSeq(), 60002u);
    EXPECT_LE(peak, 2 * OracleStream::kChunkRecords);
    EXPECT_GT(peak, OracleStream::kChunkRecords);
}

TEST(OracleStream, OutputCoversTheBudget)
{
    // Each iteration prints one integer: the stream's output is what
    // the records up to the budget printed, and no more.
    using namespace prog::reg;
    prog::Program p;
    prog::Assembler a(p);
    a.li(t0, 3000);
    a.label("loop");
    a.addi(a0, t0, 0);
    a.syscall(isa::Syscall::PrintInt);
    a.addi(t0, t0, -1);
    a.bne(t0, zero, "loop");
    a.halt();
    a.finalize();

    for (InstSeq budget : {InstSeq(0), InstSeq(5000)}) {
        OracleStream stream(p, nullptr, budget);
        InstSeq seq = 0;
        while (stream.available(seq))
            stream.trim(seq++);
        func::FuncSim sim(p);
        sim.run(budget ? budget : ~InstSeq(0));
        EXPECT_EQ(seq, sim.retired());
        EXPECT_EQ(stream.output(), sim.output()) << "budget " << budget;
    }
}

TEST(OracleStreamDeath, TrimmedAccessPanics)
{
    prog::Program p = countdownProgram(3000);
    OracleStream stream(p, nullptr);
    ASSERT_TRUE(stream.available(6001));
    stream.trim(OracleStream::kChunkRecords);
    // get() itself only asserts in debug builds; the probe is the
    // guaranteed diagnostic in every build type.
    EXPECT_DEATH(stream.available(2), "trimmed");
}

} // namespace
} // namespace ooo
} // namespace dscalar
