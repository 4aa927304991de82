/**
 * @file
 * Execution-driven functional simulator.
 *
 * Serves two roles, mirroring SimpleScalar's split in the paper:
 *  1. architectural oracle — through func::TraceCapture, the one
 *     producer of the true dynamic instruction stream that every
 *     DataScalar node commits (SPSD). The stream is captured whole
 *     into a func::InstTrace (sweeps, the trace store, the in-order
 *     cache studies of Tables 1-2) or chunk by chunk by a timing
 *     run's ooo::OracleStream;
 *  2. correctness reference for the timing simulators (final state
 *     and syscall output must match).
 */

#ifndef DSCALAR_FUNC_FUNC_SIM_HH
#define DSCALAR_FUNC_FUNC_SIM_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "mem/phys_mem.hh"
#include "prog/program.hh"

namespace dscalar {
namespace func {

/** One executed (retired) dynamic instruction. */
struct DynInst
{
    InstSeq seq = 0;
    Addr pc = 0;
    isa::Instruction inst;
    Addr effAddr = invalidAddr; ///< memory ops only
    unsigned memSize = 0;       ///< bytes, memory ops only
    Addr nextPc = 0;            ///< resolved next PC (perfect prediction)
};

/** ISA interpreter over a private PhysMem. */
class FuncSim
{
  public:
    explicit FuncSim(const prog::Program &program);

    /** @return false once HALT or SYSCALL(Exit) has retired. */
    bool halted() const { return halted_; }

    /** Architectural register read (r0 reads as zero). */
    std::uint64_t reg(RegIndex index) const { return regs_[index]; }
    Addr pc() const { return pc_; }
    InstSeq retired() const { return retired_; }

    /** Bytes written by Print* syscalls, in program order. */
    const std::string &output() const { return output_; }

    mem::PhysMem &memory() { return mem_; }
    const mem::PhysMem &memory() const { return mem_; }

    /**
     * Execute one instruction; no-op when halted.
     * @param out optional record of the executed instruction.
     * @return true when an instruction was executed.
     */
    bool step(DynInst *out = nullptr);

    /**
     * Run to completion or until @p max_insts more instructions.
     * @return number of instructions executed.
     */
    InstSeq run(InstSeq max_insts = ~static_cast<InstSeq>(0));

  private:
    std::uint64_t readReg(RegIndex index) const { return regs_[index]; }
    void writeReg(RegIndex index, std::uint64_t value);
    void doSyscall(std::int32_t code);

    /** Fetch + decode @p pc through the decode cache. */
    const isa::Instruction &fetchDecode(Addr pc);
    /** Drop cached decodes covered by a store (self-modifying code). */
    void invalidateDecode(Addr addr, unsigned size);

    mem::PhysMem mem_;
    std::uint64_t regs_[32] = {};
    Addr pc_;
    bool halted_ = false;
    InstSeq retired_ = 0;
    std::string output_;

    // Direct-mapped decoded-instruction cache: the interpreter spends
    // much of its time re-reading and re-decoding the same static
    // instructions. Stores invalidate overlapping slots, so
    // self-modifying code still refetches.
    static constexpr std::size_t kDecodeSlots = 4096;
    struct DecodeSlot
    {
        Addr pc = invalidAddr;
        isa::Instruction inst;
    };
    DecodeSlot decodeCache_[kDecodeSlots];
};

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_FUNC_SIM_HH
