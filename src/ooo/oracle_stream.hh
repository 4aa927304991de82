/**
 * @file
 * Shared dynamic-instruction stream.
 *
 * One oracle produces the true dynamic stream; every node's
 * out-of-order core consumes it through a cursor. This models two
 * things at once: the perfect branch prediction the paper assumes
 * (Section 4.2), and the SPSD property that all DataScalar nodes
 * execute the identical instruction stream.
 *
 * The records come from one producer, chunk by chunk: each
 * func::InstTrace::Chunk is expanded into buffered DynInst records
 * and dropped. A stream built without a trace owns a
 * func::TraceCapture that executes the program one chunk ahead of
 * the fastest consumer (one-shot runs); a stream built over a
 * captured func::InstTrace takes its chunks from that trace, so a
 * sweep re-running the same workload never re-executes it
 * functionally (see driver::TraceCache).
 *
 * Buffered records live in fixed-size chunks; trim() releases whole
 * chunks once every consumer is past them, so a run of any length
 * holds only a couple of chunks.
 */

#ifndef DSCALAR_OOO_ORACLE_STREAM_HH
#define DSCALAR_OOO_ORACLE_STREAM_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"

namespace dscalar {
namespace ooo {

/** Lazily extended window over the dynamic stream, buffered in
 *  whole chunks. */
class OracleStream
{
  public:
    /** Buffered records per chunk; matches the trace chunking so a
     *  buffered chunk expands from exactly one source chunk. */
    static constexpr unsigned kChunkShift = func::InstTrace::kChunkShift;
    static constexpr InstSeq kChunkRecords = func::InstTrace::kChunkRecords;
    static constexpr InstSeq kChunkMask = func::InstTrace::kChunkMask;

    /**
     * @param program executed by a private func::TraceCapture when
     *        @p trace is null
     * @param trace a captured stream to expand instead, with no
     *        functional execution
     * @param max_insts truncate the stream after this many dynamic
     *        instructions (0 = run the program to completion). The
     *        paper runs "100 million instructions or to completion,
     *        whichever came first".
     */
    OracleStream(const prog::Program &program,
                 std::shared_ptr<const func::InstTrace> trace,
                 InstSeq max_insts = 0);

    /**
     * @return true when instruction @p seq exists (extending the
     * stream as needed); false once the program ends earlier.
     */
    bool
    available(InstSeq seq)
    {
        // Hot path: the record is already buffered (the cores poll
        // this every tick for every fetch/issue candidate).
        if (seq >= chunkStart_ && seq < limit_)
            return true;
        return extend(seq);
    }

    /** The record for @p seq; available(seq) must have returned
     *  true. Bounds are asserted only in debug builds — this is the
     *  cores' per-fetch hot path. */
    const func::DynInst &
    get(InstSeq seq) const
    {
#ifndef NDEBUG
        panic_if(seq < chunkStart_ || seq >= limit_,
                 "stream record %llu not buffered (chunk base %llu, "
                 "limit %llu)",
                 (unsigned long long)seq,
                 (unsigned long long)chunkStart_,
                 (unsigned long long)limit_);
#endif
        InstSeq off = seq - chunkStart_;
        return chunks_[off >> kChunkShift][off & kChunkMask];
    }

    /** Release records below @p min_seq (all consumers are past
     *  them). Whole chunks only: records in the chunk containing
     *  @p min_seq stay buffered. */
    void trim(InstSeq min_seq);

    /** True once the program end has been discovered inside the
     *  stream (an available() probe reached it). */
    bool ended() const { return ended_; }

    /** One past the last instruction; valid only when ended(). */
    InstSeq endSeq() const { return end_; }

    /** Records currently buffered (chunk-granular after trim). */
    std::size_t
    bufferedCount() const
    {
        return static_cast<std::size_t>(limit_ - chunkStart_);
    }

    /** Program output (Print* syscalls) of the stream: once the
     *  stream has ended, exactly the bytes its records printed. */
    const std::string &
    output() const
    {
        return capture_ ? capture_->output() : traceOutput_;
    }

  private:
    /** Slow path of available(): expand source chunks until @p seq
     *  is buffered or the stream ends. */
    bool extend(InstSeq seq);

    /** The next source chunk, or null when the source has no more. */
    std::shared_ptr<const func::InstTrace::Chunk> nextSourceChunk();

    /** True once the source has delivered the program's halt. */
    bool sourceHalted() const;

    /** Owned producer; null when expanding a captured trace. */
    std::unique_ptr<func::TraceCapture> capture_;
    /** The captured trace's chunks, each released once expanded
     *  (the stream does not pin the whole InstTrace). */
    std::vector<std::shared_ptr<const func::InstTrace::Chunk>>
        traceChunks_;
    std::size_t nextTraceChunk_ = 0;
    bool traceHalts_ = false; ///< the trace ends in a program halt
    std::string traceOutput_; ///< the trace's output for max_insts
    InstSeq stopAt_;          ///< max_insts, or no limit

    /** Buffered records: chunks_[0] starts at chunkStart_ (always a
     *  chunk multiple); only the last chunk may be partial. */
    std::deque<std::vector<func::DynInst>> chunks_;
    InstSeq chunkStart_ = 0;
    InstSeq limit_ = 0; ///< one past the highest buffered record
    bool ended_ = false;
    InstSeq end_ = 0;
};

} // namespace ooo
} // namespace dscalar

#endif // DSCALAR_OOO_ORACLE_STREAM_HH
