#include "ooo/oracle_stream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dscalar {
namespace ooo {

OracleStream::OracleStream(const prog::Program &program,
                           std::shared_ptr<const func::InstTrace> trace,
                           InstSeq max_insts)
    : stopAt_(max_insts ? max_insts : ~static_cast<InstSeq>(0))
{
    if (!trace) {
        capture_ = std::make_unique<func::TraceCapture>(program,
                                                        max_insts);
        return;
    }
    // A budget-truncated capture only stands in for a run whose
    // budget it covers; expanding it further would silently simulate
    // fewer instructions than asked for and skew every number.
    panic_if(!trace->programHalted() &&
                 (max_insts == 0 || max_insts > trace->length()),
             "trace of %llu records (program not halted) cannot "
             "cover a max_insts=%llu run",
             (unsigned long long)trace->length(),
             (unsigned long long)max_insts);
    traceHalts_ = trace->programHalted() && trace->length() <= stopAt_;
    traceOutput_ = trace->outputPrefix(max_insts);
    traceChunks_.reserve(trace->numChunks());
    for (std::size_t i = 0; i < trace->numChunks(); ++i)
        traceChunks_.push_back(trace->chunk(i));
    // The trace itself is not retained: once a chunk is expanded (and
    // any cache lets the trace go), its memory is freed even while
    // later chunks are still to come.
}

std::shared_ptr<const func::InstTrace::Chunk>
OracleStream::nextSourceChunk()
{
    if (capture_)
        return capture_->next();
    if (nextTraceChunk_ == traceChunks_.size())
        return nullptr;
    return std::move(traceChunks_[nextTraceChunk_++]);
}

bool
OracleStream::sourceHalted() const
{
    return capture_ ? capture_->halted()
                    : traceHalts_ &&
                          nextTraceChunk_ == traceChunks_.size();
}

bool
OracleStream::extend(InstSeq seq)
{
    panic_if(seq < chunkStart_,
             "stream record %llu already trimmed (chunk base %llu)",
             (unsigned long long)seq,
             (unsigned long long)chunkStart_);

    while (!ended_ && seq >= limit_) {
        std::shared_ptr<const func::InstTrace::Chunk> src =
            limit_ < stopAt_ ? nextSourceChunk() : nullptr;
        if (!src) {
            // Budget truncation (or an exhausted source) is only
            // discovered by probing past the end.
            ended_ = true;
            end_ = limit_;
            break;
        }
        panic_if(limit_ & kChunkMask,
                 "source chunk at record %llu follows a partial one",
                 (unsigned long long)limit_);
        std::size_t n = static_cast<std::size_t>(
            std::min<InstSeq>(src->size(), stopAt_ - limit_));
        chunks_.emplace_back();
        std::vector<func::DynInst> &dst = chunks_.back();
        dst.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            src->expand(i, limit_ + i, dst.emplace_back());
        limit_ += n;
        if (n == src->size() && sourceHalted()) {
            // The halt record is buffered: the end is known without
            // a probe past it.
            ended_ = true;
            end_ = limit_;
        }
    }
    return seq < limit_;
}

void
OracleStream::trim(InstSeq min_seq)
{
    // Whole chunks only. A partial chunk is the stream's last, and
    // no consumer can be a whole chunk past its start.
    while (!chunks_.empty() && chunkStart_ + kChunkRecords <= min_seq) {
        chunks_.pop_front();
        chunkStart_ += kChunkRecords;
    }
}

} // namespace ooo
} // namespace dscalar
