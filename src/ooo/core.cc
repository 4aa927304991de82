#include "ooo/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "prog/layout.hh"

namespace dscalar {
namespace ooo {

using isa::OpClass;

Cycle
CoreParams::opLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu: return intAluLat;
      case OpClass::IntMul: return intMulLat;
      case OpClass::IntDiv: return intDivLat;
      case OpClass::FpAdd: return fpAddLat;
      case OpClass::FpMul: return fpMulLat;
      case OpClass::FpDiv: return fpDivLat;
      case OpClass::Ctrl: return 1;
      default: return 1;
    }
}

unsigned
CoreParams::fuPool(OpClass cls)
{
    switch (cls) {
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return 1;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return 2;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return 3;
      default:
        return 0; // simple ALU / control / misc
    }
}

OoOCore::OoOCore(const CoreParams &params, OracleStream &stream,
                 MemBackend &backend)
    : params_(params), stream_(stream), backend_(backend),
      backendMayStall_(backend.fetchesMayStall()),
      icache_(params.icache), dcache_(params.dcache)
{
    fatal_if(params_.ruuEntries == 0, "RUU must have entries");
    fatal_if(params_.lsqEntries == 0, "LSQ must have entries");
    std::fill(std::begin(lastWriter_), std::end(lastWriter_), 0);

    std::size_t ring = std::bit_ceil(std::size_t{params_.ruuEntries});
    window_.resize(ring);
    windowStores_.resize(ring);
    windowMask_ = ring - 1;

    // TLBs: one fully associative set of page-granular entries.
    auto make_tlb = [](unsigned entries) {
        return std::make_unique<mem::Cache>(mem::CacheParams{
            entries * prog::pageSize, entries,
            static_cast<unsigned>(prog::pageSize), true});
    };
    if (params_.dtlbEntries)
        dtlb_ = make_tlb(params_.dtlbEntries);
    if (params_.itlbEntries)
        itlb_ = make_tlb(params_.itlbEntries);
}

Cycle
OoOCore::tlbPenalty(mem::Cache *tlb, Addr addr,
                    std::uint64_t &miss_stat)
{
    if (!tlb)
        return 0;
    if (tlb->access(addr, false).hit)
        return 0;
    ++miss_stat;
    return params_.tlbWalkCycles;
}

void
OoOCore::tick(Cycle now)
{
    if (done_)
        return;
    tickProgressed_ = false;
    processCompletions(now);
    doCommit(now);
    doIssue(now);
    doFetch(now);
}

Cycle
OoOCore::nextEventCycle(Cycle now) const
{
    if (done_)
        return cycleMax;

    // Fast path: a tick that completed, committed, issued, or
    // dispatched anything may well act again next cycle. now + 1 is
    // always a conservative answer, and skipping the full scan below
    // keeps the query O(1) on busy cores, where it would otherwise
    // re-do most of the issue stage's work every cycle. Stalled
    // cores — the case skipping exists for — take the precise path.
    if (tickProgressed_)
        return now + 1;

    // An empty window resolves within one tick: either fetch refills
    // it, or doCommit's empty-window probe discovers the end of a
    // truncated stream and flips done_.
    if (windowSize() == 0)
        return now + 1;

    // Commit: the head is complete but this cycle's commit width ran
    // out before reaching it.
    if (uop(nextCommitSeq_).completed)
        return now + 1;

    // Issue: a ready uop that is not waiting on a store address or an
    // MSHR entry can issue next cycle — FU pools and issue width are
    // per-cycle budgets. Blocked loads unblock only through events
    // that are themselves tracked: the blocking store issuing (it is
    // ready, or becomes so via a completion), a commit freeing a DCUB
    // entry, or an external fill (which re-ticks the core anyway).
    for (InstSeq seq : readyList_) {
        const Uop &u = uop(seq);
        if (!u.isLoad || (!loadBlockedByStore(u) && !mshrStalled(u) &&
                          !backendStalled(u)))
            return now + 1;
    }
    for (InstSeq seq : parkedLoads_) {
        const Uop &u = uop(seq);
        if (loadBlockedByStore(u))
            break; // so is every younger parked load
        if (!mshrStalled(u) && !backendStalled(u))
            return now + 1;
    }

    Cycle next = cycleMax;

    // Scheduled completions: FU latencies, cache hits, arrived fills.
    if (!completionEvents_.empty())
        next = completionEvents_.top().when;

    // Fetch.
    if (!fetchEnded_) {
        if (now < fetchStallUntil_) {
            next = std::min(next, fetchStallUntil_);
        } else if (windowSize() < params_.ruuEntries) {
            if (!stream_.available(nextFetchSeq_))
                return now + 1; // a tick must discover the stream end
            const func::DynInst &di = stream_.get(nextFetchSeq_);
            if (!di.inst.isMem() || lsqOccupancy_ < params_.lsqEntries)
                return now + 1;
            // LSQ full on a memory instruction: dispatch resumes only
            // after a commit, which a completion or fill must unblock.
        }
        // Window full: same — fetch resumes only after a commit.
    }

    return std::max(next, now + 1);
}

void
OoOCore::scheduleCompletion(InstSeq seq, Cycle when)
{
    completionEvents_.push(
        CompletionEvent{when, completionOrder_++, seq});
}

void
OoOCore::processCompletions(Cycle now)
{
    while (!completionEvents_.empty() &&
           completionEvents_.top().when <= now) {
        CompletionEvent e = completionEvents_.top();
        completionEvents_.pop();
        tickProgressed_ = true;
        complete(e.seq, e.when);
    }
}

void
OoOCore::complete(InstSeq seq, Cycle now)
{
    Uop &u = uop(seq);
    panic_if(u.completed, "double completion of %llu",
             (unsigned long long)seq);
    u.completed = true;
    u.readyAt = now;
    for (InstSeq consumer : u.consumers) {
        Uop &c = uop(consumer);
        panic_if(c.waitCount == 0, "consumer waitCount underflow");
        if (--c.waitCount == 0 && !c.issued)
            insertReady(consumer);
    }
    u.consumers.clear();
}

// -------------------------------------------------------------------
// Commit
// -------------------------------------------------------------------

void
OoOCore::doCommit(Cycle now)
{
    // A truncated stream's end may only be discovered by the fetch
    // probe that runs *after* the final commit (tiny windows): catch
    // up here, or the core would never report done.
    if (windowSize() == 0 && stream_.ended() &&
        nextCommitSeq_ == stream_.endSeq()) {
        done_ = true;
        return;
    }
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        if (windowSize() == 0)
            return;
        Uop &u = uop(nextCommitSeq_);
        if (!u.completed || u.readyAt > now)
            return;

        if (!params_.perfectData) {
            if (u.isLoad)
                commitLoad(u, now);
            else if (u.isStore)
                commitStore(u, now);
        } else if (u.usesDcub) {
            releaseDcubUser(u.lineAddr);
        }

        ++stats_.committed;
        tickProgressed_ = true;
        if (u.isLoad)
            ++stats_.loads;
        if (u.isStore) {
            ++stats_.stores;
            panic_if(storeHead_ == storeTail_ ||
                         windowStores_[storeHead_ & windowMask_] != u.seq,
                     "store queue out of sync");
            ++storeHead_;
        }
        if (u.isLoad || u.isStore) {
            panic_if(lsqOccupancy_ == 0, "LSQ underflow");
            --lsqOccupancy_;
        }

        ++nextCommitSeq_;

        if (stream_.ended() && nextCommitSeq_ == stream_.endSeq()) {
            done_ = true;
            return;
        }
    }
}

void
OoOCore::commitLoad(Uop &u, Cycle now)
{
    mem::CacheAccessResult res = dcache_.access(u.lineAddr, false);
    if (res.hit) {
        if (!u.issueHit) {
            ++stats_.falseMisses;
            if (traceSink_) {
                traceSink_->event({traceNode_, now,
                                   TraceEventKind::FalseMiss,
                                   u.lineAddr});
            }
        }
    } else {
        ++stats_.canonicalLoadMisses;
        if (u.issueHit) {
            ++stats_.falseHits;
            if (traceSink_) {
                traceSink_->event({traceNode_, now,
                                   TraceEventKind::FalseHit,
                                   u.lineAddr});
            }
        }
        if (res.evicted && res.victimDirty) {
            ++stats_.dirtyWriteBacks;
            backend_.writeBack(res.victimAddr, now);
        }
        DcubEntry *e = findDcub(u.lineAddr);
        if (e && !e->claimed) {
            // The one fetch this node performed for this line
            // episode is assigned to this (canonical) miss.
            e->claimed = true;
        } else {
            // Pure false hit: this node never fetched the line this
            // episode. Owners repair with a reparative broadcast;
            // non-owners squash the incoming one.
            ++stats_.unclaimedRepairs;
            backend_.onUnclaimedCanonicalMiss(u.lineAddr, now);
        }
    }
    if (u.usesDcub)
        releaseDcubUser(u.lineAddr);
}

void
OoOCore::commitStore(Uop &u, Cycle now)
{
    // Stores translate at commit; the refill is modelled, the walk
    // latency is off the critical path (stores are not waited on).
    tlbPenalty(dtlb_.get(), u.effAddr, stats_.dtlbMisses);
    mem::CacheAccessResult res = dcache_.access(u.lineAddr, true);
    if (res.hit)
        return;
    ++stats_.storeCommitMisses;
    if (res.allocated) {
        // Write-allocate policy (ablation): the line must be fetched
        // just to be overwritten -- the inter-processor message the
        // paper's write-noallocate choice avoids. A store-allocate
        // is a canonical miss like any other: it claims an in-flight
        // load fetch for the same line if one exists, else raises
        // the fetch itself.
        if (res.evicted && res.victimDirty) {
            ++stats_.dirtyWriteBacks;
            backend_.writeBack(res.victimAddr, now);
        }
        DcubEntry *e = findDcub(u.lineAddr);
        if (e && !e->claimed)
            e->claimed = true;
        else
            backend_.onUnclaimedCanonicalMiss(u.lineAddr, now);
    } else {
        // Write-noallocate: the word is written through to memory.
        backend_.storeMiss(u.lineAddr, now);
    }
}

OoOCore::DcubEntry *
OoOCore::findDcub(Addr line)
{
    for (std::size_t i = 0; i < dcubLive_; ++i) {
        if (dcub_[i].line == line)
            return &dcub_[i];
    }
    return nullptr;
}

void
OoOCore::releaseDcubUser(Addr line)
{
    DcubEntry *e = findDcub(line);
    panic_if(!e, "DCUB entry for 0x%llx missing",
             (unsigned long long)line);
    panic_if(e->users == 0, "DCUB user underflow");
    if (--e->users == 0) {
        panic_if(!e->waiters.empty(), "DCUB freed with waiters");
        panic_if(e->pending, "DCUB freed while pending");
        panic_if(!e->claimed && !params_.perfectData,
                 "DCUB entry for 0x%llx freed unclaimed",
                 (unsigned long long)line);
        // Swap the last live entry into the hole; the freed slot
        // moves past dcubLive_ with its waiters' capacity.
        DcubEntry &last = dcub_[--dcubLive_];
        if (e != &last)
            std::swap(*e, last);
    }
}

// -------------------------------------------------------------------
// Issue
// -------------------------------------------------------------------

bool
OoOCore::loadBlockedByStore(const Uop &u) const
{
    // Dispatch pushes stores in ascending seq and issue erases in
    // place, so the front is always the oldest unknown address.
    return !unknownAddrStores_.empty() &&
           unknownAddrStores_.front() < u.seq;
}

bool
OoOCore::mshrStalled(const Uop &u) const
{
    // A load that would start a new line fill must wait for a free
    // MSHR/DCUB entry (merging loads may proceed). The oldest
    // instruction always bypasses the limit: without this reserve,
    // two nodes whose MSHRs are full of waits on each other's
    // broadcasts deadlock.
    return params_.maxOutstandingFills != 0 &&
           u.seq != nextCommitSeq_ &&
           dcubLive_ >= params_.maxOutstandingFills &&
           !params_.perfectData && !findDcub(u.lineAddr) &&
           !dcache_.probe(u.lineAddr) && !forwardingStore(u);
}

bool
OoOCore::backendStalled(const Uop &u) const
{
    // Backend (hard BSHR) flow control mirrors the MSHR reserve: a
    // load that would start a new fetch waits until the backend can
    // accept one, and the oldest instruction bypasses the check so
    // forward progress survives a full bank.
    return backendMayStall_ && u.seq != nextCommitSeq_ &&
           !params_.perfectData && !findDcub(u.lineAddr) &&
           !dcache_.probe(u.lineAddr) && !forwardingStore(u) &&
           !backend_.canAcceptFetch(u.lineAddr);
}

const OoOCore::Uop *
OoOCore::forwardingStore(const Uop &u) const
{
    // Scan back from the youngest store older than the load.
    for (std::uint64_t i = u.olderStores; i > storeHead_;) {
        const Uop &st = uop(windowStores_[--i & windowMask_]);
        if (!st.issued)
            continue; // address unknown; caller checked blocking
        bool overlap = st.effAddr < u.effAddr + u.memSize &&
                       u.effAddr < st.effAddr + st.memSize;
        if (overlap)
            return &st;
    }
    return nullptr;
}

void
OoOCore::doIssue(Cycle now)
{
    unsigned issued = 0;
    // Per-cycle functional-unit pool budgets (0 = unlimited).
    unsigned pool_left[4] = {
        params_.intAluUnits ? params_.intAluUnits : ~0u,
        params_.intMulUnits ? params_.intMulUnits : ~0u,
        params_.fpUnits ? params_.fpUnits : ~0u,
        params_.memPorts ? params_.memPorts : ~0u,
    };
    // One pass over the ready list and the parked loads, merged in
    // ascending seq, compacting out the entries that issue; entries
    // that stay keep their order. unknownAddrStores_.front() only rises during the
    // pass, so once a parked load is still blocked every younger one
    // is too and the parked side stops there.
    std::size_t r_in = 0, r_out = 0, p_in = 0, p_out = 0;
    std::size_t p_end = parkedLoads_.size();
    newlyParked_.clear();
    while (issued < params_.issueWidth) {
        bool has_r = r_in < readyList_.size();
        bool has_p = p_in < p_end;
        if (!has_r && !has_p)
            break;
        bool parked =
            has_p && (!has_r || parkedLoads_[p_in] < readyList_[r_in]);
        InstSeq seq = parked ? parkedLoads_[p_in++] : readyList_[r_in++];
        Uop &u = uop(seq);
        panic_if(u.issued, "ready list holds issued uop");

        if (u.isLoad && loadBlockedByStore(u)) {
            if (parked)
                p_end = --p_in;
            else
                newlyParked_.push_back(seq);
            continue;
        }

        // A stalled entry stays on its list, in order.
        auto stay = [&] {
            if (parked)
                parkedLoads_[p_out++] = seq;
            else
                readyList_[r_out++] = seq;
        };

        // Each stalled load counts once: the number of issue passes
        // that see it would depend on the run-loop mode.
        if (u.isLoad && mshrStalled(u)) {
            stats_.mshrStallEvents += !u.mshrStallCounted;
            u.mshrStallCounted = true;
            stay();
            continue;
        }

        if (u.isLoad && backendStalled(u)) {
            stats_.backendStallEvents += !u.backendStallCounted;
            u.backendStallCounted = true;
            stay();
            continue;
        }

        unsigned pool = CoreParams::fuPool(u.cls);
        if (pool_left[pool] == 0) {
            stay();
            continue;
        }
        --pool_left[pool];

        u.issued = true;
        if (u.isLoad) {
            issueLoad(u, now);
        } else if (u.isStore) {
            auto st = std::find(unknownAddrStores_.begin(),
                                unknownAddrStores_.end(), u.seq);
            panic_if(st == unknownAddrStores_.end(),
                     "issuing store missing from address queue");
            unknownAddrStores_.erase(st);
            scheduleCompletion(u.seq, now + 1);
        } else {
            scheduleCompletion(u.seq, now + params_.opLatency(u.cls));
        }
        ++issued;
        tickProgressed_ = true;
    }
    // Close the gaps left by issued entries; everything not visited
    // stays, in order.
    readyList_.erase(readyList_.begin() + r_out,
                     readyList_.begin() + r_in);
    parkedLoads_.erase(parkedLoads_.begin() + p_out,
                       parkedLoads_.begin() + p_in);
    // Merge the newly parked loads in from the back; most are younger
    // than every load already parked, so this is usually an append.
    std::size_t i = parkedLoads_.size();
    std::size_t j = newlyParked_.size();
    parkedLoads_.resize(i + j);
    for (std::size_t k = i + j; j > 0;) {
        if (i > 0 && parkedLoads_[i - 1] > newlyParked_[j - 1])
            parkedLoads_[--k] = parkedLoads_[--i];
        else
            parkedLoads_[--k] = newlyParked_[--j];
    }
}

void
OoOCore::issueLoad(Uop &u, Cycle now)
{
    // Store-to-load forwarding: single cycle from the LSQ.
    if (const Uop *st = forwardingStore(u)) {
        (void)st;
        ++stats_.forwardedLoads;
        ++stats_.loadIssueHits;
        u.issueHit = true;
        scheduleCompletion(u.seq, now + 1);
        return;
    }

    if (params_.perfectData) {
        u.issueHit = true;
        scheduleCompletion(u.seq, now + params_.l1Latency);
        return;
    }

    // Address translation: a dTLB miss walks the (local, replicated)
    // page table before the cache access can start.
    Cycle mnow =
        now + tlbPenalty(dtlb_.get(), u.effAddr, stats_.dtlbMisses);

    // In-flight line in the DCUB: the episode's one miss already
    // belongs to the fetch initiator; this access merges.
    if (DcubEntry *e = findDcub(u.lineAddr)) {
        u.usesDcub = true;
        u.issueHit = true;
        ++e->users;
        ++stats_.loadIssueHits;
        if (e->pending)
            e->waiters.push_back(u.seq);
        else
            scheduleCompletion(u.seq, std::max(mnow + 1, e->readyAt));
        return;
    }

    // Commit-updated tag array.
    if (dcache_.probe(u.lineAddr)) {
        u.issueHit = true;
        ++stats_.loadIssueHits;
        scheduleCompletion(u.seq, mnow + params_.l1Latency);
        return;
    }

    // Issue-time miss: allocate a DCUB entry and start the fetch.
    u.issueHit = false;
    u.usesDcub = true;
    ++stats_.loadIssueMisses;
    if (dcubLive_ == dcub_.size())
        dcub_.emplace_back();
    DcubEntry &entry = dcub_[dcubLive_++];
    entry.line = u.lineAddr;
    entry.claimed = false;
    entry.users = 1;
    FillResult fill = backend_.startLineFetch(u.lineAddr, mnow);
    if (fill.readyAt == cycleMax) {
        entry.pending = true;
        entry.readyAt = cycleMax;
        entry.waiters.push_back(u.seq);
    } else {
        entry.pending = false;
        entry.readyAt = fill.readyAt;
        scheduleCompletion(u.seq, std::max(mnow + 1, fill.readyAt));
    }
}

void
OoOCore::fillArrived(Addr line, Cycle ready_at, Cycle now)
{
    DcubEntry *e = findDcub(line);
    panic_if(!e, "fill for 0x%llx without DCUB entry",
             (unsigned long long)line);
    panic_if(!e->pending, "fill for non-pending DCUB entry 0x%llx",
             (unsigned long long)line);
    e->pending = false;
    e->readyAt = std::max(ready_at, now + 1);
    for (InstSeq seq : e->waiters) {
        panic_if(!inWindow(seq), "fill waiter %llu not in window",
                 (unsigned long long)seq);
        scheduleCompletion(seq, e->readyAt);
    }
    e->waiters.clear();
}

bool
OoOCore::hasPendingFill(Addr line) const
{
    const DcubEntry *e = findDcub(line);
    return e && e->pending;
}

// -------------------------------------------------------------------
// Fetch / dispatch
// -------------------------------------------------------------------

void
OoOCore::doFetch(Cycle now)
{
    if (fetchEnded_ || now < fetchStallUntil_)
        return;

    for (unsigned f = 0; f < params_.fetchWidth; ++f) {
        if (windowSize() >= params_.ruuEntries)
            return;
        if (!stream_.available(nextFetchSeq_)) {
            fetchEnded_ = true;
            return;
        }
        const func::DynInst &di = stream_.get(nextFetchSeq_);

        if (di.inst.isMem() && lsqOccupancy_ >= params_.lsqEntries)
            return;

        Addr iline = icache_.lineAlign(di.pc);
        if (iline != lastFetchLine_) {
            Cycle itlb_pen =
                tlbPenalty(itlb_.get(), di.pc, stats_.itlbMisses);
            bool hit = icache_.probe(iline);
            icache_.access(iline, false);
            lastFetchLine_ = iline;
            if (!hit) {
                ++stats_.icacheMisses;
                fetchStallUntil_ =
                    backend_.fetchInstLine(iline, now + itlb_pen);
                return;
            }
            if (itlb_pen) {
                fetchStallUntil_ = now + itlb_pen;
                return;
            }
        }

        // Dispatch into the RUU: reset the ring slot in place, keeping
        // the (empty) consumers vector's capacity.
        InstSeq seq = di.seq;
        Uop &u = window_[seq & windowMask_];
        std::vector<InstSeq> consumers = std::move(u.consumers);
        u = Uop{};
        u.consumers = std::move(consumers);
        u.seq = seq;
        u.inst = di.inst;
        u.cls = di.inst.info().opClass;
        u.isLoad = di.inst.isLoad();
        u.isStore = di.inst.isStore();
        if (u.isLoad || u.isStore) {
            u.effAddr = di.effAddr;
            u.memSize = di.memSize;
            u.lineAddr = dcache_.lineAlign(di.effAddr);
        }
        u.olderStores = storeTail_;

        RegIndex srcs[2];
        int nsrc = di.inst.srcRegs(srcs);
        for (int i = 0; i < nsrc; ++i) {
            InstSeq lw = lastWriter_[srcs[i]];
            if (lw != 0 && lw - 1 >= nextCommitSeq_) {
                Uop &producer = uop(lw - 1);
                if (!producer.completed) {
                    producer.consumers.push_back(seq);
                    ++u.waitCount;
                }
            }
        }

        int dest = di.inst.destReg();
        if (dest >= 0)
            lastWriter_[dest] = seq + 1;
        if (u.isStore) {
            windowStores_[storeTail_++ & windowMask_] = seq;
            unknownAddrStores_.push_back(seq);
        }
        if (u.isLoad || u.isStore)
            ++lsqOccupancy_;
        if (u.waitCount == 0)
            readyList_.push_back(seq); // seq is the window maximum

        ++nextFetchSeq_;
        tickProgressed_ = true;
    }
}

} // namespace ooo
} // namespace dscalar
