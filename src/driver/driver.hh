/**
 * @file
 * Experiment driver: shared machinery for the bench binaries,
 * examples, and integration tests — page-heat profiling, the Table 1
 * ESP traffic study and the Table 2 datathread-length study (each a
 * single pass over a captured func::InstTrace), the Figure 7 page
 * distribution, and the Figure 7 IPC matrix. Timing runs go through
 * RunRequest + runOne/runMany (driver/run_request.hh).
 */

#ifndef DSCALAR_DRIVER_DRIVER_HH
#define DSCALAR_DRIVER_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/datascalar.hh"
#include "core/distribution.hh"
#include "core/sim_config.hh"
#include "baseline/perfect.hh"
#include "baseline/traditional.hh"
#include "driver/run_request.hh"
#include "driver/trace_cache.hh"
#include "func/inst_trace.hh"
#include "obs/sampler.hh"
#include "prog/program.hh"
#include "stats/table.hh"

namespace dscalar {
namespace driver {

// paperConfig, SystemKind, the name/parse helpers, and the
// RunRequest/RunResponse runOne/runMany API live in
// driver/run_request.hh (re-exported by the include above).

/** The Table 1 / Section 3 study cache: 64 KB two-way 32 B lines,
 *  write-allocate write-back. */
mem::CacheParams table1CacheParams();

/** Per-page access counts (instruction and data) of a captured
 *  trace, for hot-page replication decisions. */
core::PageHeat profilePages(const func::InstTrace &trace);

// -------------------------------------------------------------------
// Table 1: off-chip traffic eliminated by ESP
// -------------------------------------------------------------------

/** Traffic decomposition of an in-order cache-filtered run. */
struct TrafficResult
{
    std::uint64_t requestBytes = 0;
    std::uint64_t responseBytes = 0;
    std::uint64_t writeBackBytes = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t writeBacks = 0;

    std::uint64_t
    totalBytes() const
    {
        return requestBytes + responseBytes + writeBackBytes;
    }
    std::uint64_t
    totalTransactions() const
    {
        return requests + responses + writeBacks;
    }
    /** Fraction of bytes ESP removes (requests + write-backs). */
    double bytesEliminated() const;
    /** Fraction of transactions ESP removes. */
    double transactionsEliminated() const;
};

/**
 * Replay @p trace's data accesses through an in-order cache (64 KB
 * 2-way write-allocate write-back by default, the Table 1 cache) and
 * decompose the resulting off-chip traffic.
 */
TrafficResult measureEspTraffic(const func::InstTrace &trace,
                                const mem::CacheParams &dcache =
                                    table1CacheParams());

// -------------------------------------------------------------------
// Table 2: datathread-length approximation
// -------------------------------------------------------------------

/** Arithmetic-mean run length of consecutive same-node references. */
class RunCounter
{
  public:
    /** Feed one communicated reference local to @p node. */
    void feed(NodeId node);

    double mean() const;
    std::uint64_t refs() const { return refs_; }
    std::uint64_t runs() const;

  private:
    bool active_ = false;
    NodeId curNode_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t completedRuns_ = 0;
};

/** Table 2 row: datathread approximations for one benchmark. */
struct DatathreadResult
{
    core::ReplicationReport replicated;
    double meanAll = 0.0;   ///< all cache misses
    double meanText = 0.0;  ///< instruction misses only
    double meanData = 0.0;  ///< data misses only
    double meanRepl = 0.0;  ///< contiguous replicated-page accesses
    std::uint64_t missRefs = 0;
};

/**
 * Measure datathread lengths of @p trace under the placement in
 * @p ptable: cache-filtered miss streams (paper Section 3.2 cache:
 * 64 KB two-way) attributed to owning nodes.
 */
DatathreadResult measureDatathreads(const func::InstTrace &trace,
                                    const mem::PageTable &ptable,
                                    const core::ReplicationReport &rep);

// -------------------------------------------------------------------
// Figure 7
// -------------------------------------------------------------------

/** Distribute pages for an N-node run (no static data replication,
 *  text replicated — the paper's Figure 7 setup). */
mem::PageTable figure7PageTable(const prog::Program &program,
                                unsigned num_nodes,
                                unsigned block_pages = 1);

/**
 * The Figure 7 sweep — perfect, DataScalar at 2/4 nodes, and the
 * traditional system at 1/2 and 1/4 memory — for each named
 * workload, as a formatted IPC table. All five points of every row
 * run concurrently under @p jobs. @p event_driven toggles cycle
 * skipping in every point (the table is identical either way; see
 * docs/PERF.md).
 */
stats::Table
fig7IpcTable(const std::vector<std::string> &workload_names,
             InstSeq budget, unsigned jobs = 1,
             bool event_driven = true);

} // namespace driver
} // namespace dscalar

#endif // DSCALAR_DRIVER_DRIVER_HH
