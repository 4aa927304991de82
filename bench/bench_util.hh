/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 *
 * Instruction budgets are scaled down from the paper's 100M-per-run
 * (their runs took machine-days in 1997); the BENCH_SCALE environment
 * variable multiplies every budget for longer, higher-fidelity runs.
 */

#ifndef DSCALAR_BENCH_BENCH_UTIL_HH
#define DSCALAR_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "common/kv.hh"
#include "common/types.hh"

namespace dscalar {
namespace bench {

/** Positive integer from environment variable @p name, or
 *  @p fallback when it is unset. Anything else — junk, a sign, zero,
 *  an overflow — prints a message and exits 2. */
inline unsigned
envCount(const char *name, unsigned fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    std::uint64_t v = 0;
    if (!common::kv::parseU64(env, v) || v == 0 ||
        v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "%s: expected a positive integer, got '%s'\n",
                     name, env);
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

/** Budget multiplier from the BENCH_SCALE environment variable. */
inline unsigned
benchScale()
{
    return envCount("BENCH_SCALE", 1);
}

/** Default per-run dynamic-instruction budget. */
inline InstSeq
defaultBudget(InstSeq base)
{
    return base * benchScale();
}

/**
 * Worker count for parallel experiment sweeps: the BENCH_JOBS
 * environment variable, defaulting to hardware concurrency. Sweep
 * output is byte-identical at any job count (results are ordered by
 * point, not by completion), so parallelism is safe to default on.
 */
inline unsigned
benchJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return envCount("BENCH_JOBS", hw ? hw : 1);
}

/** Banner naming the experiment and its provenance in the paper. */
inline void
banner(const char *experiment_id, const char *description)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s -- %s\n", experiment_id, description);
    std::printf("DataScalar Architectures (ISCA 1997) "
                "reproduction\n");
    std::printf("==============================================="
                "=====================\n\n");
}

} // namespace bench
} // namespace dscalar

#endif // DSCALAR_BENCH_BENCH_UTIL_HH
