/**
 * @file
 * The out-of-order core's steady state allocates nothing: the RUU
 * ring, the store ring, the parked-load list and the DCUB slots all
 * reuse their storage once warm. Proven by counting operator new
 * calls while a core in the paper's configuration runs a turb3d_s
 * replay stream that was extended to its end beforehand (so stream
 * growth is not counted).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "func/inst_trace.hh"
#include "local_backend.hh"
#include "ooo/core.hh"
#include "ooo/oracle_stream.hh"
#include "workloads/workloads.hh"

// --- allocation counting ------------------------------------------
// Replace the global allocator with a counting passthrough; the test
// samples the counter around the region under test.

static std::atomic<std::uint64_t> g_new_calls{0};

void *
operator new(std::size_t size)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dscalar {
namespace ooo {
namespace {

TEST(OoOCoreAlloc, SteadyStateAllocatesNothing)
{
    constexpr InstSeq kWarmInsts = 5'000;
    constexpr InstSeq kCountedInsts = 20'000;
    // Headroom past the counted region keeps fetch short of the
    // stream's end while counting.
    constexpr InstSeq kTraceInsts = kWarmInsts + kCountedInsts + 2'000;

    prog::Program program = workloads::findWorkload("turb3d_s").build(1);
    auto trace = func::InstTrace::capture(program, kTraceInsts);
    ASSERT_EQ(trace->length(), kTraceInsts);
    OracleStream stream(program, trace, kTraceInsts);
    ASSERT_TRUE(stream.available(kTraceInsts - 1));

    LocalBackend backend{mem::MainMemoryParams{}};
    OoOCore core(CoreParams{}, stream, backend);
    Cycle now = 0;
    auto run_until = [&](InstSeq committed) {
        while (core.committedSeq() < committed && !core.done())
            core.tick(now++);
    };

    run_until(kWarmInsts);
    std::uint64_t before = g_new_calls.load();
    run_until(kWarmInsts + kCountedInsts);
    std::uint64_t allocs = g_new_calls.load() - before;

    ASSERT_FALSE(core.done());
    EXPECT_GE(core.committedSeq(), kWarmInsts + kCountedInsts);
    EXPECT_EQ(allocs, 0u);
    // The counted region exercised the structures that must reuse
    // storage: stores, and loads that allocated DCUB entries.
    EXPECT_GT(core.coreStats().stores, 0u);
    EXPECT_GT(core.coreStats().loadIssueMisses, 0u);
}

} // namespace
} // namespace ooo
} // namespace dscalar
