/**
 * @file
 * All-local memory backend for driving a single ooo::OoOCore in
 * tests: every fetch goes to one main-memory bank array, and each
 * backend call is counted.
 */

#ifndef DSCALAR_TESTS_LOCAL_BACKEND_HH
#define DSCALAR_TESTS_LOCAL_BACKEND_HH

#include <cstdint>

#include "mem/main_memory.hh"
#include "ooo/mem_backend.hh"

namespace dscalar {
namespace ooo {

class LocalBackend : public MemBackend
{
  public:
    explicit LocalBackend(const mem::MainMemoryParams &p) : mem_(p) {}

    FillResult
    startLineFetch(Addr line, Cycle now) override
    {
        ++fetches;
        return {mem_.request(line, now), false};
    }
    void onUnclaimedCanonicalMiss(Addr, Cycle) override { ++repairs; }
    void writeBack(Addr, Cycle) override { ++writeBacks; }
    void storeMiss(Addr, Cycle) override { ++storeMisses; }
    Cycle
    fetchInstLine(Addr line, Cycle now) override
    {
        ++instFetches;
        return mem_.request(line, now);
    }

    std::uint64_t fetches = 0;
    std::uint64_t repairs = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t instFetches = 0;

  private:
    mem::MainMemory mem_;
};

} // namespace ooo
} // namespace dscalar

#endif // DSCALAR_TESTS_LOCAL_BACKEND_HH
