/** @file
 * Tests for the synthetic SPEC95 substitutes: every workload must
 * assemble, run to completion, produce deterministic output, and
 * exhibit the memory behaviour it was designed for.
 */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "func/func_sim.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace workloads {
namespace {

class WorkloadTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadTest, RunsToCompletion)
{
    prog::Program p = findWorkload(GetParam()).build(1);
    func::FuncSim sim(p);
    InstSeq n = sim.run(50'000'000);
    EXPECT_TRUE(sim.halted()) << p.name << " did not halt";
    EXPECT_GT(n, 10'000u) << p.name << " too short to be meaningful";
    EXPECT_FALSE(sim.output().empty()) << p.name << " printed nothing";
}

TEST_P(WorkloadTest, DeterministicOutput)
{
    prog::Program p1 = findWorkload(GetParam()).build(1);
    prog::Program p2 = findWorkload(GetParam()).build(1);
    func::FuncSim s1(p1);
    func::FuncSim s2(p2);
    s1.run(50'000'000);
    s2.run(50'000'000);
    EXPECT_EQ(s1.output(), s2.output());
    EXPECT_EQ(s1.retired(), s2.retired());
}

TEST_P(WorkloadTest, FootprintSpansManyPages)
{
    prog::Program p = findWorkload(GetParam()).build(1);
    // Enough pages that a 4-node distribution is meaningful (li_s is
    // deliberately the smallest -- the paper replicates most of it).
    EXPECT_GE(p.touchedPages().size(), 20u) << p.name;
}

TEST_P(WorkloadTest, ScaleGrowsWork)
{
    const Workload &w = findWorkload(GetParam());
    prog::Program p1 = w.build(1);
    prog::Program p2 = w.build(2);
    func::FuncSim s1(p1);
    func::FuncSim s2(p2);
    s1.run(100'000'000);
    s2.run(100'000'000);
    EXPECT_GT(s2.retired(), s1.retired()) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest,
    ::testing::Values("tomcatv_s", "swim_s", "hydro2d_s", "mgrid_s",
                      "applu_s", "m88ksim_s", "turb3d_s", "gcc_s",
                      "compress_s", "li_s", "perl_s", "fpppp_s",
                      "wave5_s", "go_s"));

TEST(WorkloadRegistry, FourteenBenchmarks)
{
    EXPECT_EQ(allWorkloads().size(), 14u);
    for (const Workload &w : allWorkloads()) {
        EXPECT_NE(w.name, nullptr);
        EXPECT_NE(w.build, nullptr);
        EXPECT_TRUE(std::string(w.kind) == "int" ||
                    std::string(w.kind) == "fp");
    }
}

TEST(WorkloadRegistry, TimingSetIsSixFromThePaper)
{
    const auto &names = timingWorkloadNames();
    EXPECT_EQ(names.size(), 6u);
    for (const auto &n : names)
        EXPECT_NO_FATAL_FAILURE(findWorkload(n));
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(findWorkload("nonesuch"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(WorkloadBehaviour, CompressIsStoreHeavy)
{
    // The paper's compress result hinges on stores ~= loads.
    prog::Program p = findWorkload("compress_s").build(1);
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    func::InstTrace::capture(p, 2'000'000)
        ->forEach([&](Addr, const isa::Instruction &inst, Addr,
                      unsigned size) {
            if (size)
                ++(inst.isStore() ? stores : loads);
        });
    EXPECT_GT(stores, loads / 2) << "stores " << stores << " loads "
                                 << loads;
}

TEST(WorkloadBehaviour, FppppHasLargeText)
{
    prog::Program p = findWorkload("fpppp_s").build(1);
    // Thousands of straight-line FP ops -> multiple text pages.
    EXPECT_GE(p.pagesInSegment(prog::Segment::Text), 4u);
}

TEST(WorkloadBehaviour, LiHasSmallDataSet)
{
    prog::Program li = findWorkload("li_s").build(1);
    prog::Program turb = findWorkload("turb3d_s").build(1);
    auto data_pages = [](const prog::Program &p) {
        return p.pagesInSegment(prog::Segment::Global) +
               p.pagesInSegment(prog::Segment::Heap);
    };
    EXPECT_LT(data_pages(li), data_pages(turb) / 4);
}

TEST(WorkloadBehaviour, FpWorkloadsUseFp)
{
    for (const Workload &w : allWorkloads()) {
        if (std::string(w.kind) != "fp")
            continue;
        prog::Program p = w.build(1);
        bool has_fp = false;
        for (std::size_t i = 0; i < p.textWords(); ++i) {
            auto inst = isa::decode(p.textWord(i));
            auto cls = inst.info().opClass;
            if (cls == isa::OpClass::FpAdd ||
                cls == isa::OpClass::FpMul ||
                cls == isa::OpClass::FpDiv) {
                has_fp = true;
                break;
            }
        }
        EXPECT_TRUE(has_fp) << w.name;
    }
}

} // namespace
} // namespace workloads
} // namespace dscalar
