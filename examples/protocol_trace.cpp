/**
 * @file
 * Observability demo: trace ESP protocol events (broadcasts,
 * BSHR wakes/buffers/squashes) for a tiny run and print the full
 * per-node statistics dump.
 *
 * Usage: protocol_trace [max_events]
 */

#include <cstdio>
#include <cstdint>
#include <iostream>
#include <sstream>

#include "core/datascalar.hh"
#include "common/kv.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"

using namespace dscalar;
using namespace dscalar::prog::reg;

namespace {

prog::Program
tinyKernel()
{
    prog::Program p;
    p.name = "trace_demo";
    Addr g = p.allocGlobal(4 * prog::pageSize);
    for (Addr off = 0; off < 4 * prog::pageSize; off += 8)
        p.poke64(g + off, off / 8);

    prog::Assembler a(p);
    a.la(s1, g);
    a.li(s2, 0);
    a.li(s0, 512);
    a.label("loop");
    a.ld(t0, s1, 0);
    a.add(s2, s2, t0);
    a.addi(s1, s1, 64); // one line per access
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.add(a0, s2, zero);
    a.syscall(isa::Syscall::PrintInt);
    a.syscall(isa::Syscall::Exit);
    a.halt();
    a.finalize();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t max_events = 24;
    if (argc > 1 && !common::kv::parseU64(argv[1], max_events)) {
        std::fprintf(stderr, "usage: protocol_trace [max-events]\n");
        return 2;
    }

    prog::Program p = tinyKernel();
    core::SimConfig cfg = driver::paperConfig();
    cfg.numNodes = 2;
    core::DataScalarSystem sys(p, cfg,
                               driver::figure7PageTable(p, 2));

    std::ostringstream trace;
    TextTraceSink sink(trace);
    sys.setTraceSink(&sink);
    sys.run();

    std::printf("first %llu protocol events:\n",
                (unsigned long long)max_events);
    std::istringstream lines(trace.str());
    std::string line;
    for (std::uint64_t i = 0; i < max_events && std::getline(lines, line);
         ++i) {
        std::printf("  %s\n", line.c_str());
    }

    std::printf("\nfull statistics dump:\n");
    sys.dumpStats(std::cout);
    return 0;
}
