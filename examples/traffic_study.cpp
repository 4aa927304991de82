/**
 * @file
 * ESP traffic study on any registered workload (the Table 1
 * methodology as a reusable tool).
 *
 * Usage: traffic_study [workload] [max_insts]
 *   workload   one of the 14 registered substitutes
 *              (default compress_s); "list" prints the registry.
 */

#include <cstdio>
#include <cstdint>
#include <iostream>

#include "common/kv.hh"
#include "driver/driver.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "compress_s";
    if (name == "list") {
        stats::Table t({"name", "SPEC95", "kind", "behaviour"});
        for (const auto &w : workloads::allWorkloads())
            t.addRow({w.name, w.spec, w.kind, w.desc});
        t.print(std::cout);
        return 0;
    }
    std::uint64_t budget = 1'000'000;
    if (argc > 2 && !common::kv::parseU64(argv[2], budget)) {
        std::fprintf(stderr, "usage: traffic_study [workload] [max_insts]\n");
        return 2;
    }

    const auto &w = workloads::findWorkload(name);
    prog::Program p = w.build(1);
    std::printf("workload: %s (substitutes SPEC95 %s)\n",
                p.name.c_str(), w.spec);
    std::printf("  %s\n\n", w.desc);

    driver::TrafficResult t =
        driver::measureEspTraffic(*func::InstTrace::capture(p, budget));

    std::printf("off-chip traffic through a 64KB/2-way/32B "
                "write-back cache:\n");
    std::printf("  requests:    %10llu msgs %10llu bytes\n",
                (unsigned long long)t.requests,
                (unsigned long long)t.requestBytes);
    std::printf("  responses:   %10llu msgs %10llu bytes\n",
                (unsigned long long)t.responses,
                (unsigned long long)t.responseBytes);
    std::printf("  writes:      %10llu msgs %10llu bytes\n",
                (unsigned long long)t.writeBacks,
                (unsigned long long)t.writeBackBytes);
    std::printf("\nESP (DataScalar) eliminates requests and writes "
                "entirely:\n");
    std::printf("  bytes eliminated:        %5.1f%%\n",
                t.bytesEliminated() * 100.0);
    std::printf("  transactions eliminated: %5.1f%%\n",
                t.transactionsEliminated() * 100.0);
    return 0;
}
