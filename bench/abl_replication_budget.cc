/**
 * @file
 * Ablation: static replication budget (Section 3.2).
 *
 * Replicating the hottest data pages at every node converts
 * communicated traffic into local accesses at the cost of memory
 * capacity. The sweep replicates 0%..75% of the hottest data pages
 * and reports broadcasts and IPC — the knob the paper turns in its
 * Table 2 setup.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "core/datascalar.hh"
#include "core/distribution.hh"
#include "driver/driver.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

int
main()
{
    bench::banner("Ablation: static replication budget",
                  "fraction of hottest data pages replicated, "
                  "2-node DataScalar");
    InstSeq budget = bench::defaultBudget(150'000);

    for (const char *name : {"li_s", "go_s", "compress_s"}) {
        prog::Program p = workloads::findWorkload(name).build(1);
        core::PageHeat heat =
            driver::profilePages(*func::InstTrace::capture(p, budget));
        std::size_t data_pages =
            p.touchedPages().size() -
            p.pagesInSegment(prog::Segment::Text);

        std::printf("-- %s (%zu data pages) --\n", p.name.c_str(),
                    data_pages);
        stats::Table table({"repl-pages", "IPC", "broadcasts",
                            "bus-KB"});
        for (unsigned pct : {0u, 12u, 25u, 50u, 75u}) {
            core::DistributionConfig dist;
            dist.numNodes = 2;
            dist.replicatedDataPages = data_pages * pct / 100;
            core::ReplicationReport rep;
            mem::PageTable table_pt =
                core::buildPageTable(p, dist, &heat, &rep);

            core::SimConfig cfg = driver::paperConfig();
            cfg.numNodes = 2;
            cfg.maxInsts = budget;
            core::DataScalarSystem sys(p, cfg, std::move(table_pt));
            core::RunResult r = sys.run();
            table.addRow({std::to_string(rep.total()),
                          stats::Table::num(r.ipc, 3),
                          std::to_string(sys.bus().totalMessages()),
                          std::to_string(sys.bus().totalBytes() /
                                         1024)});
        }
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf("expected: replication monotonically removes "
                "broadcasts; IPC gains are largest for codes whose "
                "hot set fits the budget (li)\n");
    return 0;
}
