/**
 * @file
 * dsperf entry point.
 *
 * Usage:
 *   dsperf --workload=ds_single|fig_sweep|serve_open --seed=N
 *          --seconds=S --trace=0|1 --dsserve=PATH --work-dir=DIR
 *          [--smoke] [--plant-mismatch]
 *
 * Prints `sim_digest <workload> <hex>` (the digest of every distinct
 * request's simulated statistics, identical for any speed-only
 * change), `gate attempted=N failed=M`, and as its last line the
 * result object {"correct", "attempted", "failed", "metrics"}. Exits
 * 1 when any op failed the correctness gate, 2 on bad usage or when
 * the run could not complete (no result line then).
 */

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common/kv.hh"

#include "dsperf.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: dsperf --workload=ds_single|fig_sweep|serve_open"
                 " --seed=N --seconds=S --trace=0|1\n"
                 "              --dsserve=PATH --work-dir=DIR [--smoke]"
                 " [--plant-mismatch]\n");
    return 2;
}

bool
flagValue(const std::string &arg, const char *name, std::string &value)
{
    std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.jobs = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], value;
        std::uint64_t u = 0;
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--plant-mismatch") {
            opts.plantMismatch = true;
        } else if (flagValue(arg, "--workload", value)) {
            opts.workload = value;
        } else if (flagValue(arg, "--seed", value)) {
            if (!common::kv::parseU64(value, opts.seed))
                return usage();
        } else if (flagValue(arg, "--seconds", value)) {
            if (!common::kv::parseF64(value, opts.seconds) ||
                !(opts.seconds > 0 && opts.seconds <= 120))
                return usage();
        } else if (flagValue(arg, "--trace", value)) {
            if (!common::kv::parseU64(value, u) || u > 1)
                return usage();
            opts.trace = u == 1;
        } else if (flagValue(arg, "--dsserve", value)) {
            opts.dsserve = value;
        } else if (flagValue(arg, "--work-dir", value)) {
            opts.workDir = value;
        } else {
            return usage();
        }
    }
    void (*run)(Context &) = nullptr;
    if (opts.workload == "ds_single")
        run = runDsSingle;
    else if (opts.workload == "fig_sweep")
        run = runFigSweep;
    else if (opts.workload == "serve_open")
        run = runServeOpen;
    if (!run || opts.dsserve.empty() || opts.workDir.empty())
        return usage();

    Gate gate(opts.plantMismatch);
    SpanLog log(opts.trace);
    Metrics metrics;
    Context ctx{opts, gate, log, metrics};
    try {
        run(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dsperf: %s: %s\n", opts.workload.c_str(),
                     e.what());
        return 2;
    }
    if (opts.trace) {
        std::string path = opts.workDir + "/spans-" + opts.workload + ".jsonl";
        if (!log.write(path))
            std::fprintf(stderr, "dsperf: cannot write %s\n", path.c_str());
    }

    std::uint64_t attempted = gate.attempted(), failed = gate.failed();
    std::printf("sim_digest %s %016llx\n", opts.workload.c_str(),
                static_cast<unsigned long long>(gate.simDigest()));
    std::printf("gate attempted=%llu failed=%llu failed_frac=%.6f\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted ? double(failed) / double(attempted) : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.json().c_str());
    return failed == 0 ? 0 : 1;
}
