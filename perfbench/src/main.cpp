/**
 * @file
 * perfbench workload runner: one workload per process.
 *
 *   perfbench --workload <serve_fleet_stream|infer_resnet20|noise_accuracy>
 *             --seed <n> --seconds <s> --mode <setup|measure|trace>
 *             [--work-dir <dir>]
 *
 * `setup` sets the workload up and stops at its first timed request;
 * `measure` runs the untraced timed window plus every output check;
 * `trace` runs the workload with spans on, the per-layer cells, and
 * writes the spans to <work-dir>/spans-<workload>.jsonl. Each mode
 * prints one JSON record as its last line (see Result::print) and
 * exits 1 when any output check fails. perfbench/run.py drives it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "Common.h"
#include "digital/KernelCache.h"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --mode <setup|measure|trace> "
                 "[--work-dir <dir>]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (arg == "--mode")
            opt.mode = val;
        else if (arg == "--work-dir")
            opt.workDir = val;
        else
            usage();
    }
    if ((opt.workload != "serve_fleet_stream" &&
         opt.workload != "infer_resnet20" &&
         opt.workload != "noise_accuracy") ||
        opt.seconds <= 0.0 ||
        (opt.mode != "setup" && opt.mode != "measure" &&
         opt.mode != "trace"))
        usage();

    try {
        const double wall0 = wallSeconds();
        std::filesystem::create_directories(opt.workDir);
        Tracer tracer(opt.mode == "trace");
        Result r;
        // The traced run keeps the host-speed meter on throughout, so
        // its cells and attribution shares are in reference-host CPU,
        // and times the layer cells first: the workloads' attribution
        // estimates read them.
        if (opt.mode == "trace") {
            meter::start();
            runLayerCells(opt.workDir, r);
        }
        const auto &cache = darth::digital::KernelCache::instance();
        const double hits0 = static_cast<double>(cache.hits());
        const double misses0 = static_cast<double>(cache.misses());
        if (opt.workload == "serve_fleet_stream")
            runServe(opt, tracer, r);
        else if (opt.workload == "infer_resnet20")
            runInfer(opt, tracer, r);
        else
            runNoise(opt, tracer, r);
        if (opt.mode == "trace") {
            meter::stop();
            // Compiled-kernel cache lookups made by the workload.
            const double hits = static_cast<double>(cache.hits()) - hits0;
            const double lookups =
                hits + static_cast<double>(cache.misses()) - misses0;
            r.metrics["digital.kernel_cache_hit_ratio"] =
                lookups == 0.0 ? 0.0 : hits / lookups;
            tracer.write(opt.workDir + "/spans-" + opt.workload +
                         ".jsonl");
        }
        // Wall time is recorded as information only.
        r.info["wall_s"] = wallSeconds() - wall0;
        r.print();
        return r.allOk() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
