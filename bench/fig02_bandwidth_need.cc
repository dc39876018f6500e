/**
 * @file
 * Figure 2: normalized performance of a 256-core processor with a
 * 128-bit vs 512-bit Single-NoC, for the Light and Heavy workloads.
 *
 * Paper shape: the under-provisioned 128-bit network costs Heavy ~41%
 * of its performance while Light is nearly unaffected, establishing the
 * need to sustain today's 8 GB/s per-core bandwidth.
 */
#include <cstdio>

#include "app/system.h"
#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, bench::Backends::kInProcess);
    bench::header("Figure 2: per-core bandwidth need (normalized perf)");

    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 10000;

    // Four independent closed-loop runs: {Light, Heavy} x {128b, 512b}.
    const std::vector<WorkloadMix> mixes = {light_mix(), heavy_mix()};
    SweepRunner runner(bench::exec_options(opts));
    const auto res = runner.map<AppRunResult>(
        mixes.size() * 2, [&](std::size_t i) {
            const int width = i % 2 == 0 ? 128 : 512;
            return run_app_workload(single_noc_config(width),
                                    mixes[i / 2], ap);
        });

    std::printf("%-14s %18s %18s %12s\n", "workload", "128b-Single-NoC",
                "512b-Single-NoC", "128b/512b");
    double heavy_ratio = 0.0, light_ratio = 0.0;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto &r128 = res[m * 2];
        const auto &r512 = res[m * 2 + 1];
        const double ratio = r128.ipc / r512.ipc;
        std::printf("%-14s %18.3f %18.3f %12.3f\n",
                    mixes[m].name.c_str(), ratio, 1.0, ratio);
        if (mixes[m].name == "Heavy")
            heavy_ratio = ratio;
        else
            light_ratio = ratio;
    }
    bench::paper_note("Heavy loss on 128b network (%)",
                      100.0 * (1.0 - heavy_ratio), 41.0);
    bench::paper_note("Light loss on 128b network (%)",
                      100.0 * (1.0 - light_ratio), 2.0);
    return 0;
}
