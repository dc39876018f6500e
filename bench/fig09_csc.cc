/**
 * @file
 * Figure 9: percentage of compensated sleep cycles (CSC) for the three
 * power-gated configurations over the four Table 3 workloads.
 *
 * Paper shape: 4NT-128b-PG reaches ~70% CSC on Light and decays toward
 * ~10% on Heavy; the two Single-NoC PG designs barely break even.
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
    bench::header("Figure 9: compensated sleep cycles (% of time)");

    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 8000;

    const std::vector<bench::NamedConfig> configs = {
        {"1NT-128b-PG", single_noc_config(128, GatingKind::kIdle)},
        {"1NT-512b-PG", single_noc_config(512, GatingKind::kIdle)},
        {"4NT-128b-PG", multi_noc_config(4, GatingKind::kCatnap)},
    };

    const auto mixes = table3_mixes();
    SweepRunner runner(bench::exec_options(opts));
    const auto flat = runner.map<AppRunResult>(
        mixes.size() * configs.size(), [&](std::size_t i) {
            return run_app_workload(configs[i % configs.size()].second,
                                    mixes[i / configs.size()], ap);
        });

    std::printf("%-14s %14s %14s %14s\n", "workload", configs[0].first,
                configs[1].first, configs[2].first);

    double light_catnap = 0.0;
    double avg_catnap = 0.0;
    std::vector<double> avg(configs.size(), 0.0);
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::printf("%-14s", mixes[m].name.c_str());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &r = flat[m * configs.size() + c];
            std::printf(" %14.1f", r.csc_percent);
            avg[c] += r.csc_percent / static_cast<double>(mixes.size());
            if (c == 2 && mixes[m].name == "Light")
                light_catnap = r.csc_percent;
        }
        std::printf("\n");
    }
    std::printf("%-14s", "Average");
    for (std::size_t c = 0; c < configs.size(); ++c)
        std::printf(" %14.1f", avg[c]);
    std::printf("\n");
    avg_catnap = avg[2];

    bench::paper_note("Light CSC, 4NT-128b-PG (%)", light_catnap, 70.0);
    bench::paper_note("avg CSC, 4NT-128b-PG (%)", avg_catnap, 40.0);
    bench::paper_note("avg CSC, 1NT-512b-PG (%)", avg[1], 5.0);
    return 0;
}
