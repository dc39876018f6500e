/**
 * @file
 * Ablation: power-gating hardware parameters. The paper's SPICE
 * analysis fixed T_wakeup = 10 cycles (3 hidden by look-ahead),
 * T_breakeven = 12 cycles, and T_idle_detect = 4 cycles. This bench
 * shows how latency and profitable-sleep behave if the circuit costs
 * were different — the sensitivity analysis behind HPC-mesh's
 * criticism in Section 7.1 (which assumed an optimistic 3-cycle
 * wake-up).
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parse_options(argc, argv);
    const RunParams rp = bench::sweep_params();
    SyntheticConfig traffic;
    traffic.load = 0.05;

    // Ablations A and B are independent points; one batch covers both.
    const std::vector<int> wakeups = {3, 6, 10, 20, 40};
    const std::vector<int> breakevens = {0, 6, 12, 24, 48};
    std::vector<RunItem> items;
    for (int t_wakeup : wakeups) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.t_wakeup = t_wakeup;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    for (int t_be : breakevens) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.t_breakeven = t_be;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    const auto res = cli::run_items(items, opts);

    bench::header("Ablation A: wake-up delay T_wakeup (4NT-128b-PG)");
    std::printf("%-10s %12s %12s %10s\n", "T_wakeup", "latency",
                "CSC (%)", "power(W)");
    for (std::size_t i = 0; i < wakeups.size(); ++i) {
        const auto &r = res[i];
        std::printf("%-10d %12.1f %12.1f %10.1f%s\n", wakeups[i],
                    r.avg_latency, r.csc_percent, r.power.total(),
                    wakeups[i] == 10 ? "   <== paper (SPICE)" : "");
    }

    bench::header("Ablation B: break-even cycles T_breakeven");
    std::printf("%-12s %12s %10s\n", "T_breakeven", "CSC (%)",
                "power(W)");
    for (std::size_t i = 0; i < breakevens.size(); ++i) {
        const auto &r = res[wakeups.size() + i];
        std::printf("%-12d %12.1f %10.1f%s\n", breakevens[i],
                    r.csc_percent, r.power.total(),
                    breakevens[i] == 12 ? "   <== paper (SPICE)" : "");
    }

    bench::header("Ablation C: idle-detect window T_idle_detect");
    std::printf("%-14s %12s %12s %14s\n", "T_idle_detect", "latency",
                "CSC (%)", "transitions/kcy");
    for (int t_idle : {1, 2, 4, 8, 16, 32}) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.t_idle_detect = t_idle;
        MultiNoc net(cfg);
        SyntheticTraffic gen(&net, traffic, rp.seed);
        PowerMeter meter(net, 0.625);
        for (Cycle c = 0; c < rp.warmup; ++c) {
            gen.step(net.now());
            net.tick();
        }
        meter.begin();
        for (Cycle c = 0; c < rp.measure; ++c) {
            gen.step(net.now());
            net.tick();
        }
        net.finalize_accounting();
        const auto act = net.total_activity();
        std::printf("%-14d %12.1f %12.1f %14.2f%s\n", t_idle,
                    net.metrics().total_latency().mean(),
                    meter.csc_percent(),
                    1000.0 * static_cast<double>(act.sleep_transitions) /
                        static_cast<double>(rp.measure) / 256.0,
                    t_idle == 4 ? "   <== paper" : "");
    }
    std::printf("\nA short idle-detect window gates eagerly (more"
                " transitions, each paying the break-even charge); a"
                " long one forfeits short idle periods.\n");
    return 0;
}
