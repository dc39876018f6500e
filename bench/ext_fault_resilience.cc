/**
 * @file
 * Extension study: graceful degradation under staggered hard faults.
 *
 * Catnap's energy proportionality comes from redundancy -- several
 * narrow subnets instead of one wide network -- and the same redundancy
 * is a fault-tolerance budget. This harness kills k = 0..3 routers
 * mid-run (one per subnet, highest subnet first, so the baseline subnet
 * 0 is always last to go) and reports how latency, power, and delivery
 * degrade as the Multi-NoC sheds subnets.
 *
 * Expected shape: every offered packet is still delivered up to k = 3
 * (the survivors absorb the load at 0.10 pkts/node/cycle with room to
 * spare), latency and per-packet energy rise as the subnet pool
 * shrinks, and CSC falls because fewer healthy subnets are left to
 * sleep. Retransmits count the packets that died with a subnet and were
 * re-sent end-to-end on a healthy one.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

namespace {

struct KillSite {
    Cycle at;
    SubnetId subnet;
    NodeId node;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::parse_options(argc, argv);
    bench::header("Extension: fault resilience, staggered router kills "
                  "(8x8, 4NT-128b-PG, uniform 0.10)");

    // Kills land mid-measurement, highest subnet first; subnet 0 (the
    // never-sleep baseline) survives every scenario here.
    const KillSite kills[] = {
        {6000, 3, 40},
        {10000, 2, 9},
        {14000, 1, 52},
    };

    RunParams rp;
    rp.warmup = bench::kSweepWarmup;
    rp.measure = 20000;
    rp.drain_max = 30000;

    std::vector<RunItem> items;
    for (int k = 0; k <= 3; ++k) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        for (int j = 0; j < k; ++j)
            cfg.fault.kill_router(kills[j].at, kills[j].subnet,
                                  kills[j].node);
        // Tighten the end-to-end deadline so packets stranded by a kill
        // are re-sent (and the run drains) well inside drain_max.
        cfg.fault.tuning.packet_timeout = 2000;

        SyntheticConfig traffic;
        traffic.load = 0.10;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    const auto res = cli::run_items(items, opts);

    std::printf("%-6s | %8s %8s %8s %8s | %8s %8s %9s\n", "kills",
                "lat", "p99", "power", "csc%", "retrans", "dropped",
                "delivered");
    double lat_k0 = 0.0, lat_k3 = 0.0;
    for (int k = 0; k <= 3; ++k) {
        const SyntheticResult &r = res[static_cast<std::size_t>(k)];
        const double delivered =
            r.offered_rate > 0.0
                ? 100.0 * r.accepted_rate / r.offered_rate
                : 0.0;
        std::printf("%-6d | %8.1f %8.1f %8.2f %8.1f | %8llu %8llu "
                    "%8.1f%%%s\n",
                    k, r.avg_latency, r.p99_latency, r.power.total(),
                    r.csc_percent,
                    static_cast<unsigned long long>(r.retransmits),
                    static_cast<unsigned long long>(r.dropped_packets),
                    delivered, r.drained ? "" : "  [drain timeout]");
        if (k == 0)
            lat_k0 = r.avg_latency;
        if (k == 3)
            lat_k3 = r.avg_latency;
    }
    bench::paper_note("latency cost of losing 3 of 4 subnets (cycles)",
                      lat_k3 - lat_k0, 0.0);
    return 0;
}
