/**
 * @file
 * Ablation: message-class-specialized subnets (CCNoC style, [29]) vs
 * Catnap. Section 7.2 argues that statically separating traffic into
 * subnets by message type "could lead to load imbalance across subnets"
 * and squanders both peak bandwidth and gating opportunity; Catnap
 * instead uses VCs for deadlock freedom and selects subnets by load.
 * This bench quantifies the claim on the application workloads, where
 * the four message classes (request / forward / data / writeback) have
 * very different volumes.
 */
#include <cstdio>

#include "app/system.h"
#include "bench/bench_util.h"

using namespace catnap;

namespace {

/** Per-point metrics of one mix x config closed-loop run. */
struct PartitionPoint
{
    double ipc = 0.0;
    double power = 0.0;
    double csc = 0.0;
    double shares[4] = {0, 0, 0, 0};
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, bench::Backends::kInProcess);
    bench::header("Ablation: class-partitioned subnets (CCNoC [29]) vs "
                  "Catnap");

    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 8000;

    const std::vector<bench::NamedConfig> configs = {
        {"4NT class-partitioned",
         multi_noc_config(4, GatingKind::kIdle,
                          SelectorKind::kClassPartition)},
        {"4NT round-robin + idle gate",
         multi_noc_config(4, GatingKind::kIdle,
                          SelectorKind::kRoundRobin)},
        {"4NT Catnap", multi_noc_config(4, GatingKind::kCatnap,
                                        SelectorKind::kCatnap)},
    };
    const std::vector<WorkloadMix> mixes = {medium_light_mix(),
                                            heavy_mix()};

    // Each point builds its own CmpSystem; fan them out, mix-major.
    SweepRunner runner(bench::exec_options(opts));
    const auto flat = runner.map<PartitionPoint>(
        mixes.size() * configs.size(), [&](std::size_t i) {
            const MultiNocConfig cfg = configs[i % configs.size()].second;
            CmpSystem sys(cfg, mixes[i / configs.size()]);
            sys.run(ap.warmup);
            PowerMeter meter(sys.net(), 0.625);
            meter.begin();
            const auto r0 = sys.total_retired();
            sys.run(ap.measure);
            sys.net().finalize_accounting();
            PartitionPoint p;
            p.ipc = static_cast<double>(sys.total_retired() - r0) /
                    static_cast<double>(ap.measure) / 256.0;
            p.power = meter.report().total();
            p.csc = meter.csc_percent();
            double total = 0;
            for (SubnetId s = 0; s < 4; ++s) {
                p.shares[s] = static_cast<double>(
                    sys.net().metrics().injected_flits_in_subnet(s));
                total += p.shares[s];
            }
            for (SubnetId s = 0; s < 4; ++s)
                p.shares[s] /= total;
            return p;
        });

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::printf("\n-- %s --\n", mixes[m].name.c_str());
        std::printf("%-30s %8s %10s %8s %28s\n", "design", "IPC",
                    "power(W)", "CSC(%)", "subnet flit shares");
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &p = flat[m * configs.size() + c];
            std::printf("%-30s %8.3f %10.1f %8.1f    "
                        "%.2f/%.2f/%.2f/%.2f\n",
                        configs[c].first, p.ipc, p.power, p.csc,
                        p.shares[0], p.shares[1], p.shares[2],
                        p.shares[3]);
        }
    }
    std::printf("\nClass partitioning leaves the data subnet saturated "
                "while control subnets idle (imbalance), and every "
                "subnet still carries some traffic, so gating saves "
                "little.\n");
    return 0;
}
