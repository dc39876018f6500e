/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: aligned
 * table printing, the standard phase lengths used across benches, and
 * the common command line plus sweep plumbing.
 *
 * A harness whose points are synthetic RunItems dispatches them through
 * cli::run_items() and accepts every batch flag of
 * tools/common/batch_cli.h (--jobs, --isolate, --serve, ...). The
 * rest — app workloads, analytic models, one scheduled run — execute
 * in process and accept --jobs only: a backend flag is a usage error
 * there, never silently ignored. Every harness also takes --csv FILE,
 * which saves the harness's main sweep as CSV.
 *
 * Results are bit-identical for every --jobs value and backend: every
 * backend delivers result i into slot i regardless of which worker
 * computed it (see exec/sweep_runner.h and DESIGN.md §12). The
 * guarantee covers stdout (tables, CSV). Diagnostic log lines (stderr,
 * e.g. drain-budget warnings) are emitted by whichever worker hits
 * them, so their *order* follows host scheduling — the set of warnings
 * is still identical.
 */
#ifndef CATNAP_BENCH_BENCH_UTIL_H
#define CATNAP_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/sweep_runner.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "tools/common/batch_cli.h"

namespace catnap::bench {

/**
 * Warm-up length shared by every synthetic sweep harness. One constant,
 * not per-harness literals: the value flows into RunParams::warmup and
 * from there into every point's identity hash (point_hash(),
 * DESIGN.md §15), so journal and cache records of one warm-up length
 * never replay under another.
 */
inline constexpr Cycle kSweepWarmup = 1500;

/** Standard phases for synthetic sweeps (kept short; shapes converge). */
inline RunParams
sweep_params()
{
    RunParams rp;
    rp.warmup = kSweepWarmup;
    rp.measure = 5000;
    rp.drain_max = 6000;
    return rp;
}

/** Offered-load grid used by the latency-vs-load figures. */
inline std::vector<double>
load_grid()
{
    return {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
}

/** Prints a section header. */
inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Prints a "shape check" note comparing against the paper's value. */
inline void
paper_note(const std::string &what, double measured, double paper)
{
    std::printf("  [paper] %-46s measured %8.2f vs paper %8.2f\n",
                what.c_str(), measured, paper);
}

/** The command-line options every harness shares: the batch flags of
 * tools/common/batch_cli.h plus --csv. */
struct BenchOptions : cli::BatchFlags
{
    /** When non-empty, the harness saves its main sweep here. */
    std::string csv;
};

/** Which batch backends a harness can run its points on. */
enum class Backends : std::uint8_t {
    kAll,       ///< dispatches through cli::run_items()
    kInProcess, ///< runs in process; takes --jobs but no backend flag
};

/**
 * Parses the shared harness command line. Unknown options, and backend
 * flags a kInProcess harness cannot honour, are a hard error (exit 2)
 * so typos in reproduce.sh never pass silently.
 */
inline BenchOptions
parse_options(int argc, char **argv, Backends backends = Backends::kAll)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (opts.parse(argc, argv, i)) {
            if (backends == Backends::kInProcess && a != "--jobs")
                cli::usage_error(a + ": this harness runs in process and "
                                     "takes --jobs but no backend flag");
            continue;
        }
        if (a == "--csv") {
            opts.csv = cli::need_value(argc, argv, i);
        } else if (a == "--help" || a == "-h") {
            std::printf("usage: %s [options]\n"
                        "  --csv FILE                save the main sweep "
                        "as CSV\n%s%s",
                        argv[0], cli::kJobsFlagHelp,
                        backends == Backends::kAll ? cli::kBackendFlagsHelp
                                                   : "");
            std::exit(0);
        } else {
            cli::usage_error("unknown option '" + a + "'");
        }
    }
    opts.finish(argv[0]);
    return opts;
}

/** Bridges the shared CLI options into an execution-engine policy. */
inline ExecOptions
exec_options(const BenchOptions &opts)
{
    ExecOptions eo;
    eo.jobs = opts.jobs;
    return eo;
}

/** A display name plus the network configuration it labels. */
using NamedConfig = std::pair<const char *, MultiNocConfig>;

/** Builds one sweep point: @p traffic with its load replaced. */
inline RunItem
point(const MultiNocConfig &cfg, SyntheticConfig traffic,
      const RunParams &rp, double load)
{
    traffic.load = load;
    return RunItem{cfg, traffic, rp};
}

/**
 * Runs the full |configs| x |loads| cross product on the backend the
 * batch flags select and returns it config-major (grid[c][l]),
 * bit-identical to the nested serial loops this replaces.
 */
inline std::vector<std::vector<SyntheticResult>>
run_load_grid(const std::vector<MultiNocConfig> &configs,
              const std::vector<double> &loads,
              const SyntheticConfig &traffic, const RunParams &rp,
              const BenchOptions &opts)
{
    std::vector<RunItem> items;
    items.reserve(configs.size() * loads.size());
    for (const auto &cfg : configs)
        for (double load : loads)
            items.push_back(point(cfg, traffic, rp, load));
    const std::vector<SyntheticResult> flat = cli::run_items(items, opts);

    std::vector<std::vector<SyntheticResult>> grid(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto first =
            flat.begin() + static_cast<std::ptrdiff_t>(c * loads.size());
        grid[c].assign(first,
                       first + static_cast<std::ptrdiff_t>(loads.size()));
    }
    return grid;
}

/** run_load_grid() over named configurations. */
inline std::vector<std::vector<SyntheticResult>>
run_load_grid(const std::vector<NamedConfig> &configs,
              const std::vector<double> &loads,
              const SyntheticConfig &traffic, const RunParams &rp,
              const BenchOptions &opts)
{
    std::vector<MultiNocConfig> cfgs;
    cfgs.reserve(configs.size());
    for (const auto &c : configs)
        cfgs.push_back(c.second);
    return run_load_grid(cfgs, loads, traffic, rp, opts);
}

/**
 * Prints one metric sub-table: one row per load, one column per
 * configuration, values extracted by @p metric.
 */
inline void
print_metric_table(
    const std::string &title, const std::vector<std::string> &names,
    const std::vector<double> &loads,
    const std::vector<std::vector<SyntheticResult>> &grid,
    const std::function<double(const SyntheticResult &)> &metric,
    int col_width = 12, int precision = 2)
{
    std::printf("\n-- %s --\n%-8s", title.c_str(), "load");
    for (const auto &name : names)
        std::printf(" %*s", col_width, name.c_str());
    std::printf("\n");
    for (std::size_t l = 0; l < loads.size(); ++l) {
        std::printf("%-8.2f", loads[l]);
        for (std::size_t c = 0; c < names.size(); ++c)
            std::printf(" %*.*f", col_width, precision,
                        metric(grid[c][l]));
        std::printf("\n");
    }
}

/** Column names for print_metric_table() from a NamedConfig list. */
inline std::vector<std::string>
config_names(const std::vector<NamedConfig> &configs)
{
    std::vector<std::string> names;
    names.reserve(configs.size());
    for (const auto &c : configs)
        names.emplace_back(c.first);
    return names;
}

/**
 * Saves a config-major grid (flattened back to item order) when the
 * harness was invoked with --csv; no-op otherwise.
 */
inline void
maybe_save_csv(const BenchOptions &opts,
               const std::vector<std::vector<SyntheticResult>> &grid)
{
    if (opts.csv.empty())
        return;
    std::vector<SyntheticResult> rows;
    for (const auto &per_cfg : grid)
        rows.insert(rows.end(), per_cfg.begin(), per_cfg.end());
    save_csv(opts.csv, rows);
    std::printf("\n[csv] wrote %zu rows to %s\n", rows.size(),
                opts.csv.c_str());
}

} // namespace catnap::bench

#endif // CATNAP_BENCH_BENCH_UTIL_H
