/**
 * @file
 * The benchmark's workloads: the simulation points each one runs, the
 * backend that runs them, the result digests that pin their outputs,
 * and the two oracles that check them (the serial reference digests and
 * the load-tracking check, which is independent of any reference).
 */
#ifndef CATNAP_PERFBENCH_POINTS_H
#define CATNAP_PERFBENCH_POINTS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "app/system.h"
#include "exec/sweep_runner.h"
#include "sim/simulator.h"

namespace perfbench {

/** One simulation point: a synthetic run or a closed-loop CMP run. */
struct Point
{
    std::string id; ///< "4NT-128b-PG@0.03" or "4NT-128b-PG/Light"
    bool app = false;
    catnap::RunItem item; ///< synthetic points
    catnap::MultiNocConfig app_cfg; ///< CMP points
    catnap::WorkloadMix mix;
    catnap::AppRunParams app_params;
};

/** What one execution of a point produced. */
struct Outcome
{
    bool ok = false;   ///< finished with a result
    std::string error; ///< why not, when !ok
    catnap::SyntheticResult syn;
    catnap::AppRunResult app;
    /** Simulated cycles, drain included; 0 when the backend ran the
     * point out of sight (worker process, daemon). */
    std::uint64_t cycles = 0;
};

/** How a workload's batch is executed. */
enum class Backend {
    kSerial, ///< in-process, one point after another
    kSweep,  ///< in-process through SweepRunner/run_batch
    kServed, ///< through an in-process ServeServer with isolated workers
};

/** One paper figure value a workload's points can be compared with. */
struct PaperCheck
{
    std::string what;
    double paper = 0.0;
    std::function<double(const std::vector<Outcome> &)> measured;
};

struct Workload
{
    std::string name;
    Backend backend = Backend::kSerial;
    int jobs = 1;
    std::vector<Point> points;
    std::vector<PaperCheck> checks;

    /** The synthetic points as run items (CMP points skipped). */
    std::vector<catnap::RunItem> items() const;
};

/** Builds workload @p name (one of BENCHMARK.json's workloads); every
 * point's seed derives from @p seed.
 * Throws std::invalid_argument on an unknown name. */
Workload make_workload(const std::string &name, std::uint64_t seed);

/** FNV-1a over every result field of @p o (doubles by bit pattern). */
std::uint64_t result_digest(const Point &p, const Outcome &o);

/** FNV-1a over the network's NetMetrics and every router's
 * ActivityCounters, as their checkpoint encodings: equal digests mean
 * two runs ended in the same measured state. */
std::uint64_t state_digest(const catnap::MultiNoc &net);

/** Runs @p p in-process with the library's own run functions. */
Outcome run_point(const Point &p);

/** The digest and cycle count the serial reference run produced. */
struct RefEntry
{
    std::uint64_t digest = 0;
    std::uint64_t cycles = 0;
};

/** Reference entries of one (workload, seed), in point order. */
using Reference = std::vector<RefEntry>;

/** Formats one reference line: "ref WORKLOAD SEED INDEX ID DIGEST
 * CYCLES". The checked-in reference file is a list of these. */
std::string reference_line(const Workload &w, std::uint64_t seed,
                           std::size_t index, const RefEntry &e);

/** Loads the entries for (@p w, @p seed) from @p path; empty when the
 * file has none for that pair. Throws when the file lists some but not
 * all of the workload's points, or lists them under other ids. */
Reference load_reference(const std::string &path, const Workload &w,
                         std::uint64_t seed);

/**
 * The load-tracking oracle. Every synthetic point's measured offered
 * rate must lie within kOfferedSigmas standard deviations of its
 * requested load, taking generation as one Bernoulli trial per node per
 * measured cycle; and along each config's loads the accepted rate must
 * rise while the higher load is below saturation (accepted >= 0.9 x
 * load). Returns one message per violating point index.
 */
std::map<std::size_t, std::string>
check_tracks_inputs(const Workload &w, const std::vector<Outcome> &out);

constexpr double kOfferedSigmas = 6.0;

/** Mean |measured - paper| / paper over @p w's paper checks, percent. */
double paper_gap_pct(const Workload &w, const std::vector<Outcome> &out);

} // namespace perfbench

#endif // CATNAP_PERFBENCH_POINTS_H
