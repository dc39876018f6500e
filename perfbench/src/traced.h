/**
 * @file
 * The traced runner: runs one point by stepping MultiNoc::tick,
 * SyntheticTraffic::step and CmpSystem::tick itself, timing every call
 * into the simulator's modules from outside. It reproduces the
 * statement order of SyntheticRun and run_app_workload exactly, so its
 * results and end state must equal the untraced run's bit for bit;
 * run_untraced() gives the state it is checked against.
 */
#ifndef CATNAP_PERFBENCH_TRACED_H
#define CATNAP_PERFBENCH_TRACED_H

#include <cstdint>
#include <vector>

#include "points.h"
#include "power/activity.h"

namespace perfbench {

/** Host time and work counts of one or more traced points, by module. */
struct LayerStats
{
    // sim: phase host time and simulated cycles
    double setup_s = 0.0; ///< constructors before the first cycle
    double warmup_s = 0.0;
    double finish_s = 0.0; ///< measurement + drain + result assembly
    std::uint64_t cycles = 0; ///< drain included
    std::uint64_t drain_cycles = 0;
    std::uint64_t undrained_points = 0;

    // noc: MultiNoc::tick of synthetic points
    std::vector<std::uint32_t> tick_ns;
    double tick_s = 0.0;
    std::uint64_t router_cycles = 0; ///< ticks x subnets x nodes
    catnap::ActivityCounters noc_activity;
    double finalize_us = 0.0;

    // traffic: SyntheticTraffic::step
    std::vector<std::uint32_t> step_ns;
    double step_s = 0.0;
    std::uint64_t packets = 0;

    // catnap: router activity of every point, CMP included
    catnap::ActivityCounters activity;

    // power: PowerMeter::begin and the report calls
    double begin_us = 0.0;
    double report_us = 0.0;

    // app: CmpSystem::tick
    std::vector<std::uint32_t> app_tick_ns;
    std::uint64_t retired = 0;
    std::uint64_t misses_completed = 0;

    void merge(const LayerStats &o);
};

/** One point's result, end state and layer stats (reported only for
 * traced runs; untraced runs leave them empty or partial). */
struct PointRun
{
    Outcome out;
    std::uint64_t state = 0; ///< state_digest() at the end of the run
    LayerStats stats;
};

/** Runs @p p with every module call timed. */
PointRun run_traced(const Point &p);

/** Runs @p p through SyntheticRun / CmpSystem::run, untimed. */
PointRun run_untraced(const Point &p);

} // namespace perfbench

#endif // CATNAP_PERFBENCH_TRACED_H
