/**
 * @file
 * Converts simulation activity into network power (watts).
 *
 * Two modes:
 *  - measurement mode: snapshot activity counters at the start of a
 *    measurement interval, then compute a PowerBreakdown from the deltas
 *    (dynamic) and per-router gated-leakage residency (static);
 *  - analytic mode: reproduce the paper's Figure 7 methodology, where
 *    power is computed directly from an assumed per-port load factor.
 */
#ifndef CATNAP_POWER_POWER_METER_H
#define CATNAP_POWER_POWER_METER_H

#include <vector>

#include "power/activity.h"
#include "power/energy_model.h"
#include "common/phase.h"

namespace catnap {

class MultiNoc;

/**
 * Measurement-mode power meter bound to one MultiNoc. Call begin() at
 * the start of the measurement interval and report() at the end.
 */
class PowerMeter
{
  public:
    /**
     * Creates the meter.
     *
     * @param net the network (not owned; must outlive the meter)
     * @param vdd supply voltage of the routers; pass
     *        VoltageModel::min_voltage_for(width, 2.0) for the paper's
     *        voltage-scaled designs, or VoltageModel::kVref otherwise
     */
    PowerMeter(MultiNoc &net, double vdd);

    /**
     * Snapshots activity counters and starts the measurement interval.
     * Open sleep periods are folded into the CSC counters first so the
     * snapshot marks a clean boundary.
     */
    CATNAP_PHASE_WRITE void begin();

    /**
     * Computes power over the interval since begin(). Static power per
     * router is leakage scaled by (1 - CSC/cycles): compensated sleep
     * cycles remove leakage, while gating overhead (negative CSC from
     * thrashing) shows up as extra static power, exactly as the paper's
     * accounting implies.
     */
    PowerBreakdown report() const;

    /** Dynamic-only / static-only components of report(). */
    PowerBreakdown report_dynamic() const;
    PowerBreakdown report_static() const;

    /**
     * Compensated sleep cycles over the measurement interval as a
     * percentage of router-cycles (clamped at 0 like the paper's plots).
     */
    double csc_percent() const;

    /** The per-width/voltage energy model in use. */
    const EnergyModel &model() const { return model_; }

    /** Supply voltage being modeled. */
    double vdd() const { return vdd_; }

  private:
    PowerBreakdown compute(bool include_dynamic, bool include_static) const;

    MultiNoc &net_;
    double vdd_;
    EnergyModel model_;
    std::vector<ActivityCounters> start_; // per (subnet, node), flattened
    std::uint64_t start_or_transitions_ = 0;
    Cycle start_cycle_ = 0;
};

/**
 * Analytic network power (Figure 7): every router of every subnet at the
 * same per-port load factor. NI leakage is charged once per node.
 *
 * @param num_nodes routers per subnet (e.g. 64)
 * @param num_subnets subnets (1 for Single-NoC)
 * @param width_bits per-subnet datapath width
 * @param vdd supply voltage
 * @param num_vcs VCs per port, @param vc_depth flits per VC
 * @param load_factor per-port load factor (paper Figure 7: 0.5)
 */
PowerBreakdown analytic_network_power(int num_nodes, int num_subnets,
                                      int width_bits, double vdd,
                                      int num_vcs, int vc_depth,
                                      double load_factor);

} // namespace catnap

#endif // CATNAP_POWER_POWER_METER_H
