/**
 * @file
 * Experiment harness: runs a MultiNoc under synthetic traffic with
 * warm-up / measurement / drain phases and returns the metrics the
 * paper's figures report (latency, throughput, CSC, power).
 */
#ifndef CATNAP_SIM_SIMULATOR_H
#define CATNAP_SIM_SIMULATOR_H

#include <memory>
#include <string>

#include "noc/multinoc.h"
#include "power/power_meter.h"
#include "traffic/synthetic.h"

namespace catnap {

class SnapshotRecorder;

/** Phase lengths for a synthetic run. */
struct RunParams
{
    Cycle warmup = 2000;
    Cycle measure = 10000;
    /** Max drain cycles after measurement (latency-tail collection). */
    Cycle drain_max = 20000;

    /**
     * If true (the paper's configuration), routers run at the lowest
     * voltage that meets 2 GHz for their width (Table 2); otherwise all
     * designs use the 0.750 V reference voltage.
     */
    bool voltage_scaling = true;

    std::uint64_t seed = 12345;

    // Observability hooks (not owned; null = disabled, zero overhead).

    /** Trace-event recorder attached to the network for the whole run
     * (warm-up, measurement, and drain). */
    EventSink *sink = nullptr;

    /** Epoch-snapshot recorder, observed once per simulated cycle. */
    SnapshotRecorder *snapshots = nullptr;
};

/** Results of one synthetic run. */
struct SyntheticResult
{
    std::string config_label;
    double offered_load = 0.0;   ///< requested packets/node/cycle
    double offered_rate = 0.0;   ///< measured generation rate
    double accepted_rate = 0.0;  ///< measured ejection rate (throughput)
    double avg_latency = 0.0;    ///< creation -> tail ejection, cycles
    double avg_net_latency = 0.0;///< injection -> tail ejection, cycles
    double p50_latency = 0.0;    ///< median latency, cycles
    double p99_latency = 0.0;    ///< 99th-percentile latency, cycles
    double csc_percent = 0.0;    ///< compensated sleep cycles, % of time
    double vdd = 0.0;            ///< supply voltage used
    PowerBreakdown power;        ///< network power over the window, watts
    PowerBreakdown power_static; ///< static-only portion
    std::uint64_t measured_packets = 0;

    /**
     * False when the post-measurement drain phase exhausted drain_max
     * cycles with packets still in flight: the latency statistics above
     * then under-count the slowest packets. Reported (with the in-flight
     * count) on stderr and as a CSV column.
     */
    bool drained = true;
    std::uint64_t retransmits = 0;     ///< fault model: packets re-sent
    std::uint64_t dropped_packets = 0; ///< fault model: packets given up
    std::uint64_t faults_fired = 0;    ///< scheduled+probabilistic faults
    std::uint64_t subnet_failures = 0; ///< subnets lost to hard faults
};

/** Supply voltage a config runs at under @p params' scaling rule. */
double config_vdd(const MultiNocConfig &cfg, const RunParams &params);

/**
 * One synthetic experiment, split into its phases so a caller can
 * inspect the network between warm-up and measurement.
 *
 * The sequence — construct, run_warmup(), finish() — executes exactly
 * the statements run_synthetic() runs, in the same order, so results
 * are bit-identical to it.
 */
class SyntheticRun
{
  public:
    SyntheticRun(const MultiNocConfig &net_cfg,
                 const SyntheticConfig &traffic, const RunParams &params);

    /** Advances to the end of the warm-up phase (no-op once past it). */
    void run_warmup();

    /** Runs measurement and drain, then assembles the result. */
    SyntheticResult finish();

    MultiNoc &net() { return *net_; }
    const MultiNoc &net() const { return *net_; }
    Cycle now() const { return net_->now(); }

  private:
    void step();

    MultiNocConfig cfg_;
    SyntheticConfig traffic_;
    RunParams params_;
    double vdd_ = 0.0;
    std::unique_ptr<MultiNoc> net_;
    std::unique_ptr<SyntheticTraffic> gen_;
    std::unique_ptr<PowerMeter> meter_;
};

/**
 * The identity hash of one run: ckpt::mix_config over @p cfg, the
 * @p domain tag, then every traffic and phase field (observability
 * hooks excluded). The sweep point hash ("PNT1", exec/point_codec.h)
 * is this hash under its own domain tag.
 */
std::uint64_t run_config_hash(const MultiNocConfig &cfg,
                              std::uint32_t domain,
                              const SyntheticConfig &traffic,
                              const RunParams &params);

/**
 * Runs @p net_cfg under @p traffic for the phases in @p params.
 * Deterministic for fixed seeds.
 */
SyntheticResult run_synthetic(const MultiNocConfig &net_cfg,
                              const SyntheticConfig &traffic,
                              const RunParams &params);

/**
 * Sweeps offered load over @p loads and returns one result per point.
 */
std::vector<SyntheticResult>
sweep_load(const MultiNocConfig &net_cfg, SyntheticConfig traffic,
           const RunParams &params, const std::vector<double> &loads);

} // namespace catnap

#endif // CATNAP_SIM_SIMULATOR_H
