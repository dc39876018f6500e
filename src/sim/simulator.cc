#include "sim/simulator.h"

#include "ckpt/checkpoint.h"
#include "common/log.h"
#include "fault/fault.h"
#include "obs/snapshot.h"
#include "power/voltage.h"

namespace catnap {

double
config_vdd(const MultiNocConfig &cfg, const RunParams &params)
{
    if (!params.voltage_scaling)
        return VoltageModel::kVref;
    return VoltageModel::min_voltage_for(cfg.subnet_link_bits(),
                                         EnergyModel::kFrequencyGhz);
}

SyntheticRun::SyntheticRun(const MultiNocConfig &net_cfg,
                           const SyntheticConfig &traffic,
                           const RunParams &params)
    : cfg_(net_cfg), traffic_(traffic), params_(params)
{
    cfg_.seed = params_.seed;
    net_ = std::make_unique<MultiNoc>(cfg_);
    if (params_.sink)
        net_->set_event_sink(params_.sink);

    gen_ = std::make_unique<SyntheticTraffic>(
        net_.get(), traffic_, params_.seed ^ 0xabcdef12345ULL);

    net_->metrics().set_measurement_window(
        params_.warmup, params_.warmup + params_.measure);

    vdd_ = config_vdd(cfg_, params_);
    meter_ = std::make_unique<PowerMeter>(*net_, vdd_);
}

void
SyntheticRun::step()
{
    gen_->step(net_->now());
    net_->tick();
    if (params_.snapshots)
        params_.snapshots->observe(*net_, net_->now() - 1);
}

void
SyntheticRun::run_warmup()
{
    while (net_->now() < params_.warmup)
        step();
}

SyntheticResult
SyntheticRun::finish()
{
    const Cycle m_end = params_.warmup + params_.measure;

    // Measurement.
    meter_->begin();
    const std::uint64_t offered0 = net_->metrics().offered_packets();
    const std::uint64_t ejected0 = net_->metrics().ejected_packets();
    while (net_->now() < m_end)
        step();
    net_->finalize_accounting();
    const std::uint64_t offered1 = net_->metrics().offered_packets();
    const std::uint64_t ejected1 = net_->metrics().ejected_packets();

    SyntheticResult res;
    res.config_label = cfg_.label();
    res.offered_load = traffic_.load;
    res.vdd = vdd_;
    res.power = meter_->report();
    res.power_static = meter_->report_static();

    res.csc_percent = meter_->csc_percent();

    const double node_cycles = static_cast<double>(params_.measure) *
                               static_cast<double>(net_->num_nodes());
    res.offered_rate = static_cast<double>(offered1 - offered0) /
                       node_cycles;
    res.accepted_rate = static_cast<double>(ejected1 - ejected0) /
                        node_cycles;

    // Drain: stop generating and let in-flight window packets finish so
    // latency statistics cover whole packets.
    const Cycle drain_end = net_->now() + params_.drain_max;
    while (net_->now() < drain_end && !net_->quiescent()) {
        net_->tick();
        if (params_.snapshots)
            params_.snapshots->observe(*net_, net_->now() - 1);
    }
    res.drained = net_->quiescent();
    if (!res.drained) {
        const std::uint64_t done = net_->metrics().ejected_packets() +
                                   net_->metrics().dropped_packets();
        const std::uint64_t offered = net_->metrics().offered_packets();
        CATNAP_WARN("drain budget of ", params_.drain_max,
                    " cycles exhausted with ",
                    offered > done ? offered - done : 0,
                    " packets still in flight (config ", cfg_.label(),
                    ", load ", traffic_.load,
                    "); latency tail is truncated");
    }
    res.retransmits = net_->metrics().retransmits();
    res.dropped_packets = net_->metrics().dropped_packets();
    if (const FaultController *fault = net_->fault()) {
        res.faults_fired = fault->faults_fired();
        res.subnet_failures = fault->subnet_failures();
    }

    res.avg_latency = net_->metrics().total_latency().mean();
    res.avg_net_latency = net_->metrics().network_latency().mean();
    res.p50_latency = net_->metrics().latency_histogram().quantile(0.50);
    res.p99_latency = net_->metrics().latency_histogram().quantile(0.99);
    res.measured_packets = net_->metrics().total_latency().count();
    return res;
}

std::uint64_t
run_config_hash(const MultiNocConfig &cfg, std::uint32_t domain,
                const SyntheticConfig &traffic, const RunParams &params)
{
    ckpt::Fnv1a h;
    ckpt::mix_config(h, cfg);
    h.mix_u32(domain);
    h.mix_i32(static_cast<std::int32_t>(traffic.pattern));
    h.mix_double(traffic.load);
    h.mix_i32(traffic.packet_bits);
    h.mix_i32(static_cast<std::int32_t>(traffic.mc));
    h.mix_bool(traffic.node_bursts);
    h.mix_double(traffic.burst_on_fraction);
    h.mix_double(traffic.burst_mean_len);
    h.mix_u64(params.warmup);
    h.mix_u64(params.measure);
    h.mix_u64(params.drain_max);
    h.mix_bool(params.voltage_scaling);
    h.mix_u64(params.seed);
    return h.value();
}

SyntheticResult
run_synthetic(const MultiNocConfig &net_cfg, const SyntheticConfig &traffic,
              const RunParams &params)
{
    SyntheticRun run(net_cfg, traffic, params);
    run.run_warmup();
    return run.finish();
}

std::vector<SyntheticResult>
sweep_load(const MultiNocConfig &net_cfg, SyntheticConfig traffic,
           const RunParams &params, const std::vector<double> &loads)
{
    std::vector<SyntheticResult> out;
    out.reserve(loads.size());
    for (double load : loads) {
        traffic.load = load;
        out.push_back(run_synthetic(net_cfg, traffic, params));
    }
    return out;
}

} // namespace catnap
