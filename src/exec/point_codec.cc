#include "exec/point_codec.h"

#include <cstdio>

#include "ckpt/checkpoint.h"

namespace catnap {

namespace {

/** Domain hash sealing point-spec images: a spec is not a result and
 * must never open as one. */
std::uint64_t
spec_hash()
{
    ckpt::Fnv1a h;
    h.mix_u32(0x31435053u); // "SPC1"
    return h.value();
}

void
put_fault_plan(ckpt::Writer &w, const FaultPlan &plan)
{
    w.put_u64(plan.events.size());
    for (const FaultEvent &ev : plan.events) {
        w.put_i32(static_cast<std::int32_t>(ev.kind));
        w.put_u64(ev.at);
        w.put_i32(ev.subnet);
        w.put_i32(ev.node);
        w.put_i32(static_cast<std::int32_t>(ev.port));
        w.put_u64(ev.duration);
        w.put_u64(ev.delay);
    }
    w.put_double(plan.wake_loss_prob);
    w.put_double(plan.rcs_glitch_prob);
    w.put_u64(plan.seed);
    w.put_u64(plan.tuning.t_wake_timeout);
    w.put_i32(plan.tuning.max_wake_retries);
    w.put_i32(plan.tuning.backoff_cap_exp);
    w.put_u64(plan.tuning.packet_timeout);
    w.put_u64(plan.tuning.retransmit_delay);
    w.put_i32(plan.tuning.max_retransmits);
}

void
take_fault_plan(ckpt::Reader &r, FaultPlan &plan)
{
    const std::uint64_t n = r.take_u64();
    plan.events.clear();
    plan.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        FaultEvent ev;
        ev.kind = static_cast<FaultKind>(r.take_i32());
        ev.at = r.take_u64();
        ev.subnet = r.take_i32();
        ev.node = r.take_i32();
        ev.port = static_cast<Direction>(r.take_i32());
        ev.duration = r.take_u64();
        ev.delay = r.take_u64();
        plan.events.push_back(ev);
    }
    plan.wake_loss_prob = r.take_double();
    plan.rcs_glitch_prob = r.take_double();
    plan.seed = r.take_u64();
    plan.tuning.t_wake_timeout = r.take_u64();
    plan.tuning.max_wake_retries = r.take_i32();
    plan.tuning.backoff_cap_exp = r.take_i32();
    plan.tuning.packet_timeout = r.take_u64();
    plan.tuning.retransmit_delay = r.take_u64();
    plan.tuning.max_retransmits = r.take_i32();
}

void
put_power(ckpt::Writer &w, const PowerBreakdown &p)
{
    w.put_double(p.buffer);
    w.put_double(p.crossbar);
    w.put_double(p.control);
    w.put_double(p.clock);
    w.put_double(p.link);
    w.put_double(p.ni);
    w.put_double(p.or_net);
}

PowerBreakdown
take_power(ckpt::Reader &r)
{
    PowerBreakdown p;
    p.buffer = r.take_double();
    p.crossbar = r.take_double();
    p.control = r.take_double();
    p.clock = r.take_double();
    p.link = r.take_double();
    p.ni = r.take_double();
    p.or_net = r.take_double();
    return p;
}

} // namespace

void
put_multinoc_config(ckpt::Writer &w, const MultiNocConfig &cfg)
{
    // Field order mirrors ckpt::mix_config — the hash schema doubles as
    // the wire schema, so neither can drift without the other.
    w.put_i32(cfg.mesh_width);
    w.put_i32(cfg.mesh_height);
    w.put_i32(cfg.concentration);
    w.put_i32(cfg.region_width);
    w.put_bool(cfg.torus);

    w.put_i32(cfg.num_subnets);
    w.put_i32(cfg.total_link_bits);
    w.put_i32(cfg.num_vcs);
    w.put_i32(cfg.vc_depth_flits);
    w.put_i32(cfg.num_classes);
    w.put_i32(cfg.ni_queue_flits);

    w.put_i32(static_cast<std::int32_t>(cfg.selector));
    w.put_i32(static_cast<std::int32_t>(cfg.gating));
    w.put_i32(static_cast<std::int32_t>(cfg.congestion.metric));
    w.put_double(cfg.congestion.threshold);
    w.put_i32(cfg.congestion.window);
    w.put_i32(cfg.congestion.lcs_hold);
    w.put_bool(cfg.congestion.use_rcs);
    w.put_i32(cfg.congestion.rcs_period);

    w.put_i32(cfg.t_wakeup);
    w.put_i32(cfg.wakeup_hidden);
    w.put_i32(cfg.t_breakeven);
    w.put_i32(cfg.t_idle_detect);
    w.put_u64(cfg.seed);

    put_fault_plan(w, cfg.fault);
}

MultiNocConfig
take_multinoc_config(ckpt::Reader &r)
{
    MultiNocConfig cfg;
    cfg.mesh_width = r.take_i32();
    cfg.mesh_height = r.take_i32();
    cfg.concentration = r.take_i32();
    cfg.region_width = r.take_i32();
    cfg.torus = r.take_bool();

    cfg.num_subnets = r.take_i32();
    cfg.total_link_bits = r.take_i32();
    cfg.num_vcs = r.take_i32();
    cfg.vc_depth_flits = r.take_i32();
    cfg.num_classes = r.take_i32();
    cfg.ni_queue_flits = r.take_i32();

    cfg.selector = static_cast<SelectorKind>(r.take_i32());
    cfg.gating = static_cast<GatingKind>(r.take_i32());
    cfg.congestion.metric = static_cast<CongestionMetric>(r.take_i32());
    cfg.congestion.threshold = r.take_double();
    cfg.congestion.window = r.take_i32();
    cfg.congestion.lcs_hold = r.take_i32();
    cfg.congestion.use_rcs = r.take_bool();
    cfg.congestion.rcs_period = r.take_i32();

    cfg.t_wakeup = r.take_i32();
    cfg.wakeup_hidden = r.take_i32();
    cfg.t_breakeven = r.take_i32();
    cfg.t_idle_detect = r.take_i32();
    cfg.seed = r.take_u64();

    take_fault_plan(r, cfg.fault);
    return cfg;
}

void
put_synthetic_config(ckpt::Writer &w, const SyntheticConfig &t)
{
    w.put_i32(static_cast<std::int32_t>(t.pattern));
    w.put_double(t.load);
    w.put_i32(t.packet_bits);
    w.put_i32(static_cast<std::int32_t>(t.mc));
    w.put_bool(t.node_bursts);
    w.put_double(t.burst_on_fraction);
    w.put_double(t.burst_mean_len);
}

SyntheticConfig
take_synthetic_config(ckpt::Reader &r)
{
    SyntheticConfig t;
    t.pattern = static_cast<PatternKind>(r.take_i32());
    t.load = r.take_double();
    t.packet_bits = r.take_i32();
    t.mc = static_cast<MessageClass>(r.take_i32());
    t.node_bursts = r.take_bool();
    t.burst_on_fraction = r.take_double();
    t.burst_mean_len = r.take_double();
    return t;
}

void
put_run_params(ckpt::Writer &w, const RunParams &p)
{
    w.put_u64(p.warmup);
    w.put_u64(p.measure);
    w.put_u64(p.drain_max);
    w.put_bool(p.voltage_scaling);
    w.put_u64(p.seed);
}

RunParams
take_run_params(ckpt::Reader &r)
{
    RunParams p;
    p.warmup = r.take_u64();
    p.measure = r.take_u64();
    p.drain_max = r.take_u64();
    p.voltage_scaling = r.take_bool();
    p.seed = r.take_u64();
    return p;
}

void
put_synth_result(ckpt::Writer &w, const SyntheticResult &res)
{
    w.put_string(res.config_label);
    w.put_double(res.offered_load);
    w.put_double(res.offered_rate);
    w.put_double(res.accepted_rate);
    w.put_double(res.avg_latency);
    w.put_double(res.avg_net_latency);
    w.put_double(res.p50_latency);
    w.put_double(res.p99_latency);
    w.put_double(res.csc_percent);
    w.put_double(res.vdd);
    put_power(w, res.power);
    put_power(w, res.power_static);
    w.put_u64(res.measured_packets);
    w.put_bool(res.drained);
    w.put_u64(res.retransmits);
    w.put_u64(res.dropped_packets);
    w.put_u64(res.faults_fired);
    w.put_u64(res.subnet_failures);
}

SyntheticResult
take_synth_result(ckpt::Reader &r)
{
    SyntheticResult res;
    res.config_label = r.take_string();
    res.offered_load = r.take_double();
    res.offered_rate = r.take_double();
    res.accepted_rate = r.take_double();
    res.avg_latency = r.take_double();
    res.avg_net_latency = r.take_double();
    res.p50_latency = r.take_double();
    res.p99_latency = r.take_double();
    res.csc_percent = r.take_double();
    res.vdd = r.take_double();
    res.power = take_power(r);
    res.power_static = take_power(r);
    res.measured_packets = r.take_u64();
    res.drained = r.take_bool();
    res.retransmits = r.take_u64();
    res.dropped_packets = r.take_u64();
    res.faults_fired = r.take_u64();
    res.subnet_failures = r.take_u64();
    return res;
}

bool
decode_synth_result(const std::vector<std::uint8_t> &payload,
                    SyntheticResult &out)
{
    try {
        ckpt::Reader r(payload);
        out = take_synth_result(r);
        r.expect_exhausted();
        return true;
    } catch (const ckpt::CkptError &) {
        return false;
    }
}

std::string
key_hex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
}

std::uint64_t
point_hash(const RunItem &item)
{
    // Domain tag "PNT1": a point identity is not a bare-network
    // config_hash() and must never match one.
    return run_config_hash(item.cfg, 0x31544e50u, item.traffic,
                           item.params);
}

std::vector<std::uint8_t>
encode_point_spec(const RunItem &item)
{
    ckpt::Writer w;
    put_multinoc_config(w, item.cfg);
    put_synthetic_config(w, item.traffic);
    put_run_params(w, item.params);
    return ckpt::seal(spec_hash(), w.bytes());
}

RunItem
decode_point_spec(const std::vector<std::uint8_t> &bytes)
{
    const std::vector<std::uint8_t> payload =
        ckpt::open(spec_hash(), bytes);
    ckpt::Reader r(payload);
    RunItem item;
    item.cfg = take_multinoc_config(r);
    item.traffic = take_synthetic_config(r);
    item.params = take_run_params(r);
    r.expect_exhausted();
    return item;
}

std::vector<std::uint8_t>
encode_point_result(const RunItem &item, const SyntheticResult &res)
{
    ckpt::Writer w;
    put_synth_result(w, res);
    return ckpt::seal(point_hash(item), w.bytes());
}

SyntheticResult
decode_point_result(const RunItem &item,
                    const std::vector<std::uint8_t> &bytes)
{
    const std::vector<std::uint8_t> payload =
        ckpt::open(point_hash(item), bytes);
    ckpt::Reader r(payload);
    const SyntheticResult res = take_synth_result(r);
    r.expect_exhausted();
    return res;
}

} // namespace catnap
