#include "traced.h"

#include <chrono>

#include "fault/fault.h"
#include "noc/multinoc.h"
#include "power/power_meter.h"
#include "traffic/synthetic.h"

namespace perfbench {

using namespace catnap;

namespace {

using Clock = std::chrono::steady_clock;

double
secs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
micros(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint32_t
nanos(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/** The run loop of SyntheticRun (sim/simulator.cc), one statement at a
 * time, with each module call timed. */
PointRun
traced_synthetic(const Point &p)
{
    const RunParams &rp = p.item.params;
    const SyntheticConfig &traffic = p.item.traffic;
    PointRun run;
    LayerStats &st = run.stats;

    const auto t0 = Clock::now();
    MultiNocConfig cfg = p.item.cfg;
    cfg.seed = rp.seed;
    MultiNoc net(cfg);
    // SyntheticRun's generator seed derivation.
    SyntheticTraffic gen(&net, traffic, rp.seed ^ 0xabcdef12345ULL);
    net.metrics().set_measurement_window(rp.warmup, rp.warmup + rp.measure);
    const double vdd = config_vdd(cfg, rp);
    PowerMeter meter(net, vdd);
    const auto t1 = Clock::now();
    st.setup_s = secs(t0, t1);

    std::uint64_t tick_ns = 0, step_ns = 0;
    auto timed_tick = [&] {
        const auto a = Clock::now();
        net.tick();
        const std::uint32_t d = nanos(a, Clock::now());
        st.tick_ns.push_back(d);
        tick_ns += d;
    };
    auto step = [&] {
        const auto a = Clock::now();
        gen.step(net.now());
        const std::uint32_t d = nanos(a, Clock::now());
        st.step_ns.push_back(d);
        step_ns += d;
        timed_tick();
    };

    while (net.now() < rp.warmup)
        step();
    const auto t2 = Clock::now();
    st.warmup_s = secs(t1, t2);

    const Cycle m_end = rp.warmup + rp.measure;
    auto a = Clock::now();
    meter.begin();
    st.begin_us = micros(a, Clock::now());
    const std::uint64_t offered0 = net.metrics().offered_packets();
    const std::uint64_t ejected0 = net.metrics().ejected_packets();
    while (net.now() < m_end)
        step();
    a = Clock::now();
    net.finalize_accounting();
    st.finalize_us = micros(a, Clock::now());
    const std::uint64_t offered1 = net.metrics().offered_packets();
    const std::uint64_t ejected1 = net.metrics().ejected_packets();

    SyntheticResult res;
    res.config_label = cfg.label();
    res.offered_load = traffic.load;
    res.vdd = vdd;
    a = Clock::now();
    res.power = meter.report();
    res.power_static = meter.report_static();
    res.csc_percent = meter.csc_percent();
    st.report_us = micros(a, Clock::now());

    const double node_cycles = static_cast<double>(rp.measure) *
                               static_cast<double>(net.num_nodes());
    res.offered_rate = static_cast<double>(offered1 - offered0) / node_cycles;
    res.accepted_rate =
        static_cast<double>(ejected1 - ejected0) / node_cycles;

    const Cycle drain_end = net.now() + rp.drain_max;
    while (net.now() < drain_end && !net.quiescent())
        timed_tick();
    res.drained = net.quiescent();
    res.retransmits = net.metrics().retransmits();
    res.dropped_packets = net.metrics().dropped_packets();
    if (const FaultController *fault = net.fault()) {
        res.faults_fired = fault->faults_fired();
        res.subnet_failures = fault->subnet_failures();
    }
    res.avg_latency = net.metrics().total_latency().mean();
    res.avg_net_latency = net.metrics().network_latency().mean();
    res.p50_latency = net.metrics().latency_histogram().quantile(0.50);
    res.p99_latency = net.metrics().latency_histogram().quantile(0.99);
    res.measured_packets = net.metrics().total_latency().count();
    st.finish_s = secs(t2, Clock::now());

    st.tick_s = static_cast<double>(tick_ns) * 1e-9;
    st.step_s = static_cast<double>(step_ns) * 1e-9;
    st.cycles = net.now();
    st.drain_cycles = net.now() - m_end;
    st.undrained_points = res.drained ? 0 : 1;
    st.router_cycles = net.now() *
                       static_cast<std::uint64_t>(net.num_subnets()) *
                       static_cast<std::uint64_t>(net.num_nodes());
    st.noc_activity = net.total_activity();
    st.activity = st.noc_activity;
    st.packets = gen.generated();

    run.out.ok = true;
    run.out.syn = res;
    run.out.cycles = net.now();
    run.state = state_digest(net);
    return run;
}

/** run_app_workload (app/system.cc) with each CmpSystem::tick timed;
 * untraced, the same statements with CmpSystem::run. */
PointRun
app_point(const Point &p, bool traced)
{
    const AppRunParams &ap = p.app_params;
    PointRun run;
    LayerStats &st = run.stats;

    const auto t0 = Clock::now();
    MultiNocConfig cfg = p.app_cfg;
    cfg.seed = ap.seed;
    SystemParams sp;
    sp.seed = ap.seed;
    CmpSystem system(cfg, p.mix, sp);
    const auto t1 = Clock::now();
    st.setup_s = secs(t0, t1);

    RunParams rp;
    rp.voltage_scaling = ap.voltage_scaling;
    const double vdd = config_vdd(cfg, rp);
    system.net().metrics().set_measurement_window(ap.warmup,
                                                  ap.warmup + ap.measure);
    auto run_for = [&](Cycle cycles) {
        if (!traced) {
            system.run(cycles);
            return;
        }
        for (Cycle i = 0; i < cycles; ++i) {
            const auto a = Clock::now();
            system.tick();
            st.app_tick_ns.push_back(nanos(a, Clock::now()));
        }
    };

    run_for(ap.warmup);
    const auto t2 = Clock::now();
    st.warmup_s = secs(t1, t2);
    PowerMeter meter(system.net(), vdd);
    auto a = Clock::now();
    meter.begin();
    st.begin_us = micros(a, Clock::now());
    const std::uint64_t retired0 = system.total_retired();
    run_for(ap.measure);
    a = Clock::now();
    system.net().finalize_accounting();
    st.finalize_us = micros(a, Clock::now());

    AppRunResult &res = run.out.app;
    res.config_label = cfg.label();
    res.workload = p.mix.name;
    res.ipc = static_cast<double>(system.total_retired() - retired0) /
              static_cast<double>(ap.measure) /
              static_cast<double>(system.net().mesh().num_cores());
    res.avg_latency = system.net().metrics().total_latency().mean();
    a = Clock::now();
    res.csc_percent = meter.csc_percent();
    res.vdd = vdd;
    res.power = meter.report();
    res.power_static = meter.report_static();
    st.report_us = micros(a, Clock::now());
    st.finish_s = secs(t2, Clock::now());

    st.cycles = system.net().now();
    st.activity = system.net().total_activity();
    st.retired = system.total_retired();
    st.misses_completed = system.misses_completed();

    run.out.ok = true;
    run.out.cycles = system.net().now();
    run.state = state_digest(system.net());
    return run;
}

PointRun
untraced_synthetic(const Point &p)
{
    PointRun run;
    SyntheticRun sim(p.item.cfg, p.item.traffic, p.item.params);
    sim.run_warmup();
    run.out.syn = sim.finish();
    run.out.ok = true;
    run.out.cycles = sim.now();
    run.state = state_digest(sim.net());
    return run;
}

template <typename Fn>
PointRun
guarded(Fn &&fn)
{
    try {
        return fn();
    } catch (const std::exception &e) {
        PointRun run;
        run.out.error = e.what();
        return run;
    }
}

void
append(std::vector<std::uint32_t> &into, const std::vector<std::uint32_t> &v)
{
    into.insert(into.end(), v.begin(), v.end());
}

} // namespace

void
LayerStats::merge(const LayerStats &o)
{
    setup_s += o.setup_s;
    warmup_s += o.warmup_s;
    finish_s += o.finish_s;
    cycles += o.cycles;
    drain_cycles += o.drain_cycles;
    undrained_points += o.undrained_points;
    append(tick_ns, o.tick_ns);
    tick_s += o.tick_s;
    router_cycles += o.router_cycles;
    noc_activity.add(o.noc_activity);
    finalize_us += o.finalize_us;
    append(step_ns, o.step_ns);
    step_s += o.step_s;
    packets += o.packets;
    activity.add(o.activity);
    begin_us += o.begin_us;
    report_us += o.report_us;
    append(app_tick_ns, o.app_tick_ns);
    retired += o.retired;
    misses_completed += o.misses_completed;
}

PointRun
run_traced(const Point &p)
{
    return guarded([&p] {
        return p.app ? app_point(p, true) : traced_synthetic(p);
    });
}

PointRun
run_untraced(const Point &p)
{
    return guarded([&p] {
        return p.app ? app_point(p, false) : untraced_synthetic(p);
    });
}

} // namespace perfbench
