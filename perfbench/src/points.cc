#include "points.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using namespace catnap;

namespace {

/** Phases of every synthetic point: 40% of the fig10 harness's
 * 1500/5000/6000 cycles, so the serial reference and two jobs=2 passes
 * of the fig10 grid fit into one benchmark run. */
RunParams
synthetic_params(std::uint64_t seed)
{
    RunParams rp;
    rp.warmup = 500;
    rp.measure = 2000;
    rp.drain_max = 2000;
    rp.seed = seed;
    return rp;
}

/** Phases of the closed-loop CMP point. */
AppRunParams
app_params(std::uint64_t seed)
{
    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 5000;
    ap.seed = seed;
    return ap;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The run seed of point @p index of a workload seeded with @p seed. */
std::uint64_t
point_seed(std::uint64_t seed, std::size_t index)
{
    return splitmix64(splitmix64(seed) ^ static_cast<std::uint64_t>(index));
}

std::string
load_id(const MultiNocConfig &cfg, double load)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "@%.2f", load);
    return cfg.label() + buf;
}

void
add_synthetic(Workload &w, std::uint64_t seed, const MultiNocConfig &cfg,
              const std::vector<double> &loads)
{
    for (double load : loads) {
        Point p;
        p.id = load_id(cfg, load);
        p.item.cfg = cfg;
        p.item.traffic.load = load;
        p.item.params = synthetic_params(point_seed(seed, w.points.size()));
        w.points.push_back(std::move(p));
    }
}

std::size_t
index_of(const Workload &w, const std::string &id)
{
    for (std::size_t i = 0; i < w.points.size(); ++i)
        if (w.points[i].id == id)
            return i;
    throw std::logic_error("perfbench: no point " + id + " in " + w.name);
}

PaperCheck
csc_check(const Workload &w, const std::string &id, double paper)
{
    const std::size_t i = index_of(w, id);
    return {"CSC " + id + " (%)", paper,
            [i](const std::vector<Outcome> &o) { return o[i].syn.csc_percent; }};
}

PaperCheck
power_check(const Workload &w, const std::string &id, double paper)
{
    const std::size_t i = index_of(w, id);
    return {"power " + id + " (W)", paper,
            [i](const std::vector<Outcome> &o) {
                return o[i].syn.power.total();
            }};
}

/** Figure 10's four checks at 0.03 (bench/fig10_synthetic_sweep.cc). */
void
add_fig10_checks(Workload &w)
{
    w.checks.push_back(csc_check(w, "4NT-128b-PG@0.03", 74.0));
    w.checks.push_back(csc_check(w, "1NT-512b-PG@0.03", 10.0));
    w.checks.push_back(power_check(w, "4NT-128b-PG@0.03", 7.8));
    w.checks.push_back(power_check(w, "1NT-512b-PG@0.03", 24.1));
}

// The four configurations of Figure 10.
MultiNocConfig single() { return single_noc_config(512); }
MultiNocConfig
multi()
{
    return multi_noc_config(4, GatingKind::kAlwaysOn,
                            SelectorKind::kRoundRobin);
}
MultiNocConfig single_pg() { return single_noc_config(512, GatingKind::kIdle); }
MultiNocConfig multi_pg() { return multi_noc_config(4, GatingKind::kCatnap); }

// Catnap's operating regime: most routers of the higher subnets asleep.
Workload
lowload_gated(std::uint64_t seed)
{
    Workload w{"lowload_gated", Backend::kSerial, 1, {}, {}};
    add_synthetic(w, seed, multi_pg(), {0.01, 0.03, 0.05});
    Point p;
    p.app = true;
    p.app_cfg = multi_pg();
    p.mix = light_mix();
    p.app_params = app_params(point_seed(seed, w.points.size()));
    p.id = multi_pg().label() + "/" + p.mix.name;
    const std::size_t cmp = w.points.size();
    w.points.push_back(std::move(p));

    w.checks.push_back(csc_check(w, "4NT-128b-PG@0.03", 74.0));
    w.checks.push_back(power_check(w, "4NT-128b-PG@0.03", 7.8));
    // Figures 8 and 9, Light mix on 4NT-128b-PG.
    w.checks.push_back({"power Light 4NT-128b-PG (W)", 7.25,
                        [cmp](const std::vector<Outcome> &o) {
                            return o[cmp].app.power.total();
                        }});
    w.checks.push_back({"CSC Light 4NT-128b-PG (%)", 70.0,
                        [cmp](const std::vector<Outcome> &o) {
                            return o[cmp].app.csc_percent;
                        }});
    return w;
}

// Every router busy every cycle: allocation dominates, nothing to skip.
Workload
high_load(std::uint64_t seed)
{
    Workload w{"high_load", Backend::kSerial, 1, {}, {}};
    add_synthetic(w, seed, single(), {0.30, 0.40});
    add_synthetic(w, seed, multi(), {0.30, 0.40});
    const std::size_t one = index_of(w, "1NT-512b@0.40");
    const std::size_t four = index_of(w, "4NT-128b@0.40");
    // Figure 6: the Multi-NoC matches the Single-NoC's saturation
    // throughput.
    w.checks.push_back({"4NT/1NT accepted @0.40", 1.0,
                        [one, four](const std::vector<Outcome> &o) {
                            return o[four].syn.accepted_rate /
                                   o[one].syn.accepted_rate;
                        }});
    return w;
}

// The sweep users wait for; point cost varies ~70x across the grid.
Workload
fig10_grid(std::uint64_t seed)
{
    Workload w{"fig10_grid", Backend::kSweep, 2, {}, {}};
    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10, 0.15,
                                       0.20, 0.25, 0.30, 0.40};
    for (const MultiNocConfig &cfg : {single(), multi(), single_pg(), multi_pg()})
        add_synthetic(w, seed, cfg, loads);
    add_fig10_checks(w);
    return w;
}

// Cheap points, where per-point overhead rivals simulation time.
Workload
service_grid(std::uint64_t seed)
{
    Workload w{"service_grid", Backend::kServed, 2, {}, {}};
    const std::vector<double> loads = {0.01, 0.02, 0.03, 0.04,
                                       0.05, 0.06, 0.08, 0.10};
    add_synthetic(w, seed, single_pg(), loads);
    add_synthetic(w, seed, multi_pg(), loads);
    add_fig10_checks(w);
    return w;
}

class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void
    power(const PowerBreakdown &p)
    {
        for (double v : {p.buffer, p.crossbar, p.control, p.clock, p.link,
                         p.ni, p.or_net})
            f64(v);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::vector<RunItem>
Workload::items() const
{
    std::vector<RunItem> out;
    for (const Point &p : points)
        if (!p.app)
            out.push_back(p.item);
    return out;
}

Workload
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "lowload_gated")
        return lowload_gated(seed);
    if (name == "high_load")
        return high_load(seed);
    if (name == "fig10_grid")
        return fig10_grid(seed);
    if (name == "service_grid")
        return service_grid(seed);
    throw std::invalid_argument("unknown workload '" + name +
                                "' (lowload_gated, high_load, fig10_grid, "
                                "service_grid)");
}

std::uint64_t
result_digest(const Point &p, const Outcome &o)
{
    Fnv h;
    if (p.app) {
        const AppRunResult &r = o.app;
        h.str(r.config_label);
        h.str(r.workload);
        h.f64(r.ipc);
        h.f64(r.avg_latency);
        h.f64(r.csc_percent);
        h.f64(r.vdd);
        h.power(r.power);
        h.power(r.power_static);
        return h.value();
    }
    const SyntheticResult &r = o.syn;
    h.str(r.config_label);
    h.f64(r.offered_load);
    h.f64(r.offered_rate);
    h.f64(r.accepted_rate);
    h.f64(r.avg_latency);
    h.f64(r.avg_net_latency);
    h.f64(r.p50_latency);
    h.f64(r.p99_latency);
    h.f64(r.csc_percent);
    h.f64(r.vdd);
    h.power(r.power);
    h.power(r.power_static);
    h.u64(r.measured_packets);
    h.u64(r.drained ? 1 : 0);
    h.u64(r.retransmits);
    h.u64(r.dropped_packets);
    h.u64(r.faults_fired);
    h.u64(r.subnet_failures);
    return h.value();
}

std::uint64_t
state_digest(const MultiNoc &net)
{
    ckpt::Writer w;
    net.metrics().Serialize(w);
    for (SubnetId s = 0; s < net.num_subnets(); ++s)
        for (NodeId n = 0; n < net.num_nodes(); ++n)
            net.router(s, n).activity().Serialize(w);
    Fnv h;
    h.bytes(w.bytes().data(), w.bytes().size());
    return h.value();
}

Outcome
run_point(const Point &p)
{
    Outcome o;
    try {
        if (p.app) {
            o.app = run_app_workload(p.app_cfg, p.mix, p.app_params);
            o.cycles = p.app_params.warmup + p.app_params.measure;
        } else {
            SyntheticRun run(p.item.cfg, p.item.traffic, p.item.params);
            run.run_warmup();
            o.syn = run.finish();
            o.cycles = run.now();
        }
        o.ok = true;
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    return o;
}

std::string
reference_line(const Workload &w, std::uint64_t seed, std::size_t index,
               const RefEntry &e)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx %llu",
                  static_cast<unsigned long long>(e.digest),
                  static_cast<unsigned long long>(e.cycles));
    return "ref " + w.name + " " + std::to_string(seed) + " " +
           std::to_string(index) + " " + w.points[index].id + " " + buf;
}

Reference
load_reference(const std::string &path, const Workload &w,
               std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference file " + path);
    Reference ref(w.points.size());
    std::vector<bool> seen(w.points.size(), false);
    std::size_t found = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag, name, id, hex;
        std::uint64_t s = 0, cycles = 0;
        std::size_t index = 0;
        if (!(ls >> tag >> name >> s >> index >> id >> hex >> cycles) ||
            tag != "ref" || name != w.name || s != seed)
            continue;
        if (index >= w.points.size() || w.points[index].id != id ||
            seen[index])
            throw std::runtime_error("reference file " + path +
                                     ": bad entry: " + line);
        seen[index] = true;
        ref[index] = {std::stoull(hex, nullptr, 16), cycles};
        ++found;
    }
    if (found == 0)
        return {};
    if (found != w.points.size())
        throw std::runtime_error("reference file " + path + " lists " +
                                 std::to_string(found) + " of " +
                                 std::to_string(w.points.size()) +
                                 " points of " + w.name);
    return ref;
}

std::map<std::size_t, std::string>
check_tracks_inputs(const Workload &w, const std::vector<Outcome> &out)
{
    std::map<std::size_t, std::string> bad;
    std::map<std::string, std::vector<std::size_t>> by_config;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &p = w.points[i];
        if (p.app || !out[i].ok)
            continue;
        const double load = p.item.traffic.load;
        const double offered = out[i].syn.offered_rate;
        const double trials = static_cast<double>(p.item.params.measure) *
                              static_cast<double>(p.item.cfg.mesh_width *
                                                  p.item.cfg.mesh_height);
        const double sigma = std::sqrt(load * (1.0 - load) / trials);
        if (std::fabs(offered - load) > kOfferedSigmas * sigma) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "offered rate %.5f does not track load %.2f",
                          offered, load);
            bad[i] = buf;
        }
        by_config[p.item.cfg.label()].push_back(i);
    }
    for (auto &[label, idx] : by_config) {
        std::sort(idx.begin(), idx.end(), [&w](std::size_t a, std::size_t b) {
            return w.points[a].item.traffic.load <
                   w.points[b].item.traffic.load;
        });
        for (std::size_t k = 1; k < idx.size(); ++k) {
            const std::size_t lo = idx[k - 1], hi = idx[k];
            const double load = w.points[hi].item.traffic.load;
            const double acc_hi = out[hi].syn.accepted_rate;
            if (acc_hi >= 0.9 * load &&
                !(acc_hi > out[lo].syn.accepted_rate))
                bad.emplace(hi, "accepted rate does not rise with load");
        }
    }
    return bad;
}

double
paper_gap_pct(const Workload &w, const std::vector<Outcome> &out)
{
    double sum = 0.0;
    for (const PaperCheck &c : w.checks)
        sum += std::fabs(c.measured(out) - c.paper) / c.paper;
    return 100.0 * sum / static_cast<double>(w.checks.size());
}

} // namespace perfbench
