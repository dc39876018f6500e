/**
 * @file
 * perfbench: the simulator benchmark. One invocation runs one workload
 * for a given host-time budget and prints, as its last stdout line, a
 * JSON object with the end-to-end metrics (--trace 0) or the per-layer
 * metrics of a traced run (--trace 1). Every result is checked against
 * the serial in-process reference digests and the load-tracking oracle
 * (points.h). perfbench/run.py builds this binary and invokes it; see
 * perfbench/README.md for the workloads and metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/proc_runner.h"
#include "points.h"
#include "serve/client.h"
#include "serve/server.h"
#include "traced.h"

using namespace catnap;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of @p v (0 when empty). */
template <typename T>
double
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return static_cast<double>(v[k]);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string bin_dir;   ///< holds the catnap_sim worker
    std::string work_dir;  ///< scratch files, sockets, caches
    std::string reference; ///< checked-in reference digests
    bool reference_only = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --bin-dir DIR --work-dir DIR --reference "
                 "FILE [--reference-only]\n",
                 why);
    std::exit(2);
}

Args
parse_args(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--reference-only") {
            a.reference_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--bin-dir")
                a.bin_dir = v;
            else if (k == "--work-dir")
                a.work_dir = v;
            else if (k == "--reference")
                a.reference = v;
            else
                usage(("unknown option " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload.empty() || a.bin_dir.empty() || a.work_dir.empty() ||
        a.reference.empty())
        usage("--workload, --bin-dir, --work-dir and --reference are "
              "required");
    return a;
}

/** Counts attempted and failed checks. A point fails when it threw or
 * was quarantined, its digest differs from the serial reference, or it
 * violates the load-tracking oracle. */
class Checker
{
  public:
    Checker(const Workload &w, const Reference &ref) : w_(w), ref_(ref) {}

    void
    check(const std::vector<Outcome> &out, const char *pass)
    {
        const auto oracle = check_tracks_inputs(w_, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            std::string why;
            if (!out[i].ok)
                why = out[i].error.empty() ? "no result" : out[i].error;
            else if (result_digest(w_.points[i], out[i]) != ref_[i].digest)
                why = "digest differs from the serial reference";
            else if (oracle.count(i))
                why = oracle.at(i);
            expect(why.empty(), pass, w_.points[i].id + ": " + why);
        }
    }

    /** Counts one attempted check of @p what; a failure when !@p ok. */
    void
    expect(bool ok, const char *pass, const std::string &what)
    {
        ++attempted_;
        if (!ok && ++failed_ <= 20)
            std::printf("FAIL %s %s\n", pass, what.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    const Workload &w_;
    const Reference &ref_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Named metrics in insertion order, printed as the result line. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        std::string s = "{\"correct\": ";
        s += correct ? "true" : "false";
        s += ", \"attempted\": " + std::to_string(attempted);
        s += ", \"failed\": " + std::to_string(failed);
        s += ", \"metrics\": {";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
            s += (i ? ", \"" : "\"") + items_[i].name +
                 "\": {\"value\": " + buf + ", \"unit\": \"" +
                 items_[i].unit + "\"}";
        }
        s += "}}";
        std::printf("%s\n", s.c_str());
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

std::string
path_in(const std::string &dir, const std::string &name)
{
    return (std::filesystem::path(dir) / name).string();
}

/** A served batch: cold pass, then the same batch again warm. */
struct ServedRun
{
    std::vector<Outcome> cold, warm;
    double start_s = 0.0; ///< ServeServer construction + start()
    double cold_s = 0.0, warm_s = 0.0;
    serve::ServeStats stats;
    bool cold_all_misses = false;
    bool warm_all_hits = false;
};

serve::ServeConfig
serve_config(const Workload &w, const Args &args)
{
    serve::ServeConfig sc;
    sc.socket_path = path_in(args.work_dir, "serve.sock");
    sc.cache.path = path_in(args.work_dir, "serve-cache.bin");
    sc.exec.jobs = w.jobs;
    sc.exec.isolate = true;
    sc.exec.worker = path_in(args.bin_dir, "catnap_sim");
    sc.exec.scratch = path_in(args.work_dir, "serve-scratch");
    std::filesystem::remove(sc.socket_path);
    std::filesystem::remove(sc.cache.path);
    return sc;
}

std::vector<Outcome>
served_outcomes(const serve::ServedSweep &s)
{
    std::vector<Outcome> out(s.results.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].ok = s.statuses[i] != serve::ServedStatus::kQuarantined;
        out[i].syn = s.results[i];
        out[i].error = s.errors[i];
    }
    return out;
}

ServedRun
run_served(const Workload &w, const Args &args)
{
    ServedRun r;
    const std::vector<RunItem> items = w.items();
    const serve::ServeConfig sc = serve_config(w, args);
    const auto t0 = Clock::now();
    serve::ServeServer server(sc);
    server.start();
    r.start_s = since(t0);

    serve::ServeClientOptions co;
    co.socket_path = sc.socket_path;
    co.attempts = 20;
    co.retry_delay_ms = 50;
    try {
        auto t = Clock::now();
        const serve::ServedSweep cold = serve::run_batch_served(items, co);
        r.cold_s = since(t);
        t = Clock::now();
        const serve::ServedSweep warm = serve::run_batch_served(items, co);
        r.warm_s = since(t);
        r.cold = served_outcomes(cold);
        r.warm = served_outcomes(warm);
        r.cold_all_misses = cold.misses == items.size();
        r.warm_all_hits = warm.hits == items.size();
    } catch (const std::exception &e) {
        r.cold.assign(items.size(), Outcome{});
        r.warm.assign(items.size(), Outcome{});
        for (Outcome &o : r.cold)
            o.error = e.what();
        r.warm = r.cold;
    }
    r.stats = server.stats();
    server.stop();
    return r;
}

/** Outcomes of one untraced execution of the whole batch through the
 * workload's own backend. */
std::vector<Outcome>
run_backend(const Workload &w)
{
    if (w.backend == Backend::kSerial) {
        std::vector<Outcome> out;
        for (const Point &p : w.points)
            out.push_back(run_point(p));
        return out;
    }
    std::vector<Outcome> out(w.points.size());
    try {
        ExecOptions eo;
        eo.jobs = w.jobs;
        const std::vector<SyntheticResult> res = run_batch(w.items(), eo);
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i].ok = true;
            out[i].syn = res[i];
        }
    } catch (const std::exception &e) {
        for (Outcome &o : out)
            o.error = e.what();
    }
    return out;
}

/** Host seconds to construct every simulation object of the batch
 * (and, for the served workload, to start the daemon): the median of
 * several set-ups, each destroyed untimed. */
double
measure_setup(const Workload &w, const Args &args)
{
    std::vector<double> totals;
    const auto t_start = Clock::now();
    while (totals.size() < 5 ||
           (totals.size() < 1000 && since(t_start) < 1.0)) {
        double total = 0.0;
        for (const Point &p : w.points) {
            if (p.app) {
                MultiNocConfig cfg = p.app_cfg;
                cfg.seed = p.app_params.seed;
                SystemParams sp;
                sp.seed = p.app_params.seed;
                const auto t0 = Clock::now();
                auto sys = std::make_unique<CmpSystem>(cfg, p.mix, sp);
                total += since(t0);
            } else {
                const auto t0 = Clock::now();
                auto run = std::make_unique<SyntheticRun>(
                    p.item.cfg, p.item.traffic, p.item.params);
                total += since(t0);
            }
        }
        if (w.backend == Backend::kServed) {
            const serve::ServeConfig sc = serve_config(w, args);
            const auto t0 = Clock::now();
            serve::ServeServer server(sc);
            server.start();
            total += since(t0);
            server.stop();
        }
        totals.push_back(total);
    }
    return median(totals);
}

double
peak_rss_mb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Serial in-process reference for (@p w, seed), computed here when the
 * checked-in file has none for this seed. */
Reference
compute_reference(const Workload &w)
{
    Reference ref;
    for (const Point &p : w.points) {
        const Outcome o = run_point(p);
        ref.push_back({o.ok ? result_digest(p, o) : 0, o.cycles});
        if (!o.ok)
            std::printf("FAIL reference %s: %s\n", p.id.c_str(),
                        o.error.c_str());
    }
    return ref;
}

std::uint64_t
reference_cycles(const Reference &ref)
{
    std::uint64_t c = 0;
    for (const RefEntry &e : ref)
        c += e.cycles;
    return c;
}

/** End-to-end run: repeat the closed-loop batch until the time budget
 * is spent and report medians over the repetitions. */
int
run_end_to_end(const Workload &w, const Args &args, const Reference &ref)
{
    Checker checker(w, ref);
    const double setup_s = measure_setup(w, args);
    const double cycles = static_cast<double>(reference_cycles(ref));

    std::vector<double> walls, rates;
    const auto t_start = Clock::now();
    while (walls.size() < 2 ||
           since(t_start) + median(walls) <= args.seconds) {
        double wall = 0.0;
        if (w.backend == Backend::kServed) {
            ServedRun s = run_served(w, args);
            wall = s.cold_s + s.warm_s;
            checker.check(s.cold, "cold");
            checker.check(s.warm, "warm");
            checker.expect(s.cold_all_misses, "cold",
                           "pass was not executed in full");
            checker.expect(s.warm_all_hits &&
                               s.stats.executed == w.points.size(),
                           "warm", "pass was not served from the cache");
        } else {
            const auto t0 = Clock::now();
            const std::vector<Outcome> out = run_backend(w);
            wall = since(t0);
            checker.check(out, "run");
        }
        walls.push_back(wall);
        rates.push_back(cycles / wall);
    }

    std::printf("# %s: %zu repetitions, median wall %.4f s\n",
                w.name.c_str(), walls.size(), median(walls));
    Metrics m;
    m.add("wall_s", median(walls), "s");
    m.add("sim_cycles_per_s", median(rates), "cycles/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("success_rate",
          static_cast<double>(checker.attempted() - checker.failed()) /
              static_cast<double>(checker.attempted()),
          "ratio");
    m.print(checker.failed() == 0, checker.attempted(), checker.failed());
    return 0;
}

/** Where each point of a pass ran, relative to the pass start. */
struct Span
{
    double start = 0.0;
    double end = 0.0;
};

struct Pass
{
    std::vector<PointRun> runs;
    std::vector<Span> spans;
    double wall = 0.0;
};

/** Runs @p fn over every point, serially or on a SweepRunner with the
 * workload's job count, recording when each point ran. */
template <typename Fn>
Pass
run_pass(const Workload &w, Fn fn)
{
    Pass pass;
    pass.spans.resize(w.points.size());
    const auto t0 = Clock::now();
    auto body = [&](std::size_t i) {
        pass.spans[i].start = since(t0);
        PointRun r = fn(w.points[i]);
        pass.spans[i].end = since(t0);
        return r;
    };
    if (w.jobs == 1) {
        for (std::size_t i = 0; i < w.points.size(); ++i)
            pass.runs.push_back(body(i));
    } else {
        ExecOptions eo;
        eo.jobs = w.jobs;
        SweepRunner runner(eo);
        pass.runs = runner.map<PointRun>(w.points.size(), body);
    }
    pass.wall = since(t0);
    return pass;
}

std::vector<Outcome>
outcomes(const Pass &p)
{
    std::vector<Outcome> out;
    for (const PointRun &r : p.runs)
        out.push_back(r.out);
    return out;
}

/** Traced run: one untraced and one traced pass over the batch, the
 * traced one checked against the untraced end state; for the served
 * workload also the isolated and served backends on the same items. */
int
run_traced_workload(const Workload &w, const Args &args,
                    const Reference &ref)
{
    Checker checker(w, ref);
    const Pass plain = run_pass(w, run_untraced);
    const Pass traced = run_pass(w, run_traced);
    checker.check(outcomes(plain), "untraced");
    checker.check(outcomes(traced), "traced");
    LayerStats st;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        st.merge(traced.runs[i].stats);
        checker.expect(traced.runs[i].state == plain.runs[i].state, "traced",
                       w.points[i].id + ": end state differs from the "
                                        "untraced run");
    }

    Metrics m;
    const double routers = static_cast<double>(st.router_cycles);
    const double xbar = static_cast<double>(st.noc_activity.xbar_traversals);
    const ActivityCounters &a = st.activity;
    const double router_time =
        static_cast<double>(a.active_cycles + a.sleep_cycles);
    m.add("sim.setup_s", st.setup_s, "s");
    m.add("sim.warmup_s", st.warmup_s, "s");
    m.add("sim.finish_s", st.finish_s, "s");
    m.add("sim.cycles", static_cast<double>(st.cycles), "count");
    m.add("sim.drain_cycles", static_cast<double>(st.drain_cycles), "count");
    m.add("sim.undrained_points", static_cast<double>(st.undrained_points),
          "count");
    m.add("sim.paper_gap_pct", paper_gap_pct(w, outcomes(traced)), "%");
    m.add("noc.tick_ns.p50", quantile(st.tick_ns, 0.50), "ns");
    m.add("noc.tick_ns.p99", quantile(st.tick_ns, 0.99), "ns");
    m.add("noc.tick_s", st.tick_s, "s");
    m.add("noc.router_cycles", routers, "count");
    m.add("noc.ns_per_router_cycle", routers ? st.tick_s * 1e9 / routers : 0,
          "ns");
    m.add("noc.xbar_traversals", xbar, "count");
    m.add("noc.arb_ops", static_cast<double>(st.noc_activity.arb_ops),
          "count");
    m.add("noc.buffer_writes",
          static_cast<double>(st.noc_activity.buffer_writes), "count");
    m.add("noc.ns_per_xbar_traversal", xbar ? st.tick_s * 1e9 / xbar : 0,
          "ns");
    m.add("noc.finalize_us", st.finalize_us, "us");
    m.add("traffic.step_ns.p50", quantile(st.step_ns, 0.50), "ns");
    m.add("traffic.step_ns.p99", quantile(st.step_ns, 0.99), "ns");
    m.add("traffic.step_s", st.step_s, "s");
    m.add("traffic.packets", static_cast<double>(st.packets), "count");
    m.add("catnap.sleep_fraction",
          router_time ? static_cast<double>(a.sleep_cycles) / router_time : 0,
          "ratio");
    m.add("catnap.sleep_transitions",
          static_cast<double>(a.sleep_transitions), "count");
    m.add("catnap.csc_pct",
          router_time ? 100.0 *
                            static_cast<double>(a.compensated_sleep_cycles) /
                            router_time
                      : 0,
          "%");
    m.add("power.begin_us", st.begin_us, "us");
    m.add("power.report_us", st.report_us, "us");
    m.add("app.tick_ns.p50", quantile(st.app_tick_ns, 0.50), "ns");
    m.add("app.tick_ns.p99", quantile(st.app_tick_ns, 0.99), "ns");
    m.add("app.retired_instructions", static_cast<double>(st.retired),
          "count");
    m.add("app.misses_completed", static_cast<double>(st.misses_completed),
          "count");

    // exec: how the traced pass's points shared the workers.
    double busy = 0.0, longest = -1.0, longest_start = 0.0;
    std::vector<double> waits;
    for (const Span &s : traced.spans) {
        busy += s.end - s.start;
        waits.push_back(s.start);
        if (s.end - s.start > longest) {
            longest = s.end - s.start;
            longest_start = s.start;
        }
    }
    const double capacity = w.jobs * traced.wall;
    m.add("exec.busy_s", busy, "s");
    m.add("exec.efficiency", busy / capacity, "ratio");
    m.add("exec.wait_s.p50", quantile(waits, 0.50), "s");
    m.add("exec.wait_s.max", quantile(waits, 1.0), "s");
    m.add("exec.idle_worker_s", capacity - busy, "s");
    m.add("exec.longest_point_start_s", longest_start, "s");

    // proc and serve: only the served workload runs them.
    double proc_spawned = 0, proc_retries = 0, proc_quarantined = 0;
    double proc_ratio = 0;
    ServedRun served;
    double serve_ratio = 0;
    if (w.backend == Backend::kServed) {
        ProcOptions po;
        po.worker = path_in(args.bin_dir, "catnap_sim");
        po.scratch_dir = path_in(args.work_dir, "proc-scratch");
        po.jobs = w.jobs;
        ProcRunner runner(po);
        const auto t0 = Clock::now();
        const ProcSweepResult isolated = runner.run(w.items());
        const double proc_wall = since(t0);
        std::vector<Outcome> out(isolated.points.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            const PointReport &rep = isolated.points[i];
            out[i].ok = rep.status != PointStatus::kQuarantined;
            out[i].syn = rep.result;
            if (!out[i].ok)
                out[i].error = "quarantined";
            proc_retries += rep.attempts > 1 ? rep.attempts - 1 : 0;
        }
        checker.check(out, "isolated");
        proc_spawned = static_cast<double>(isolated.spawned);
        proc_quarantined = static_cast<double>(isolated.quarantined);
        proc_ratio = proc_wall / plain.wall;

        served = run_served(w, args);
        checker.check(served.cold, "cold");
        checker.check(served.warm, "warm");
        checker.expect(served.cold_all_misses, "cold",
                       "pass was not executed in full");
        checker.expect(served.warm_all_hits &&
                           served.stats.executed == w.points.size(),
                       "warm", "pass was not served from the cache");
        serve_ratio = served.cold_s / proc_wall;
    }
    m.add("proc.spawned", proc_spawned, "count");
    m.add("proc.retries", proc_retries, "count");
    m.add("proc.quarantined", proc_quarantined, "count");
    m.add("proc.overhead_ratio", proc_ratio, "ratio");
    m.add("serve.start_s", served.start_s, "s");
    m.add("serve.cold_s", served.cold_s, "s");
    m.add("serve.warm_s", served.warm_s, "s");
    m.add("serve.hits", static_cast<double>(served.stats.hits), "count");
    m.add("serve.executed", static_cast<double>(served.stats.executed),
          "count");
    m.add("serve.batches", static_cast<double>(served.stats.batches),
          "count");
    m.add("serve.cache_bytes", static_cast<double>(served.stats.cache_bytes),
          "bytes");
    m.add("serve.overhead_ratio", serve_ratio, "ratio");
    m.add("trace.overhead_pct", 100.0 * (traced.wall / plain.wall - 1.0),
          "%");

    m.print(checker.failed() == 0, checker.attempted(), checker.failed());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse_args(argc, argv);
    try {
        std::filesystem::create_directories(args.work_dir);
        const Workload w = make_workload(args.workload, args.seed);

        Reference ref;
        if (!args.reference_only)
            ref = load_reference(args.reference, w, args.seed);
        const bool from_file = !ref.empty();
        if (!from_file)
            ref = compute_reference(w);
        if (args.reference_only || !from_file) {
            for (std::size_t i = 0; i < ref.size(); ++i)
                std::printf("%s\n",
                            reference_line(w, args.seed, i, ref[i]).c_str());
        }
        if (args.reference_only)
            return 0;
        std::printf("# %s seed %llu: reference %s\n", w.name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    from_file ? "checked in" : "computed serially in this run");

        return args.trace ? run_traced_workload(w, args, ref)
                          : run_end_to_end(w, args, ref);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
