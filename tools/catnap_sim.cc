/**
 * @file
 * catnap_sim: command-line driver for one-off experiments.
 *
 * Examples:
 *   catnap_sim --subnets 4 --gating catnap --load 0.1
 *   catnap_sim --subnets 1 --width 512 --pattern transpose --load 0.2
 *   catnap_sim --mode app --workload heavy --subnets 4 --gating catnap
 *   catnap_sim --help
 */
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#ifdef __linux__
#include <csignal>
#include <sys/prctl.h>
#endif

#include "app/system.h"
#include "ckpt/checkpoint.h"
#include "common/batch_cli.h"
#include "exec/point_codec.h"
#include "obs/export.h"
#include "obs/snapshot.h"
#include "obs/trace_buffer.h"
#include "serve/client.h"
#include "sim/report.h"
#include "sim/simulator.h"

using namespace catnap;
using namespace catnap::cli;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "catnap_sim -- drive one Catnap Multi-NoC experiment\n\n"
        "  --mode synthetic|app      experiment type (default synthetic)\n"
        "  --subnets N               number of subnets (default 4)\n"
        "  --width BITS              aggregate datapath bits (default 512)\n"
        "  --selector rr|random|catnap|class (default catnap)\n"
        "  --gating off|idle|fineport|catnap  power gating (catnap)\n"
        "  --metric bfm|bfa|ir|iqocc|delay  congestion metric (bfm)\n"
        "  --threshold X             congestion threshold (metric default)\n"
        "  --no-rcs                  disable the regional OR network\n"
        "  --mesh W                  mesh width == height (default 8)\n"
        "synthetic mode:\n"
        "  --pattern uniform|transpose|bitcomp|bitrev|shuffle|hotspot|"
        "neighbor\n"
        "  --load X                  packets/node/cycle (default 0.1)\n"
        "  --packet-bits N           packet size (default 512)\n"
        "app mode:\n"
        "  --workload light|medium-light|medium-heavy|heavy\n"
        "common:\n"
        "  --warmup N --measure N    phase lengths (cycles)\n"
        "  --seed N                  RNG seed\n"
        "  --no-vscale               run everything at 0.750 V\n"
        "load sweeps (synthetic mode):\n"
        "  --loads A,B,C             sweep offered loads instead of one\n"
        "                            --load point\n"
        "  --csv FILE                save sweep results as CSV\n"
        "%s%s"
        "  --serve-stats SOCKET      print the daemon's statistics JSON\n"
        "                            and exit (no sweep)\n"
        "observability (synthetic mode):\n"
        "  --trace-out FILE          write Chrome trace-event JSON\n"
        "                            (open in Perfetto / chrome://tracing)\n"
        "  --trace-jsonl FILE        write the raw event stream as JSONL\n"
        "  --trace-events N          event ring-buffer capacity\n"
        "                            (default 1048576; oldest dropped)\n"
        "  --snapshot-every N        epoch snapshot interval, cycles\n"
        "  --snapshot-out FILE       snapshot CSV (default snapshots.csv)\n"
        "fault injection (repeatable; empty plan = bit-identical "
        "baseline):\n"
        "  --fault-kill-router C:S:N     hard router death at cycle C,\n"
        "                                subnet S, node N\n"
        "  --fault-kill-link C:S:N:DIR   dead output link (DIR = north|\n"
        "                                east|south|west|local)\n"
        "  --fault-wake-stuck C:S:N      wake sequence hangs until the\n"
        "                                retry path escalates\n"
        "  --fault-lose-wakes C:S:N:DUR  swallow wake-ups for DUR cycles\n"
        "  --fault-delay-wakes C:S:N:DUR:DELAY\n"
        "                                defer wake-ups by DELAY cycles\n"
        "                                for a DUR-cycle window\n"
        "  --fault-rcs-glitch C:S:NODE   flip the latched RCS bit of the\n"
        "                                region containing NODE once\n"
        "  --fault-wake-loss-prob P      per-wake loss probability\n"
        "  --fault-rcs-glitch-prob P     per-(subnet,region) glitch\n"
        "                                probability per RCS latch\n"
        "  --fault-seed N                fault RNG stream seed\n"
        "  --fault-wake-timeout N        cycles before a wake is retried\n"
        "  --fault-packet-timeout N      end-to-end deadline per attempt\n"
        "  --worker-spec F --worker-out F\n"
        "                            (internal) worker mode: run the one\n"
        "                            point sealed in F, write the result\n"
        "exit codes:\n"
        "  0 success                 1 simulation/runtime error\n"
        "  2 usage error             3 invalid configuration value\n"
        "  4 sweep finished with quarantined point(s)\n"
        "  5 sweep-service daemon unreachable or protocol error\n",
        kJobsFlagHelp, kBackendFlagsHelp);
    std::exit(code);
}

/** An offered load: finite, strictly positive, sane upper bound. */
double
parse_load(const char *flag, const std::string &value)
{
    const double v = parse_real(flag, value, 0.0, 8.0);
    if (v <= 0.0)
        die_value(flag, value, "offered load must be > 0");
    return v;
}

SelectorKind
parse_selector(const std::string &v)
{
    if (v == "rr") return SelectorKind::kRoundRobin;
    if (v == "random") return SelectorKind::kRandom;
    if (v == "catnap") return SelectorKind::kCatnap;
    if (v == "class") return SelectorKind::kClassPartition;
    usage_error(std::string("unknown selector: ") + v);
}

GatingKind
parse_gating(const std::string &v)
{
    if (v == "off") return GatingKind::kAlwaysOn;
    if (v == "idle") return GatingKind::kIdle;
    if (v == "fineport") return GatingKind::kFinePort;
    if (v == "catnap") return GatingKind::kCatnap;
    usage_error(std::string("unknown gating: ") + v);
}

CongestionMetric
parse_metric(const std::string &v)
{
    if (v == "bfm") return CongestionMetric::kBufferMax;
    if (v == "bfa") return CongestionMetric::kBufferAvg;
    if (v == "ir") return CongestionMetric::kInjectionRate;
    if (v == "iqocc") return CongestionMetric::kInjQueueOcc;
    if (v == "delay") return CongestionMetric::kBlockingDelay;
    usage_error(std::string("unknown metric: ") + v);
}

PatternKind
parse_pattern(const std::string &v)
{
    if (v == "uniform") return PatternKind::kUniformRandom;
    if (v == "transpose") return PatternKind::kTranspose;
    if (v == "bitcomp") return PatternKind::kBitComplement;
    if (v == "bitrev") return PatternKind::kBitReverse;
    if (v == "shuffle") return PatternKind::kShuffle;
    if (v == "hotspot") return PatternKind::kHotspot;
    if (v == "neighbor") return PatternKind::kNeighbor;
    usage_error(std::string("unknown pattern: ") + v);
}

WorkloadMix
parse_workload(const std::string &v)
{
    if (v == "light") return light_mix();
    if (v == "medium-light") return medium_light_mix();
    if (v == "medium-heavy") return medium_heavy_mix();
    if (v == "heavy") return heavy_mix();
    usage_error(std::string("unknown workload: ") + v);
}

/**
 * Splits a colon-separated fault spec ("C:S:N[:...]") into exactly
 * @p want numeric fields; with @p tail, one extra trailing string field
 * is split off first (the link direction). Exits with usage on mismatch.
 */
std::vector<long long>
parse_fields(const char *flag, const std::string &value, std::size_t want,
             std::string *tail = nullptr)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t next = value.find(':', pos);
        if (next == std::string::npos) {
            fields.push_back(value.substr(pos));
            break;
        }
        fields.push_back(value.substr(pos, next - pos));
        pos = next + 1;
    }
    if (fields.size() != want + (tail != nullptr ? 1 : 0)) {
        die_value(flag, value,
                  "expected " +
                      std::to_string(want + (tail != nullptr ? 1 : 0)) +
                      " ':'-separated fields, got " +
                      std::to_string(fields.size()));
    }
    if (tail != nullptr) {
        *tail = fields.back();
        fields.pop_back();
    }
    std::vector<long long> out;
    for (const std::string &field : fields) {
        out.push_back(static_cast<long long>(parse_uint(
            flag, field, std::numeric_limits<long long>::max())));
    }
    return out;
}

Direction
parse_direction(const std::string &v)
{
    if (v == "north") return Direction::kNorth;
    if (v == "east") return Direction::kEast;
    if (v == "south") return Direction::kSouth;
    if (v == "west") return Direction::kWest;
    if (v == "local") return Direction::kLocal;
    usage_error(std::string("unknown link direction: ") + v);
}

/** Parses a comma-separated load list ("0.01,0.05,0.1"). */
std::vector<double>
parse_loads(const char *flag, const std::string &value)
{
    std::vector<double> loads;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t next = value.find(',', pos);
        if (next == std::string::npos)
            next = value.size();
        const std::string field = value.substr(pos, next - pos);
        loads.push_back(parse_load(flag, field));
        pos = next + 1;
    }
    return loads;
}

/**
 * Worker mode (DESIGN.md §15): run exactly one sweep point from a
 * sealed spec file and write the sealed result. Deliberately silent on
 * stdout — the supervisor owns all reporting — and fully sandboxed by
 * the process boundary: any throw, abort, or crash here is classified
 * by the supervisor, never propagated.
 *
 * The supervisor spawns each worker in a process group of its own, so
 * a Ctrl-C aimed at the supervisor's group does not reach the worker.
 * On Linux the worker therefore dies with the thread that spawned it
 * instead, whether the supervisor is interrupted or killed (unless it
 * died before the prctl below ran).
 */
int
run_worker(const std::string &spec_path, const std::string &out_path)
{
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    try {
        const RunItem item = decode_point_spec(ckpt::read_file(spec_path));
        const SyntheticResult res =
            run_synthetic(item.cfg, item.traffic, item.params);
        ckpt::write_file(out_path, encode_point_result(item, res));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "catnap_sim worker: %s\n", e.what());
        return kExitRuntime;
    }
}

void
print_power(const PowerBreakdown &p, const PowerBreakdown &stat)
{
    std::printf("power        : %.2f W (static %.2f, dynamic %.2f)\n",
                p.total(), stat.total(), p.total() - stat.total());
    std::printf("  buffer %.2f | xbar %.2f | ctrl %.2f | clock %.2f | "
                "link %.2f | NI %.2f | OR-net %.3f\n",
                p.buffer, p.crossbar, p.control, p.clock, p.link, p.ni,
                p.or_net);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = "synthetic";
    std::string workload = "light";
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    SyntheticConfig traffic;
    traffic.load = 0.1;
    RunParams rp;
    AppRunParams ap;
    double threshold = -1.0;
    std::string trace_out;
    std::string trace_jsonl;
    std::string snapshot_out = "snapshots.csv";
    std::size_t trace_capacity = EventTrace::kDefaultCapacity;
    Cycle snapshot_every = 0;
    std::vector<double> sweep_loads;
    BatchFlags batch;
    std::string csv_out;
    std::string worker_spec;
    std::string worker_out;
    std::string serve_stats_socket;

    for (int i = 1; i < argc; ++i) {
        if (batch.parse(argc, argv, i))
            continue;
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") usage(0);
        else if (a == "--mode") mode = need_value(argc, argv, i);
        else if (a == "--subnets")
            cfg.num_subnets = static_cast<int>(
                parse_int(a.c_str(), need_value(argc, argv, i), 1, 16));
        else if (a == "--width")
            cfg.total_link_bits = static_cast<int>(parse_int(
                a.c_str(), need_value(argc, argv, i), 1, 1 << 20));
        else if (a == "--selector")
            cfg.selector = parse_selector(need_value(argc, argv, i));
        else if (a == "--gating")
            cfg.gating = parse_gating(need_value(argc, argv, i));
        else if (a == "--metric")
            cfg.congestion.metric = parse_metric(need_value(argc, argv, i));
        else if (a == "--threshold")
            threshold = parse_real(a.c_str(), need_value(argc, argv, i),
                                   0.0, 1e9);
        else if (a == "--no-rcs") cfg.congestion.use_rcs = false;
        else if (a == "--mesh") {
            // Lower bound 2: a zero- or one-node "mesh" has no links to
            // route over and every pattern degenerates.
            const int w = static_cast<int>(
                parse_int(a.c_str(), need_value(argc, argv, i), 2, 64));
            cfg.mesh_width = cfg.mesh_height = w;
            cfg.region_width = w >= 8 ? 4 : (w >= 4 ? 2 : 1);
        } else if (a == "--pattern")
            traffic.pattern = parse_pattern(need_value(argc, argv, i));
        else if (a == "--load")
            traffic.load = parse_load(a.c_str(), need_value(argc, argv, i));
        else if (a == "--packet-bits")
            traffic.packet_bits = static_cast<int>(parse_int(
                a.c_str(), need_value(argc, argv, i), 1, 1 << 20));
        else if (a == "--workload")
            workload = need_value(argc, argv, i);
        else if (a == "--warmup")
            rp.warmup = ap.warmup = static_cast<Cycle>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 1000000000000ull));
        else if (a == "--measure") {
            rp.measure = ap.measure = static_cast<Cycle>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 1000000000000ull));
            if (rp.measure == 0)
                die_value(a.c_str(), "0",
                          "measurement phase must be at least 1 cycle");
        } else if (a == "--seed")
            rp.seed = ap.seed =
                parse_uint(a.c_str(), need_value(argc, argv, i));
        else if (a == "--no-vscale")
            rp.voltage_scaling = ap.voltage_scaling = false;
        else if (a == "--loads")
            sweep_loads = parse_loads(a.c_str(), need_value(argc, argv, i));
        else if (a == "--csv")
            csv_out = need_value(argc, argv, i);
        else if (a == "--trace-out")
            trace_out = need_value(argc, argv, i);
        else if (a == "--trace-jsonl")
            trace_jsonl = need_value(argc, argv, i);
        else if (a == "--trace-events")
            trace_capacity = static_cast<std::size_t>(parse_int(
                a.c_str(), need_value(argc, argv, i), 1, 1ll << 32));
        else if (a == "--snapshot-every")
            snapshot_every = static_cast<Cycle>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 1000000000000ull));
        else if (a == "--snapshot-out")
            snapshot_out = need_value(argc, argv, i);
        else if (a == "--worker-spec")
            worker_spec = need_value(argc, argv, i);
        else if (a == "--worker-out")
            worker_out = need_value(argc, argv, i);
        else if (a == "--serve-stats")
            serve_stats_socket = need_value(argc, argv, i);
        else if (a == "--fault-kill-router") {
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 3);
            cfg.fault.kill_router(static_cast<Cycle>(f[0]),
                                  static_cast<SubnetId>(f[1]),
                                  static_cast<NodeId>(f[2]));
        } else if (a == "--fault-kill-link") {
            std::string dir;
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 3, &dir);
            cfg.fault.kill_link(static_cast<Cycle>(f[0]),
                                static_cast<SubnetId>(f[1]),
                                static_cast<NodeId>(f[2]),
                                parse_direction(dir));
        } else if (a == "--fault-wake-stuck") {
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 3);
            cfg.fault.stick_wake(static_cast<Cycle>(f[0]),
                                 static_cast<SubnetId>(f[1]),
                                 static_cast<NodeId>(f[2]));
        } else if (a == "--fault-lose-wakes") {
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 4);
            cfg.fault.lose_wakes(static_cast<Cycle>(f[0]),
                                 static_cast<SubnetId>(f[1]),
                                 static_cast<NodeId>(f[2]),
                                 static_cast<Cycle>(f[3]));
        } else if (a == "--fault-delay-wakes") {
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 5);
            cfg.fault.delay_wakes(static_cast<Cycle>(f[0]),
                                  static_cast<SubnetId>(f[1]),
                                  static_cast<NodeId>(f[2]),
                                  static_cast<Cycle>(f[3]),
                                  static_cast<Cycle>(f[4]));
        } else if (a == "--fault-rcs-glitch") {
            const auto f =
                parse_fields(a.c_str(), need_value(argc, argv, i), 3);
            cfg.fault.glitch_rcs(static_cast<Cycle>(f[0]),
                                 static_cast<SubnetId>(f[1]),
                                 static_cast<NodeId>(f[2]));
        } else if (a == "--fault-wake-loss-prob")
            cfg.fault.wake_loss_prob = parse_real(
                a.c_str(), need_value(argc, argv, i), 0.0, 1.0);
        else if (a == "--fault-rcs-glitch-prob")
            cfg.fault.rcs_glitch_prob = parse_real(
                a.c_str(), need_value(argc, argv, i), 0.0, 1.0);
        else if (a == "--fault-seed")
            cfg.fault.seed =
                parse_uint(a.c_str(), need_value(argc, argv, i));
        else if (a == "--fault-wake-timeout")
            cfg.fault.tuning.t_wake_timeout = static_cast<Cycle>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 1000000000000ull));
        else if (a == "--fault-packet-timeout")
            cfg.fault.tuning.packet_timeout = static_cast<Cycle>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 1000000000000ull));
        else
            usage_error("unknown option: " + a);
    }

    // Stats query mode short-circuits everything else: talk to the
    // daemon, print its counters, done.
    if (!serve_stats_socket.empty()) {
        try {
            serve::ServeClientOptions copts;
            copts.socket_path = serve_stats_socket;
            copts.attempts = 1;
            std::printf("%s\n", serve::fetch_stats(copts).to_json().c_str());
            return 0;
        } catch (const serve::ServeError &e) {
            std::fprintf(stderr, "catnap_sim: %s\n", e.what());
            return kExitServe;
        }
    }

    // Worker mode short-circuits everything else: the spec file is the
    // whole configuration (see run_worker above).
    if (!worker_spec.empty() || !worker_out.empty()) {
        if (worker_spec.empty() || worker_out.empty())
            usage_error("--worker-spec and --worker-out are required "
                        "together");
        return run_worker(worker_spec, worker_out);
    }

    // Cross-field checks the per-flag parsers cannot see.
    if (cfg.total_link_bits < cfg.num_subnets) {
        die_value("--width", std::to_string(cfg.total_link_bits),
                  "fewer aggregate bits than subnets leaves a zero-width "
                  "datapath per subnet");
    }
    batch.finish(argv[0]);
    if ((batch.isolate || !batch.serve.empty() || !batch.journal.empty()) &&
        (mode != "synthetic" || sweep_loads.empty()))
        usage_error("--isolate/--serve/--journal apply to synthetic "
                    "--loads sweeps");
    cfg.congestion.threshold =
        threshold >= 0.0
            ? threshold
            : CongestionConfig::default_threshold(cfg.congestion.metric);

    if (mode == "synthetic" && !sweep_loads.empty()) {
        // Load sweep: one point per load on the backend the batch flags
        // select; results arrive in load order, bit-identical for every
        // backend and --jobs value.
        if (!trace_out.empty() || !trace_jsonl.empty() ||
            snapshot_every > 0)
            usage_error("tracing/snapshots record one run; not available "
                        "with --loads");
        std::vector<RunItem> items;
        items.reserve(sweep_loads.size());
        for (const double load : sweep_loads) {
            RunItem item{cfg, traffic, rp};
            item.traffic.load = load;
            items.push_back(std::move(item));
        }
        const std::vector<SyntheticResult> rows = run_items(items, batch);
        std::printf("config       : %s (%dx%d mesh, %s selector, %s)\n",
                    rows.front().config_label.c_str(), cfg.mesh_width,
                    cfg.mesh_height, selector_kind_name(cfg.selector),
                    gating_kind_name(cfg.gating));
        std::printf("%-8s %10s %10s %10s %8s %10s\n", "load", "accepted",
                    "lat(cy)", "p99(cy)", "CSC(%)", "power(W)");
        for (const SyntheticResult &r : rows) {
            std::printf("%-8.3f %10.3f %10.1f %10.1f %8.1f %10.2f\n",
                        r.offered_load, r.accepted_rate, r.avg_latency,
                        r.p99_latency, r.csc_percent, r.power.total());
        }
        if (!csv_out.empty()) {
            save_csv(csv_out, rows);
            std::printf("csv          : wrote %zu rows to %s\n",
                        rows.size(), csv_out.c_str());
        }
    } else if (mode == "synthetic") {
        std::unique_ptr<EventTrace> trace;
        if (!trace_out.empty() || !trace_jsonl.empty()) {
            trace = std::make_unique<EventTrace>(trace_capacity);
            rp.sink = trace.get();
        }
        std::unique_ptr<SnapshotRecorder> snaps;
        if (snapshot_every > 0) {
            snaps = std::make_unique<SnapshotRecorder>(snapshot_every);
            rp.snapshots = snaps.get();
        }

        const SyntheticResult r = run_synthetic(cfg, traffic, rp);
        std::printf("config       : %s (%dx%d mesh, %s selector, %s)\n",
                    r.config_label.c_str(), cfg.mesh_width, cfg.mesh_height,
                    selector_kind_name(cfg.selector),
                    gating_kind_name(cfg.gating));
        std::printf("traffic      : %s @ %.3f pkts/node/cycle\n",
                    pattern_kind_name(traffic.pattern), traffic.load);
        std::printf("accepted     : %.3f pkts/node/cycle\n",
                    r.accepted_rate);
        std::printf("latency      : %.1f cycles (network %.1f)\n",
                    r.avg_latency, r.avg_net_latency);
        std::printf("CSC          : %.1f %%\n", r.csc_percent);
        std::printf("voltage      : %.3f V\n", r.vdd);
        print_power(r.power, r.power_static);
        if (!cfg.fault.empty()) {
            std::printf("faults       : %llu fired, %llu subnet "
                        "failure(s)\n",
                        static_cast<unsigned long long>(r.faults_fired),
                        static_cast<unsigned long long>(
                            r.subnet_failures));
            std::printf("resilience   : %llu retransmit(s), %llu "
                        "dropped packet(s), drained=%s\n",
                        static_cast<unsigned long long>(r.retransmits),
                        static_cast<unsigned long long>(
                            r.dropped_packets),
                        r.drained ? "yes" : "no");
        }

        if (trace) {
            std::printf("trace        : %llu events recorded, %llu "
                        "dropped\n",
                        static_cast<unsigned long long>(trace->recorded()),
                        static_cast<unsigned long long>(trace->dropped()));
            TraceExportMeta meta;
            meta.num_subnets = cfg.num_subnets;
            meta.num_nodes = cfg.mesh_width * cfg.mesh_height;
            meta.counter_window = 50;
            if (!trace_out.empty()) {
                save_chrome_trace(trace_out, *trace, meta);
                std::printf("trace        : wrote %s (open in Perfetto)\n",
                            trace_out.c_str());
            }
            if (!trace_jsonl.empty()) {
                save_jsonl(trace_jsonl, *trace);
                std::printf("trace        : wrote %s\n",
                            trace_jsonl.c_str());
            }
        }
        if (snaps) {
            save_snapshot_csv(snapshot_out, *snaps);
            std::printf("snapshots    : wrote %zu rows to %s\n",
                        snaps->rows().size(), snapshot_out.c_str());
        }
    } else if (mode == "app") {
        const WorkloadMix mix = parse_workload(workload);
        const AppRunResult r = run_app_workload(cfg, mix, ap);
        std::printf("config       : %s, workload %s (avg MPKI %.1f)\n",
                    r.config_label.c_str(), mix.name.c_str(),
                    mix.average_mpki());
        std::printf("IPC/core     : %.3f\n", r.ipc);
        std::printf("pkt latency  : %.1f cycles\n", r.avg_latency);
        std::printf("CSC          : %.1f %%\n", r.csc_percent);
        std::printf("voltage      : %.3f V\n", r.vdd);
        print_power(r.power, r.power_static);
    } else {
        usage_error("unknown mode: " + mode);
    }
    return 0;
}
