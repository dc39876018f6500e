/**
 * @file
 * The command line shared by every tool that runs a batch of sweep
 * points (catnap_sim --loads, catnap_serve, and the bench harnesses):
 * strict value parsers, the default worker executable, the batch flags
 * with their cross-flag checks, and run_items(), the one dispatch of a
 * batch to the in-process, crash-isolated (DESIGN.md §15) or served
 * (DESIGN.md §17) backend.
 *
 * Header-only and reached by a relative include, so a tool that uses it
 * builds against the catnap library alone.
 *
 * Exit codes, the same for every tool: 0 success, 1 runtime or
 * supervisor error, 2 usage error, 3 invalid value, 4 points left
 * quarantined, 5 sweep-service daemon unreachable or protocol error.
 * Every status line goes to stderr, so stdout is byte-identical across
 * backends.
 */
#ifndef CATNAP_TOOLS_COMMON_BATCH_CLI_H
#define CATNAP_TOOLS_COMMON_BATCH_CLI_H

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/proc_runner.h"
#include "exec/result_store.h"
#include "exec/sweep_runner.h"
#include "serve/client.h"

namespace catnap::cli {

inline constexpr int kExitRuntime = 1;    ///< simulation/supervisor error
inline constexpr int kExitUsage = 2;      ///< unknown option, bad CLI shape
inline constexpr int kExitBadValue = 3;   ///< valid flag, invalid value
inline constexpr int kExitQuarantine = 4; ///< batch left quarantined points
inline constexpr int kExitServe = 5;      ///< daemon unreachable / protocol

/** Reports a malformed command line and exits kExitUsage. */
[[noreturn]] inline void
usage_error(const std::string &why)
{
    std::fprintf(stderr, "%s (try --help)\n", why.c_str());
    std::exit(kExitUsage);
}

/** The value after flag argv[i]; advances @p i. */
inline const char *
need_value(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

/** Rejects a flag value with a precise reason; exits kExitBadValue so
 * scripts can tell "bad config" from "bad CLI" and "sim died". */
[[noreturn]] inline void
die_value(const char *flag, const std::string &value, const std::string &why)
{
    std::fprintf(stderr, "invalid value '%s' for %s: %s\n", value.c_str(),
                 flag, why.c_str());
    std::exit(kExitBadValue);
}

/** Strict integer parse: whole-string, in [lo, hi], no silent atoi
 * truncation ("--subnets 4x" and "--subnets 99999" both die loudly). */
inline long long
parse_int(const char *flag, const std::string &value, long long lo,
          long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not an integer");
    if (errno == ERANGE || v < lo || v > hi) {
        die_value(flag, value, "must be in [" + std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
    }
    return v;
}

/** Strict unsigned parse (seeds, cycle counts): rejects '-1' instead of
 * wrapping it to 2^64-1. */
inline unsigned long long
parse_uint(const char *flag, const std::string &value,
           unsigned long long hi = ~0ull)
{
    if (!value.empty() && value[0] == '-')
        die_value(flag, value, "must be non-negative");
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not an integer");
    if (errno == ERANGE || v > hi)
        die_value(flag, value, "must be at most " + std::to_string(hi));
    return v;
}

/** Strict real parse: whole-string, finite (NaN and inf rejected — a
 * NaN load silently poisons every downstream metric), in [lo, hi]. */
inline double
parse_real(const char *flag, const std::string &value, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not a number");
    if (!std::isfinite(v))
        die_value(flag, value, "must be finite (NaN/inf rejected)");
    char range[96];
    std::snprintf(range, sizeof range, "must be in [%g, %g]", lo, hi);
    if (errno == ERANGE || v < lo || v > hi)
        die_value(flag, value, range);
    return v;
}

/**
 * Default worker executable: catnap_sim next to the running binary
 * (catnap_sim itself, catnap_serve), else in the sibling tools/
 * directory (the bench harnesses in the build tree).
 */
inline std::string
default_worker(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    std::string self = argv0;
    if (n > 0)
        self.assign(buf, static_cast<std::size_t>(n));
    const std::size_t slash = self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    const std::string beside = dir + "/catnap_sim";
    if (::access(beside.c_str(), X_OK) == 0)
        return beside;
    return dir + "/../tools/catnap_sim";
}

/** Help text for --jobs, the one batch flag every tool takes. */
inline constexpr const char *kJobsFlagHelp =
    "  --jobs N                  worker threads (or worker processes)\n"
    "                            for the batch (default: one per\n"
    "                            hardware thread; output is identical\n"
    "                            for every N)\n";

/** Help text for the batch flags that select or tune a backend. */
inline constexpr const char *kBackendFlagsHelp =
    "  --isolate                 run each point in a supervised\n"
    "                            catnap_sim worker subprocess: crashes,\n"
    "                            hangs, and bad exits are contained,\n"
    "                            retried, and finally quarantined while\n"
    "                            the rest of the batch completes\n"
    "                            (DESIGN.md §15)\n"
    "  --worker PATH             worker executable (default: catnap_sim\n"
    "                            in the build tree)\n"
    "  --scratch DIR             spec/result exchange directory\n"
    "  --journal FILE            append every finished point to a\n"
    "                            CRC-checked journal (in process or\n"
    "                            with --isolate)\n"
    "  --resume                  replay the journal's intact records,\n"
    "                            run only missing points (needs\n"
    "                            --journal; output is bit-identical to\n"
    "                            an uninterrupted run)\n"
    "  --point-timeout MS        per-attempt wall-clock budget; hung\n"
    "                            workers are SIGKILLed (0 = unlimited)\n"
    "  --point-retries N         extra attempts before quarantine\n"
    "                            (default 2)\n"
    "  --serve SOCKET            resolve the batch against a running\n"
    "                            catnap_serve daemon: cached points\n"
    "                            replay from its result cache, the rest\n"
    "                            execute daemon-side (DESIGN.md §17)\n";

/** The batch flags and the backend they select. */
struct BatchFlags
{
    /** Worker threads or processes; 0 = one per hardware thread. */
    int jobs = 0;
    /** Selects the crash-isolated backend (exec/proc_runner.h). */
    bool isolate = false;
    /** Worker executable for --isolate; finish() fills the default. */
    std::string worker;
    /** Spec/result exchange directory for --isolate. */
    std::string scratch = ".catnap-scratch";
    /** Journal path (a ResultStore file); empty disables it. */
    std::string journal;
    /** Replay the journal's intact records, run only missing points. */
    bool resume = false;
    /** Per-attempt wall budget in ms for --isolate; 0 = unlimited. */
    std::int64_t point_timeout_ms = 0;
    /** Extra attempts before quarantine for --isolate. */
    int point_retries = 2;
    /** Daemon socket; non-empty selects the served backend. */
    std::string serve;

    /** Consumes argv[i] (and its value) when it is a batch flag;
     * returns false, consuming nothing, otherwise. */
    bool
    parse(int argc, char **argv, int &i)
    {
        const std::string a = argv[i];
        if (a == "--jobs")
            jobs = static_cast<int>(
                parse_int(a.c_str(), need_value(argc, argv, i), 0, 4096));
        else if (a == "--isolate")
            isolate = true;
        else if (a == "--worker")
            worker = need_value(argc, argv, i);
        else if (a == "--scratch")
            scratch = need_value(argc, argv, i);
        else if (a == "--journal")
            journal = need_value(argc, argv, i);
        else if (a == "--resume")
            resume = true;
        else if (a == "--point-timeout")
            point_timeout_ms = static_cast<std::int64_t>(parse_uint(
                a.c_str(), need_value(argc, argv, i), 86400000ull));
        else if (a == "--point-retries")
            point_retries = static_cast<int>(
                parse_int(a.c_str(), need_value(argc, argv, i), 0, 100));
        else if (a == "--serve")
            serve = need_value(argc, argv, i);
        else
            return false;
        return true;
    }

    /** Cross-flag checks (exit kExitUsage) and the worker default. */
    void
    finish(const char *argv0)
    {
        if (resume && journal.empty())
            usage_error("--resume requires --journal FILE");
        if (!serve.empty() && (isolate || !journal.empty()))
            usage_error("--serve excludes --isolate and --journal "
                        "(the daemon owns execution and persistence)");
        if (isolate && worker.empty())
            worker = default_worker(argv0);
    }
};

/** Results of a batch; exits kExitQuarantine after the deterministic
 * summary when any point is quarantined. */
template <typename Sweep>
std::vector<SyntheticResult>
merged_or_exit(const Sweep &sweep)
{
    if (!sweep.ok()) {
        std::fputs(sweep.quarantine_summary().c_str(), stderr);
        std::exit(kExitQuarantine);
    }
    return sweep.merged();
}

/**
 * Runs @p items on the backend @p flags select and returns one result
 * per item, in item order, bit-identical across backends. Both local
 * backends run through run_points(), behind the --journal store when
 * one is given. Failures exit with the code of the table above.
 */
inline std::vector<SyntheticResult>
run_items(const std::vector<RunItem> &items, const BatchFlags &flags)
{
    if (!flags.serve.empty()) {
        serve::ServeClientOptions copts;
        copts.socket_path = flags.serve;
        serve::ServedSweep sweep;
        try {
            sweep = serve::run_batch_served(items, copts);
        } catch (const serve::ServeError &e) {
            std::fprintf(stderr, "[serve] fatal: %s\n", e.what());
            std::exit(kExitServe);
        }
        std::fprintf(stderr,
                     "[serve] %zu hit(s), %zu executed, %zu quarantined\n",
                     sweep.hits, sweep.misses, sweep.quarantined);
        return merged_or_exit(sweep);
    }
    ProcSweepResult sweep;
    try {
        std::unique_ptr<ResultStore> journal;
        if (!flags.journal.empty()) {
            // Without --resume a stale journal may hold another sweep's
            // points: start it afresh.
            if (!flags.resume)
                std::filesystem::remove(flags.journal);
            StoreConfig sc;
            sc.path = flags.journal;
            journal = std::make_unique<ResultStore>(sc);
        }
        PointExecutor exec = [](std::size_t, const RunItem &item,
                                std::uint64_t) {
            return run_point_in_process(item);
        };
        std::unique_ptr<ProcRunner> runner;
        if (flags.isolate) {
            ProcOptions po;
            po.worker = flags.worker;
            po.scratch_dir = flags.scratch;
            po.max_retries = flags.point_retries;
            po.timeout_ms = flags.point_timeout_ms;
            runner = std::make_unique<ProcRunner>(po);
            exec = [&runner](std::size_t index, const RunItem &item,
                             std::uint64_t key) {
                return runner->run_point(index, item, key);
            };
        }
        sweep = run_points(items, flags.jobs, exec, journal.get());
    } catch (const std::exception &e) {
        // Supervisor faults (unusable scratch dir or journal, spawn
        // failure), not per-point failures, which quarantine.
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(kExitRuntime);
    }
    if (flags.isolate)
        std::fprintf(stderr,
                     "[isolate] %zu worker(s) spawned, %zu point(s) from "
                     "journal, %zu quarantined\n",
                     sweep.spawned, sweep.from_journal, sweep.quarantined);
    else if (!flags.journal.empty())
        std::fprintf(stderr,
                     "[journal] %zu point(s) executed, %zu point(s) from "
                     "journal, %zu quarantined\n",
                     sweep.spawned, sweep.from_journal, sweep.quarantined);
    return merged_or_exit(sweep);
}

} // namespace catnap::cli

#endif // CATNAP_TOOLS_COMMON_BATCH_CLI_H
