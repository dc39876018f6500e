#include "exec/proc_runner.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <map>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/checkpoint.h"
#include "exec/point_codec.h"
#include "exec/result_store.h"

extern char **environ;

namespace catnap {

namespace {

/** Watchdog poll interval: how often a supervising thread checks its
 * worker for exit or deadline. Small enough that a timeout fires
 * within a few ms of the budget; large enough to cost nothing. */
constexpr std::int64_t kProcPollMs = 2;

/** Exponential-backoff ceiling: retries never wait longer than this. */
constexpr std::int64_t kBackoffCapMs = 10000;

std::int64_t
now_ms()
{
    return now_us() / 1000;
}

std::string
format_load(double load)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", load);
    return std::string(buf);
}

} // namespace

std::vector<SyntheticResult>
ProcSweepResult::merged() const
{
    if (!ok())
        throw std::runtime_error(quarantine_summary());
    std::vector<SyntheticResult> out;
    out.reserve(points.size());
    for (const PointReport &p : points)
        out.push_back(p.result);
    return out;
}

std::string
ProcSweepResult::quarantine_summary() const
{
    if (ok())
        return "";
    std::string s = "quarantine: " + std::to_string(quarantined) + " of " +
                    std::to_string(points.size()) +
                    " sweep point(s) failed permanently\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointReport &p = points[i];
        if (p.status != PointStatus::kQuarantined)
            continue;
        s += "  point " + std::to_string(i) + " key=" + key_hex(p.key) +
             " load=" + format_load(p.offered_load) +
             " seed=" + std::to_string(p.seed) + ": " +
             std::to_string(p.attempts) + " attempt(s) [";
        for (std::size_t f = 0; f < p.failures.size(); ++f) {
            if (f != 0)
                s += "; ";
            s += p.failures[f].message;
        }
        s += "]\n";
    }
    return s;
}

PointReport
run_point_in_process(const RunItem &item)
{
    PointReport rep;
    rep.key = point_hash(item);
    rep.offered_load = item.traffic.load;
    rep.seed = item.params.seed;
    rep.attempts = 1;
    try {
        rep.result = run_synthetic(item.cfg, item.traffic, item.params);
        rep.status = PointStatus::kOk;
    } catch (const std::exception &e) {
        rep.failures.push_back({PointFailKind::kThrew, 0, e.what()});
    }
    return rep;
}

ProcRunner::ProcRunner(const ProcOptions &opts) : opts_(opts)
{
    if (opts_.worker.empty())
        throw std::invalid_argument("proc: worker executable is required");
    if (opts_.scratch_dir.empty())
        throw std::invalid_argument("proc: scratch_dir is required");
    std::error_code ec;
    std::filesystem::create_directories(opts_.scratch_dir, ec);
    if (ec) {
        throw std::runtime_error("proc: cannot create scratch dir '" +
                                 opts_.scratch_dir + "': " + ec.message());
    }
    epoch_us_ = now_us();
}

void
ProcRunner::emit(TraceEvent ev)
{
    if (opts_.sink == nullptr)
        return;
    ev.cycle = static_cast<Cycle>(now_us() - epoch_us_);
    // Supervising threads emit concurrently; the sink sees one event
    // at a time (same contract as SweepRunner).
    std::lock_guard<std::mutex> lock(sink_mutex_);
    opts_.sink->on_event(ev);
}

ProcSweepResult
run_points(const std::vector<RunItem> &items, int jobs,
           const PointExecutor &exec, ResultStore *store)
{
    ProcSweepResult out;
    const std::size_t n = items.size();
    out.points.resize(n);
    if (n == 0)
        return out;

    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = point_hash(items[i]);

    // Identical points (same key) run once and share the result; the
    // first occurrence owns the slot the executor writes into.
    std::map<std::uint64_t, std::size_t> owner;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (!owner.emplace(keys[i], i).second)
            continue;
        std::vector<std::uint8_t> payload;
        PointReport &rep = out.points[i];
        if (store != nullptr && store->lookup(keys[i], payload) &&
            decode_synth_result(payload, rep.result)) {
            rep.status = PointStatus::kFromJournal;
            rep.key = keys[i];
            continue;
        }
        pending.push_back(i);
    }

    // Each point lands in the store as it finishes; the executors run
    // concurrently, and the store locks itself.
    ExecOptions eo;
    eo.jobs = jobs;
    SweepRunner(eo).run_jobs(pending.size(), [&](std::size_t p) {
        const std::size_t idx = pending[p];
        out.points[idx] = exec(idx, items[idx], keys[idx]);
        if (store == nullptr ||
            out.points[idx].status != PointStatus::kOk)
            return;
        ckpt::Writer w;
        put_synth_result(w, out.points[idx].result);
        store->insert(keys[idx], w.bytes());
    });

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t first = owner.at(keys[i]);
        if (i != first)
            out.points[i] = out.points[first];
        PointReport &rep = out.points[i];
        rep.offered_load = items[i].traffic.load;
        rep.seed = items[i].params.seed;
        if (i == first)
            out.spawned += static_cast<std::size_t>(rep.attempts);
        switch (rep.status) {
          case PointStatus::kOk:          ++out.completed;    break;
          case PointStatus::kFromJournal: ++out.from_journal; break;
          case PointStatus::kQuarantined: ++out.quarantined;  break;
        }
    }
    return out;
}

ProcSweepResult
ProcRunner::run(const std::vector<RunItem> &items)
{
    epoch_us_ = now_us();
    return run_points(items, opts_.jobs,
                      [this](std::size_t index, const RunItem &item,
                             std::uint64_t key) {
                          return run_point(index, item, key);
                      });
}

PointReport
ProcRunner::run_point(std::size_t index, const RunItem &item,
                      std::uint64_t key)
{
    PointReport rep;
    rep.key = key;

    const std::string base = opts_.scratch_dir + "/pt_" + key_hex(key);
    const std::string spec_path = base + ".spec";
    const std::string out_path = base + ".result";
    ckpt::write_file(spec_path, encode_point_spec(item));

    const int max_attempts =
        opts_.max_retries > 0 ? opts_.max_retries + 1 : 1;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            const int shift = attempt - 2 < 20 ? attempt - 2 : 20;
            const std::int64_t delay =
                opts_.backoff_ms <= 0
                    ? 0
                    : std::min<std::int64_t>(opts_.backoff_ms << shift,
                                             kBackoffCapMs);
            TraceEvent ev;
            ev.kind = EventKind::kProcRetry;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(delay);
            emit(ev);
            if (delay > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
        }

        ::unlink(out_path.c_str()); // a stale image must never pass

        const char *argv[] = {opts_.worker.c_str(),
                              "--worker-spec", spec_path.c_str(),
                              "--worker-out",  out_path.c_str(),
                              nullptr};
        // Each worker leads its own process group, so the watchdog's
        // kill reaches anything the worker started as well.
        posix_spawnattr_t attr;
        ::posix_spawnattr_init(&attr);
        ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
        ::posix_spawnattr_setpgroup(&attr, 0);
        pid_t pid = -1;
        const int spawn_err =
            ::posix_spawn(&pid, opts_.worker.c_str(), nullptr, &attr,
                          const_cast<char *const *>(argv), environ);
        ::posix_spawnattr_destroy(&attr);
        if (spawn_err != 0) {
            throw std::runtime_error("proc: cannot spawn worker '" +
                                     opts_.worker +
                                     "': " + std::strerror(spawn_err));
        }
        ++rep.attempts;
        {
            TraceEvent ev;
            ev.kind = EventKind::kProcSpawn;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(pid);
            emit(ev);
        }

        const std::int64_t deadline =
            opts_.timeout_ms > 0 ? now_ms() + opts_.timeout_ms : 0;
        bool timed_out = false;
        int status = 0;
        for (;;) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid)
                break;
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(
                    std::string("proc: waitpid failed: ") +
                    std::strerror(errno));
            }
            if (deadline != 0 && now_ms() >= deadline) {
                ::kill(-pid, SIGKILL);
                while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
                }
                timed_out = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kProcPollMs));
        }

        PointFailure fail;
        if (timed_out) {
            fail.kind = PointFailKind::kTimeout;
            fail.detail = opts_.timeout_ms;
            fail.message = "timeout after " +
                           std::to_string(opts_.timeout_ms) +
                           "ms (SIGKILL)";
        } else if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == 0) {
                try {
                    rep.result =
                        decode_point_result(item,
                                            ckpt::read_file(out_path));
                    rep.status = PointStatus::kOk;
                    TraceEvent ev;
                    ev.kind = EventKind::kProcExit;
                    ev.node = static_cast<NodeId>(index);
                    ev.a = attempt;
                    ev.b = static_cast<std::int32_t>(PointFailKind::kNone);
                    emit(ev);
                    ::unlink(spec_path.c_str());
                    ::unlink(out_path.c_str());
                    return rep;
                } catch (const ckpt::CkptError &e) {
                    fail.kind = PointFailKind::kBadResult;
                    fail.message =
                        std::string("bad result image: ") + e.what();
                }
            } else {
                fail.kind = PointFailKind::kExit;
                fail.detail = code;
                fail.message = "exit code " + std::to_string(code);
            }
        } else if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            fail.kind = PointFailKind::kSignal;
            fail.detail = sig;
            fail.message = "killed by signal " + std::to_string(sig);
        } else {
            fail.kind = PointFailKind::kExit;
            fail.detail = status;
            fail.message = "unrecognized wait status " +
                           std::to_string(status);
        }

        {
            TraceEvent ev;
            ev.kind = EventKind::kProcExit;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(fail.kind);
            ev.pkt = static_cast<PacketId>(fail.detail);
            emit(ev);
        }
        rep.failures.push_back(std::move(fail));
    }

    rep.status = PointStatus::kQuarantined;
    TraceEvent ev;
    ev.kind = EventKind::kProcQuarantine;
    ev.node = static_cast<NodeId>(index);
    ev.a = rep.attempts;
    emit(ev);
    return rep;
}

} // namespace catnap
