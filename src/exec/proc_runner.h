/**
 * @file
 * The per-point executors and the one batch path every local backend
 * shares (DESIGN.md §15).
 *
 * run_points() resolves a batch against an optional ResultStore
 * (exec/result_store.h, the `--journal` file): stored points replay
 * without executing, identical points run once, and every other point
 * runs through a per-point executor and lands in the store the moment
 * it finishes. Two executors exist: run_point_in_process(), and
 * ProcRunner::run_point(), the crash-isolated backend.
 *
 * The in-process executor is fast but fate-shares with its points: one
 * simulator abort, stack smash, or OOM kill takes the whole sweep with
 * it. ProcRunner trades a process spawn per point for fault
 * containment:
 *
 *   - each point runs in a fresh worker process (`catnap_sim
 *     --worker-spec ... --worker-out ...`) that receives its full
 *     RunItem as a sealed spec file and writes its SyntheticResult as
 *     a sealed image (exec/point_codec.h), so a worker can neither
 *     corrupt the supervisor nor hand back bytes for the wrong point;
 *   - each worker leads its own process group, and a wall-clock
 *     watchdog SIGKILLs the group of a worker that exceeds the
 *     per-point budget, children included; exit codes, signals,
 *     timeouts, and unreadable results are classified separately
 *     (PointFailKind);
 *   - a failed point is retried with exponential backoff; a point that
 *     exhausts its budget is *quarantined* — recorded, skipped, and
 *     reported — while the rest of the sweep completes.
 *
 * Determinism contract: results are delivered in item order regardless
 * of completion order, and a resumed or isolated sweep's merged output
 * is bit-identical to an uninterrupted in-process run — workers and the
 * store encode doubles by bit pattern and the simulation itself is
 * deterministic. Quarantine reporting is equally deterministic: reports
 * and the summary string are assembled in point-index order, never
 * completion order. (Which *attempt* fails can vary with host
 * scheduling; which points are quarantined for a deterministic failure
 * cannot.)
 */
#ifndef CATNAP_EXEC_PROC_RUNNER_H
#define CATNAP_EXEC_PROC_RUNNER_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exec/sweep_runner.h"
#include "obs/event.h"
#include "sim/simulator.h"

namespace catnap {

class ResultStore;

/** Policy for one isolated sweep. */
struct ProcOptions
{
    /** Worker executable (normally the catnap_sim binary). Required. */
    std::string worker;

    /** Directory for spec/result exchange files. Required; created if
     * missing. Files are named by point-hash hex, so concurrent sweeps
     * must use distinct scratch directories. */
    std::string scratch_dir;

    /** Concurrent workers; 0 = ThreadPool::default_jobs(). */
    int jobs = 0;

    /** Extra attempts after a failed one; a point failing
     * max_retries + 1 times is quarantined. */
    int max_retries = 2;

    /** Per-attempt wall-clock budget in milliseconds; a worker still
     * running at the deadline is SIGKILLed with its process group and
     * the attempt classified kTimeout. 0 = unlimited. */
    std::int64_t timeout_ms = 0;

    /** Base retry delay in milliseconds, doubled per extra attempt
     * (capped); 0 retries immediately. */
    std::int64_t backoff_ms = 50;

    /** Receives proc.* worker-lifecycle events (host wall-clock
     * timestamps, serialized; null disables). */
    EventSink *sink = nullptr;
};

/** How one sweep point ended up with (or without) a result. */
enum class PointStatus : std::int8_t {
    kOk = 0,          ///< the point executed this run
    kFromJournal = 1, ///< replayed from the result store, not executed
    kQuarantined = 2, ///< every attempt failed; no result
};

/** Classification of one failed worker attempt (kProcExit payload b). */
enum class PointFailKind : std::int8_t {
    kNone = 0,      ///< attempt succeeded
    kExit = 1,      ///< worker exited with a nonzero code (detail=code)
    kSignal = 2,    ///< worker died on a signal (detail=signal number)
    kTimeout = 3,   ///< watchdog SIGKILL at the budget (detail=ms)
    kBadResult = 4, ///< worker exited 0 but its result image failed
                    ///< validation (missing/truncated/corrupt/foreign)
    kThrew = 5,     ///< the point threw instead of producing a result
                    ///< (in process, or a supervisor-side fault in
                    ///< the daemon); never in a proc.* event
};

/** One failed attempt, classified. */
struct PointFailure
{
    PointFailKind kind = PointFailKind::kNone;
    std::int64_t detail = 0; ///< exit code, signal number, or budget ms
    std::string message;     ///< human-readable classification
};

/** Outcome of one sweep point: what every per-point executor returns
 * (ProcRunner::run_point, run_point_in_process). */
struct PointReport
{
    PointStatus status = PointStatus::kQuarantined;
    std::uint64_t key = 0;     ///< point hash (result-store key)
    double offered_load = 0;   ///< the point's traffic load (summary id)
    std::uint64_t seed = 0;    ///< the point's run seed (summary id)
    int attempts = 0;          ///< executions of this point (workers
                               ///< spawned, or 1 in process)
    std::vector<PointFailure> failures; ///< one entry per failed attempt
    SyntheticResult result; ///< valid unless quarantined
};

/**
 * Runs one point on the calling thread: the in-process counterpart of
 * ProcRunner::run_point. attempts is 1. A thrown exception quarantines
 * the point with the exception's message as its one failure (kThrew);
 * there is no retry, because the simulator is deterministic and a
 * retry would fail identically. Never throws.
 */
PointReport run_point_in_process(const RunItem &item);

/** Outcome of a whole batch (run_points()). */
struct ProcSweepResult
{
    std::vector<PointReport> points; ///< index-ordered, one per item

    std::size_t completed = 0;    ///< points executed this run
    std::size_t from_journal = 0; ///< points replayed from the store
    std::size_t quarantined = 0;  ///< points with no result
    std::size_t spawned = 0;      ///< executions: worker processes
                                  ///< spawned, or in-process runs

    bool ok() const { return quarantined == 0; }

    /**
     * Results in item order, bit-identical to the in-process sweep.
     * Throws std::runtime_error (message = quarantine_summary()) when
     * any point is quarantined — a merged output must never silently
     * omit points.
     */
    std::vector<SyntheticResult> merged() const;

    /**
     * Deterministic description of every quarantined point, in point
     * order: index, key, offered load, seed, and each classified
     * failure. Empty string when ok().
     */
    std::string quarantine_summary() const;
};

/** Runs one point (key = point_hash(item)); @p index labels its
 * events. Returns a report, throwing only on supervisor-side faults. */
using PointExecutor = std::function<PointReport(
    std::size_t index, const RunItem &item, std::uint64_t key)>;

/**
 * The one batch path: resolves @p items against @p store (null = no
 * store), runs the rest through @p exec on @p jobs threads (0 =
 * ThreadPool::default_jobs()), and returns index-ordered reports.
 *
 *   - a point whose key the store holds, with a payload that decodes,
 *     replays from it (kFromJournal) without executing;
 *   - identical points (same key) execute once and share the result;
 *   - every point that executes successfully is inserted into the
 *     store the moment it finishes, so a process killed mid-batch
 *     loses at most the points in flight. Quarantined points are never
 *     stored.
 *
 * Throws what @p exec throws, and ckpt::CkptError when the store
 * cannot append, after the batch drains (lowest index first, as
 * SweepRunner::run_jobs).
 */
ProcSweepResult run_points(const std::vector<RunItem> &items, int jobs,
                           const PointExecutor &exec,
                           ResultStore *store = nullptr);

/**
 * The supervisor. Not copyable; one instance per sweep, or one per
 * daemon calling run_point(). Lives in src/exec/, which is host-side by
 * contract (tools/lint host-clock exemption): nothing here runs during
 * a simulation phase.
 */
class ProcRunner
{
  public:
    /** Validates @p opts (worker and scratch_dir required) and creates
     * the scratch directory; throws if it cannot. */
    explicit ProcRunner(const ProcOptions &opts);

    ProcRunner(const ProcRunner &) = delete;
    ProcRunner &operator=(const ProcRunner &) = delete;

    /**
     * Runs every item through a supervised worker: run_points() with
     * run_point() as the executor and no store. Throws on
     * supervisor-side errors only — an unrunnable worker binary, an
     * unwritable scratch file; *worker* failures are classified and
     * quarantined, never thrown.
     */
    ProcSweepResult run(const std::vector<RunItem> &items);

    /**
     * Runs one point (key = point_hash(item)) through a supervised
     * worker, retrying and finally quarantining it as the options say;
     * @p index labels its proc.* events. A PointExecutor. Safe to call
     * concurrently for distinct keys (scratch files are named by key).
     * Throws on supervisor-side faults only, like run().
     */
    PointReport run_point(std::size_t index, const RunItem &item,
                          std::uint64_t key);

  private:
    void emit(TraceEvent ev);

    ProcOptions opts_;
    std::mutex sink_mutex_;
    std::int64_t epoch_us_ = 0; ///< construction or run() start, host us
};

} // namespace catnap

#endif // CATNAP_EXEC_PROC_RUNNER_H
