/**
 * @file
 * Deterministic batch runner: fans independent simulation points out
 * across cores and returns results in submission order, bit-identical
 * to the serial path (DESIGN.md §12).
 *
 * Why this is safe: run_synthetic() (and run_app_workload()) construct
 * everything they touch — MultiNoc, Metrics, PowerMeter, traffic
 * generator, and a private Rng seeded from RunParams::seed — on the
 * calling thread's stack. No simulation state is shared between points,
 * so points may execute on any worker in any order and still produce
 * the exact bytes the serial loop produces; the runner's only job is to
 * deliver result i into slot i. The sole sharing hazard is
 * observability: attaching one EventSink or SnapshotRecorder to two
 * items would interleave their streams nondeterministically, so
 * run_batch() rejects shared non-null observer pointers up front.
 *
 * Host-side progress is observable through ExecOptions::sink, which
 * receives kExecJobBegin/kExecJobEnd events stamped with *wall-clock
 * microseconds* (not simulation cycles) and the worker index. These
 * exec.* events describe host scheduling, are inherently
 * run-to-run-nondeterministic, and never feed simulation state.
 */
#ifndef CATNAP_EXEC_SWEEP_RUNNER_H
#define CATNAP_EXEC_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/event.h"
#include "sim/simulator.h"

namespace catnap {

/** Microseconds on the host's monotonic clock: the time base of every
 * host-time event (exec.*, proc.*, serve.*). Host-side observability
 * only; it never feeds simulation state (tools/lint host-clock
 * exemption for src/exec/ and src/serve/). */
std::int64_t now_us();

/** Batch-execution policy shared by every point of a batch. */
struct ExecOptions
{
    /** Worker threads; 0 = ThreadPool::default_jobs(). */
    int jobs = 0;

    /**
     * Receives exec.* lifecycle events (host wall-clock timestamps,
     * serialized; null disables). Distinct from any per-item simulation
     * sink in RunParams.
     */
    EventSink *sink = nullptr;
};

/** One independent simulation point of a batch. */
struct RunItem
{
    MultiNocConfig cfg;
    SyntheticConfig traffic;
    RunParams params;
};

/**
 * Executes a batch of closures indexed 0..n-1 on a private thread pool
 * and delivers fn(i) into slot i of the returned vector.
 *
 * The generic core under run_batch() and ProcRunner, usable for any
 * per-point result type (bench harnesses run app workloads and custom
 * metrics through it). Exceptions: every point is attempted
 * (independent points are not cancelled by a failure); after the batch
 * drains, the error of the *lowest-indexed* failing point is rethrown,
 * so failure is as deterministic as success.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const ExecOptions &opts = {});

    /** Runs @p fn(i) for i in [0, n) and returns results in index
     * order. @p Result must be default-constructible and movable. */
    template <typename Result, typename Fn>
    std::vector<Result>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<Result> results(n);
        run_jobs(n, [&results, &fn](std::size_t i) {
            results[i] = fn(i);
        });
        return results;
    }

    /** Type-erased form of map(): runs @p body(i) for i in [0, n). */
    void run_jobs(std::size_t n,
                  const std::function<void(std::size_t)> &body);

  private:
    void emit(const TraceEvent &ev);

    ExecOptions opts_;
    std::mutex sink_mutex_;
    std::int64_t epoch_us_ = 0; ///< batch start, host microseconds
};

/**
 * Runs every item of @p items (each with its own config, traffic, and
 * seeded RunParams) and returns one SyntheticResult per item, in item
 * order, bit-identical to running them serially. Throws
 * std::invalid_argument when two items share a non-null EventSink or
 * SnapshotRecorder (see @file).
 */
std::vector<SyntheticResult> run_batch(const std::vector<RunItem> &items,
                                       const ExecOptions &opts = {});

} // namespace catnap

#endif // CATNAP_EXEC_SWEEP_RUNNER_H
