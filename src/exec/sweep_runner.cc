#include "exec/sweep_runner.h"

#include <chrono>
#include <exception>
#include <set>
#include <stdexcept>

namespace catnap {

std::int64_t
now_us()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** Clamps a microsecond duration into the 32-bit event payload. */
std::int32_t
clamp_us(std::int64_t us)
{
    constexpr std::int64_t kMax = 0x7fffffff;
    return static_cast<std::int32_t>(us < kMax ? us : kMax);
}

} // namespace

SweepRunner::SweepRunner(const ExecOptions &opts) : opts_(opts) {}

void
SweepRunner::emit(const TraceEvent &ev)
{
    if (opts_.sink == nullptr)
        return;
    // Workers emit concurrently; the sink sees one event at a time.
    std::lock_guard<std::mutex> lock(sink_mutex_);
    opts_.sink->on_event(ev);
}

void
SweepRunner::run_jobs(std::size_t n,
                      const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    epoch_us_ = now_us();

    // Slot i is written only by job i; the pool's destructor joins
    // every worker before the slots are read.
    std::vector<std::exception_ptr> errors(n);
    {
        ThreadPool pool(opts_.jobs);
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([this, &body, &errors, i, n] {
                const std::int64_t begin_us = now_us() - epoch_us_;
                TraceEvent ev;
                ev.cycle = static_cast<Cycle>(begin_us);
                ev.kind = EventKind::kExecJobBegin;
                ev.node = static_cast<NodeId>(i);
                ev.a = ThreadPool::current_worker();
                ev.b = static_cast<std::int32_t>(n);
                emit(ev);

                std::int32_t status = 0;
                try {
                    body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                    status = 1;
                }
                const std::int64_t end_us = now_us() - epoch_us_;
                ev.cycle = static_cast<Cycle>(end_us);
                ev.kind = EventKind::kExecJobEnd;
                ev.b = status;
                ev.pkt = static_cast<PacketId>(clamp_us(end_us - begin_us));
                emit(ev);
            });
        }
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<SyntheticResult>
run_batch(const std::vector<RunItem> &items, const ExecOptions &opts)
{
    // Per-run observers must be exclusive: one sink shared by two
    // concurrent runs would interleave their event streams in host
    // scheduling order, silently breaking trace determinism.
    std::set<const void *> sinks, snapshots;
    for (const RunItem &item : items) {
        if (item.params.sink != nullptr &&
            !sinks.insert(item.params.sink).second) {
            throw std::invalid_argument(
                "run_batch: two items share an EventSink; give each "
                "item its own recorder and merge in item order");
        }
        if (item.params.snapshots != nullptr &&
            !snapshots.insert(item.params.snapshots).second) {
            throw std::invalid_argument(
                "run_batch: two items share a SnapshotRecorder; give "
                "each item its own recorder and merge in item order");
        }
    }

    SweepRunner runner(opts);
    return runner.map<SyntheticResult>(items.size(), [&items](
                                                         std::size_t i) {
        return run_synthetic(items[i].cfg, items[i].traffic,
                             items[i].params);
    });
}

} // namespace catnap
