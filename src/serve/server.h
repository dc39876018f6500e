/**
 * @file
 * catnap_serve: the long-running sweep service (DESIGN.md §17).
 *
 * The server listens on a local Unix-domain socket and answers binary
 * frames (serve/frame.h). A sweep request carries sealed point-spec
 * images (exec/point_codec.h); every point is keyed
 * by its 64-bit "PNT1" identity hash and answered from the persistent
 * result cache — the ResultStore of exec/result_store.h, the same store
 * a local sweep's `--journal` uses — when possible. Misses run one point per
 * SweepRunner job through one per-point executor that returns a
 * PointReport: run_point_in_process() by default, or
 * ProcRunner::run_point() under ServeExecPolicy::isolate (a supervised
 * catnap_sim worker subprocess with retry/backoff and quarantine).
 * On either backend each point lands in the cache, and releases its
 * single-flight waiters, the moment it finishes, so a daemon killed
 * mid-sweep loses at most the points in flight.
 *
 * Concurrency contract:
 *   - one handler thread per connection; the cache, statistics, and
 *     single-flight table are serialised behind one mutex;
 *   - *single-flight*: concurrent requests for the same uncached point
 *     execute it exactly once — later requesters block until the owner
 *     finishes, then read the cache (provenance: hit);
 *   - quarantined points are never inserted into the cache, so a
 *     transient failure (isolate mode) is retried by the next request
 *     instead of being served forever.
 *
 * Determinism contract: a result is encoded once (bit-exact doubles)
 * when its point first executes; every later response seals those same
 * cached bytes under the point hash, after checking that they decode
 * exactly (a record that does not is re-executed, never replayed). A
 * warm-cache sweep is therefore byte-identical to the serial in-process
 * run while executing zero simulation points.
 */
#ifndef CATNAP_SERVE_SERVER_H
#define CATNAP_SERVE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/proc_runner.h"
#include "exec/result_store.h"
#include "exec/sweep_runner.h"
#include "obs/event.h"
#include "serve/frame.h"

namespace catnap {
namespace serve {

/** How cache misses are executed. */
struct ServeExecPolicy
{
    /** Worker threads for miss execution; 0 = one per core. */
    int jobs = 0;

    /** Execute misses in supervised catnap_sim worker subprocesses
     * (exec/proc_runner.h) instead of in-process threads: crash
     * containment plus per-point retry/backoff and quarantine. */
    bool isolate = false;

    /** Worker executable for isolate mode. */
    std::string worker;

    /** Spec/result exchange directory for isolate mode. */
    std::string scratch = ".catnap-serve-scratch";

    /** Extra attempts before quarantine (isolate mode). */
    int max_retries = 2;

    /** Per-attempt wall budget in ms (isolate mode); 0 = unlimited. */
    std::int64_t timeout_ms = 0;
};

/** Daemon-wide policy. */
struct ServeConfig
{
    /** Unix-domain socket path to listen on. Required. */
    std::string socket_path;

    /** Result-cache backing file and bound (exec/result_store.h). */
    StoreConfig cache;

    ServeExecPolicy exec;

    /** When non-empty, the daemon rewrites this file with the stats
     * JSON after every request (and at shutdown), so the statistics
     * survive even a SIGKILLed daemon. */
    std::string stats_path;

    /** Receives serve.* host-time trace events (exec Perfetto track;
     * null disables). */
    EventSink *sink = nullptr;
};

/** The daemon. One instance per socket; start() spawns the accept
 * loop, stop() tears everything down (idempotent). */
class ServeServer
{
  public:
    /** Opens the cache and binds the socket (throws on either). */
    explicit ServeServer(const ServeConfig &cfg);

    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Spawns the accept thread; returns immediately. */
    void start();

    /** Closes the socket, wakes every handler, joins all threads. */
    void stop();

    /** True once a client sent a shutdown request. */
    bool shutdown_requested() const;

    /** Snapshot of the daemon counters. */
    ServeStats stats() const;

  private:
    void accept_loop();
    void handle_connection(int fd);
    ServeReply handle_payload(const std::vector<std::uint8_t> &payload);
    ServeReply handle_sweep(const std::vector<RunItem> &items);
    std::vector<ServedPoint> resolve_points(const std::vector<RunItem> &items);
    void execute_misses(const std::vector<RunItem> &items,
                        const std::vector<std::uint64_t> &keys,
                        const std::vector<std::size_t> &pending,
                        std::vector<ServedPoint> &answers);
    void finish_point(std::uint64_t key, std::size_t slot,
                      const PointReport &rep,
                      std::vector<ServedPoint> &answers);
    ServeStats stats_locked() const;
    void write_stats_file();
    void emit(TraceEvent ev);

    ServeConfig cfg_;
    std::unique_ptr<ResultStore> cache_;
    std::unique_ptr<ProcRunner> proc_; ///< the isolate backend, else null
    int listen_fd_ = -1;

    mutable std::mutex mu_;            ///< cache + stats + single-flight
    std::condition_variable inflight_cv_;
    std::set<std::uint64_t> inflight_; ///< keys some request is executing
    ServeStats stats_;

    std::mutex sink_mutex_;
    std::int64_t epoch_us_ = 0;

    std::mutex threads_mu_;            ///< conn bookkeeping
    std::vector<std::thread> conn_threads_;
    std::set<int> conn_fds_;
    std::thread accept_thread_;
    bool running_ = false;
    bool shutdown_requested_ = false;
};

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_SERVER_H
