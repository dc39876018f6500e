/**
 * @file
 * catnap_serve: the long-running sweep service (DESIGN.md §17).
 *
 * The server listens on a local Unix-domain socket and answers binary
 * frames (serve/frame.h). A sweep request carries sealed point-spec
 * images (exec/point_codec.h) and is answered by one run_points() call
 * (exec/proc_runner.h) over the persistent result cache — the
 * ResultStore of exec/result_store.h, the same store a local sweep's
 * `--journal` uses: every point is keyed by its 64-bit "PNT1" identity
 * hash, stored points replay, and misses run one point per SweepRunner
 * job through one per-point executor: run_point_in_process() by
 * default, or ProcRunner::run_point() under ServeExecPolicy::isolate (a
 * supervised catnap_sim worker subprocess with retry/backoff and
 * quarantine). On either backend each point lands in the cache the
 * moment it finishes, so a daemon killed mid-sweep loses at most the
 * points in flight.
 *
 * Concurrency contract:
 *   - one handler thread per connection, joined by the accept loop
 *     once its client disconnects;
 *   - sweeps run one at a time behind the sweep mutex, each keeping
 *     ServeExecPolicy::jobs workers busy; ping, stats and shutdown
 *     never take it, so they answer while a sweep runs;
 *   - *single-flight*: a request for a point another request is
 *     executing waits on the sweep mutex, then replays the point from
 *     the cache (provenance: hit), so each point executes once;
 *   - the counters have their own mutex; the cache locks itself;
 *   - quarantined points are never inserted into the cache, so a
 *     transient failure (isolate mode) is retried by the next request
 *     instead of being served forever.
 *
 * Determinism contract: a result is encoded once (bit-exact doubles)
 * when its point first executes; a later response decodes the cached
 * bytes exactly (a record that does not is re-executed, never
 * replayed) and re-encodes them, which gives back the same bytes, then
 * seals them under the point hash. A
 * warm-cache sweep is therefore byte-identical to the serial in-process
 * run while executing zero simulation points.
 */
#ifndef CATNAP_SERVE_SERVER_H
#define CATNAP_SERVE_SERVER_H

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
    void reap_handlers();
    void handle_connection(int fd);
    ServeReply handle_payload(const std::vector<std::uint8_t> &payload);
    ServeReply handle_sweep(const std::vector<RunItem> &items);
    ServeStats stats_locked() const;
    void write_stats_file();
    void emit(TraceEvent ev);

    ServeConfig cfg_;
    std::unique_ptr<ResultStore> cache_;
    std::unique_ptr<ProcRunner> proc_; ///< the isolate backend, else null
    int listen_fd_ = -1;

    std::mutex sweep_mu_;              ///< one sweep at a time
    mutable std::mutex mu_;            ///< stats_ + shutdown_requested_
    ServeStats stats_;

    std::mutex sink_mutex_;
    std::int64_t epoch_us_ = 0;

    std::mutex threads_mu_;            ///< conn bookkeeping
    std::vector<std::thread> conn_threads_;
    std::vector<std::thread::id> finished_; ///< returned, not yet joined
    std::set<int> conn_fds_;
    std::thread accept_thread_;
    bool running_ = false;
    bool shutdown_requested_ = false;
};

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_SERVER_H
