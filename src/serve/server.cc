#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "exec/point_codec.h"

namespace catnap {
namespace serve {

namespace {

/** Accept-loop poll granularity: how fast stop() is noticed. */
constexpr int kAcceptPollMs = 200;

/** Per-read chunk while reassembling frames. */
constexpr std::size_t kReadChunk = 64 * 1024;

ServeReply
error_reply(const std::string &message)
{
    ServeReply reply;
    reply.kind = ServeReply::Kind::kError;
    reply.error = message;
    return reply;
}

/** Sends every byte of @p bytes (MSG_NOSIGNAL: a vanished client must
 * not SIGPIPE the daemon). Returns false on any send failure. */
bool
send_all(int fd, const std::vector<std::uint8_t> &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

ServeServer::ServeServer(const ServeConfig &cfg) : cfg_(cfg)
{
    if (cfg_.socket_path.empty())
        throw std::invalid_argument("serve: socket path is required");
    if (cfg_.exec.isolate) {
        // ProcRunner rejects an empty worker or scratch path.
        ProcOptions popts;
        popts.worker = cfg_.exec.worker;
        popts.scratch_dir = cfg_.exec.scratch;
        popts.max_retries = cfg_.exec.max_retries;
        popts.timeout_ms = cfg_.exec.timeout_ms;
        popts.sink = cfg_.sink;
        proc_ = std::make_unique<ProcRunner>(popts);
    }

    cache_ = std::make_unique<ResultStore>(cfg_.cache);
    stats_.restored_records = cache_->restored();
    stats_.restored_discarded_bytes = cache_->restored_discarded();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::invalid_argument("serve: socket path longer than " +
                                    std::to_string(sizeof(addr.sun_path) - 1) +
                                    " bytes: " + cfg_.socket_path);
    }
    std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
                cfg_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error(std::string("serve: socket(): ") +
                                 std::strerror(errno));
    // A stale path from a SIGKILLed daemon would fail the bind forever.
    ::unlink(cfg_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("serve: bind(" + cfg_.socket_path +
                                 "): " + std::strerror(err));
    }
    if (::listen(listen_fd_, 16) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(cfg_.socket_path.c_str());
        throw std::runtime_error(std::string("serve: listen(): ") +
                                 std::strerror(err));
    }
}

ServeServer::~ServeServer()
{
    stop();
}

void
ServeServer::start()
{
    {
        std::lock_guard<std::mutex> lock(threads_mu_);
        if (running_)
            return;
        running_ = true;
    }
    epoch_us_ = now_us();
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void
ServeServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(threads_mu_);
        if (!running_ && !accept_thread_.joinable())
            return;
        running_ = false;
    }
    if (accept_thread_.joinable())
        accept_thread_.join();

    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(threads_mu_);
        // Kick every blocked recv() so its handler thread can exit.
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RDWR);
        handlers.swap(conn_threads_);
    }
    for (std::thread &t : handlers)
        t.join();
    {
        std::lock_guard<std::mutex> lock(threads_mu_);
        finished_.clear(); // every handler has been joined
    }

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(cfg_.socket_path.c_str());
    }
    write_stats_file();
}

bool
ServeServer::shutdown_requested() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_requested_;
}

ServeStats
ServeServer::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_locked();
}

ServeStats
ServeServer::stats_locked() const
{
    ServeStats out = stats_;
    out.cache_entries = cache_->entries();
    out.cache_bytes = cache_->bytes();
    out.evicted = cache_->evicted();
    return out;
}

void
ServeServer::write_stats_file()
{
    if (cfg_.stats_path.empty())
        return;
    std::string body;
    {
        std::lock_guard<std::mutex> lock(mu_);
        body = stats_locked().to_json();
    }
    body += '\n';
    // Write-then-rename: a daemon killed mid-write leaves the previous
    // snapshot intact, never a torn one.
    const std::string tmp = cfg_.stats_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return; // stats are best-effort; never fail a request
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
    }
    std::rename(tmp.c_str(), cfg_.stats_path.c_str());
}

void
ServeServer::emit(TraceEvent ev)
{
    if (cfg_.sink == nullptr)
        return;
    ev.cycle = static_cast<Cycle>(now_us() - epoch_us_);
    // Handler threads emit concurrently; the sink sees one event at a
    // time (same contract as SweepRunner / ProcRunner).
    std::lock_guard<std::mutex> lock(sink_mutex_);
    cfg_.sink->on_event(ev);
}

void
ServeServer::accept_loop()
{
    for (;;) {
        reap_handlers();
        {
            std::lock_guard<std::mutex> lock(threads_mu_);
            if (!running_)
                return;
        }
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, kAcceptPollMs);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(threads_mu_);
        if (!running_) {
            ::close(fd);
            return;
        }
        conn_fds_.insert(fd);
        conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
    }
}

void
ServeServer::reap_handlers()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(threads_mu_);
        for (const std::thread::id id : finished_) {
            const auto it = std::find_if(
                conn_threads_.begin(), conn_threads_.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            done.push_back(std::move(*it));
            conn_threads_.erase(it);
        }
        finished_.clear();
    }
    // Each has returned from handle_connection, so the joins are short;
    // joining frees the thread's stack.
    for (std::thread &t : done)
        t.join();
}

void
ServeServer::handle_connection(int fd)
{
    std::vector<std::uint8_t> acc;
    std::uint8_t chunk[kReadChunk];
    bool open = true;
    while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        acc.insert(acc.end(), chunk, chunk + n);

        for (;;) {
            const FrameDecode dec = decode_frame(acc.data(), acc.size());
            if (dec.status == FrameStatus::kNeedMore)
                break;
            if (dec.status == FrameStatus::kBad) {
                // Unresynchronisable: answer precisely, then close.
                send_all(fd,
                         encode_frame(encode_reply(error_reply(dec.error))));
                open = false;
                break;
            }
            acc.erase(acc.begin(),
                      acc.begin() + static_cast<std::ptrdiff_t>(dec.consumed));
            const ServeReply reply = handle_payload(dec.payload);
            if (!send_all(fd, encode_frame(encode_reply(reply)))) {
                open = false;
                break;
            }
        }
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    // Closed under the lock, so stop() never shuts down a reused fd.
    conn_fds_.erase(fd);
    ::close(fd);
    finished_.push_back(std::this_thread::get_id());
}

ServeReply
ServeServer::handle_payload(const std::vector<std::uint8_t> &payload)
{
    ServeRequest req;
    try {
        req = decode_request(payload);
    } catch (const ServeError &e) {
        return error_reply(e.what());
    }

    ServeReply reply;
    switch (req.kind) {
    case ServeRequest::Kind::kPing:
        reply.kind = ServeReply::Kind::kPong;
        return reply;
    case ServeRequest::Kind::kStats:
        reply.kind = ServeReply::Kind::kStats;
        reply.stats = stats();
        write_stats_file();
        return reply;
    case ServeRequest::Kind::kShutdown: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_requested_ = true;
        }
        write_stats_file();
        reply.kind = ServeReply::Kind::kBye;
        return reply;
    }
    case ServeRequest::Kind::kSweep:
        break;
    }

    try {
        return handle_sweep(req.items);
    } catch (const std::exception &e) {
        return error_reply(std::string("sweep failed: ") + e.what());
    }
}

ServeReply
ServeServer::handle_sweep(const std::vector<RunItem> &items)
{
    // The configured backend's per-point executor, with a supervisor
    // fault turned into a quarantine and every execution counted and
    // traced.
    const PointExecutor exec = [this](std::size_t index,
                                      const RunItem &item,
                                      std::uint64_t key) {
        PointReport rep;
        try {
            rep = proc_ ? proc_->run_point(index, item, key)
                        : run_point_in_process(item);
        } catch (const std::exception &e) {
            // Supervisor-side fault (unrunnable worker, unwritable
            // scratch): the point quarantines with the reason.
            rep.key = key;
            rep.failures.push_back({PointFailKind::kThrew, 0,
                                    std::string("executor failed: ") +
                                        e.what()});
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.executed += static_cast<std::uint64_t>(rep.attempts);
            stats_.batches += 1;
        }
        TraceEvent ev{};
        ev.kind = EventKind::kServeExec;
        ev.node = static_cast<NodeId>(index);
        ev.a = rep.attempts;
        ev.b = rep.status == PointStatus::kQuarantined ? 1 : 0;
        emit(ev);
        return rep;
    };

    // One sweep at a time: a later sweep for the same points waits here
    // and then replays them from the cache (single-flight).
    std::lock_guard<std::mutex> sweep(sweep_mu_);
    const std::uint64_t evicted_before = cache_->evicted();
    const ProcSweepResult run =
        run_points(items, cfg_.exec.jobs, exec, cache_.get());

    ServeReply reply;
    reply.kind = ServeReply::Kind::kResults;
    reply.points.resize(run.points.size());
    for (std::size_t i = 0; i < run.points.size(); ++i) {
        const PointReport &rep = run.points[i];
        ServedPoint &answer = reply.points[i];
        if (rep.status == PointStatus::kQuarantined) {
            // Never cached: the next request re-executes it.
            answer.status = ServedStatus::kQuarantined;
            answer.error = "quarantined after " +
                           std::to_string(rep.attempts) + " attempt(s)";
            for (const PointFailure &f : rep.failures)
                answer.error += "; " + f.message;
            continue;
        }
        answer.status = rep.status == PointStatus::kFromJournal
                            ? ServedStatus::kHit
                            : ServedStatus::kMiss;
        // Sealed under the point hash, so the client re-validates that
        // these bytes answer the point it sent.
        ckpt::Writer result;
        put_synth_result(result, rep.result);
        answer.image = ckpt::seal(rep.key, result.bytes());
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.requests += 1;
        stats_.points += run.points.size();
        stats_.hits += run.from_journal;
        stats_.misses += run.completed;
        stats_.quarantined += run.quarantined;
    }

    TraceEvent ev{};
    ev.kind = EventKind::kServeRequest;
    ev.node = static_cast<NodeId>(run.points.size());
    ev.a = static_cast<std::int32_t>(run.from_journal);
    ev.b = static_cast<std::int32_t>(run.completed);
    emit(ev);

    const std::uint64_t evicted = cache_->evicted() - evicted_before;
    if (evicted > 0) {
        ev = TraceEvent{};
        ev.kind = EventKind::kServeEvict;
        ev.a = static_cast<std::int32_t>(evicted);
        ev.b = static_cast<std::int32_t>(cache_->entries());
        emit(ev);
    }

    write_stats_file();
    return reply;
}

} // namespace serve
} // namespace catnap
