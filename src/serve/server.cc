#include "serve/server.h"

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
    ::close(fd);
    std::lock_guard<std::mutex> lock(threads_mu_);
    conn_fds_.erase(fd);
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
    ServeReply reply;
    reply.kind = ServeReply::Kind::kResults;
    reply.points = resolve_points(items);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t quarantined = 0;
    for (const ServedPoint &p : reply.points) {
        switch (p.status) {
        case ServedStatus::kHit:
            ++hits;
            break;
        case ServedStatus::kMiss:
            ++misses;
            break;
        case ServedStatus::kQuarantined:
            ++quarantined;
            break;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.requests += 1;
        stats_.points += reply.points.size();
        stats_.hits += hits;
        stats_.misses += misses;
        stats_.quarantined += quarantined;
    }

    TraceEvent ev{};
    ev.kind = EventKind::kServeRequest;
    ev.node = static_cast<NodeId>(reply.points.size());
    ev.a = static_cast<std::int32_t>(hits);
    ev.b = static_cast<std::int32_t>(misses);
    emit(ev);

    write_stats_file();
    return reply;
}

std::vector<ServedPoint>
ServeServer::resolve_points(const std::vector<RunItem> &items)
{
    std::vector<ServedPoint> answers(items.size());
    std::vector<std::uint64_t> keys(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        keys[i] = point_hash(items[i]);

    // A key that repeats within this request resolves once; later
    // occurrences copy the first slot's answer at the end.
    std::map<std::uint64_t, std::size_t> first_slot;
    std::map<std::size_t, std::size_t> dup_of;
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto [it, fresh] = first_slot.emplace(keys[i], i);
        if (fresh)
            todo.push_back(i);
        else
            dup_of.emplace(i, it->second);
    }

    // Single-flight resolution loop. Each round, under the lock: serve
    // cache hits, claim every unclaimed miss, and set aside keys some
    // other request is executing. Claims are executed *before* this
    // thread ever blocks on the condition variable, so a request never
    // holds an unexecuted claim while waiting on another request — two
    // requests with interleaved point sets cannot deadlock. Waiters that
    // find their key neither cached nor in flight afterwards (the owner
    // quarantined it) claim it themselves next round and re-execute.
    while (!todo.empty()) {
        std::vector<std::size_t> pending;
        std::vector<std::size_t> waiting;
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (const std::size_t i : todo) {
                const std::uint64_t key = keys[i];
                std::vector<std::uint8_t> payload;
                SyntheticResult decoded;
                // Validate before serving: a corrupt record, trailing
                // bytes included, is re-executed, never replayed.
                if (cache_->lookup(key, payload) &&
                    decode_synth_result(payload, decoded)) {
                    // Sealed under the point hash, so the client
                    // re-validates that these bytes answer the point
                    // it sent.
                    answers[i].status = ServedStatus::kHit;
                    answers[i].image = ckpt::seal(key, payload);
                    continue;
                }
                if (inflight_.find(key) != inflight_.end()) {
                    waiting.push_back(i);
                } else {
                    inflight_.insert(key);
                    pending.push_back(i);
                }
            }
            if (pending.empty() && !waiting.empty()) {
                // Nothing of ours to run: block until some flight lands
                // (spurious wakeups just re-run the round).
                inflight_cv_.wait(lock);
            }
        }
        if (!pending.empty())
            execute_misses(items, keys, pending, answers);
        todo = std::move(waiting);
    }

    for (const auto &[slot, first] : dup_of)
        answers[slot] = answers[first];
    return answers;
}

void
ServeServer::execute_misses(const std::vector<RunItem> &items,
                            const std::vector<std::uint64_t> &keys,
                            const std::vector<std::size_t> &pending,
                            std::vector<ServedPoint> &answers)
{
    ExecOptions eopts;
    eopts.jobs = cfg_.exec.jobs;
    SweepRunner(eopts).run_jobs(pending.size(), [&](std::size_t p) {
        const std::size_t slot = pending[p];
        PointReport rep;
        try {
            rep = proc_ ? proc_->run_point(slot, items[slot], keys[slot])
                        : run_point_in_process(items[slot]);
        } catch (const std::exception &e) {
            // Supervisor-side fault (unrunnable worker, unwritable
            // scratch): the point quarantines with the reason.
            rep.failures.push_back({PointFailKind::kThrew, 0,
                                    std::string("executor failed: ") +
                                        e.what()});
        }
        // Every claimed key reaches finish_point, or the single-flight
        // table would wedge other requests forever.
        finish_point(keys[slot], slot, rep, answers);
    });
}

void
ServeServer::finish_point(std::uint64_t key, std::size_t slot,
                          const PointReport &rep,
                          std::vector<ServedPoint> &answers)
{
    // Slot @p slot is written only by this point's job.
    ServedPoint &answer = answers[slot];
    const bool ok = rep.status != PointStatus::kQuarantined;
    ckpt::Writer result;
    if (ok) {
        put_synth_result(result, rep.result);
        answer.status = ServedStatus::kMiss;
        answer.image = ckpt::seal(key, result.bytes());
    } else {
        answer.status = ServedStatus::kQuarantined;
        answer.error = "quarantined after " + std::to_string(rep.attempts) +
                       " attempt(s)";
        for (const PointFailure &f : rep.failures)
            answer.error += "; " + f.message;
    }

    std::size_t live_entries = 0;
    std::uint64_t evicted_delta = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.executed += static_cast<std::uint64_t>(rep.attempts);
        stats_.batches += 1;
        if (ok) {
            const std::uint64_t evicted_before = cache_->evicted();
            try {
                // Inserted (and flushed) the moment the point finishes:
                // a daemon killed right after this loses nothing.
                cache_->insert(key, result.bytes());
            } catch (const ckpt::CkptError &) {
                // Disk trouble degrades durability, never the answer.
            }
            evicted_delta = cache_->evicted() - evicted_before;
            live_entries = cache_->entries();
        }
        // A quarantined point is never cached: the next request
        // re-executes it.
        inflight_.erase(key);
    }
    // Waiters re-check the cache (hit) or re-claim (quarantined key).
    inflight_cv_.notify_all();

    TraceEvent ev{};
    ev.kind = EventKind::kServeExec;
    ev.node = static_cast<NodeId>(slot);
    ev.a = rep.attempts;
    ev.b = ok ? 0 : 1;
    emit(ev);

    if (evicted_delta > 0) {
        ev = TraceEvent{};
        ev.kind = EventKind::kServeEvict;
        ev.a = static_cast<std::int32_t>(evicted_delta);
        ev.b = static_cast<std::int32_t>(live_entries);
        emit(ev);
    }
}

} // namespace serve
} // namespace catnap
