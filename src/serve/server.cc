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
#include "exec/point_codec.h"
#include "serve/json.h"

namespace catnap {
namespace serve {

namespace {

/** Accept-loop poll granularity: how fast stop() is noticed. */
constexpr int kAcceptPollMs = 200;

/** Per-read chunk while reassembling frames. */
constexpr std::size_t kReadChunk = 64 * 1024;

/** Appends one "name":value JSON member (u64 value). */
void
put_member(std::string &out, const char *name, std::uint64_t value,
           bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
}

std::string
error_reply(const std::string &message)
{
    return std::string("{\"type\":\"error\",\"message\":") +
           json_quote(message) + "}";
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

std::string
ServeStats::to_json() const
{
    // Field order is fixed: CI greps these names out of the stats file.
    std::string out = "{";
    put_member(out, "requests", requests, true);
    put_member(out, "points", points);
    put_member(out, "hits", hits);
    put_member(out, "misses", misses);
    put_member(out, "quarantined", quarantined);
    put_member(out, "executed", executed);
    put_member(out, "batches", batches);
    put_member(out, "evicted", evicted);
    put_member(out, "cache_entries", cache_entries);
    put_member(out, "cache_bytes", cache_bytes);
    put_member(out, "restored_records", restored_records);
    put_member(out, "restored_discarded_bytes", restored_discarded_bytes);
    out += '}';
    return out;
}

ServeRequest
decode_request(const std::string &payload)
{
    const JsonValue doc = parse_json(payload);
    if (doc.kind != JsonValue::Kind::kObject)
        throw ServeError("request: top level must be a JSON object");

    const JsonValue *type = doc.find("type");
    if (type == nullptr)
        throw ServeError("request: missing \"type\" member");
    if (type->kind != JsonValue::Kind::kString)
        throw ServeError("request: \"type\" must be a string");

    ServeRequest req;
    if (type->string == "ping") {
        req.kind = ServeRequest::Kind::kPing;
        return req;
    }
    if (type->string == "stats") {
        req.kind = ServeRequest::Kind::kStats;
        return req;
    }
    if (type->string == "shutdown") {
        req.kind = ServeRequest::Kind::kShutdown;
        return req;
    }
    if (type->string != "sweep")
        throw ServeError("request: unknown type \"" + type->string + "\"");

    req.kind = ServeRequest::Kind::kSweep;
    const JsonValue *points = doc.find("points");
    if (points == nullptr)
        throw ServeError("request: sweep is missing \"points\"");
    if (points->kind != JsonValue::Kind::kArray)
        throw ServeError("request: \"points\" must be an array");
    if (points->items.size() > kMaxPointsPerRequest) {
        throw ServeError("request: " + std::to_string(points->items.size()) +
                         " points exceed the per-request cap of " +
                         std::to_string(kMaxPointsPerRequest));
    }
    req.items.reserve(points->items.size());
    for (std::size_t i = 0; i < points->items.size(); ++i) {
        const JsonValue &p = points->items[i];
        if (p.kind != JsonValue::Kind::kString) {
            throw ServeError("request: points[" + std::to_string(i) +
                             "] must be a hex string");
        }
        std::vector<std::uint8_t> image;
        try {
            image = from_hex(p.string);
        } catch (const ServeError &e) {
            throw ServeError("request: points[" + std::to_string(i) + "]: " +
                             e.what());
        }
        try {
            req.items.push_back(decode_point_spec(image));
        } catch (const ckpt::CkptError &e) {
            throw ServeError("request: points[" + std::to_string(i) +
                             "]: bad spec image: " + e.what());
        }
    }
    return req;
}

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

    cache_ = std::make_unique<ResultCache>(cfg_.cache);
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
                send_all(fd, encode_frame(error_reply(dec.error)));
                open = false;
                break;
            }
            acc.erase(acc.begin(),
                      acc.begin() + static_cast<std::ptrdiff_t>(dec.consumed));
            const std::string reply = handle_payload(dec.payload);
            if (!send_all(fd, encode_frame(reply))) {
                open = false;
                break;
            }
        }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(threads_mu_);
    conn_fds_.erase(fd);
}

std::string
ServeServer::handle_payload(const std::string &payload)
{
    ServeRequest req;
    try {
        req = decode_request(payload);
    } catch (const ServeError &e) {
        return error_reply(e.what());
    }

    switch (req.kind) {
    case ServeRequest::Kind::kPing:
        return "{\"type\":\"pong\"}";
    case ServeRequest::Kind::kStats: {
        std::string body;
        {
            std::lock_guard<std::mutex> lock(mu_);
            body = stats_locked().to_json();
        }
        write_stats_file();
        return "{\"type\":\"stats\",\"stats\":" + body + "}";
    }
    case ServeRequest::Kind::kShutdown: {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_requested_ = true;
        }
        write_stats_file();
        return "{\"type\":\"bye\"}";
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

std::string
ServeServer::handle_sweep(const std::vector<RunItem> &items)
{
    const std::vector<PointAnswer> answers = resolve_points(items);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t quarantined = 0;
    for (const PointAnswer &a : answers) {
        switch (a.status) {
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

    std::string stats_body;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.requests += 1;
        stats_.points += answers.size();
        stats_.hits += hits;
        stats_.misses += misses;
        stats_.quarantined += quarantined;
        stats_body = stats_locked().to_json();
    }

    TraceEvent ev{};
    ev.kind = EventKind::kServeRequest;
    ev.node = static_cast<NodeId>(answers.size());
    ev.a = static_cast<std::int32_t>(hits);
    ev.b = static_cast<std::int32_t>(misses);
    emit(ev);

    std::string out = "{\"type\":\"results\",\"points\":[";
    for (std::size_t i = 0; i < answers.size(); ++i) {
        const PointAnswer &a = answers[i];
        if (i != 0)
            out += ',';
        switch (a.status) {
        case ServedStatus::kHit:
            out += "{\"status\":\"hit\",\"result\":\"";
            break;
        case ServedStatus::kMiss:
            out += "{\"status\":\"miss\",\"result\":\"";
            break;
        case ServedStatus::kQuarantined:
            out += "{\"status\":\"quarantined\",\"error\":";
            out += json_quote(a.error);
            out += '}';
            continue;
        }
        // The wire image is sealed under the point hash, so the client
        // re-validates that these bytes belong to the point it sent.
        ckpt::Reader r(a.result_payload);
        const SyntheticResult res = take_synth_result(r);
        out += to_hex(encode_point_result(items[i], res));
        out += "\"}";
    }
    out += "],\"stats\":";
    out += stats_body;
    out += '}';

    write_stats_file();
    return out;
}

std::vector<ServeServer::PointAnswer>
ServeServer::resolve_points(const std::vector<RunItem> &items)
{
    std::vector<PointAnswer> answers(items.size());
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
                if (cache_->lookup(key, payload)) {
                    bool valid = true;
                    try {
                        // Validate before serving: a corrupt record is
                        // re-executed, never replayed.
                        ckpt::Reader r(payload);
                        (void)take_synth_result(r);
                    } catch (const ckpt::CkptError &) {
                        valid = false;
                    }
                    if (valid) {
                        answers[i].status = ServedStatus::kHit;
                        answers[i].result_payload = std::move(payload);
                        continue;
                    }
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
                            std::vector<PointAnswer> &answers)
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
                          std::vector<PointAnswer> &answers)
{
    // Slot @p slot is written only by this point's job.
    PointAnswer &answer = answers[slot];
    const bool ok = rep.status != PointStatus::kQuarantined;
    if (ok) {
        ckpt::Writer w;
        put_synth_result(w, rep.result);
        answer.status = ServedStatus::kMiss;
        answer.result_payload = w.bytes();
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
                cache_->insert(key, answer.result_payload);
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
