#include "serve/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "exec/point_codec.h"
#include "serve/frame.h"

namespace catnap {
namespace serve {

namespace {

/** Thrown for failures a retry can fix (daemon down or mid-restart);
 * protocol errors throw ServeError directly and are never retried. */
struct Retryable : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** An owned connected socket. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.empty())
            throw ServeError("serve client: socket path is required");
        if (path.size() >= sizeof(addr.sun_path)) {
            throw ServeError("serve client: socket path longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: " + path);
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) {
            throw Retryable(std::string("serve client: socket(): ") +
                            std::strerror(errno));
        }
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            // ENOENT/ECONNREFUSED = daemon not up (yet): retryable.
            throw Retryable("serve client: connect(" + path +
                            "): " + std::strerror(err));
        }
    }

    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send_frame(const std::vector<std::uint8_t> &payload)
    {
        const std::vector<std::uint8_t> bytes = encode_frame(payload);
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw Retryable(std::string("serve client: send(): ") +
                                std::strerror(errno));
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Blocks until one complete reply frame arrives. A connection cut
     * mid-reply (daemon killed) is Retryable; a framing error is not. */
    std::vector<std::uint8_t>
    recv_frame()
    {
        std::vector<std::uint8_t> acc;
        std::uint8_t chunk[64 * 1024];
        for (;;) {
            const FrameDecode dec = decode_frame(acc.data(), acc.size());
            if (dec.status == FrameStatus::kFrame)
                return dec.payload;
            if (dec.status == FrameStatus::kBad)
                throw ServeError("serve client: " + dec.error);
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw Retryable(std::string("serve client: recv(): ") +
                                std::strerror(errno));
            }
            if (n == 0) {
                throw Retryable(
                    "serve client: connection closed mid-reply");
            }
            acc.insert(acc.end(), chunk, chunk + n);
        }
    }

  private:
    int fd_ = -1;
};

/**
 * One request/reply round trip with whole-request retry (see @file of
 * serve/client.h for why retrying a sweep is idempotent). An error
 * reply, or a reply of any kind but @p want, throws ServeError.
 */
ServeReply
round_trip(const ServeRequest &req, ServeReply::Kind want,
           const ServeClientOptions &opts)
{
    const std::vector<std::uint8_t> request = encode_request(req);
    const int attempts = opts.attempts > 0 ? opts.attempts : 1;
    std::string last_error;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0 && opts.retry_delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.retry_delay_ms));
        }
        std::vector<std::uint8_t> payload;
        try {
            Conn conn(opts.socket_path);
            conn.send_frame(request);
            payload = conn.recv_frame();
        } catch (const Retryable &e) {
            last_error = e.what();
            continue;
        }
        ServeReply reply = decode_reply(payload);
        if (reply.kind == ServeReply::Kind::kError)
            throw ServeError("serve daemon: " + reply.error);
        if (reply.kind != want) {
            throw ServeError(
                "serve client: expected reply kind " +
                std::to_string(static_cast<int>(want)) + ", got " +
                std::to_string(static_cast<int>(reply.kind)));
        }
        return reply;
    }
    throw ServeError("serve client: daemon unreachable after " +
                     std::to_string(attempts) + " attempt(s): " +
                     last_error);
}

} // namespace

std::vector<SyntheticResult>
ServedSweep::merged() const
{
    if (!ok())
        throw std::runtime_error(quarantine_summary());
    return results;
}

std::string
ServedSweep::quarantine_summary() const
{
    if (ok())
        return "";
    std::string out = "serve: " + std::to_string(quarantined) +
                      " point(s) quarantined by the daemon:\n";
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        if (statuses[i] != ServedStatus::kQuarantined)
            continue;
        out += "  point " + std::to_string(i) + ": " + errors[i] + "\n";
    }
    return out;
}

ServedSweep
run_batch_served(const std::vector<RunItem> &items,
                 const ServeClientOptions &opts)
{
    const ServeReply reply =
        round_trip(ServeRequest{ServeRequest::Kind::kSweep, items},
                   ServeReply::Kind::kResults, opts);
    if (reply.points.size() != items.size()) {
        throw ServeError("serve client: sent " +
                         std::to_string(items.size()) +
                         " points but the reply carries " +
                         std::to_string(reply.points.size()));
    }

    ServedSweep out;
    out.results.resize(items.size());
    out.statuses.assign(items.size(), ServedStatus::kQuarantined);
    out.errors.assign(items.size(), "");
    for (std::size_t i = 0; i < items.size(); ++i) {
        const ServedPoint &p = reply.points[i];
        out.statuses[i] = p.status;
        switch (p.status) {
        case ServedStatus::kQuarantined:
            out.errors[i] = p.error;
            ++out.quarantined;
            continue;
        case ServedStatus::kHit:
            ++out.hits;
            break;
        case ServedStatus::kMiss:
            ++out.misses;
            break;
        }
        try {
            // The image is sealed under the point hash: decoding
            // validates that these bytes answer exactly items[i].
            out.results[i] = decode_point_result(items[i], p.image);
        } catch (const std::exception &e) {
            throw ServeError("serve client: points[" + std::to_string(i) +
                             "] (key " + key_hex(point_hash(items[i])) +
                             "): bad result image: " + e.what());
        }
    }
    return out;
}

ServeStats
fetch_stats(const ServeClientOptions &opts)
{
    return round_trip(ServeRequest{ServeRequest::Kind::kStats, {}},
                      ServeReply::Kind::kStats, opts)
        .stats;
}

bool
ping(const ServeClientOptions &opts)
{
    try {
        (void)round_trip(ServeRequest{ServeRequest::Kind::kPing, {}},
                         ServeReply::Kind::kPong, opts);
        return true;
    } catch (const ServeError &) {
        return false;
    }
}

void
request_shutdown(const ServeClientOptions &opts)
{
    (void)round_trip(ServeRequest{ServeRequest::Kind::kShutdown, {}},
                     ServeReply::Kind::kBye, opts);
}

} // namespace serve
} // namespace catnap
