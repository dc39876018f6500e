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
#include "serve/json.h"

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
    send_frame(const std::string &payload)
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
    std::string
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

/** One request/reply round trip with whole-request retry (see @file of
 * serve/client.h for why retrying a sweep is idempotent). */
std::string
round_trip(const std::string &request, const ServeClientOptions &opts)
{
    const int attempts = opts.attempts > 0 ? opts.attempts : 1;
    std::string last_error;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0 && opts.retry_delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.retry_delay_ms));
        }
        try {
            Conn conn(opts.socket_path);
            conn.send_frame(request);
            return conn.recv_frame();
        } catch (const Retryable &e) {
            last_error = e.what();
        }
    }
    throw ServeError("serve client: daemon unreachable after " +
                     std::to_string(attempts) + " attempt(s): " +
                     last_error);
}

/** Parses a reply, rejecting error frames and type mismatches. */
JsonValue
expect_reply(const std::string &payload, const std::string &want_type)
{
    JsonValue doc = parse_json(payload);
    if (doc.kind != JsonValue::Kind::kObject)
        throw ServeError("serve client: reply is not a JSON object");
    const JsonValue *type = doc.find("type");
    if (type == nullptr || type->kind != JsonValue::Kind::kString)
        throw ServeError("serve client: reply has no \"type\"");
    if (type->string == "error") {
        const JsonValue *msg = doc.find("message");
        throw ServeError("serve daemon: " +
                         (msg != nullptr &&
                                  msg->kind == JsonValue::Kind::kString
                              ? msg->string
                              : std::string("(no message)")));
    }
    if (type->string != want_type) {
        throw ServeError("serve client: expected a \"" + want_type +
                         "\" reply, got \"" + type->string + "\"");
    }
    return doc;
}

/** Reads one u64 counter member out of a stats object. */
std::uint64_t
stat_u64(const JsonValue &stats, const char *name)
{
    const JsonValue *v = stats.find(name);
    if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
        v->number < 0) {
        throw ServeError(std::string("serve client: stats reply is "
                                     "missing counter \"") +
                         name + "\"");
    }
    return static_cast<std::uint64_t>(v->number);
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
    if (items.size() > kMaxPointsPerRequest) {
        throw ServeError("serve client: " + std::to_string(items.size()) +
                         " points exceed the per-request cap of " +
                         std::to_string(kMaxPointsPerRequest));
    }

    std::string request = "{\"type\":\"sweep\",\"points\":[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            request += ',';
        request += '"';
        request += to_hex(encode_point_spec(items[i]));
        request += '"';
    }
    request += "]}";

    const std::string payload = round_trip(request, opts);
    const JsonValue doc = expect_reply(payload, "results");
    const JsonValue *points = doc.find("points");
    if (points == nullptr || points->kind != JsonValue::Kind::kArray)
        throw ServeError("serve client: results reply has no points");
    if (points->items.size() != items.size()) {
        throw ServeError("serve client: sent " +
                         std::to_string(items.size()) +
                         " points but the reply carries " +
                         std::to_string(points->items.size()));
    }

    ServedSweep out;
    out.results.resize(items.size());
    out.statuses.assign(items.size(), ServedStatus::kQuarantined);
    out.errors.assign(items.size(), "");
    for (std::size_t i = 0; i < items.size(); ++i) {
        const JsonValue &p = points->items[i];
        if (p.kind != JsonValue::Kind::kObject) {
            throw ServeError("serve client: points[" + std::to_string(i) +
                             "] is not an object");
        }
        const JsonValue *status = p.find("status");
        if (status == nullptr || status->kind != JsonValue::Kind::kString) {
            throw ServeError("serve client: points[" + std::to_string(i) +
                             "] has no status");
        }
        if (status->string == "quarantined") {
            const JsonValue *err = p.find("error");
            out.statuses[i] = ServedStatus::kQuarantined;
            out.errors[i] =
                err != nullptr && err->kind == JsonValue::Kind::kString
                    ? err->string
                    : "(no reason given)";
            ++out.quarantined;
            continue;
        }
        if (status->string == "hit") {
            out.statuses[i] = ServedStatus::kHit;
            ++out.hits;
        } else if (status->string == "miss") {
            out.statuses[i] = ServedStatus::kMiss;
            ++out.misses;
        } else {
            throw ServeError("serve client: points[" + std::to_string(i) +
                             "] has unknown status \"" + status->string +
                             "\"");
        }
        const JsonValue *result = p.find("result");
        if (result == nullptr || result->kind != JsonValue::Kind::kString) {
            throw ServeError("serve client: points[" + std::to_string(i) +
                             "] has no result image");
        }
        try {
            // The image is sealed under the point hash: decoding
            // validates that these bytes answer exactly items[i].
            out.results[i] =
                decode_point_result(items[i], from_hex(result->string));
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
    const std::string payload =
        round_trip("{\"type\":\"stats\"}", opts);
    const JsonValue doc = expect_reply(payload, "stats");
    const JsonValue *stats = doc.find("stats");
    if (stats == nullptr || stats->kind != JsonValue::Kind::kObject)
        throw ServeError("serve client: stats reply has no counters");
    ServeStats out;
    out.requests = stat_u64(*stats, "requests");
    out.points = stat_u64(*stats, "points");
    out.hits = stat_u64(*stats, "hits");
    out.misses = stat_u64(*stats, "misses");
    out.quarantined = stat_u64(*stats, "quarantined");
    out.executed = stat_u64(*stats, "executed");
    out.batches = stat_u64(*stats, "batches");
    out.evicted = stat_u64(*stats, "evicted");
    out.cache_entries = stat_u64(*stats, "cache_entries");
    out.cache_bytes = stat_u64(*stats, "cache_bytes");
    out.restored_records = stat_u64(*stats, "restored_records");
    out.restored_discarded_bytes =
        stat_u64(*stats, "restored_discarded_bytes");
    return out;
}

bool
ping(const ServeClientOptions &opts)
{
    try {
        const std::string payload =
            round_trip("{\"type\":\"ping\"}", opts);
        (void)expect_reply(payload, "pong");
        return true;
    } catch (const ServeError &) {
        return false;
    }
}

void
request_shutdown(const ServeClientOptions &opts)
{
    const std::string payload =
        round_trip("{\"type\":\"shutdown\"}", opts);
    (void)expect_reply(payload, "bye");
}

} // namespace serve
} // namespace catnap
