/**
 * @file
 * The catnap_serve wire format (DESIGN.md §17): the length-prefixed
 * frame and the binary messages carried inside it. client.cc and
 * server.cc exchange typed ServeRequest/ServeReply values; every byte
 * layout lives here.
 *
 * Everything that crosses the Unix-domain socket is one frame per
 * message, in either direction:
 *
 *   offset  size  field
 *        0     4  frame magic    0x32465343 ("CSF2"), little-endian
 *        4     4  payload length in bytes (hard cap kMaxFramePayload)
 *        8     -  payload        one message, a ckpt::Writer archive
 *
 * The frame decoder is incremental and total: given any byte prefix it
 * reports "need more bytes", "one complete frame (consumed N bytes)",
 * or "unrecoverable framing error" — it never throws, never reads out
 * of bounds, and never allocates from an unvalidated length (the cap is
 * checked before the payload is touched). A framing error is terminal
 * for the connection: once the magic or length field is wrong there is
 * no way to resynchronise the stream, so the server replies with a
 * precise error frame and closes.
 *
 * A payload starts with a u8 message kind; the body depends on it
 * (u32 counts, ckpt length-prefixed strings, u64 counters):
 *
 *   request  sweep     u32 n, then n sealed point-spec images
 *            stats, ping, shutdown                      (no body)
 *   reply    results   u32 n, then per point: u8 ServedStatus and one
 *                      string — the result image sealed under the point
 *                      hash (hit/miss) or the quarantine reason
 *            stats     the 12 ServeStats counters, to_json() order
 *            pong, bye                                  (no body)
 *            error     one string
 *
 * Decoding is exact (trailing bytes are an error) and reports any
 * malformation as a ServeError naming the message part and its byte
 * offset, e.g. "request: points[3] at offset 812: ...". A malformed
 * payload leaves the framing intact, so the connection stays usable.
 */
#ifndef CATNAP_SERVE_FRAME_H
#define CATNAP_SERVE_FRAME_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/sweep_runner.h"

namespace catnap {
namespace serve {

/** Raised on any malformed frame, message, or protocol exchange. */
class ServeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Frame magic: "CSF2" read as a little-endian u32. */
constexpr std::uint32_t kFrameMagic = 0x32465343u;

/** Fixed bytes before each frame's payload. */
constexpr std::size_t kFrameHeaderBytes = 4 + 4;

/** Hard payload cap: rejects absurd lengths before allocating. */
constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/** Cap on points per sweep request (bounds per-request allocation). */
constexpr std::size_t kMaxPointsPerRequest = 4096;

/** Outcome of one incremental decode step. */
enum class FrameStatus : std::int8_t {
    kNeedMore = 0, ///< prefix of a valid frame; read more bytes
    kFrame = 1,    ///< one complete frame decoded
    kBad = 2,      ///< framing error; the stream cannot be resynced
};

/** One decoded frame (or the reason there isn't one). */
struct FrameDecode
{
    FrameStatus status = FrameStatus::kNeedMore;
    std::vector<std::uint8_t> payload; ///< kFrame: the message bytes
    std::size_t consumed = 0; ///< kFrame: bytes of the frame, else 0
    std::string error;        ///< kBad: precise reason
};

/** Wraps @p payload in a sealed frame. Throws ServeError when the
 * payload exceeds kMaxFramePayload. */
std::vector<std::uint8_t> encode_frame(const std::vector<std::uint8_t> &payload);

/**
 * Attempts to decode one frame from the front of @p data. Total: every
 * input yields kNeedMore, kFrame, or kBad — never a throw or an
 * out-of-bounds read (see @file).
 */
FrameDecode decode_frame(const std::uint8_t *data, std::size_t size);

inline FrameDecode
decode_frame(const std::vector<std::uint8_t> &bytes)
{
    return decode_frame(bytes.data(), bytes.size());
}

/** Where one served point's bytes came from. */
enum class ServedStatus : std::int8_t {
    kHit = 0,         ///< replayed from the daemon's result cache
    kMiss = 1,        ///< executed by the daemon for this request
    kQuarantined = 2, ///< every daemon-side attempt failed; no result
};

/** Daemon-level counters (monotonic since startup). */
struct ServeStats
{
    std::uint64_t requests = 0;    ///< sweep requests answered
    std::uint64_t points = 0;      ///< points across all sweep requests
    std::uint64_t hits = 0;        ///< points served from the cache
    std::uint64_t misses = 0;      ///< points executed for the requester
    std::uint64_t quarantined = 0; ///< points answered as quarantined
    std::uint64_t executed = 0;    ///< simulation points actually run
    std::uint64_t batches = 0;     ///< executor jobs (one per miss)
    std::uint64_t evicted = 0;     ///< cache entries evicted
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t restored_records = 0; ///< rebuilt from the cache file
    std::uint64_t restored_discarded_bytes = 0; ///< torn tail at startup

    bool operator==(const ServeStats &) const = default;

    /** Calls @p f(name, counter) for every counter, in the one fixed
     * order that to_json() and the wire stats reply share. */
    template <typename Stats, typename F>
    static void
    for_each(Stats &s, F &&f)
    {
        f("requests", s.requests);
        f("points", s.points);
        f("hits", s.hits);
        f("misses", s.misses);
        f("quarantined", s.quarantined);
        f("executed", s.executed);
        f("batches", s.batches);
        f("evicted", s.evicted);
        f("cache_entries", s.cache_entries);
        f("cache_bytes", s.cache_bytes);
        f("restored_records", s.restored_records);
        f("restored_discarded_bytes", s.restored_discarded_bytes);
    }

    /** Canonical JSON rendering (fixed field order). */
    std::string to_json() const;
};

/** A decoded client request (the fuzzed trust-boundary surface). */
struct ServeRequest
{
    enum class Kind : std::uint8_t {
        kSweep = 0,    ///< run/lookup a list of points
        kStats = 1,    ///< report daemon statistics
        kPing = 2,     ///< liveness probe
        kShutdown = 3, ///< ask the daemon to exit cleanly
    };

    Kind kind = Kind::kPing;
    std::vector<RunItem> items; ///< kSweep only
};

/** One point of a results reply. */
struct ServedPoint
{
    ServedStatus status = ServedStatus::kQuarantined;
    std::vector<std::uint8_t> image; ///< hit/miss: sealed result image
    std::string error;               ///< kQuarantined: the reason
};

/** A decoded daemon reply. */
struct ServeReply
{
    /** Reply kinds start at 16, apart from the request kinds, so a
     * message sent the wrong way fails at its first byte. */
    enum class Kind : std::uint8_t {
        kResults = 16, ///< answers a sweep, point for point
        kStats = 17,   ///< answers a stats request
        kPong = 18,    ///< answers a ping
        kBye = 19,     ///< answers a shutdown
        kError = 20,   ///< the request could not be served
    };

    Kind kind = Kind::kPong;
    std::vector<ServedPoint> points; ///< kResults only
    ServeStats stats;                ///< kStats only
    std::string error;               ///< kError only
};

/** Serializes @p req; each sweep item becomes a sealed point-spec
 * image (exec/point_codec.h). */
std::vector<std::uint8_t> encode_request(const ServeRequest &req);

/**
 * Validates and decodes one request payload. Throws ServeError naming
 * the part and offset on any malformed input — an unknown kind, a
 * truncated or over-cap point count, a truncated image, a spec image
 * that fails the §15 container validation, or trailing bytes. Never
 * crashes or reads out of bounds (libFuzzer-covered).
 */
ServeRequest decode_request(const std::vector<std::uint8_t> &payload);

/** Serializes @p reply. */
std::vector<std::uint8_t> encode_reply(const ServeReply &reply);

/** Inverse of encode_reply(), with decode_request()'s error contract.
 * Result images are returned as bytes; the caller opens each against
 * the point it asked for. */
ServeReply decode_reply(const std::vector<std::uint8_t> &payload);

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_FRAME_H
