#include "serve/frame.h"

#include "ckpt/archive.h"
#include "exec/point_codec.h"

namespace catnap {
namespace serve {

namespace {

/** Appends @p bytes as one length-prefixed string. */
void
put_bytes(ckpt::Writer &w, const std::vector<std::uint8_t> &bytes)
{
    w.put_string(std::string(bytes.begin(), bytes.end()));
}

/** Consumes a string written by put_bytes(). take_string() checks the
 * declared length against the bytes that remain before allocating. */
std::vector<std::uint8_t>
take_bytes(ckpt::Reader &r)
{
    const std::string s = r.take_string();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/**
 * A Reader over one message that remembers which part it is reading,
 * so a CkptError from any take_* becomes a ServeError naming the part
 * and the offset where it starts.
 */
class MessageReader
{
  public:
    MessageReader(const char *message,
                  const std::vector<std::uint8_t> &payload)
        : message_(message), r_(payload)
    {
    }

    /** Starts part @p part at the current offset. */
    ckpt::Reader &
    at(std::string part)
    {
        part_ = std::move(part);
        start_ = r_.pos();
        return r_;
    }

    ServeError
    error(const std::string &what) const
    {
        return ServeError(std::string(message_) + ": " + part_ +
                          " at offset " + std::to_string(start_) + ": " +
                          what);
    }

    /** Reads a point count, rejecting one over the cap before any
     * caller reserves for it. */
    std::size_t
    take_count()
    {
        const std::uint32_t n = at("count").take_u32();
        if (n > kMaxPointsPerRequest) {
            throw error(std::to_string(n) +
                        " points exceed the per-request cap of " +
                        std::to_string(kMaxPointsPerRequest));
        }
        return n;
    }

    /** Throws unless every byte was consumed. */
    void finish() { at("end of message").expect_exhausted(); }

  private:
    const char *message_;
    ckpt::Reader r_;
    std::string part_;
    std::size_t start_ = 0;
};

std::string
point_part(std::size_t i)
{
    return "points[" + std::to_string(i) + "]";
}

} // namespace

std::vector<std::uint8_t>
encode_frame(const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxFramePayload) {
        throw ServeError("frame: payload of " +
                         std::to_string(payload.size()) +
                         " bytes exceeds the " +
                         std::to_string(kMaxFramePayload) + "-byte cap");
    }
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderBytes + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<std::uint8_t>((kFrameMagic >> (8 * i)) & 0xffu));
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xffu));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

FrameDecode
decode_frame(const std::uint8_t *data, std::size_t size)
{
    FrameDecode out;
    if (size < 4) {
        out.status = FrameStatus::kNeedMore;
        return out;
    }
    std::uint32_t magic = 0;
    for (int i = 0; i < 4; ++i)
        magic |= static_cast<std::uint32_t>(data[i]) << (8 * i);
    if (magic != kFrameMagic) {
        out.status = FrameStatus::kBad;
        out.error = "frame: bad magic (not a catnap_serve CSF2 frame)";
        return out;
    }
    if (size < kFrameHeaderBytes) {
        out.status = FrameStatus::kNeedMore;
        return out;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
    if (len > kMaxFramePayload) {
        out.status = FrameStatus::kBad;
        out.error = "frame: declared payload of " + std::to_string(len) +
                    " bytes exceeds the " +
                    std::to_string(kMaxFramePayload) + "-byte cap";
        return out;
    }
    if (size < kFrameHeaderBytes + len) {
        out.status = FrameStatus::kNeedMore;
        return out;
    }
    out.status = FrameStatus::kFrame;
    out.payload.assign(data + kFrameHeaderBytes,
                       data + kFrameHeaderBytes + len);
    out.consumed = kFrameHeaderBytes + len;
    return out;
}

std::string
ServeStats::to_json() const
{
    // Field order is fixed: CI greps these names out of the stats file.
    std::string out;
    for_each(*this, [&out](const char *name, std::uint64_t value) {
        out += out.empty() ? "{\"" : ",\"";
        out += name;
        out += "\":";
        out += std::to_string(value);
    });
    out += '}';
    return out;
}

std::vector<std::uint8_t>
encode_request(const ServeRequest &req)
{
    if (req.items.size() > kMaxPointsPerRequest) {
        throw ServeError("request: " + std::to_string(req.items.size()) +
                         " points exceed the per-request cap of " +
                         std::to_string(kMaxPointsPerRequest));
    }
    ckpt::Writer w;
    w.put_u8(static_cast<std::uint8_t>(req.kind));
    if (req.kind == ServeRequest::Kind::kSweep) {
        w.put_u32(static_cast<std::uint32_t>(req.items.size()));
        for (const RunItem &item : req.items)
            put_bytes(w, encode_point_spec(item));
    }
    return w.bytes();
}

ServeRequest
decode_request(const std::vector<std::uint8_t> &payload)
{
    MessageReader in("request", payload);
    try {
        ServeRequest req;
        const std::uint8_t kind = in.at("kind").take_u8();
        if (kind > static_cast<std::uint8_t>(ServeRequest::Kind::kShutdown))
            throw in.error("unknown kind " + std::to_string(kind));
        req.kind = static_cast<ServeRequest::Kind>(kind);
        if (req.kind == ServeRequest::Kind::kSweep) {
            const std::size_t n = in.take_count();
            req.items.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                ckpt::Reader &r = in.at(point_part(i));
                req.items.push_back(decode_point_spec(take_bytes(r)));
            }
        }
        in.finish();
        return req;
    } catch (const ckpt::CkptError &e) {
        throw in.error(e.what());
    }
}

std::vector<std::uint8_t>
encode_reply(const ServeReply &reply)
{
    ckpt::Writer w;
    w.put_u8(static_cast<std::uint8_t>(reply.kind));
    switch (reply.kind) {
    case ServeReply::Kind::kResults:
        w.put_u32(static_cast<std::uint32_t>(reply.points.size()));
        for (const ServedPoint &p : reply.points) {
            w.put_u8(static_cast<std::uint8_t>(p.status));
            if (p.status == ServedStatus::kQuarantined)
                w.put_string(p.error);
            else
                put_bytes(w, p.image);
        }
        break;
    case ServeReply::Kind::kStats:
        ServeStats::for_each(reply.stats, [&w](const char *, std::uint64_t v) {
            w.put_u64(v);
        });
        break;
    case ServeReply::Kind::kError:
        w.put_string(reply.error);
        break;
    case ServeReply::Kind::kPong:
    case ServeReply::Kind::kBye:
        break;
    }
    return w.bytes();
}

ServeReply
decode_reply(const std::vector<std::uint8_t> &payload)
{
    MessageReader in("reply", payload);
    try {
        ServeReply reply;
        const std::uint8_t kind = in.at("kind").take_u8();
        if (kind < static_cast<std::uint8_t>(ServeReply::Kind::kResults) ||
            kind > static_cast<std::uint8_t>(ServeReply::Kind::kError))
            throw in.error("unknown kind " + std::to_string(kind));
        reply.kind = static_cast<ServeReply::Kind>(kind);
        switch (reply.kind) {
        case ServeReply::Kind::kResults: {
            const std::size_t n = in.take_count();
            reply.points.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                ServedPoint &p = reply.points[i];
                ckpt::Reader &r = in.at(point_part(i));
                const std::uint8_t status = r.take_u8();
                if (status >
                    static_cast<std::uint8_t>(ServedStatus::kQuarantined))
                    throw in.error("unknown status " +
                                   std::to_string(status));
                p.status = static_cast<ServedStatus>(status);
                if (p.status == ServedStatus::kQuarantined)
                    p.error = r.take_string();
                else
                    p.image = take_bytes(r);
            }
            break;
        }
        case ServeReply::Kind::kStats:
            ServeStats::for_each(
                reply.stats, [&in](const char *name, std::uint64_t &v) {
                    v = in.at(std::string("stats.") + name).take_u64();
                });
            break;
        case ServeReply::Kind::kError:
            reply.error = in.at("error").take_string();
            break;
        case ServeReply::Kind::kPong:
        case ServeReply::Kind::kBye:
            break;
        }
        in.finish();
        return reply;
    } catch (const ckpt::CkptError &e) {
        throw in.error(e.what());
    }
}

} // namespace serve
} // namespace catnap
