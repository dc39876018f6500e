/**
 * @file
 * Minimal binary archive under every sealed image (ckpt/checkpoint.h),
 * every journal record (ckpt/journal.h), and the Serialize() methods of
 * the metric and activity counters.
 *
 * A ckpt::Writer appends fixed-width little-endian fields to an in-memory
 * byte buffer; a ckpt::Reader consumes them in the same order. Encoding is
 * field-wise (never whole-struct memcpy) so struct padding can never leak
 * into an image and round-trips are bit-identical across platforms.
 * Readers throw ckpt::CkptError on any truncation, so a damaged file is
 * rejected with a precise message instead of silently decoding garbage.
 *
 * Phase discipline: Serialize() methods are CATNAP_PHASE_READ (they only
 * observe simulator state, plus the order-independent append into the
 * archive buffer — same convention as RingFifo::push). Writer::put_* is
 * therefore READ and Reader::take_* is WRITE, keeping the
 * interprocedural phase lint (L4/L5) clean with zero suppressions.
 */
#ifndef CATNAP_CKPT_ARCHIVE_H
#define CATNAP_CKPT_ARCHIVE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/phase.h"

namespace catnap {
namespace ckpt {

/** Raised on any malformed image: truncation, bad magic/version/hash/CRC. */
class CkptError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over @p n bytes. */
inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

/**
 * Appends fields to an in-memory byte buffer in a fixed little-endian
 * layout. All integers are written at full width (no varints): the format
 * favours auditability and deterministic sizing over compactness.
 */
class Writer
{
  public:
    /** Appends one byte. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    /** Appends a 32-bit unsigned integer, little-endian. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }

    /** Appends a 64-bit unsigned integer, little-endian. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }

    /** Appends a 32-bit signed integer (two's complement). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_i32(std::int32_t v)
    {
        put_u32(static_cast<std::uint32_t>(v));
    }

    /** Appends a 64-bit signed integer (two's complement). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_i64(std::int64_t v)
    {
        put_u64(static_cast<std::uint64_t>(v));
    }

    /** Appends an IEEE-754 double by bit pattern. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_double(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        put_u64(bits);
    }

    /** Appends a bool as one byte (0 or 1). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_bool(bool v)
    {
        put_u8(v ? std::uint8_t{1} : std::uint8_t{0});
    }

    /** Appends a length-prefixed byte string. */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    put_string(const std::string &s)
    {
        put_u64(s.size());
        for (char c : s)
            buf_.push_back(static_cast<std::uint8_t>(c));
    }

    /** Bytes written so far. */
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    /** Number of bytes written so far. */
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Consumes fields from a byte span in the order a Writer appended them.
 * Every take_* throws CkptError if fewer bytes remain than the field
 * needs, naming the offset so corruption reports are actionable.
 */
class Reader
{
  public:
    /** Reads from @p data / @p size (not owned; must outlive the Reader). */
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /** Reads from a writer-produced buffer. */
    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    /** Consumes one byte. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::uint8_t
    take_u8()
    {
        need(1);
        return data_[pos_++];
    }

    /** Consumes a little-endian 32-bit unsigned integer. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::uint32_t
    take_u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    /** Consumes a little-endian 64-bit unsigned integer. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::uint64_t
    take_u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    /** Consumes a 32-bit signed integer. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::int32_t
    take_i32()
    {
        return static_cast<std::int32_t>(take_u32());
    }

    /** Consumes a 64-bit signed integer. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::int64_t
    take_i64()
    {
        return static_cast<std::int64_t>(take_u64());
    }

    /** Consumes an IEEE-754 double by bit pattern. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE double
    take_double()
    {
        const std::uint64_t bits = take_u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    /** Consumes a bool; rejects encodings other than 0/1. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE bool
    take_bool()
    {
        const std::uint8_t v = take_u8();
        if (v > 1)
            throw CkptError("checkpoint: invalid bool encoding " +
                            std::to_string(static_cast<int>(v)) +
                            " at offset " + std::to_string(pos_ - 1));
        return v != 0;
    }

    /** Consumes a length-prefixed byte string. */
    CATNAP_COLD_PATH CATNAP_PHASE_WRITE std::string
    take_string()
    {
        const std::uint64_t n = take_u64();
        need(static_cast<std::size_t>(n));
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Bytes consumed so far. */
    std::size_t pos() const { return pos_; }

    /** True when every byte has been consumed. */
    bool exhausted() const { return pos_ == size_; }

    /** Throws unless the archive was consumed exactly (no trailing bytes). */
    CATNAP_COLD_PATH CATNAP_PHASE_READ void
    expect_exhausted() const
    {
        if (pos_ != size_)
            throw CkptError("checkpoint: " + std::to_string(size_ - pos_) +
                            " unconsumed trailing byte(s) after payload");
    }

  private:
    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            throw CkptError("checkpoint: truncated — need " +
                            std::to_string(n) + " byte(s) at offset " +
                            std::to_string(pos_) + " but only " +
                            std::to_string(size_ - pos_) + " remain");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_ARCHIVE_H
