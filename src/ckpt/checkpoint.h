/**
 * @file
 * The sealed container and the configuration hash (DESIGN.md §15).
 *
 * Every byte image that crosses a process or a restart — a point-spec
 * file, a worker's result image, a served answer — is a ckpt::Writer
 * payload sealed in this container. On-disk layout (all integers
 * little-endian):
 *
 *   offset  size  field
 *        0     4  magic          0x50414e43 ("CNAP")
 *        4     4  format version (kFormatVersion)
 *        8     8  config hash    the key the image belongs to
 *       16     8  payload length in bytes
 *       24     4  CRC32 (IEEE 802.3) of the payload
 *       28     -  payload        the ckpt::Writer byte stream
 *
 * open() validates magic, version, config hash, length, and CRC — in
 * that order, each with a precise CkptError — before a single payload
 * byte is decoded, so a truncated or bit-flipped file is rejected
 * whole.
 *
 * config_hash() covers every field of MultiNocConfig including the
 * whole fault plan. Callers keying extra run context (traffic, phase
 * lengths) extend it via Fnv1a + mix_config(), as run_config_hash()
 * does.
 */
#ifndef CATNAP_CKPT_CHECKPOINT_H
#define CATNAP_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.h"

namespace catnap {

struct MultiNocConfig;

namespace ckpt {

/** File magic: "CNAP" read as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x50414e43u;

/** Bump on any incompatible payload or header change. */
constexpr std::uint32_t kFormatVersion = 1;

/** Container header size in bytes (see @file for the layout). */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

/**
 * 64-bit FNV-1a accumulator used for config hashing. Field order is the
 * hash schema: mix fields in a fixed, documented order and never skip a
 * field, so two configs collide only if they are semantically identical.
 */
class Fnv1a
{
  public:
    void
    mix_u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    void mix_u32(std::uint32_t v) { mix_u64(v); }
    void mix_i32(std::int32_t v)
    {
        mix_u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
    }
    void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
    void mix_bool(bool v) { mix_u64(v ? 1u : 0u); }

    void
    mix_double(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u64(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Mixes every MultiNocConfig field (fault plan included) into @p h. */
void mix_config(Fnv1a &h, const MultiNocConfig &cfg);

/** FNV-1a over every MultiNocConfig field (mix_config()). */
std::uint64_t config_hash(const MultiNocConfig &cfg);

/** Wraps @p payload in the magic/version/hash/length/CRC container. */
std::vector<std::uint8_t> seal(std::uint64_t config_hash,
                               const std::vector<std::uint8_t> &payload);

/**
 * Validates a sealed container and returns its payload. Throws CkptError
 * naming exactly what is wrong: not a sealed image (magic), unsupported
 * format version, config-hash mismatch, truncation, or CRC mismatch.
 */
std::vector<std::uint8_t> open(std::uint64_t expected_config_hash,
                               const std::uint8_t *data, std::size_t size);

inline std::vector<std::uint8_t>
open(std::uint64_t expected_config_hash,
     const std::vector<std::uint8_t> &bytes)
{
    return open(expected_config_hash, bytes.data(), bytes.size());
}

/** Writes @p bytes to @p path atomically enough for our purposes
 * (truncate + write + flush); throws CkptError on any I/O failure. */
void write_file(const std::string &path,
                const std::vector<std::uint8_t> &bytes);

/** Reads @p path fully; throws CkptError if it cannot be read. */
std::vector<std::uint8_t> read_file(const std::string &path);

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_CHECKPOINT_H
