#include "ckpt/checkpoint.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "noc/multinoc.h"

namespace catnap {
namespace ckpt {

namespace {

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
hex32(std::uint32_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(8) << std::setfill('0') << v;
    return os.str();
}

} // namespace

void
mix_config(Fnv1a &h, const MultiNocConfig &cfg)
{
    // Topology.
    h.mix_i32(cfg.mesh_width);
    h.mix_i32(cfg.mesh_height);
    h.mix_i32(cfg.concentration);
    h.mix_i32(cfg.region_width);
    h.mix_bool(cfg.torus);

    // Datapath sizing.
    h.mix_i32(cfg.num_subnets);
    h.mix_i32(cfg.total_link_bits);
    h.mix_i32(cfg.num_vcs);
    h.mix_i32(cfg.vc_depth_flits);
    h.mix_i32(cfg.num_classes);
    h.mix_i32(cfg.ni_queue_flits);

    // Policies.
    h.mix_i32(static_cast<std::int32_t>(cfg.selector));
    h.mix_i32(static_cast<std::int32_t>(cfg.gating));
    h.mix_i32(static_cast<std::int32_t>(cfg.congestion.metric));
    h.mix_double(cfg.congestion.threshold);
    h.mix_i32(cfg.congestion.window);
    h.mix_i32(cfg.congestion.lcs_hold);
    h.mix_bool(cfg.congestion.use_rcs);
    h.mix_i32(cfg.congestion.rcs_period);

    // Timing knobs.
    h.mix_i32(cfg.t_wakeup);
    h.mix_i32(cfg.wakeup_hidden);
    h.mix_i32(cfg.t_breakeven);
    h.mix_i32(cfg.t_idle_detect);
    h.mix_u64(cfg.seed);

    // Fault plan: two points that differ only in their faults are
    // different points.
    h.mix_u64(cfg.fault.events.size());
    for (const FaultEvent &ev : cfg.fault.events) {
        h.mix_i32(static_cast<std::int32_t>(ev.kind));
        h.mix_u64(ev.at);
        h.mix_i32(ev.subnet);
        h.mix_i32(ev.node);
        h.mix_i32(static_cast<std::int32_t>(ev.port));
        h.mix_u64(ev.duration);
        h.mix_u64(ev.delay);
    }
    h.mix_double(cfg.fault.wake_loss_prob);
    h.mix_double(cfg.fault.rcs_glitch_prob);
    h.mix_u64(cfg.fault.seed);
    h.mix_u64(cfg.fault.tuning.t_wake_timeout);
    h.mix_i32(cfg.fault.tuning.max_wake_retries);
    h.mix_i32(cfg.fault.tuning.backoff_cap_exp);
    h.mix_u64(cfg.fault.tuning.packet_timeout);
    h.mix_u64(cfg.fault.tuning.retransmit_delay);
    h.mix_i32(cfg.fault.tuning.max_retransmits);
}

std::uint64_t
config_hash(const MultiNocConfig &cfg)
{
    Fnv1a h;
    mix_config(h, cfg);
    return h.value();
}

std::vector<std::uint8_t>
seal(std::uint64_t config_hash, const std::vector<std::uint8_t> &payload)
{
    Writer header;
    header.put_u32(kMagic);
    header.put_u32(kFormatVersion);
    header.put_u64(config_hash);
    header.put_u64(payload.size());
    header.put_u32(crc32(payload.data(), payload.size()));

    std::vector<std::uint8_t> out = header.bytes();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

std::vector<std::uint8_t>
open(std::uint64_t expected_config_hash, const std::uint8_t *data,
     std::size_t size)
{
    if (size < kHeaderBytes)
        throw CkptError("checkpoint: truncated — " + std::to_string(size) +
                        " byte(s) is smaller than the " +
                        std::to_string(kHeaderBytes) + "-byte header");

    Reader header(data, kHeaderBytes);
    const std::uint32_t magic = header.take_u32();
    if (magic != kMagic)
        throw CkptError("checkpoint: bad magic " + hex32(magic) +
                        " (expected " + hex32(kMagic) +
                        ") — not a Catnap checkpoint file");

    const std::uint32_t version = header.take_u32();
    if (version != kFormatVersion)
        throw CkptError("checkpoint: format version " +
                        std::to_string(version) +
                        " is not supported (this build reads version " +
                        std::to_string(kFormatVersion) + ")");

    const std::uint64_t stored_hash = header.take_u64();
    if (stored_hash != expected_config_hash)
        throw CkptError(
            "checkpoint: config hash mismatch — file was saved under " +
            hex64(stored_hash) + " but the current configuration hashes to " +
            hex64(expected_config_hash) +
            "; restore requires the identical configuration "
            "(topology, policies, seeds, and fault plan)");

    const std::uint64_t payload_len = header.take_u64();
    const std::uint32_t stored_crc = header.take_u32();

    const std::size_t available = size - kHeaderBytes;
    if (payload_len != available)
        throw CkptError("checkpoint: truncated — header declares " +
                        std::to_string(payload_len) +
                        " payload byte(s) but " + std::to_string(available) +
                        " are present");

    const std::uint8_t *payload = data + kHeaderBytes;
    const std::uint32_t computed_crc =
        crc32(payload, static_cast<std::size_t>(payload_len));
    if (computed_crc != stored_crc)
        throw CkptError("checkpoint: CRC mismatch — stored " +
                        hex32(stored_crc) + ", computed " +
                        hex32(computed_crc) + "; the payload is corrupt");

    return std::vector<std::uint8_t>(
        payload, payload + static_cast<std::size_t>(payload_len));
}

void
write_file(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw CkptError("checkpoint: cannot open '" + path +
                        "' for writing");
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        throw CkptError("checkpoint: write to '" + path + "' failed");
}

std::vector<std::uint8_t>
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("checkpoint: cannot open '" + path +
                        "' for reading");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw CkptError("checkpoint: read from '" + path + "' failed");
    return bytes;
}

} // namespace ckpt
} // namespace catnap
