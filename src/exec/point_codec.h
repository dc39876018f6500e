/**
 * @file
 * Byte-level contract between the sweep supervisor and its worker
 * subprocesses (DESIGN.md §15).
 *
 * A sweep point (one RunItem: network config, traffic, run parameters)
 * crosses the process boundary twice:
 *
 *   spec    supervisor -> worker   the complete point description,
 *                                  sealed in the ckpt container under a
 *                                  fixed spec-domain hash (magic/CRC
 *                                  validated before any field decodes)
 *   result  worker -> supervisor   the point's SyntheticResult, sealed
 *                                  under the *point hash* — the ckpt
 *                                  config hash extended with the
 *                                  traffic and phase parameters — so a
 *                                  result file can only be accepted for
 *                                  the exact point that produced it
 *
 * Every field is encoded at full width (doubles by bit pattern), so a
 * result that round-trips through a worker, the journal, or a resume
 * is bit-identical to the in-process value: the merged sweep output is
 * pinned byte-for-byte equal to an uninterrupted serial run.
 *
 * The same point hash keys the result store (exec/result_store.h): a
 * record written for one point can never be replayed into another,
 * and reordering the sweep grid between runs is harmless.
 *
 * Helpers are free functions, same convention as ckpt/codec.h.
 */
#ifndef CATNAP_EXEC_POINT_CODEC_H
#define CATNAP_EXEC_POINT_CODEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/archive.h"
#include "exec/sweep_runner.h"
#include "sim/simulator.h"

namespace catnap {

/** Appends every MultiNocConfig field (fault plan included). */
void put_multinoc_config(ckpt::Writer &w, const MultiNocConfig &cfg);

/** Consumes a config written by put_multinoc_config. */
MultiNocConfig take_multinoc_config(ckpt::Reader &r);

/** Appends a SyntheticConfig field by field. */
void put_synthetic_config(ckpt::Writer &w, const SyntheticConfig &t);

/** Consumes a SyntheticConfig written by put_synthetic_config. */
SyntheticConfig take_synthetic_config(ckpt::Reader &r);

/** Appends RunParams (observability hooks excluded: a worker always
 * runs unobserved; the supervisor owns host-side tracing). */
void put_run_params(ckpt::Writer &w, const RunParams &p);

/** Consumes RunParams written by put_run_params (sink/snapshots null). */
RunParams take_run_params(ckpt::Reader &r);

/** Appends a SyntheticResult field by field (doubles by bit pattern). */
void put_synth_result(ckpt::Writer &w, const SyntheticResult &res);

/** Consumes a SyntheticResult written by put_synth_result. */
SyntheticResult take_synth_result(ckpt::Reader &r);

/**
 * Decodes a stored result payload (one put_synth_result stream) into
 * @p out. False when the bytes are not exactly one SyntheticResult —
 * schema drift or trailing bytes behind an intact CRC — so the caller
 * re-executes the point instead of replaying it.
 */
bool decode_synth_result(const std::vector<std::uint8_t> &payload,
                         SyntheticResult &out);

/**
 * The 64-bit identity of one sweep point: run_config_hash() under the
 * "PNT1" domain tag. Keys result-store records and seals worker result
 * files.
 */
std::uint64_t point_hash(const RunItem &item);

/** Fixed-width lower-case hex of a point key (scratch file names,
 * quarantine summaries, client diagnostics). */
std::string key_hex(std::uint64_t key);

/** Serializes @p item as a sealed point-spec file image. */
std::vector<std::uint8_t> encode_point_spec(const RunItem &item);

/**
 * Validates and decodes a point-spec image. Throws ckpt::CkptError on
 * a damaged or foreign file (magic/version/CRC checked before any
 * field decodes).
 */
RunItem decode_point_spec(const std::vector<std::uint8_t> &bytes);

/** Serializes @p res as a result image sealed under @p item's hash. */
std::vector<std::uint8_t> encode_point_result(const RunItem &item,
                                              const SyntheticResult &res);

/**
 * Validates and decodes a worker result image against the point that
 * requested it. Throws ckpt::CkptError when the image is truncated,
 * corrupt, or belongs to a different point.
 */
SyntheticResult decode_point_result(const RunItem &item,
                                    const std::vector<std::uint8_t> &bytes);

} // namespace catnap

#endif // CATNAP_EXEC_POINT_CODEC_H
