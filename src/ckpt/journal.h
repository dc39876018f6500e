/**
 * @file
 * Append-only, CRC-checked sweep journal (DESIGN.md §15).
 *
 * A journal is a flat sequence of self-delimiting records, each keyed
 * by a 64-bit point hash (the ckpt config-hash machinery extended with
 * the sweep point's traffic and phase parameters — see
 * exec/point_codec.h). Record layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     4  record magic   0x314c4a43 ("CJL1")
 *        4     8  point key      64-bit point hash
 *       12     8  payload length in bytes
 *       20     4  CRC32 (IEEE 802.3) of the payload
 *       24     -  payload        opaque bytes (a ckpt::Writer stream)
 *
 * Crash discipline: the journal is only ever appended to, one whole
 * record per completed sweep point, flushed before the write is
 * considered durable. A process killed mid-append leaves a torn tail;
 * scan_journal() accepts every intact prefix record and reports the
 * torn/corrupt tail as discarded bytes instead of failing the whole
 * file, so a resumed sweep keeps all completed work. Corruption
 * *inside* the prefix (bad magic, CRC mismatch) also ends the scan:
 * nothing after a damaged record can be trusted, and the sweep points
 * whose records were lost are simply re-executed.
 *
 * The one user is exec/result_store.h, which compacts a torn file
 * before appending to it. Free functions do the byte-level work (they
 * mutate no member state, staying outside the phase lint's
 * member-function rules); JournalWriter owns the append-mode file
 * handle.
 */
#ifndef CATNAP_CKPT_JOURNAL_H
#define CATNAP_CKPT_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/archive.h"

namespace catnap {
namespace ckpt {

/** Record magic: "CJL1" read as a little-endian u32. */
constexpr std::uint32_t kJournalMagic = 0x314c4a43u;

/** Fixed bytes before each record's payload. */
constexpr std::size_t kJournalRecordHeaderBytes = 4 + 8 + 8 + 4;

/** One intact journal record. */
struct JournalRecord
{
    std::uint64_t key = 0;
    std::vector<std::uint8_t> payload;
};

/** Result of scanning a journal byte stream. */
struct JournalScan
{
    /** Every intact record, in append order. */
    std::vector<JournalRecord> records;

    /** Bytes of the valid prefix (== offset where scanning stopped). */
    std::size_t valid_bytes = 0;

    /** Bytes after the valid prefix (torn tail or corruption). */
    std::size_t discarded_bytes = 0;
};

/** Appends one sealed record (header + CRC + payload) to @p out. */
void append_record(std::vector<std::uint8_t> &out, std::uint64_t key,
                   const std::vector<std::uint8_t> &payload);

/**
 * Scans @p size bytes of journal data and returns every intact prefix
 * record. Never throws: a torn or corrupt tail is reported via
 * discarded_bytes (see @file for why scanning stops there).
 */
JournalScan scan_journal(const std::uint8_t *data, std::size_t size);

inline JournalScan
scan_journal(const std::vector<std::uint8_t> &bytes)
{
    return scan_journal(bytes.data(), bytes.size());
}

/**
 * Reads and scans the journal at @p path. A missing or unreadable file
 * yields an empty scan (a sweep that has not started yet has no
 * journal) — I/O errors never throw here, because resume must degrade
 * to "re-run everything", not fail.
 */
JournalScan load_journal(const std::string &path);

/**
 * Append-mode journal file handle. Every append() writes one complete
 * record and flushes, so the on-disk journal always ends on a record
 * boundary except when the process dies inside a single write — the
 * exact case scan_journal()'s torn-tail handling covers.
 */
class JournalWriter
{
  public:
    enum class Mode {
        kTruncate, ///< start a fresh journal (discard any existing file)
        kAppend,   ///< keep existing records (resume)
    };

    /** Opens @p path; throws CkptError if the file cannot be opened. */
    JournalWriter(const std::string &path, Mode mode);

    /** Seals and appends one record; throws CkptError on I/O failure. */
    void append(std::uint64_t key, const std::vector<std::uint8_t> &payload);

    /** Records appended through this writer (excludes pre-existing). */
    std::uint64_t appended() const { return appended_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t appended_ = 0;
};

} // namespace ckpt
} // namespace catnap

#endif // CATNAP_CKPT_JOURNAL_H
