/**
 * @file
 * The one persistent store of finished sweep points (DESIGN.md §15):
 * the sweep journal behind `--journal`/`--resume` on every local
 * backend, and the result cache of the sweep service (DESIGN.md §17).
 *
 * Every entry is one simulation point's SyntheticResult payload (the
 * exec/point_codec.h `put_synth_result` byte stream) keyed by the
 * point's 64-bit "PNT1" identity hash — the same key that seals worker
 * result files, so an entry can never be served for a different point
 * than the one that produced it.
 *
 * Persistence is the append-only CJL1 journal (ckpt/journal.h):
 * CRC-checked records, each flushed as it is appended. On open the
 * whole file is rebuilt into an in-memory index via scan_journal(),
 * which tolerates a torn tail — a process SIGKILLed mid-append loses
 * at most the record being written. The last record of a key wins.
 * When the scan discards tail bytes, the file is compacted (rewritten
 * from the intact records) before appending resumes, so a torn tail
 * can never strand later appends behind unreadable bytes.
 *
 * Eviction: with a non-zero byte bound, inserting past the bound
 * evicts the oldest entries first (insertion order, deterministic)
 * until the store fits, then compacts the file. The entry being
 * inserted is never evicted by its own insertion.
 *
 * Thread-safe: every member locks the store's own mutex, so the
 * executors of one batch insert concurrently while another thread
 * reads the counters.
 */
#ifndef CATNAP_EXEC_RESULT_STORE_H
#define CATNAP_EXEC_RESULT_STORE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/journal.h"

namespace catnap {

/** Policy for one ResultStore. */
struct StoreConfig
{
    /** Journal-format backing file; empty = memory-only (no restart
     * survival, still bounded). */
    std::string path;

    /** Byte bound over stored records (header + payload); 0 = unbounded.
     * Exceeding it evicts oldest-first, then compacts the file. */
    std::uint64_t max_bytes = 0;
};

/**
 * The store: an insertion-ordered map from point hash to result
 * payload, mirrored to an append-only journal file.
 */
class ResultStore
{
  public:
    /** Opens (and scans) the backing file per @p cfg, creating its
     * directory when missing. Throws ckpt::CkptError when the file
     * cannot be rewritten or appended to; a missing file starts an
     * empty store. */
    explicit ResultStore(const StoreConfig &cfg);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** True when @p key is stored; copies its payload to @p payload. */
    bool lookup(std::uint64_t key, std::vector<std::uint8_t> &payload) const;

    /** True when @p key is stored. */
    bool contains(std::uint64_t key) const;

    /**
     * Inserts (or refreshes) @p key -> @p payload, appends it to the
     * backing file, and evicts oldest-first past the byte bound.
     * Re-inserting an existing key replaces its payload and moves it to
     * the newest eviction slot.
     */
    void insert(std::uint64_t key, const std::vector<std::uint8_t> &payload);

    /** Entries currently held. */
    std::size_t entries() const;

    /** Bytes of all held records (journal header + payload each). */
    std::uint64_t bytes() const;

    /** Entries evicted over this store's lifetime. */
    std::uint64_t evicted() const;

    /** Intact records rebuilt from the backing file at open. */
    std::uint64_t restored() const { return restored_; }

    /** Torn/corrupt tail bytes the opening scan discarded. */
    std::uint64_t restored_discarded() const { return discarded_; }

    const std::string &path() const { return cfg_.path; }

  private:
    void evict_to_bound(std::uint64_t protect_key);
    void compact();

    StoreConfig cfg_;
    mutable std::mutex mu_; ///< everything below
    std::map<std::uint64_t, std::vector<std::uint8_t>> index_;
    std::deque<std::uint64_t> order_; ///< insertion order, oldest first
    std::uint64_t bytes_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t restored_ = 0;
    std::uint64_t discarded_ = 0;
    std::unique_ptr<ckpt::JournalWriter> writer_;
};

} // namespace catnap

#endif // CATNAP_EXEC_RESULT_STORE_H
