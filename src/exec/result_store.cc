#include "exec/result_store.h"

#include <algorithm>
#include <filesystem>

namespace catnap {

namespace {

/** On-disk cost of one record: fixed header plus payload. */
std::uint64_t
record_bytes(const std::vector<std::uint8_t> &payload)
{
    return static_cast<std::uint64_t>(ckpt::kJournalRecordHeaderBytes) +
           static_cast<std::uint64_t>(payload.size());
}

} // namespace

ResultStore::ResultStore(const StoreConfig &cfg) : cfg_(cfg)
{
    if (cfg_.path.empty())
        return;
    const std::filesystem::path dir =
        std::filesystem::path(cfg_.path).parent_path();
    if (!dir.empty()) {
        std::error_code ec; // an unusable directory fails the open below
        std::filesystem::create_directories(dir, ec);
    }

    const ckpt::JournalScan scan = ckpt::load_journal(cfg_.path);
    discarded_ = scan.discarded_bytes;
    for (const ckpt::JournalRecord &rec : scan.records) {
        auto [it, fresh] = index_.emplace(rec.key, rec.payload);
        if (fresh) {
            order_.push_back(rec.key);
        } else {
            // Last record wins (a re-insert after eviction re-appends).
            bytes_ -= record_bytes(it->second);
            it->second = rec.payload;
        }
        bytes_ += record_bytes(rec.payload);
        ++restored_;
    }

    // Apply the bound to whatever was restored, then open for append.
    // A torn tail (or any eviction) forces a compaction so the on-disk
    // file matches the index exactly before new appends land.
    const std::uint64_t evicted_before = evicted_;
    evict_to_bound(0);
    if (discarded_ > 0 || evicted_ != evicted_before ||
        scan.records.size() != index_.size()) {
        compact();
    } else {
        writer_ = std::make_unique<ckpt::JournalWriter>(
            cfg_.path, ckpt::JournalWriter::Mode::kAppend);
    }
}

bool
ResultStore::lookup(std::uint64_t key,
                    std::vector<std::uint8_t> &payload) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    payload = it->second;
    return true;
}

bool
ResultStore::contains(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.find(key) != index_.end();
}

std::size_t
ResultStore::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
}

std::uint64_t
ResultStore::bytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

std::uint64_t
ResultStore::evicted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evicted_;
}

void
ResultStore::insert(std::uint64_t key,
                    const std::vector<std::uint8_t> &payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = index_.emplace(key, payload);
    if (fresh) {
        order_.push_back(key);
    } else {
        bytes_ -= record_bytes(it->second);
        it->second = payload;
        // Move to the newest eviction slot.
        const auto pos = std::find(order_.begin(), order_.end(), key);
        if (pos != order_.end())
            order_.erase(pos);
        order_.push_back(key);
    }
    bytes_ += record_bytes(payload);

    if (writer_ != nullptr)
        writer_->append(key, payload);

    const std::uint64_t evicted_before = evicted_;
    evict_to_bound(key);
    if (evicted_ != evicted_before)
        compact();
}

void
ResultStore::evict_to_bound(std::uint64_t protect_key)
{
    if (cfg_.max_bytes == 0)
        return;
    while (bytes_ > cfg_.max_bytes && !order_.empty()) {
        const std::uint64_t victim = order_.front();
        if (victim == protect_key && order_.size() == 1)
            break; // never evict the entry being inserted
        order_.pop_front();
        const auto it = index_.find(victim);
        if (it == index_.end())
            continue;
        bytes_ -= record_bytes(it->second);
        index_.erase(it);
        ++evicted_;
    }
}

void
ResultStore::compact()
{
    if (cfg_.path.empty())
        return;
    // Rewrite the file from the live index in insertion order, then
    // keep the truncate-mode writer for subsequent appends.
    writer_.reset();
    writer_ = std::make_unique<ckpt::JournalWriter>(
        cfg_.path, ckpt::JournalWriter::Mode::kTruncate);
    for (const std::uint64_t key : order_) {
        const auto it = index_.find(key);
        if (it != index_.end())
            writer_->append(key, it->second);
    }
}

} // namespace catnap
