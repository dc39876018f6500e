/**
 * @file
 * Tests for src/ckpt: the archive primitives, the pinned config and
 * point hashes, sealed-container validation
 * (magic/version/hash/truncation/CRC), and the CJL1 journal scan.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "exec/point_codec.h"
#include "noc/multinoc.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

/** A small-but-busy config exercising gating, selection, and the RCS. */
MultiNocConfig
test_config()
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.seed = 99;
    return cfg;
}

// -- Archive primitives ----------------------------------------------------

TEST(CkptArchive, RoundTripsEveryFieldType)
{
    ckpt::Writer w;
    w.put_u8(0xab);
    w.put_u32(0xdeadbeefu);
    w.put_u64(0x0123456789abcdefULL);
    w.put_i32(-42);
    w.put_i64(-1234567890123LL);
    w.put_double(3.14159265358979);
    w.put_bool(true);
    w.put_bool(false);
    w.put_string("catnap");

    ckpt::Reader r(w.bytes());
    EXPECT_EQ(r.take_u8(), 0xab);
    EXPECT_EQ(r.take_u32(), 0xdeadbeefu);
    EXPECT_EQ(r.take_u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.take_i32(), -42);
    EXPECT_EQ(r.take_i64(), -1234567890123LL);
    EXPECT_EQ(r.take_double(), 3.14159265358979);
    EXPECT_TRUE(r.take_bool());
    EXPECT_FALSE(r.take_bool());
    EXPECT_EQ(r.take_string(), "catnap");
    EXPECT_TRUE(r.exhausted());
}

TEST(CkptArchive, TruncationThrowsWithOffset)
{
    ckpt::Writer w;
    w.put_u32(7);
    ckpt::Reader r(w.bytes());
    r.take_u32();
    try {
        r.take_u64();
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("offset 4"),
                  std::string::npos);
    }
}

TEST(CkptArchive, BadBoolEncodingRejected)
{
    const std::uint8_t byte = 2;
    ckpt::Reader r(&byte, 1);
    EXPECT_THROW(r.take_bool(), ckpt::CkptError);
}

// -- Config hash -----------------------------------------------------------

TEST(CkptHash, SensitiveToEveryInterestingField)
{
    const MultiNocConfig base = test_config();
    const std::uint64_t h0 = ckpt::config_hash(base);

    MultiNocConfig c1 = base;
    c1.num_subnets = 2;
    EXPECT_NE(ckpt::config_hash(c1), h0);

    MultiNocConfig c2 = base;
    c2.seed = 100;
    EXPECT_NE(ckpt::config_hash(c2), h0);

    MultiNocConfig c3 = base;
    c3.congestion.threshold += 1.0;
    EXPECT_NE(ckpt::config_hash(c3), h0);

    MultiNocConfig c4 = base;
    c4.gating = GatingKind::kIdle;
    EXPECT_NE(ckpt::config_hash(c4), h0);

    // The fault plan is part of the identity: same events, different
    // order or count, different probabilities all hash apart.
    MultiNocConfig c5 = base;
    c5.fault.kill_router(5000, 1, 12);
    EXPECT_NE(ckpt::config_hash(c5), h0);

    MultiNocConfig c6 = c5;
    c6.fault.wake_loss_prob = 0.5;
    EXPECT_NE(ckpt::config_hash(c6), ckpt::config_hash(c5));

    // And it is stable: equal configs hash equal.
    EXPECT_EQ(ckpt::config_hash(test_config()), h0);
}

TEST(CkptHash, PinnedValues)
{
    // These hashes key every on-disk store record and sealed image, so
    // they are pinned to literals: a change to any hashed field list,
    // domain tag or mixing order breaks every file already written and
    // must show up here, not as silent cache misses.
    EXPECT_EQ(ckpt::config_hash(MultiNocConfig{}), 0x1290bb0076c5d86bull);

    RunItem item;
    item.cfg = multi_noc_config(2, GatingKind::kCatnap);
    item.cfg.fault.kill_router(100, 0, 3);
    item.traffic.load = 0.1;
    item.params.warmup = 200;
    item.params.measure = 600;
    EXPECT_EQ(point_hash(item), 0xd00017961855001dull);

    const std::vector<std::uint8_t> spec = encode_point_spec(item);
    EXPECT_EQ(ckpt::crc32(spec.data(), spec.size()), 0x894ca553u);
}

// -- Container validation --------------------------------------------------

TEST(CkptContainer, SealOpenRoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    const auto sealed = ckpt::seal(0x1234, payload);
    EXPECT_EQ(sealed.size(), ckpt::kHeaderBytes + payload.size());
    EXPECT_EQ(ckpt::open(0x1234, sealed), payload);
}

TEST(CkptContainer, RejectsBadMagic)
{
    auto sealed = ckpt::seal(1, {1, 2, 3});
    sealed[0] ^= 0xff;
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos);
    }
}

TEST(CkptContainer, RejectsWrongVersion)
{
    auto sealed = ckpt::seal(1, {1, 2, 3});
    sealed[4] += 1; // format version field (little-endian u32 at offset 4)
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("format version"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
    }
}

TEST(CkptContainer, RejectsWrongConfigHash)
{
    const auto sealed = ckpt::seal(0xaaaa, {1, 2, 3});
    try {
        ckpt::open(0xbbbb, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("config hash mismatch"),
                  std::string::npos);
    }
}

TEST(CkptContainer, RejectsTruncatedPayloadAndHeader)
{
    auto sealed = ckpt::seal(1, {1, 2, 3, 4, 5, 6, 7, 8});
    auto cut = sealed;
    cut.resize(cut.size() - 3);
    try {
        ckpt::open(1, cut);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }

    auto header_cut = sealed;
    header_cut.resize(10);
    EXPECT_THROW(ckpt::open(1, header_cut), ckpt::CkptError);
}

TEST(CkptContainer, RejectsBitFlipViaCrc)
{
    auto sealed = ckpt::seal(1, std::vector<std::uint8_t>(64, 0x5a));
    sealed[ckpt::kHeaderBytes + 17] ^= 0x08; // single payload bit flip
    try {
        ckpt::open(1, sealed);
        FAIL() << "expected CkptError";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC mismatch"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Sweep journal (ckpt/journal.h, DESIGN.md §15)
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
bytes_of(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(CkptJournal, RoundTripsRecordsInAppendOrder)
{
    std::vector<std::uint8_t> buf;
    ckpt::append_record(buf, 0x1111, bytes_of("first"));
    ckpt::append_record(buf, 0x2222, bytes_of(""));
    ckpt::append_record(buf, 0x3333, bytes_of("third payload"));

    const ckpt::JournalScan scan = ckpt::scan_journal(buf);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
    EXPECT_EQ(scan.valid_bytes, buf.size());
    EXPECT_EQ(scan.records[0].key, 0x1111u);
    EXPECT_EQ(scan.records[0].payload, bytes_of("first"));
    EXPECT_EQ(scan.records[1].key, 0x2222u);
    EXPECT_TRUE(scan.records[1].payload.empty());
    EXPECT_EQ(scan.records[2].key, 0x3333u);
    EXPECT_EQ(scan.records[2].payload, bytes_of("third payload"));
}

TEST(CkptJournal, TornTailKeepsEveryIntactPrefixRecord)
{
    // A supervisor killed mid-append leaves a partial final record at
    // every possible cut point; the scan must keep both whole records
    // and report exactly the torn bytes as discarded.
    std::vector<std::uint8_t> whole;
    ckpt::append_record(whole, 1, bytes_of("alpha"));
    ckpt::append_record(whole, 2, bytes_of("beta"));
    const std::size_t two = whole.size();
    ckpt::append_record(whole, 3, bytes_of("gamma"));

    for (std::size_t cut = two; cut < whole.size(); ++cut) {
        const ckpt::JournalScan scan = ckpt::scan_journal(whole.data(), cut);
        ASSERT_EQ(scan.records.size(), 2u) << "cut=" << cut;
        EXPECT_EQ(scan.valid_bytes, two);
        EXPECT_EQ(scan.discarded_bytes, cut - two);
    }
}

TEST(CkptJournal, CorruptionStopsTheScanAtTheDamage)
{
    std::vector<std::uint8_t> buf;
    ckpt::append_record(buf, 1, bytes_of("keep me"));
    const std::size_t first = buf.size();
    ckpt::append_record(buf, 2, bytes_of("damaged"));
    ckpt::append_record(buf, 3, bytes_of("unreachable"));

    // Flip one payload byte of the middle record: its CRC fails, and
    // the intact third record after it must NOT be trusted either.
    buf[first + ckpt::kJournalRecordHeaderBytes] ^= 0x01;
    const ckpt::JournalScan scan = ckpt::scan_journal(buf);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].key, 1u);
    EXPECT_EQ(scan.valid_bytes, first);
    EXPECT_EQ(scan.discarded_bytes, buf.size() - first);

    // Bad magic stops the scan the same way.
    std::vector<std::uint8_t> bad;
    ckpt::append_record(bad, 7, bytes_of("x"));
    const std::size_t one = bad.size();
    ckpt::append_record(bad, 8, bytes_of("y"));
    bad[one] ^= 0xff;
    EXPECT_EQ(ckpt::scan_journal(bad).records.size(), 1u);
}

TEST(CkptJournal, WriterAppendModePreservesExistingRecords)
{
    const std::string path =
        ::testing::TempDir() + "catnap_journal_test.bin";
    std::remove(path.c_str());
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kTruncate);
        w.append(10, bytes_of("one"));
        EXPECT_EQ(w.appended(), 1u);
    }
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kAppend);
        w.append(20, bytes_of("two"));
    }
    ckpt::JournalScan scan = ckpt::load_journal(path);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].key, 10u);
    EXPECT_EQ(scan.records[1].key, 20u);

    // Truncate mode discards history.
    {
        ckpt::JournalWriter w(path, ckpt::JournalWriter::Mode::kTruncate);
        w.append(30, bytes_of("three"));
    }
    scan = ckpt::load_journal(path);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].key, 30u);
    std::remove(path.c_str());
}

TEST(CkptJournal, MissingFileLoadsAsEmptyScan)
{
    const ckpt::JournalScan scan =
        ckpt::load_journal("/nonexistent/dir/journal.bin");
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.valid_bytes, 0u);
    EXPECT_EQ(scan.discarded_bytes, 0u);
}

} // namespace
} // namespace catnap
