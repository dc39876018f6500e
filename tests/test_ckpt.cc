/**
 * @file
 * Checkpoint subsystem tests (src/ckpt, DESIGN.md §13): container
 * validation (magic/version/hash/truncation/CRC), byte-identical
 * round-trips, and mid-run save/resume identity.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "app/system.h"
#include "ckpt/archive.h"
#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "fault/fault.h"
#include "noc/multinoc.h"
#include "sim/simulator.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

/** Serializes @p net into a fresh byte buffer. */
std::vector<std::uint8_t>
net_bytes(const MultiNoc &net)
{
    ckpt::Writer w;
    net.Serialize(w);
    return w.bytes();
}

/** Drives @p net with @p gen for @p cycles cycles. */
void
run_traffic(MultiNoc &net, SyntheticTraffic &gen, Cycle cycles)
{
    const Cycle end = net.now() + cycles;
    while (net.now() < end) {
        gen.step(net.now());
        net.tick();
    }
}

/** A small-but-busy config exercising gating, selection, and the RCS. */
MultiNocConfig
test_config()
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.seed = 99;
    return cfg;
}

/** test_config() plus a fault plan with scheduled and probabilistic
 * faults, so the fault controller's full state rides along. */
MultiNocConfig
faulty_config()
{
    MultiNocConfig cfg = test_config();
    cfg.fault.kill_router(900, 3, 40)
        .lose_wakes(400, 1, 10, 300)
        .glitch_rcs(600, 2, 20);
    cfg.fault.rcs_glitch_prob = 0.002;
    cfg.fault.wake_loss_prob = 0.01;
    return cfg;
}

/** Scratch file that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name) : path_(name) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Expects every field of two synthetic results to match exactly
 * (doubles compared bit-for-bit — the identity contract is not
 * "approximately equal", it is "the same computation"). */
void
expect_identical(const SyntheticResult &a, const SyntheticResult &b)
{
    EXPECT_EQ(a.config_label, b.config_label);
    EXPECT_EQ(a.offered_load, b.offered_load);
    EXPECT_EQ(a.offered_rate, b.offered_rate);
    EXPECT_EQ(a.accepted_rate, b.accepted_rate);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.csc_percent, b.csc_percent);
    EXPECT_EQ(a.vdd, b.vdd);
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.faults_fired, b.faults_fired);
    EXPECT_EQ(a.subnet_failures, b.subnet_failures);
    EXPECT_EQ(a.power.buffer, b.power.buffer);
    EXPECT_EQ(a.power.crossbar, b.power.crossbar);
    EXPECT_EQ(a.power.control, b.power.control);
    EXPECT_EQ(a.power.clock, b.power.clock);
    EXPECT_EQ(a.power.link, b.power.link);
    EXPECT_EQ(a.power.ni, b.power.ni);
    EXPECT_EQ(a.power.or_net, b.power.or_net);
    EXPECT_EQ(a.power_static.buffer, b.power_static.buffer);
    EXPECT_EQ(a.power_static.link, b.power_static.link);
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

// -- Network round-trips ---------------------------------------------------

TEST(CkptNet, SerializeRoundTripIsByteIdentical)
{
    const MultiNocConfig cfg = test_config();
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.15;
    SyntheticTraffic gen(&net, traffic, 7);
    run_traffic(net, gen, 800);

    const std::vector<std::uint8_t> before = net_bytes(net);

    MultiNoc copy(cfg);
    ckpt::Reader r(before);
    copy.Deserialize(r);
    r.expect_exhausted();

    EXPECT_EQ(net_bytes(copy), before);
    EXPECT_EQ(copy.now(), net.now());
}

TEST(CkptNet, FileSaveRestoreRoundTrip)
{
    const MultiNocConfig cfg = faulty_config();
    MultiNoc net(cfg);
    SyntheticConfig traffic;
    traffic.load = 0.20;
    SyntheticTraffic gen(&net, traffic, 11);
    run_traffic(net, gen, 1000); // past the router kill at cycle 900
    ASSERT_NE(net.fault(), nullptr);

    TempFile f("test_ckpt_net.bin");
    ckpt::Save(net, f.path());
    std::unique_ptr<MultiNoc> restored = ckpt::Restore(cfg, f.path());

    EXPECT_EQ(net_bytes(*restored), net_bytes(net));
    ASSERT_NE(restored->fault(), nullptr);
    EXPECT_EQ(restored->fault()->faults_fired(),
              net.fault()->faults_fired());

    // Restoring under a different config must fail on the hash.
    MultiNocConfig other = cfg;
    other.seed += 1;
    EXPECT_THROW(ckpt::Restore(other, f.path()), ckpt::CkptError);

    // Restoring under a config without the fault plan must fail too.
    MultiNocConfig no_fault = cfg;
    no_fault.fault = FaultPlan{};
    no_fault.fault.wake_loss_prob = 0.0;
    EXPECT_THROW(ckpt::Restore(no_fault, f.path()), ckpt::CkptError);
}

// -- Mid-run save / resume -------------------------------------------------

/** Short fig10-style phases so the resume tests stay fast. */
RunParams
short_params()
{
    RunParams rp;
    rp.warmup = 300;
    rp.measure = 600;
    rp.drain_max = 4000;
    rp.seed = 4242;
    return rp;
}

TEST(CkptResume, WarmupCheckpointReproducesUninterruptedRun)
{
    const MultiNocConfig cfg = test_config();
    SyntheticConfig traffic;
    traffic.load = 0.12;
    const RunParams rp = short_params();

    const SyntheticResult uninterrupted = run_synthetic(cfg, traffic, rp);

    TempFile f("test_ckpt_warm.bin");
    SyntheticRun first(cfg, traffic, rp);
    first.run_warmup();
    first.save_checkpoint(f.path());

    auto resumed =
        SyntheticRun::restore_checkpoint(cfg, traffic, rp, f.path());
    EXPECT_EQ(resumed->now(), rp.warmup);
    expect_identical(resumed->finish(), uninterrupted);
}

TEST(CkptResume, MidMeasurementAutosaveReproducesUninterruptedRun)
{
    MultiNocConfig cfg = faulty_config();
    SyntheticConfig traffic;
    traffic.load = 0.18;
    const RunParams rp = short_params();

    TempFile f("test_ckpt_mid.bin");
    SyntheticRun first(cfg, traffic, rp);
    // Saves at cycles 500 and 750: the last overwrite lands
    // mid-measurement (warmup 300 + measure 600 = 900).
    first.set_autosave(f.path(), 250);
    first.run_warmup();
    const SyntheticResult uninterrupted = first.finish();

    auto resumed =
        SyntheticRun::restore_checkpoint(cfg, traffic, rp, f.path());
    EXPECT_EQ(resumed->now(), Cycle{750});
    resumed->run_warmup(); // no-op past warm-up
    expect_identical(resumed->finish(), uninterrupted);

    // A resumed run under different phase lengths must be rejected.
    RunParams other = rp;
    other.measure += 1;
    EXPECT_THROW(
        SyntheticRun::restore_checkpoint(cfg, traffic, other, f.path()),
        ckpt::CkptError);
}

// -- Closed-loop CMP system ------------------------------------------------

TEST(CkptApp, CmpSystemRoundTripAndBehavioralIdentity)
{
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    const WorkloadMix mix = medium_heavy_mix();

    CmpSystem a(cfg, mix, SystemParams());
    a.run(500);

    ckpt::Writer w;
    a.Serialize(w);

    CmpSystem b(cfg, mix, SystemParams());
    ckpt::Reader r(w.bytes());
    b.Deserialize(r);
    r.expect_exhausted();

    ckpt::Writer wb;
    b.Serialize(wb);
    EXPECT_EQ(wb.bytes(), w.bytes());

    // Same future from the restored state: advance both and compare
    // bytes and headline metrics.
    a.run(500);
    b.run(500);
    ckpt::Writer wa2, wb2;
    a.Serialize(wa2);
    b.Serialize(wb2);
    EXPECT_EQ(wa2.bytes(), wb2.bytes());
    EXPECT_EQ(a.total_retired(), b.total_retired());
    EXPECT_EQ(a.misses_completed(), b.misses_completed());
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
