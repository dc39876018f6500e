/**
 * @file
 * Tests for the sweep service (src/serve/): the frame and message
 * codecs and the daemon itself over a real Unix-domain socket. The
 * result store the daemon caches in is tested in test_exec.cc.
 *
 * The load-bearing guarantees pinned here:
 *   - hit-after-miss byte identity: a warm-cache sweep returns exactly
 *     the bytes the in-process run produces, with zero executed points;
 *   - restart rebuild: a daemon restarted on a torn cache file serves
 *     every intact record and re-executes nothing else;
 *   - single-flight: concurrent clients requesting the same uncached
 *     point execute it exactly once;
 *   - quarantined points are never cached (the next request retries),
 *     on both backends, whether the point throws or the worker cannot
 *     even be spawned;
 *   - misses land in the cache per point as they finish, on both
 *     backends, not when the whole request finishes;
 *   - ping and stats answer while a sweep runs, and a finished
 *     connection's handler thread is joined, not kept;
 *   - a malformed frame or payload gets a precise error reply, never a
 *     crash or hang.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "ckpt/checkpoint.h"
#include "ckpt/journal.h"
#include "exec/point_codec.h"
#include "exec/sweep_runner.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap {
namespace {

using serve::decode_frame;
using serve::decode_reply;
using serve::decode_request;
using serve::encode_frame;
using serve::encode_reply;
using serve::encode_request;
using serve::FrameStatus;
using serve::ServeClientOptions;
using serve::ServeConfig;
using serve::ServedPoint;
using serve::ServedStatus;
using serve::ServedSweep;
using serve::ServeError;
using serve::ServeReply;
using serve::ServeRequest;
using serve::ServeServer;

RunParams
quick_params()
{
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 600;
    rp.drain_max = 1500;
    return rp;
}

MultiNocConfig
serve_config()
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.region_width = 2;
    return cfg;
}

std::vector<RunItem>
serve_items(const std::vector<double> &loads)
{
    std::vector<RunItem> items;
    for (const double load : loads) {
        SyntheticConfig traffic;
        traffic.load = load;
        items.push_back(RunItem{serve_config(), traffic, quick_params()});
    }
    return items;
}

std::string
to_csv(const std::vector<SyntheticResult> &rows)
{
    std::ostringstream os;
    write_csv(os, rows);
    return os.str();
}

/** A fresh scratch directory with a socket-length-safe path. */
std::string
fresh_dir(const std::string &tag)
{
    // sun_path is 108 bytes; keep the socket path short and unique.
    std::string tmpl = "/tmp/ctsv_" + tag + "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    return std::string(buf.data());
}

ServeConfig
server_config(const std::string &dir)
{
    ServeConfig cfg;
    cfg.socket_path = dir + "/s.sock";
    cfg.cache.path = dir + "/cache.bin";
    cfg.exec.jobs = 2;
    return cfg;
}

ServeClientOptions
client_options(const ServeConfig &cfg)
{
    ServeClientOptions copts;
    copts.socket_path = cfg.socket_path;
    copts.attempts = 40;
    copts.retry_delay_ms = 50;
    return copts;
}

/** A request payload of @p kind with no body. */
std::vector<std::uint8_t>
bare_request(ServeRequest::Kind kind)
{
    return encode_request(ServeRequest{kind, {}});
}

/** A sweep request payload declaring @p images as its points. */
std::vector<std::uint8_t>
sweep_payload(const std::vector<std::vector<std::uint8_t>> &images)
{
    ckpt::Writer w;
    w.put_u8(static_cast<std::uint8_t>(ServeRequest::Kind::kSweep));
    w.put_u32(static_cast<std::uint32_t>(images.size()));
    for (const std::vector<std::uint8_t> &image : images)
        w.put_string(std::string(image.begin(), image.end()));
    return w.bytes();
}

/** Expects @p decode to throw a ServeError whose message names
 * @p part and an offset. */
template <typename Decode>
void
expect_rejected(Decode decode, const std::string &part,
                const std::string &label)
{
    try {
        decode();
        ADD_FAILURE() << "accepted " << label;
    } catch (const ServeError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(part), std::string::npos) << label << ": " << what;
        EXPECT_NE(what.find("offset"), std::string::npos)
            << label << ": " << what;
    }
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(ServeFrame, RoundTripsAndReportsConsumedBytes)
{
    const std::vector<std::uint8_t> payload =
        bare_request(ServeRequest::Kind::kPing);
    std::vector<std::uint8_t> bytes = encode_frame(payload);
    // Trailing bytes of a following frame must not confuse the decode.
    bytes.push_back(0xff);
    const auto dec = decode_frame(bytes);
    ASSERT_EQ(dec.status, FrameStatus::kFrame);
    EXPECT_EQ(dec.payload, payload);
    EXPECT_EQ(dec.consumed, serve::kFrameHeaderBytes + payload.size());
}

TEST(ServeFrame, IncrementalDecodeNeedsEveryByte)
{
    const std::vector<std::uint8_t> bytes =
        encode_frame({'h', 'e', 'l', 'l', 'o'});
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const auto dec = decode_frame(bytes.data(), n);
        EXPECT_EQ(dec.status, FrameStatus::kNeedMore) << "prefix " << n;
    }
    EXPECT_EQ(decode_frame(bytes).status, FrameStatus::kFrame);
}

TEST(ServeFrame, BadMagicAndOversizeLengthAreTerminal)
{
    std::vector<std::uint8_t> bad = encode_frame({'x'});
    bad[0] ^= 0x5a;
    EXPECT_EQ(decode_frame(bad).status, FrameStatus::kBad);

    // A first-generation "CSF1" frame fails at the magic, not mid-decode.
    std::vector<std::uint8_t> stale = encode_frame({'x'});
    stale[3] = '1';
    EXPECT_EQ(decode_frame(stale).status, FrameStatus::kBad);

    std::vector<std::uint8_t> huge = encode_frame({'x'});
    huge[4] = huge[5] = huge[6] = huge[7] = 0xff; // 4 GiB declared
    const auto dec = decode_frame(huge);
    EXPECT_EQ(dec.status, FrameStatus::kBad);
    EXPECT_NE(dec.error.find("cap"), std::string::npos);
}

// ---------------------------------------------------------------------
// Request decoding (the fuzzed trust boundary)
// ---------------------------------------------------------------------

TEST(ServeRequestDecode, DecodesEveryRequestKind)
{
    EXPECT_EQ(decode_request(bare_request(ServeRequest::Kind::kPing)).kind,
              ServeRequest::Kind::kPing);
    EXPECT_EQ(decode_request(bare_request(ServeRequest::Kind::kStats)).kind,
              ServeRequest::Kind::kStats);
    EXPECT_EQ(
        decode_request(bare_request(ServeRequest::Kind::kShutdown)).kind,
        ServeRequest::Kind::kShutdown);

    const auto items = serve_items({0.02, 0.05});
    // The wire layout, written out by hand rather than by
    // encode_request(), so the decoder is checked against the format.
    const ServeRequest sweep = decode_request(
        sweep_payload({encode_point_spec(items[0]),
                       encode_point_spec(items[1])}));
    EXPECT_EQ(sweep.kind, ServeRequest::Kind::kSweep);
    ASSERT_EQ(sweep.items.size(), 2u);
    EXPECT_EQ(point_hash(sweep.items[0]), point_hash(items[0]));
    EXPECT_EQ(point_hash(sweep.items[1]), point_hash(items[1]));

    ServeRequest req;
    req.kind = ServeRequest::Kind::kSweep;
    req.items = items;
    EXPECT_EQ(encode_request(req), sweep_payload({encode_point_spec(items[0]),
                                                  encode_point_spec(items[1])}));
}

TEST(ServeRequestDecode, RejectsMalformedRequestsPrecisely)
{
    const std::vector<std::uint8_t> spec =
        encode_point_spec(serve_items({0.02})[0]);

    const std::vector<std::uint8_t> truncated_count = {0, 1, 0};

    // Declares a 300-byte image but carries only 3 bytes.
    ckpt::Writer short_image;
    short_image.put_u8(0);
    short_image.put_u32(1);
    short_image.put_u64(300);
    short_image.put_u8(1);
    short_image.put_u8(2);
    short_image.put_u8(3);

    std::vector<std::uint8_t> trailing =
        bare_request(ServeRequest::Kind::kPing);
    trailing.push_back(0x00);
    std::vector<std::uint8_t> sweep_trailing = sweep_payload({spec});
    sweep_trailing.push_back(0x00);

    const struct
    {
        std::vector<std::uint8_t> payload;
        const char *part;
        const char *label;
    } bad[] = {
        {{}, "kind", "an empty payload"},
        {{7}, "kind", "an unknown kind"},
        {{16}, "kind", "a reply kind sent as a request"},
        {truncated_count, "count", "a truncated point count"},
        {short_image.bytes(), "points[0]", "a truncated image"},
        {sweep_payload({{'a', 'b', 'c', 'd'}}), "points[0]",
         "a non-spec image"},
        {trailing, "end of message", "a ping with a trailing byte"},
        {sweep_trailing, "end of message", "a sweep with a trailing byte"},
    };
    for (const auto &c : bad) {
        expect_rejected([&] { (void)decode_request(c.payload); }, c.part,
                        c.label);
    }
}

TEST(ServeRequestDecode, RejectsOversizePointLists)
{
    // Only the count is sent: the cap must be checked before anything
    // is reserved or read for the declared points.
    ckpt::Writer w;
    w.put_u8(static_cast<std::uint8_t>(ServeRequest::Kind::kSweep));
    w.put_u32(static_cast<std::uint32_t>(serve::kMaxPointsPerRequest + 1));
    try {
        decode_request(w.bytes());
        FAIL() << "accepted an oversize point list";
    } catch (const ServeError &e) {
        EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
    }

    ServeRequest req;
    req.kind = ServeRequest::Kind::kSweep;
    req.items = serve_items(
        std::vector<double>(serve::kMaxPointsPerRequest + 1, 0.02));
    EXPECT_THROW(encode_request(req), ServeError);
}

TEST(ServeRequestDecode, RejectsTamperedSpecImages)
{
    const auto items = serve_items({0.02, 0.05});
    std::vector<std::uint8_t> image = encode_point_spec(items[1]);
    image[image.size() / 2] ^= 0x01;
    expect_rejected(
        [&] {
            (void)decode_request(
                sweep_payload({encode_point_spec(items[0]), image}));
        },
        "points[1]", "a bit-flipped spec image");
}

TEST(ServeReplyDecode, RoundTripsEveryReplyKind)
{
    ServeReply results;
    results.kind = ServeReply::Kind::kResults;
    results.points.push_back({ServedStatus::kHit, {1, 2, 3}, ""});
    results.points.push_back({ServedStatus::kMiss, {4}, ""});
    results.points.push_back({ServedStatus::kQuarantined, {}, "why"});
    const ServeReply got = decode_reply(encode_reply(results));
    EXPECT_EQ(got.kind, ServeReply::Kind::kResults);
    ASSERT_EQ(got.points.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(got.points[i].status, results.points[i].status);
        EXPECT_EQ(got.points[i].image, results.points[i].image);
        EXPECT_EQ(got.points[i].error, results.points[i].error);
    }

    ServeReply stats;
    stats.kind = ServeReply::Kind::kStats;
    std::uint64_t next = 1;
    serve::ServeStats::for_each(stats.stats,
                                [&](const char *, std::uint64_t &v) {
                                    v = next++;
                                });
    EXPECT_EQ(stats.stats.restored_discarded_bytes, 12u);
    EXPECT_EQ(decode_reply(encode_reply(stats)).stats, stats.stats);

    ServeReply error;
    error.kind = ServeReply::Kind::kError;
    error.error = "nope";
    EXPECT_EQ(decode_reply(encode_reply(error)).error, "nope");

    for (const ServeReply::Kind kind :
         {ServeReply::Kind::kPong, ServeReply::Kind::kBye}) {
        ServeReply bare;
        bare.kind = kind;
        EXPECT_EQ(encode_reply(bare).size(), 1u);
        EXPECT_EQ(decode_reply(encode_reply(bare)).kind, kind);
    }
}

TEST(ServeReplyDecode, RejectsMalformedReplies)
{
    ServeReply results;
    results.kind = ServeReply::Kind::kResults;
    results.points.push_back({ServedStatus::kHit, {1, 2, 3}, ""});
    std::vector<std::uint8_t> bad_status = encode_reply(results);
    bad_status[5] = 9; // the first point's status byte
    std::vector<std::uint8_t> truncated = encode_reply(results);
    truncated.pop_back();

    ServeReply stats;
    stats.kind = ServeReply::Kind::kStats;
    std::vector<std::uint8_t> short_stats = encode_reply(stats);
    short_stats.resize(short_stats.size() - 8);

    expect_rejected([] { (void)decode_reply({0}); }, "kind",
                    "a request kind sent as a reply");
    expect_rejected([&] { (void)decode_reply(bad_status); }, "points[0]",
                    "an unknown point status");
    expect_rejected([&] { (void)decode_reply(truncated); }, "points[0]",
                    "a truncated image");
    expect_rejected([&] { (void)decode_reply(short_stats); },
                    "stats.restored_discarded_bytes", "a truncated stats reply");
}

// ---------------------------------------------------------------------
// Server end-to-end (real Unix-domain socket)
// ---------------------------------------------------------------------

TEST(ServeServer, HitAfterMissIsByteIdenticalWithZeroExecution)
{
    const std::string dir = fresh_dir("hitmiss");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08});
    const std::string serial = to_csv(run_batch(items));

    const ServedSweep cold =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold.misses, items.size());
    EXPECT_EQ(cold.hits, 0u);
    EXPECT_EQ(to_csv(cold.merged()), serial);

    const ServedSweep warm =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.hits, items.size());
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(to_csv(warm.merged()), serial);

    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.executed, items.size()); // pass 2 executed nothing
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.hits, items.size());
    server.stop();
}

TEST(ServeServer, RestartRebuildsFromTornCacheAndServesHits)
{
    const std::string dir = fresh_dir("restart");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02, 0.05});
    std::string cold_csv;
    {
        ServeServer first(cfg);
        first.start();
        const ServedSweep cold =
            serve::run_batch_served(items, client_options(cfg));
        ASSERT_TRUE(cold.ok());
        cold_csv = to_csv(cold.merged());
        first.stop();
    }
    // Tear the cache tail, as a SIGKILL mid-append would.
    {
        std::ofstream out(cfg.cache.path,
                          std::ios::binary | std::ios::app);
        out.write("CJL1torn-tail", 13);
    }
    ServeServer second(cfg);
    second.start();
    const serve::ServeStats boot = second.stats();
    EXPECT_EQ(boot.restored_records, items.size());
    EXPECT_GT(boot.restored_discarded_bytes, 0u);

    const ServedSweep warm =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.hits, items.size());
    EXPECT_EQ(to_csv(warm.merged()), cold_csv);
    EXPECT_EQ(second.stats().executed, 0u);
    second.stop();
}

TEST(ServeServer, CacheRecordWithTrailingBytesIsReexecuted)
{
    const std::string dir = fresh_dir("trail");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02});
    const std::vector<SyntheticResult> serial = run_batch(items);

    // A record under the point's own key holding a valid result plus
    // one stray byte: a corrupt record, so it must not be replayed.
    ckpt::Writer w;
    put_synth_result(w, serial[0]);
    std::vector<std::uint8_t> payload = w.bytes();
    payload.push_back(0x00);
    std::vector<std::uint8_t> file;
    ckpt::append_record(file, point_hash(items[0]), payload);
    ckpt::write_file(cfg.cache.path, file);

    ServeServer server(cfg);
    server.start();
    EXPECT_EQ(server.stats().restored_records, 1u);
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_EQ(got.statuses.size(), 1u);
    EXPECT_EQ(got.statuses[0], ServedStatus::kMiss);
    EXPECT_EQ(server.stats().executed, 1u);
    EXPECT_EQ(to_csv(got.merged()), to_csv(serial));
    server.stop();
}

TEST(ServeServer, ConcurrentClientsSingleFlightEachPointOnce)
{
    const std::string dir = fresh_dir("flight");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08, 0.11});
    const std::string serial = to_csv(run_batch(items));

    constexpr int kClients = 4;
    std::vector<std::string> csvs(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const ServedSweep got =
                serve::run_batch_served(items, client_options(cfg));
            if (got.ok())
                csvs[static_cast<std::size_t>(c)] = to_csv(got.merged());
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (const std::string &csv : csvs)
        EXPECT_EQ(csv, serial);

    // The whole point of single-flight: 4 clients x 4 points, but each
    // point simulated exactly once.
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.executed, items.size());
    EXPECT_EQ(stats.points, items.size() * kClients);
    server.stop();
}

TEST(ServeServer, DuplicatePointsInOneRequestResolveOnce)
{
    const std::string dir = fresh_dir("dup");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    auto items = serve_items({0.02, 0.05});
    items.push_back(items[0]); // same point twice in one request
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(server.stats().executed, 2u);
    EXPECT_EQ(to_csv({got.results[0]}), to_csv({got.results[2]}));
    server.stop();
}

TEST(ServeServer, QuarantinedPointsAreNeverCached)
{
    const std::string dir = fresh_dir("quar");
    // A worker that always fails: every miss quarantines.
    const std::string worker = dir + "/worker.sh";
    {
        std::ofstream out(worker);
        out << "#!/bin/sh\nexit 1\n";
    }
    ::chmod(worker.c_str(), 0755);

    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = worker;
    cfg.exec.scratch = dir + "/scratch";
    cfg.exec.max_retries = 0;
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02});
    const ServedSweep first =
        serve::run_batch_served(items, client_options(cfg));
    EXPECT_EQ(first.quarantined, items.size());
    EXPECT_FALSE(first.ok());
    EXPECT_THROW(first.merged(), std::runtime_error);
    EXPECT_NE(first.quarantine_summary().find("point 0"),
              std::string::npos);

    // Nothing was cached, so a second request re-attempts (and fails
    // again) instead of replaying a bogus hit.
    const ServedSweep second =
        serve::run_batch_served(items, client_options(cfg));
    EXPECT_EQ(second.quarantined, items.size());
    EXPECT_EQ(second.hits, 0u);
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.cache_entries, 0u);
    EXPECT_EQ(stats.quarantined, 2u);
    server.stop();
}

TEST(ServeServer, IsolateBackendMatchesInProcessBytes)
{
    const std::string dir = fresh_dir("isol");
    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = CATNAP_SIM_PATH;
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05});
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok()) << got.quarantine_summary();
    EXPECT_EQ(to_csv(got.merged()), to_csv(run_batch(items)));
    server.stop();
}

/** One good point and one point whose num_vcs MultiNoc rejects (its
 * constructor throws). */
std::vector<RunItem>
good_and_throwing_items()
{
    auto items = serve_items({0.02, 0.05});
    items[1].cfg.num_vcs = 13;
    return items;
}

/** The throwing point is answered quarantined with @p reason, is never
 * cached, and is executed again by the next request. */
void
expect_throwing_point_requarantined(const ServeConfig &cfg,
                                    const std::string &reason)
{
    ServeServer server(cfg);
    server.start();
    const auto items = good_and_throwing_items();

    const ServedSweep first =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_EQ(first.statuses.size(), 2u);
    EXPECT_EQ(first.statuses[0], ServedStatus::kMiss);
    EXPECT_EQ(first.statuses[1], ServedStatus::kQuarantined);
    EXPECT_NE(first.errors[1].find(reason), std::string::npos)
        << first.errors[1];
    EXPECT_EQ(server.stats().cache_entries, 1u);
    EXPECT_EQ(server.stats().executed, 2u);

    const ServedSweep second =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_EQ(second.statuses.size(), 2u);
    EXPECT_EQ(second.statuses[0], ServedStatus::kHit);
    EXPECT_EQ(second.statuses[1], ServedStatus::kQuarantined);
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.cache_entries, 1u);
    EXPECT_EQ(stats.executed, 3u); // the throwing point ran again
    EXPECT_EQ(stats.quarantined, 2u);
    server.stop();
}

TEST(ServeServer, ThrowingPointQuarantinesInProcessAndIsRetried)
{
    const ServeConfig cfg = server_config(fresh_dir("throwin"));
    expect_throwing_point_requarantined(
        cfg, "quarantined after 1 attempt(s); panic: assertion failed: "
             "cfg.num_vcs");
}

TEST(ServeServer, ThrowingPointQuarantinesIsolatedAndIsRetried)
{
    const std::string dir = fresh_dir("throwiso");
    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = CATNAP_SIM_PATH;
    cfg.exec.scratch = dir + "/scratch";
    cfg.exec.max_retries = 0;
    expect_throwing_point_requarantined(
        cfg, "quarantined after 1 attempt(s); exit code 1");
}

TEST(ServeServer, UnrunnableWorkerQuarantinesAndReleasesItsKeys)
{
    const std::string dir = fresh_dir("nowork");
    ServeConfig cfg = server_config(dir);
    cfg.exec.isolate = true;
    cfg.exec.worker = "/nonexistent/worker";
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08});
    for (int pass = 0; pass < 2; ++pass) {
        // The second pass returning at all shows the first released
        // every claimed key; a leaked claim would block it forever.
        const ServedSweep got =
            serve::run_batch_served(items, client_options(cfg));
        ASSERT_EQ(got.quarantined, items.size());
        for (const std::string &error : got.errors)
            EXPECT_NE(error.find("executor failed: proc: cannot spawn "
                                 "worker '/nonexistent/worker'"),
                      std::string::npos)
                << error;
    }
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.quarantined, 2 * items.size());
    EXPECT_EQ(stats.executed, 0u); // no worker ever started
    EXPECT_EQ(stats.cache_entries, 0u);
    server.stop();
}

TEST(ServeServer, IsolatedMissesLandInTheCachePerPoint)
{
    const std::string dir = fresh_dir("perpt");
    // The first worker, claimed atomically by mkdir, runs straight
    // through; every later one waits for the release file.
    const std::string worker = dir + "/worker.sh";
    const std::string release = dir + "/release";
    {
        std::ofstream out(worker);
        out << "#!/bin/sh\n"
            << "if ! mkdir '" << dir << "/first' 2>/dev/null; then\n"
            << "  while [ ! -e '" << release << "' ]; do sleep 0.02; done\n"
            << "fi\n"
            << "exec '" << CATNAP_SIM_PATH << "' \"$@\"\n";
    }
    ::chmod(worker.c_str(), 0755);

    ServeConfig cfg = server_config(dir);
    cfg.exec.jobs = 1;
    cfg.exec.isolate = true;
    cfg.exec.worker = worker;
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05});
    ServedSweep got;
    std::thread client([&] {
        got = serve::run_batch_served(items, client_options(cfg));
    });
    // The first point must be cached while the second still blocks.
    bool landed = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!landed && std::chrono::steady_clock::now() < deadline) {
        landed = server.stats().cache_entries == 1;
        if (!landed)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    { std::ofstream touch(release); }
    client.join();
    EXPECT_TRUE(landed) << "no result reached the cache before the "
                           "request finished";
    ASSERT_TRUE(got.ok()) << got.quarantine_summary();
    EXPECT_EQ(to_csv(got.merged()), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, PingAndStatsAnswerWhileASweepRuns)
{
    const std::string dir = fresh_dir("lockspl");
    // Every worker announces itself, then waits for the release file.
    const std::string worker = dir + "/worker.sh";
    const std::string started = dir + "/started";
    const std::string release = dir + "/release";
    {
        std::ofstream out(worker);
        out << "#!/bin/sh\n"
            << ": > '" << started << "'\n"
            << "while [ ! -e '" << release << "' ]; do sleep 0.02; done\n"
            << "exec '" << CATNAP_SIM_PATH << "' \"$@\"\n";
    }
    ::chmod(worker.c_str(), 0755);

    ServeConfig cfg = server_config(dir);
    cfg.exec.jobs = 1;
    cfg.exec.isolate = true;
    cfg.exec.worker = worker;
    cfg.exec.scratch = dir + "/scratch";
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02});
    ServedSweep got;
    std::thread client([&] {
        got = serve::run_batch_served(items, client_options(cfg));
    });
    struct stat st{};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::stat(started.c_str(), &st) != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    // Answered over the socket while the sweep is still blocked in its
    // worker; a ping or stats request stuck behind the sweep would time
    // out here instead.
    auto answers = std::async(std::launch::async, [&] {
        const bool pong = serve::ping(client_options(cfg));
        return std::make_pair(pong,
                              serve::fetch_stats(client_options(cfg)));
    });
    const bool answered = answers.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    { std::ofstream touch(release); }
    client.join();
    ASSERT_TRUE(answered) << "ping/stats waited for the sweep";
    const auto [pong, stats] = answers.get();
    EXPECT_TRUE(pong);
    EXPECT_EQ(stats.requests, 0u); // the sweep had not finished
    ASSERT_TRUE(got.ok()) << got.quarantine_summary();
    EXPECT_EQ(to_csv(got.merged()), to_csv(run_batch(items)));
    server.stop();
}

/** This process's virtual size in kB (VmSize in /proc/self/status). */
std::uint64_t
vm_size_kb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7));
    ADD_FAILURE() << "no VmSize in /proc/self/status";
    return 0;
}

TEST(ServeServer, FinishedConnectionHandlersAreReaped)
{
    const ServeConfig cfg = server_config(fresh_dir("reap"));
    ServeServer server(cfg);
    server.start();
    ASSERT_TRUE(serve::ping(client_options(cfg)));

    // Each request opens its own connection; an unjoined handler would
    // keep its whole thread stack mapped (about 8 MB each).
    const std::uint64_t before = vm_size_kb();
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(serve::ping(client_options(cfg))) << "cycle " << i;
    const std::uint64_t after = vm_size_kb();
    EXPECT_LT(after, before + 100 * 1024)
        << "VmSize grew from " << before << " kB to " << after << " kB";
    server.stop();
}

TEST(ServeServer, StopWakesTheAcceptLoopAtOnce)
{
    // stop() must not wait out a poll timeout in the accept loop: it
    // shuts the listening socket down, which wakes the loop at once.
    using Ms = std::chrono::duration<double, std::milli>;
    const ServeConfig cfg = server_config(fresh_dir("stop"));
    {
        ServeServer server(cfg);
        server.start();
        const auto t0 = std::chrono::steady_clock::now();
        server.stop();
        EXPECT_LT(Ms(std::chrono::steady_clock::now() - t0).count(), 100.0);
    }
    ServeServer server(cfg);
    server.start();
    ASSERT_TRUE(serve::ping(client_options(cfg))); // loop back in poll()
    const auto t0 = std::chrono::steady_clock::now();
    server.stop();
    EXPECT_LT(Ms(std::chrono::steady_clock::now() - t0).count(), 100.0);
}

TEST(ServeServer, EvictionBoundHoldsUnderServedSweeps)
{
    const std::string dir = fresh_dir("bound");
    ServeConfig cfg = server_config(dir);
    cfg.cache.max_bytes = 600; // roughly two records of this sweep
    ServeServer server(cfg);
    server.start();

    const auto items = serve_items({0.02, 0.05, 0.08, 0.11});
    const ServedSweep got =
        serve::run_batch_served(items, client_options(cfg));
    ASSERT_TRUE(got.ok());
    const serve::ServeStats stats = server.stats();
    EXPECT_GT(stats.evicted, 0u);
    EXPECT_LE(stats.cache_bytes, cfg.cache.max_bytes);
    EXPECT_LT(stats.cache_entries, items.size());
    server.stop();
}

TEST(ServeServer, ClientRetriesUntilTheDaemonAppears)
{
    const std::string dir = fresh_dir("retry");
    const ServeConfig cfg = server_config(dir);
    const auto items = serve_items({0.02});

    // The client starts first, against a socket that does not exist
    // yet, and must ride its retry loop until the daemon binds.
    ServedSweep got;
    std::thread client([&] {
        got = serve::run_batch_served(items, client_options(cfg));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ServeServer server(cfg);
    server.start();
    client.join();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_csv(got.merged()), to_csv(run_batch(items)));
    server.stop();
}

TEST(ServeServer, StatsPingAndShutdownRequests)
{
    const std::string dir = fresh_dir("stats");
    ServeConfig cfg = server_config(dir);
    cfg.stats_path = dir + "/stats.json";
    ServeServer server(cfg);
    server.start();

    EXPECT_TRUE(serve::ping(client_options(cfg)));
    const serve::ServeStats stats = serve::fetch_stats(client_options(cfg));
    EXPECT_EQ(stats.requests, 0u); // stats/ping are not sweep requests

    // The stats file was rewritten by the stats request.
    std::ifstream in(cfg.stats_path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"requests\":0"), std::string::npos);

    EXPECT_FALSE(server.shutdown_requested());
    serve::request_shutdown(client_options(cfg));
    EXPECT_TRUE(server.shutdown_requested());
    server.stop();
    EXPECT_FALSE(serve::ping(ServeClientOptions{cfg.socket_path, 1, 10}));
}

TEST(ServeServer, StatsSurviveTheWire)
{
    const ServeConfig cfg = server_config(fresh_dir("wirestats"));
    ServeServer server(cfg);
    server.start();

    // Two passes: a miss, a hit, and a quarantined point each time.
    const auto items = good_and_throwing_items();
    (void)serve::run_batch_served(items, client_options(cfg));
    const ServedSweep second =
        serve::run_batch_served(items, client_options(cfg));
    EXPECT_EQ(second.hits, 1u);
    EXPECT_EQ(second.quarantined, 1u);

    // The in-process snapshot is the oracle; it never touches the wire.
    const serve::ServeStats local = server.stats();
    EXPECT_EQ(serve::fetch_stats(client_options(cfg)), local)
        << "wire: " << serve::fetch_stats(client_options(cfg)).to_json()
        << "\nlocal: " << local.to_json();
    EXPECT_EQ(local.requests, 2u);
    EXPECT_EQ(local.points, 4u);
    EXPECT_EQ(local.hits, 1u);
    EXPECT_EQ(local.misses, 1u);
    EXPECT_EQ(local.quarantined, 2u);
    EXPECT_EQ(local.executed, 3u);
    EXPECT_EQ(local.cache_entries, 1u);
    EXPECT_GT(local.cache_bytes, 0u);
    server.stop();
}

// ---------------------------------------------------------------------
// Malformed traffic against a live server
// ---------------------------------------------------------------------

/** A bare-bones client socket for protocol-abuse tests. */
class RawConn
{
  public:
    explicit RawConn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConn() { ::close(fd_); }

    void
    send_bytes(const std::vector<std::uint8_t> &bytes)
    {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** Reads one reply frame (empty payload on EOF). */
    std::vector<std::uint8_t>
    recv_reply()
    {
        std::vector<std::uint8_t> acc;
        std::uint8_t chunk[4096];
        for (;;) {
            const auto dec = decode_frame(acc.data(), acc.size());
            if (dec.status == FrameStatus::kFrame)
                return dec.payload;
            if (dec.status == FrameStatus::kBad)
                return {};
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return {};
            acc.insert(acc.end(), chunk, chunk + n);
        }
    }

    bool
    at_eof()
    {
        std::uint8_t b = 0;
        return ::recv(fd_, &b, 1, 0) == 0;
    }

  private:
    int fd_ = -1;
};

TEST(ServeServer, MalformedFrameGetsErrorReplyThenClose)
{
    const std::string dir = fresh_dir("badframe");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes({'n', 'o', 'p', 'e', 0, 0, 0, 0});
    const ServeReply reply = decode_reply(conn.recv_reply());
    EXPECT_EQ(reply.kind, ServeReply::Kind::kError);
    EXPECT_NE(reply.error.find("magic"), std::string::npos);
    // Framing errors cannot be resynchronised: the server closes.
    EXPECT_TRUE(conn.at_eof());
    server.stop();
}

// A well-framed payload that fails to decode is answered with an error
// reply; the framing stays intact, so the connection survives.
TEST(ServeServer, MalformedJsonGetsErrorReplyAndConnectionSurvives)
{
    const std::string dir = fresh_dir("badjson");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes(encode_frame({0, 1, 0})); // a truncated point count
    const ServeReply err = decode_reply(conn.recv_reply());
    EXPECT_EQ(err.kind, ServeReply::Kind::kError);
    EXPECT_NE(err.error.find("count at offset 1"), std::string::npos)
        << err.error;

    // The framing stayed intact, so the connection is still usable.
    conn.send_bytes(encode_frame(bare_request(ServeRequest::Kind::kPing)));
    EXPECT_EQ(decode_reply(conn.recv_reply()).kind, ServeReply::Kind::kPong);
    server.stop();
}

TEST(ServeServer, BadRequestShapeGetsPreciseError)
{
    const std::string dir = fresh_dir("badreq");
    const ServeConfig cfg = server_config(dir);
    ServeServer server(cfg);
    server.start();

    RawConn conn(cfg.socket_path);
    conn.send_bytes(encode_frame(sweep_payload({{'z', 'z'}})));
    const ServeReply err = decode_reply(conn.recv_reply());
    EXPECT_EQ(err.kind, ServeReply::Kind::kError);
    EXPECT_NE(err.error.find("points[0]"), std::string::npos) << err.error;
    server.stop();
}

} // namespace
} // namespace catnap
