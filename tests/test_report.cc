/**
 * @file
 * Tests for CSV export and the latency-percentile plumbing.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.h"

namespace catnap {
namespace {

std::vector<std::string>
lines_of(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

TEST(Report, SyntheticCsvShape)
{
    SyntheticResult r;
    r.config_label = "4NT-128b-PG";
    r.offered_load = 0.1;
    r.offered_rate = 0.099;
    r.accepted_rate = 0.098;
    r.avg_latency = 33.5;
    r.p50_latency = 30.0;
    r.p99_latency = 88.0;
    r.csc_percent = 42.0;
    r.vdd = 0.625;
    r.power.buffer = 5.0;
    r.power_static.buffer = 3.0;
    r.measured_packets = 1234;

    std::ostringstream os;
    write_csv(os, {r, r});
    EXPECT_EQ(os.precision(), 6); // the caller's precision is restored
    const auto lines = lines_of(os.str());
    ASSERT_EQ(lines.size(), 3u); // header + 2 rows
    EXPECT_NE(lines[0].find("config,load,"), std::string::npos);
    // Doubles carry max_digits10 (17) significant digits, so the text
    // parses back to the exact bits: 0.1 is 0.1000000000000000055...
    EXPECT_NE(lines[1].find("4NT-128b-PG,0.10000000000000001,"
                            "0.099000000000000005,"),
              std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find(",33.5,"), std::string::npos) << lines[1];
    EXPECT_EQ(lines[1], lines[2]);
    // Column count is stable (documented contract).
    const auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count_commas(lines[0]), count_commas(lines[1]));
    EXPECT_EQ(count_commas(lines[0]), 22);
    // The drain flag defaults to "completed".
    EXPECT_NE(lines[1].find(",1,0,0"), std::string::npos);
}

TEST(Report, AppCsvShape)
{
    AppRunResult r;
    r.config_label = "1NT-512b";
    r.workload = "Heavy";
    r.ipc = 0.77;
    r.csc_percent = 1.0;
    std::ostringstream os;
    write_csv(os, std::vector<AppRunResult>{r});
    const auto lines = lines_of(os.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("1NT-512b,Heavy,0.77000000000000002,"),
              std::string::npos)
        << lines[1];
}

TEST(Report, SaveCsvRejectsBadPath)
{
    EXPECT_THROW(save_csv("/nonexistent/dir/x.csv",
                          std::vector<SyntheticResult>{}),
                 std::runtime_error);
}

TEST(Report, PercentilesOrderedInRealRun)
{
    RunParams rp;
    rp.warmup = 500;
    rp.measure = 3000;
    SyntheticConfig traffic;
    traffic.load = 0.15;
    const auto r = run_synthetic(multi_noc_config(4), traffic, rp);
    EXPECT_GT(r.p50_latency, 0.0);
    EXPECT_LE(r.p50_latency, r.p99_latency);
    // The mean sits between the median and the tail for this skewed
    // distribution, and all are in a plausible range.
    EXPECT_GT(r.p99_latency, r.avg_latency);
    EXPECT_LT(r.p99_latency, 500.0);
}

} // namespace
} // namespace catnap
