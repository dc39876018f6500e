#include "sim/report.h"

#include <fstream>
#include <limits>
#include <ostream>

#include "common/log.h"

namespace catnap {

namespace {

/** Significant digits of every CSV double: enough that parsing the
 * text gives back the exact bits. */
constexpr int kCsvDigits = std::numeric_limits<double>::max_digits10;

} // namespace

void
write_csv(std::ostream &os, const std::vector<SyntheticResult> &rows)
{
    os << "config,load,offered,accepted,avg_latency,net_latency,"
          "p50_latency,p99_latency,csc_percent,vdd,power_total,"
          "power_static,power_buffer,power_crossbar,power_control,"
          "power_clock,power_link,power_ni,power_ornet,"
          "measured_packets,drained,retransmits,dropped_packets\n";
    const std::streamsize old = os.precision(kCsvDigits);
    for (const auto &r : rows) {
        os << r.config_label << ',' << r.offered_load << ','
           << r.offered_rate << ',' << r.accepted_rate << ','
           << r.avg_latency << ',' << r.avg_net_latency << ','
           << r.p50_latency << ',' << r.p99_latency << ','
           << r.csc_percent << ',' << r.vdd << ',' << r.power.total()
           << ',' << r.power_static.total() << ',' << r.power.buffer
           << ',' << r.power.crossbar << ',' << r.power.control << ','
           << r.power.clock << ',' << r.power.link << ',' << r.power.ni
           << ',' << r.power.or_net << ',' << r.measured_packets << ','
           << (r.drained ? 1 : 0) << ',' << r.retransmits << ','
           << r.dropped_packets << '\n';
    }
    os.precision(old);
}

void
write_csv(std::ostream &os, const std::vector<AppRunResult> &rows)
{
    os << "config,workload,ipc,avg_latency,csc_percent,vdd,power_total,"
          "power_static\n";
    const std::streamsize old = os.precision(kCsvDigits);
    for (const auto &r : rows) {
        os << r.config_label << ',' << r.workload << ',' << r.ipc << ','
           << r.avg_latency << ',' << r.csc_percent << ',' << r.vdd
           << ',' << r.power.total() << ',' << r.power_static.total()
           << '\n';
    }
    os.precision(old);
}

namespace {

template <typename Rows>
void
save_impl(const std::string &path, const Rows &rows)
{
    std::ofstream os(path);
    if (!os)
        CATNAP_FATAL("cannot open CSV file for writing: ", path);
    write_csv(os, rows);
    if (!os)
        CATNAP_FATAL("failed writing CSV file: ", path);
}

} // namespace

void
save_csv(const std::string &path, const std::vector<SyntheticResult> &rows)
{
    save_impl(path, rows);
}

void
save_csv(const std::string &path, const std::vector<AppRunResult> &rows)
{
    save_impl(path, rows);
}

} // namespace catnap
