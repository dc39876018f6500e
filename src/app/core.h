/**
 * @file
 * Statistical core model: a 2-wide core that retires instructions and
 * issues network-bound memory requests at its benchmark's MPKI, limited
 * by its memory-level parallelism (and the 32 MSHRs of Table 1). The
 * core stalls when its outstanding-miss limit is reached, which is what
 * couples system performance to network latency and throughput.
 *
 * Phase behaviour: the core alternates quiet (compute) and busy (memory)
 * phases with geometrically distributed lengths, reproducing the bursty
 * traffic the paper's motivation relies on [10, 22].
 */
#ifndef CATNAP_APP_CORE_H
#define CATNAP_APP_CORE_H

#include <cstdint>
#include <deque>

#include "app/workload.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/phase.h"

namespace catnap {

/**
 * One synthetic core. The owner (CmpSystem) calls tick() every cycle
 * and completes misses when response packets arrive.
 */
class CoreModel
{
  public:
    /**
     * @param id global core index
     * @param profile the benchmark this core runs
     * @param rng per-core random stream
     * @param issue_width instructions retired per unstalled cycle
     * @param mshrs hardware bound on outstanding misses (Table 1: 32)
     */
    CoreModel(CoreId id, const BenchmarkProfile &profile, Rng rng,
              int issue_width = 2, int mshrs = 32,
              double frontend_efficiency = 0.6, int rob_size = 64);

    /**
     * Advances one cycle: retires instructions and reports how many new
     * misses to issue (0, 1, or 2 with a 2-wide core). The caller turns
     * each reported miss into network traffic and later calls
     * complete_miss().
     */
    int tick(Cycle now);

    /** A previously issued miss's data response arrived. */
    void complete_miss();

    /** Instructions retired so far. */
    std::uint64_t retired() const { return retired_; }

    /** Misses currently outstanding. */
    int outstanding() const { return outstanding_; }

    /** True if the core is currently in its quiet (compute) phase. */
    bool in_quiet_phase() const { return quiet_; }

    /** The profile this core runs. */
    const BenchmarkProfile &profile() const { return profile_; }

    CoreId id() const { return id_; }

  private:
    CATNAP_PHASE_WRITE void enter_phase(Cycle now, bool quiet);
    CATNAP_PHASE_WRITE void draw_gap();

    CoreId id_;
    BenchmarkProfile profile_;
    Rng rng_;
    int issue_width_;
    int max_outstanding_;
    /** Probability the front end supplies a full issue group this cycle;
     * models fetch/branch/dependency stalls so sustained IPC is
     * issue_width * efficiency (~1.2 for the paper's 2-wide cores). */
    double frontend_efficiency_;

    /** 64-entry instruction window (Table 1): the core retires at most
     * rob_size_ instructions past the oldest outstanding miss before it
     * must stall, which is what makes long miss latencies visible even
     * at low miss rates. */
    int rob_size_;

    std::uint64_t retired_ = 0;
    int outstanding_ = 0;
    /** Instructions remaining before the next miss. */
    std::uint64_t gap_ = 0;
    /** retired_ values at which outstanding misses were issued. */
    std::deque<std::uint64_t> miss_issue_points_;

    bool quiet_ = true;
    Cycle phase_end_ = 0;
    double mpki_quiet_;
    double mpki_busy_;
};

} // namespace catnap

#endif // CATNAP_APP_CORE_H
