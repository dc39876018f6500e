/**
 * @file
 * The full 256-core CMP model: cores + shared-L2/directory message
 * generation + memory controllers, closed-loop over a MultiNoc
 * (Section 4.1, Table 1).
 *
 * Protocol model (a statistical 4-hop MESI directory protocol): every
 * core miss issues a 72-bit request to its home L2 slice (address-
 * interleaved across all nodes). The home responds after the L2 bank
 * latency with one of three paths, drawn at issue time from the core's
 * profile:
 *   - L2 hit, 2-hop: home sends the 584-bit data straight back;
 *   - L2 hit, 4-hop (forwarded): home sends a 72-bit forward to the
 *     owner tile, which sends the data to the requester;
 *   - L2 miss, 3-hop: home sends a 72-bit fill request to one of the
 *     8 memory controllers; the MC replies with data after the DRAM
 *     latency and channel-service queuing.
 * Dirty evictions additionally write 584-bit blocks back to the home.
 *
 * Message classes map onto disjoint VC partitions (request / forward /
 * data / writeback), giving protocol-level deadlock freedom exactly as
 * Section 2.3 describes.
 */
#ifndef CATNAP_APP_SYSTEM_H
#define CATNAP_APP_SYSTEM_H

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "app/core.h"
#include "app/workload.h"
#include "noc/multinoc.h"
#include "power/power_meter.h"
#include "common/phase.h"

namespace catnap {

/** Non-network parameters of the CMP model (defaults per Table 1). */
struct SystemParams
{
    int issue_width = 2;
    int mshrs = 32;
    /** Instruction window size (Table 1: 64-entry). */
    int rob_size = 64;
    /** Front-end efficiency of the core model (see CoreModel). */
    double frontend_efficiency = 0.6;
    /** L2 bank access latency, cycles. */
    int l2_latency = 6;
    /** DRAM access latency, cycles. */
    int mem_latency = 80;
    /** Cycles between successive accesses one MC can start (4 DDR
     * channels per MC; generous so the network, not DRAM, is the
     * studied bottleneck -- see DESIGN.md). */
    int mc_service_interval = 1;
    /** Fraction of misses whose eviction writes a dirty block back. */
    double writeback_fraction = 0.3;
    /** Fraction of L2-hit misses serviced by a 4-hop forward. */
    double forward_fraction = 0.25;
    /** Control packet size: 72-bit header (Section 4.1). */
    int ctrl_bits = 72;
    /** Data packet size: 64-byte block + 72-bit header. */
    int data_bits = 64 * 8 + 72;

    std::uint64_t seed = 2024;
};

/**
 * The closed-loop CMP. Construct, then run(); performance comes from
 * retired instructions, network behaviour from the embedded MultiNoc.
 */
class CmpSystem
{
  public:
    /**
     * @param net_cfg network configuration (num_classes is forced to 4)
     * @param mix the multiprogrammed workload (one instance per core)
     * @param params non-network system parameters
     */
    CmpSystem(const MultiNocConfig &net_cfg, const WorkloadMix &mix,
              const SystemParams &params = SystemParams());

    /** Advances cores, protocol events, and the network by one cycle. */
    void tick();

    /** Runs for @p cycles cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            tick();
    }

    /** Aggregate instructions retired by all cores. */
    std::uint64_t total_retired() const;

    /** System IPC per core since construction. */
    double
    system_ipc() const
    {
        return net_->now() == 0
                   ? 0.0
                   : static_cast<double>(total_retired()) /
                         static_cast<double>(net_->now()) /
                         static_cast<double>(cores_.size());
    }

    /** The embedded network. */
    MultiNoc &net() { return *net_; }
    const MultiNoc &net() const { return *net_; }

    /** Core @p c (for tests). */
    const CoreModel &core(int c) const { return *cores_[static_cast<std::size_t>(c)]; }

    /** Memory-controller node placements. */
    const std::vector<NodeId> &mc_nodes() const { return mc_nodes_; }

    /** Misses issued / completed (for tests). */
    std::uint64_t misses_issued() const { return misses_issued_; }
    std::uint64_t misses_completed() const { return misses_completed_; }

  private:
    /** Message kinds carried in the packet user tag. */
    enum class Kind : std::uint8_t {
        kReqDirect = 0, ///< request; home replies with data
        kReqFwd = 1,    ///< request; home forwards to an owner
        kReqMem = 2,    ///< request; home fills from a memory controller
        kFwd = 3,       ///< home -> owner forward
        kMemFill = 4,   ///< home -> MC fill request
        kData = 5,      ///< data response -> requester
        kDataFwd = 6,   ///< data from an owner; requester must unblock
        kUnblock = 7,   ///< requester -> home, closes a 4-hop transaction
        kWriteback = 8, ///< dirty block -> home, no reply
    };

    struct Tag
    {
        Kind kind;
        CoreId core;      ///< requesting core
        NodeId aux;       ///< owner node / MC node, kind-dependent
    };

    static std::uint64_t pack(Tag t);
    static Tag unpack(std::uint64_t user);

    struct DeferredSend
    {
        Cycle ready;
        PacketDesc pkt;
        /** Total order (packet ids are unique): heap pop order is then a
         * pure function of the queue's contents. */
        bool
        operator>(const DeferredSend &o) const
        {
            if (ready != o.ready)
                return ready > o.ready;
            return pkt.id > o.pkt.id;
        }
    };

    CATNAP_PHASE_WRITE void issue_miss(CoreId core, Cycle now);
    void on_packet(NodeId at, const Flit &tail, Cycle now);
    void send_later(Cycle ready, PacketDesc pkt);
    CATNAP_PHASE_WRITE void flush_sends(Cycle now);
    CATNAP_PHASE_WRITE PacketDesc make_packet(NodeId src, NodeId dst,
                                              MessageClass mc,
                           int bits, Cycle now, Tag tag);

    MultiNocConfig cfg_;
    SystemParams params_;
    std::unique_ptr<MultiNoc> net_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::vector<NodeId> mc_nodes_;
    std::vector<Cycle> mc_next_free_;
    Rng rng_;
    PacketId next_pkt_ = 1;
    std::uint64_t misses_issued_ = 0;
    std::uint64_t misses_completed_ = 0;
    std::priority_queue<DeferredSend, std::vector<DeferredSend>,
                        std::greater<>> pending_;
};

/** Phase lengths and options for one application-workload experiment. */
struct AppRunParams
{
    Cycle warmup = 5000;
    Cycle measure = 20000;
    bool voltage_scaling = true;
    std::uint64_t seed = 2024;
};

/** Results of one application-workload run (one bar of Figure 8). */
struct AppRunResult
{
    std::string config_label;
    std::string workload;
    double ipc = 0.0;           ///< per-core IPC over the window
    double avg_latency = 0.0;   ///< packet latency, cycles
    double csc_percent = 0.0;
    double vdd = 0.0;
    PowerBreakdown power;
    PowerBreakdown power_static;
};

/** Runs @p mix on @p net_cfg and reports Figure 8/9-style metrics. */
AppRunResult run_app_workload(const MultiNocConfig &net_cfg,
                              const WorkloadMix &mix,
                              const AppRunParams &params,
                              const SystemParams &sys = SystemParams());

} // namespace catnap

#endif // CATNAP_APP_SYSTEM_H
