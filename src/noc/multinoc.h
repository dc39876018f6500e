/**
 * @file
 * The Multi-NoC: N parallel subnets over one topology, one NI per node
 * shared by all subnets (Figure 3), plus the Catnap policy machinery
 * (congestion detection, subnet selection, power gating).
 *
 * A Single-NoC is simply a MultiNoc with num_subnets == 1.
 */
#ifndef CATNAP_NOC_MULTINOC_H
#define CATNAP_NOC_MULTINOC_H

#include <memory>
#include <string>
#include <vector>

#include "catnap/congestion.h"
#include "catnap/gating.h"
#include "catnap/subnet_select.h"
#include "common/phase.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "noc/metrics.h"
#include "noc/nic.h"
#include "noc/params.h"
#include "noc/router.h"
#include "topology/topology.h"

namespace catnap {

/** Full configuration of a Multi-NoC instance. */
struct MultiNocConfig
{
    // Topology (defaults: the paper's 256-core 8x8 concentrated mesh).
    int mesh_width = 8;
    int mesh_height = 8;
    int concentration = 4;
    int region_width = 4;
    /**
     * Concentrated torus instead of mesh (wrap-around links). Requires
     * an even number of VCs per message class for the dateline pairs.
     */
    bool torus = false;

    /** Number of subnets (1 == Single-NoC). */
    int num_subnets = 4;

    /**
     * Aggregate datapath width in bits, kept constant across designs for
     * fair comparisons (Section 2.3). Each subnet gets
     * total_link_bits / num_subnets wires.
     */
    int total_link_bits = 512;

    /**
     * Aggregate buffer space: VCs * depth * flit-width is constant
     * because the per-subnet flit shrinks with the subnet width while
     * depth-in-flits stays fixed (Section 2.3).
     */
    int num_vcs = 4;
    int vc_depth_flits = 4;
    int num_classes = 1;

    /** NI injection queue capacity in flits (Section 4.1: 16). */
    int ni_queue_flits = 16;

    // Policies.
    SelectorKind selector = SelectorKind::kCatnap;
    GatingKind gating = GatingKind::kAlwaysOn;
    CongestionConfig congestion;

    // Timing knobs forwarded into SubnetParams.
    int t_wakeup = 10;
    int wakeup_hidden = 3;
    int t_breakeven = 12;
    int t_idle_detect = 4;

    std::uint64_t seed = 1;

    /**
     * Fault-injection plan (DESIGN.md §10). An empty plan (the default)
     * leaves the fault machinery entirely unconstructed, so fault-free
     * runs are bit-identical to builds that predate it.
     */
    FaultPlan fault;

    /** Per-subnet link width. */
    int subnet_link_bits() const { return total_link_bits / num_subnets; }

    /** Short config label such as "4NT-128b-PG" (Section 6.1 naming). */
    std::string label() const;
};

/** Returns the paper's Single-NoC configuration (1NT, @p bits wide). */
MultiNocConfig single_noc_config(int bits = 512,
                                 GatingKind gating = GatingKind::kAlwaysOn);

/**
 * Returns the paper's Multi-NoC configuration: @p subnets subnets over a
 * 512-bit aggregate datapath, with the Catnap selector; gating and
 * selector can be overridden for the baselines.
 */
MultiNocConfig multi_noc_config(int subnets = 4,
                                GatingKind gating = GatingKind::kAlwaysOn,
                                SelectorKind selector = SelectorKind::kCatnap);

/**
 * A complete multiple network-on-chip instance: topology, subnets,
 * network interfaces, congestion detection, and policies. Drive it by
 * offering packets to NIs and calling tick().
 */
class InvariantChecker;
class FaultController;

class MultiNoc
{
  public:
    explicit MultiNoc(const MultiNocConfig &cfg);
    ~MultiNoc();

    /** Advances the network by one cycle (evaluate/commit/policy). */
    CATNAP_PHASE_WRITE void tick();

    /**
     * Attaches a trace-event sink to every component (routers, NIs, the
     * congestion detector, and the subnet selector). Pass null to
     * detach; with no sink attached tracing costs one untaken branch
     * per potential event.
     */
    void set_event_sink(EventSink *sink);

    /** The attached trace-event sink, or null. */
    EventSink *event_sink() const { return sink_; }

    /** Current cycle (number of completed ticks). */
    Cycle now() const { return now_; }

    /** Convenience: offer a packet at its source NI. A declared
     * barrier crossing: traffic drivers run in the serialised
     * commit/drive section and stage packets into the NI's queues. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    offer_packet(const PacketDesc &pkt)
    {
        ni(pkt.src).offer_packet(pkt);
    }

    /** Runs the network for @p cycles cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            tick();
    }

    /** True when no packet is queued, streaming, or in flight anywhere. */
    bool quiescent() const;

    // Accessors ------------------------------------------------------------
    const MultiNocConfig &config() const { return cfg_; }
    const ConcentratedMesh &mesh() const { return mesh_; }
    const SubnetParams &subnet_params() const { return subnet_params_; }

    NetworkInterface &ni(NodeId n) { return *nis_[static_cast<std::size_t>(n)]; }
    const NetworkInterface &ni(NodeId n) const
    {
        return *nis_[static_cast<std::size_t>(n)];
    }

    /**
     * Router @p n of subnet @p s. A router of a skipped subnet (DESIGN.md
     * §18) is first brought up to date, so its counters read exactly as
     * if every tick had visited it. While skipped it is asleep and
     * changes only through request_wakeup() / note_expected_packet(),
     * which end the skip before the next gating step. Settling is why
     * a read is a barrier entry point: call it between ticks or from
     * the serialised commit/policy section.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE Router &
    router(SubnetId s, NodeId n)
    {
        settle_skipped(s);
        return *routers_[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(n)];
    }
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE const Router &
    router(SubnetId s, NodeId n) const
    {
        settle_skipped(s);
        return *routers_[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(n)];
    }

    int num_subnets() const { return cfg_.num_subnets; }
    int num_nodes() const { return mesh_.num_nodes(); }

    NetMetrics &metrics() { return metrics_; }
    const NetMetrics &metrics() const { return metrics_; }

    const CongestionState &congestion() const { return congestion_; }
    CongestionState &congestion() { return congestion_; }

    /** Aggregated activity counters over all routers of subnet @p s. */
    ActivityCounters subnet_activity(SubnetId s) const;

    /** Aggregated activity counters over the whole network. */
    ActivityCounters total_activity() const;

    /** Fraction of router-cycles spent power gated, over subnet @p s. */
    double sleep_fraction(SubnetId s) const;

    /**
     * Compensated sleep cycles as a percentage of elapsed router-cycles
     * across the whole network (the paper's CSC metric, Section 6.1).
     */
    double csc_percent() const;

    /**
     * The noc.router_visits work counter: router-cycles whose policy
     * phase ran, summed over every tick so far. A tick visits every
     * router but those of skipped subnets (DESIGN.md §18), so without
     * a skip this is now() * subnets * nodes. It is deterministic, so
     * tests pin it exactly where they cannot pin wall clock.
     */
    std::uint64_t router_visits() const;

    /** Deterministic RNG stream derived from the config seed. */
    Rng make_rng() { return rng_.split(); }

    /**
     * The fault controller, or null when the configured FaultPlan is
     * empty (the common case).
     */
    FaultController *fault() { return fault_.get(); }
    const FaultController *fault() const { return fault_.get(); }

    /**
     * Folds still-open sleep periods into the CSC counters. Call before
     * reading csc_percent() / activity at the end of a measurement.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    finalize_accounting()
    {
        for (SubnetId s = 0; s < cfg_.num_subnets; ++s)
            settle_skipped(s);
        for (auto &subnet : routers_) {
            for (auto &r : subnet) {
                r->flush_sleep_accounting(now_);
                r->flush_port_sleep_accounting(now_);
            }
        }
    }

  private:
    /** Adds the cycles subnet @p s skipped before now() to its routers'
     * counters (reads may come between ticks or inside one). */
    CATNAP_PHASE_WRITE void settle_skipped(SubnetId s) const;

    /** Adds @p commits commits and @p sleep_cycles policy phases to
     * every router of subnet @p s. */
    CATNAP_PHASE_WRITE void settle_subnet(std::size_t s, Cycle commits,
                                          Cycle sleep_cycles) const;

    /** Ends the skip of each subnet that got a wake note or whose
     * lower subnet raised LCS or RCS this cycle. */
    CATNAP_PHASE_WRITE void wake_skipped_subnets(Cycle now);

    /** Starts skipping each subnet s >= 1 whose routers are all
     * dormant and whose LCS and RCS bits are all clear. */
    CATNAP_PHASE_WRITE void skip_dormant_subnets(Cycle now);

    MultiNocConfig cfg_;
    ConcentratedMesh mesh_;
    SubnetParams subnet_params_;
    NetMetrics metrics_;
    CongestionState congestion_;
    Rng rng_;

    std::vector<std::vector<std::unique_ptr<Router>>> routers_; // [s][n]
    std::vector<std::unique_ptr<NetworkInterface>> nis_;        // [n]
    std::unique_ptr<SubnetSelector> selector_;
    std::unique_ptr<GatingPolicy> gating_;
    std::unique_ptr<FaultController> fault_; // null when the plan is empty
    EventSink *sink_ = nullptr;

    /** Auto-installed invariant engine; non-null only when the build
     * enables CATNAP_CHECKS (the hook in tick() is compiled out
     * otherwise, so a normal build pays nothing). */
    std::unique_ptr<InvariantChecker> checker_;

    Cycle now_ = 0;

    // Skipping asleep subnets (DESIGN.md §18). The vectors hold one
    // entry per subnet and never grow after construction.
    bool skip_enabled_ = false;
    int num_skipped_ = 0;
    std::vector<std::uint8_t> skipped_;    ///< 1 while subnet s is skipped
    std::vector<std::uint8_t> skip_woken_; ///< raised by routers' wake notes
    /** First cycle of subnet s not yet added to its routers' counters;
     * kNoCycle while s is not skipped. Reads settle, hence mutable. */
    mutable std::vector<Cycle> skip_since_;
    /** Router-cycles settled rather than visited (router_visits()). */
    mutable std::uint64_t skipped_router_cycles_ = 0;
};

} // namespace catnap

#endif // CATNAP_NOC_MULTINOC_H
