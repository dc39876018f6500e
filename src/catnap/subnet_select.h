/**
 * @file
 * Subnet-selection policies (Section 3.2). The NI consults the policy
 * every cycle for the packet at the head of its injection queue until
 * the packet is assigned to a subnet's injection slot.
 */
#ifndef CATNAP_CATNAP_SUBNET_SELECT_H
#define CATNAP_CATNAP_SUBNET_SELECT_H

#include <memory>
#include <vector>

#include "common/phase.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/health.h"
#include "noc/flit.h"
#include "obs/event.h"

namespace catnap {

class CongestionState;

/** Available subnet-selection policies. */
enum class SelectorKind : int {
    kRoundRobin = 0, ///< rotate across subnets (baseline)
    kRandom = 1,     ///< uniform random subnet (baseline)
    kCatnap = 2,     ///< strict priority, skip congested (the paper's policy)
    /**
     * Message-class specialization in the style of CCNoC [29]: class c
     * always rides subnet c % N. The paper argues (Section 7.2) that
     * this causes load imbalance across subnets and interferes with
     * power gating; the abl_class_partition bench quantifies it.
     */
    kClassPartition = 3,
};

/** Human-readable selector name. */
const char *selector_kind_name(SelectorKind k);

/**
 * Chooses the subnet a packet is injected into. One selector instance
 * serves all nodes (it keeps per-node state internally), so policies can
 * also be implemented with global knowledge if desired.
 */
class SubnetSelector
{
  public:
    virtual ~SubnetSelector() = default;

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    /**
     * Picks a subnet for the packet at the head of @p node's NI queue.
     *
     * @param node the injecting node
     * @param pkt the packet to place
     * @param slot_free slot_free[s] is true iff subnet s's injection slot
     *        is idle (a packet can only start streaming into a free slot)
     * @param backlog_flits injection pressure at this NI: flits waiting
     *        in the bounded NI queue, saturated upward when the
     *        source-side stash is also non-empty
     * @param now current cycle
     * @return the chosen subnet, or kNoSubnet to wait this cycle
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual SubnetId
    select(NodeId node, const PacketDesc &pkt,
           const std::vector<bool> &slot_free, int backlog_flits,
           Cycle now) = 0;

    /**
     * Attaches the fault model's per-subnet health mask (src/fault).
     * Every policy skips unhealthy subnets; with no mask attached (the
     * no-fault configuration) nothing changes. Not owned.
     */
    void set_health(const HealthMask *health) { health_ = health; }

  protected:
    /** True when subnet @p s may carry traffic. */
    bool
    subnet_ok(SubnetId s) const
    {
        return health_ == nullptr || health_->healthy(s);
    }

    EventSink *sink_ = nullptr;
    const HealthMask *health_ = nullptr;
};

/** Rotates across subnets per node, skipping busy slots. */
class RoundRobinSelector final : public SubnetSelector
{
  public:
    RoundRobinSelector(int num_nodes, int num_subnets);

    SubnetId select(NodeId node, const PacketDesc &pkt,
                    const std::vector<bool> &slot_free, int backlog_flits,
                    Cycle now) override;

  private:
    int num_subnets_;
    std::vector<int> next_; // per node
};

/** Picks a uniformly random free slot. */
class RandomSelector final : public SubnetSelector
{
  public:
    RandomSelector(int num_subnets, Rng rng);

    SubnetId select(NodeId node, const PacketDesc &pkt,
                    const std::vector<bool> &slot_free, int backlog_flits,
                    Cycle now) override;

  private:
    int num_subnets_;
    Rng rng_;
};

/**
 * The Catnap policy (Section 3.2): strict priority ordering — inject
 * into the lowest-order subnet whose congestion signal (LCS || RCS) is
 * clear; when every subnet is congested, fall back to round-robin across
 * them so load spreads evenly during saturation.
 *
 * When the preferred subnet's injection port is busy streaming a
 * previous packet, the packet waits unless the NI queue is backing up
 * past spill_threshold flits: a short wait preserves the idleness of
 * higher-order subnets at low load, while sustained pressure (a burst)
 * spills upward immediately, which is what lets a node exceed one
 * subnet's injection bandwidth during bursts (Figure 12).
 */
class CatnapSelector final : public SubnetSelector
{
  public:
    /**
     * @param num_nodes nodes in the mesh
     * @param num_subnets subnets available
     * @param congestion congestion signals (not owned; must outlive this)
     * @param spill_threshold NI backlog (flits) beyond which a busy
     *        preferred slot is treated as local congestion
     */
    CatnapSelector(int num_nodes, int num_subnets,
                   const CongestionState *congestion,
                   int spill_threshold = 8);

    SubnetId select(NodeId node, const PacketDesc &pkt,
                    const std::vector<bool> &slot_free, int backlog_flits,
                    Cycle now) override;

  private:
    int num_subnets_;
    const CongestionState *congestion_;
    int spill_threshold_;
    std::vector<int> rr_next_; // per node, used when all congested
};

/** Statically maps message classes to subnets (CCNoC-style [29]). */
class ClassPartitionSelector final : public SubnetSelector
{
  public:
    explicit ClassPartitionSelector(int num_subnets);

    SubnetId select(NodeId node, const PacketDesc &pkt,
                    const std::vector<bool> &slot_free, int backlog_flits,
                    Cycle now) override;

  private:
    int num_subnets_;
};

/**
 * Factory for the selector matching @p kind.
 *
 * @param spill_threshold Catnap only: NI backlog (flits) beyond which a
 *        busy preferred slot counts as local congestion; pass the NI
 *        queue capacity minus one so spilling starts when the queue is
 *        full
 */
std::unique_ptr<SubnetSelector>
make_selector(SelectorKind kind, int num_nodes, int num_subnets,
              const CongestionState *congestion, Rng rng,
              int spill_threshold = 15);

} // namespace catnap

#endif // CATNAP_CATNAP_SUBNET_SELECT_H
