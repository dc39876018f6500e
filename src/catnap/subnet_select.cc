#include "catnap/subnet_select.h"

#include "catnap/congestion.h"
#include "common/log.h"

namespace catnap {

const char *
selector_kind_name(SelectorKind k)
{
    switch (k) {
      case SelectorKind::kRoundRobin: return "RoundRobin";
      case SelectorKind::kRandom:     return "Random";
      case SelectorKind::kCatnap:     return "Catnap";
      case SelectorKind::kClassPartition: return "ClassPartition";
    }
    return "?";
}

RoundRobinSelector::RoundRobinSelector(int num_nodes, int num_subnets)
    : num_subnets_(num_subnets),
      next_(static_cast<std::size_t>(num_nodes), 0)
{
}

SubnetId
RoundRobinSelector::select(NodeId node, const PacketDesc &pkt,
                           const std::vector<bool> &slot_free,
                           int backlog_flits, Cycle now)
{
    (void)pkt;
    (void)backlog_flits;
    (void)now;
    int &ptr = next_[static_cast<std::size_t>(node)];
    for (int i = 0; i < num_subnets_; ++i) {
        const int s = (ptr + i) % num_subnets_;
        if (!subnet_ok(s))
            continue;
        if (slot_free[static_cast<std::size_t>(s)]) {
            ptr = (s + 1) % num_subnets_;
            return s;
        }
    }
    return kNoSubnet;
}

RandomSelector::RandomSelector(int num_subnets, Rng rng)
    : num_subnets_(num_subnets), rng_(rng)
{
}

SubnetId
RandomSelector::select(NodeId node, const PacketDesc &pkt,
                       const std::vector<bool> &slot_free,
                       int backlog_flits, Cycle now)
{
    (void)node;
    (void)pkt;
    (void)backlog_flits;
    (void)now;
    int free_count = 0;
    for (int s = 0; s < num_subnets_; ++s)
        if (subnet_ok(s) && slot_free[static_cast<std::size_t>(s)])
            ++free_count;
    if (free_count == 0)
        return kNoSubnet;
    int pick = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(free_count)));
    for (int s = 0; s < num_subnets_; ++s) {
        if (!subnet_ok(s) || !slot_free[static_cast<std::size_t>(s)])
            continue;
        if (pick-- == 0)
            return s;
    }
    return kNoSubnet;
}

CatnapSelector::CatnapSelector(int num_nodes, int num_subnets,
                               const CongestionState *congestion,
                               int spill_threshold)
    : num_subnets_(num_subnets), congestion_(congestion),
      spill_threshold_(spill_threshold),
      rr_next_(static_cast<std::size_t>(num_nodes), 0)
{
    CATNAP_ASSERT(congestion_ != nullptr,
                  "Catnap selector requires a congestion detector");
}

SubnetId
CatnapSelector::select(NodeId node, const PacketDesc &pkt,
                       const std::vector<bool> &slot_free,
                       int backlog_flits, Cycle now)
{
    // Strict priority: inject into the lowest-order subnet whose
    // congestion signal is clear. If that subnet's injection port is
    // still streaming a previous packet, wait -- unless the NI backlog
    // shows sustained pressure, in which case the occupied port is
    // treated as local congestion and the packet moves up a subnet.
    const bool pressured = backlog_flits > spill_threshold_;
    bool spilled = false; // a skipped lower subnet was merely busy
    for (int s = 0; s < num_subnets_; ++s) {
        if (!subnet_ok(s))
            continue; // failed subnets are invisible to the priority order
        if (!congestion_->congested(node, s)) {
            if (slot_free[static_cast<std::size_t>(s)]) {
                if (sink_ && s > 0)
                    sink_->on_event({now, EventKind::kEscalation, node, s,
                                     s, spilled ? 1 : 0, pkt.id});
                return s;
            }
            if (!pressured)
                return kNoSubnet;
            spilled = true;
            continue;
        }
    }
    // Everything is congested: round-robin across free slots so load
    // spreads evenly at saturation (Section 3.2).
    int &ptr = rr_next_[static_cast<std::size_t>(node)];
    for (int i = 0; i < num_subnets_; ++i) {
        const int s = (ptr + i) % num_subnets_;
        if (!subnet_ok(s))
            continue;
        if (slot_free[static_cast<std::size_t>(s)]) {
            ptr = (s + 1) % num_subnets_;
            if (sink_)
                sink_->on_event({now, EventKind::kEscalation, node, s,
                                 num_subnets_, 2, pkt.id});
            return s;
        }
    }
    return kNoSubnet;
}

ClassPartitionSelector::ClassPartitionSelector(int num_subnets)
    : num_subnets_(num_subnets)
{
}

SubnetId
ClassPartitionSelector::select(NodeId node, const PacketDesc &pkt,
                               const std::vector<bool> &slot_free,
                               int backlog_flits, Cycle now)
{
    (void)node;
    (void)backlog_flits;
    (void)now;
    // A failed home subnet remaps the class to the next healthy one up
    // (wrapping), keeping the static affinity as close as possible.
    const int home = static_cast<int>(pkt.mc) % num_subnets_;
    for (int i = 0; i < num_subnets_; ++i) {
        const int s = (home + i) % num_subnets_;
        if (!subnet_ok(s))
            continue;
        return slot_free[static_cast<std::size_t>(s)] ? s : kNoSubnet;
    }
    return kNoSubnet;
}

std::unique_ptr<SubnetSelector>
make_selector(SelectorKind kind, int num_nodes, int num_subnets,
              const CongestionState *congestion, Rng rng,
              int spill_threshold)
{
    switch (kind) {
      case SelectorKind::kRoundRobin:
        return std::make_unique<RoundRobinSelector>(num_nodes, num_subnets);
      case SelectorKind::kRandom:
        return std::make_unique<RandomSelector>(num_subnets, rng);
      case SelectorKind::kCatnap:
        return std::make_unique<CatnapSelector>(num_nodes, num_subnets,
                                                congestion,
                                                spill_threshold);
      case SelectorKind::kClassPartition:
        return std::make_unique<ClassPartitionSelector>(num_subnets);
    }
    CATNAP_PANIC("unknown selector kind");
}

} // namespace catnap
