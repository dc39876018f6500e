#include "catnap/congestion.h"

#include "common/log.h"
#include "noc/nic.h"
#include "noc/router.h"

namespace catnap {

const char *
congestion_metric_name(CongestionMetric m)
{
    switch (m) {
      case CongestionMetric::kBufferMax:     return "BFM";
      case CongestionMetric::kBufferAvg:     return "BFA";
      case CongestionMetric::kInjectionRate: return "IR";
      case CongestionMetric::kInjQueueOcc:   return "IQOcc";
      case CongestionMetric::kBlockingDelay: return "Delay";
    }
    return "?";
}

double
CongestionConfig::default_threshold(CongestionMetric m)
{
    // Best-performing thresholds reported in Section 4.1.
    switch (m) {
      case CongestionMetric::kBufferMax:     return 9.0;  // flits
      case CongestionMetric::kBufferAvg:     return 2.0;  // flits
      case CongestionMetric::kInjectionRate: return 0.12; // pkts/node/cy
      case CongestionMetric::kInjQueueOcc:   return 4.0;  // flits
      case CongestionMetric::kBlockingDelay: return 1.5;  // cycles
    }
    return 0.0;
}

CongestionState::CongestionState(const ConcentratedMesh &mesh,
                                 int num_subnets,
                                 const CongestionConfig &cfg)
    : mesh_(mesh), num_subnets_(num_subnets), cfg_(cfg)
{
    const auto total = static_cast<std::size_t>(num_subnets) *
                       static_cast<std::size_t>(mesh.num_nodes());
    samples_.resize(total);
    lcs_.assign(total, false);
    rcs_latched_.assign(static_cast<std::size_t>(num_subnets) *
                            static_cast<std::size_t>(mesh.num_regions()),
                        false);
}

void
CongestionState::attach(NodeId node, SubnetId s, const Router *router,
                        const NetworkInterface *ni)
{
    auto &ns = samples_[index(node, s)];
    ns.router = router;
    ns.ni = ni;
}

double
CongestionState::metric_value(NodeSample &ns, NodeId node, SubnetId s,
                              bool window_boundary)
{
    // Router-side metrics work without an NI attached (the model
    // checker's hand-wired world has none); NI-side metrics insist.
    switch (cfg_.metric) {
      case CongestionMetric::kBufferMax:
        return static_cast<double>(ns.router->max_port_occupancy());
      case CongestionMetric::kBufferAvg:
        return ns.router->avg_port_occupancy();
      case CongestionMetric::kInjQueueOcc:
        CATNAP_ASSERT(ns.ni, "IQOcc metric needs an NI at node ", node);
        return static_cast<double>(ns.ni->inj_queue_flits());
      case CongestionMetric::kInjectionRate: {
        CATNAP_ASSERT(ns.ni, "IR metric needs an NI at node ", node);
        if (window_boundary) {
            const std::uint64_t pkts = ns.ni->injected_packets(s);
            ns.last_window_value =
                static_cast<double>(pkts - ns.last_injected_pkts) /
                static_cast<double>(cfg_.window);
            ns.last_injected_pkts = pkts;
        }
        return ns.last_window_value;
      }
      case CongestionMetric::kBlockingDelay: {
        if (window_boundary) {
            const std::uint64_t blocked = ns.router->head_block_cycles();
            const std::uint64_t switched = ns.router->switched_flits();
            const std::uint64_t dblocked = blocked - ns.last_block_cycles;
            const std::uint64_t dswitched = switched - ns.last_switched;
            ns.last_window_value =
                dswitched > 0 ? static_cast<double>(dblocked) /
                                    static_cast<double>(dswitched)
                              : ns.last_window_value;
            ns.last_block_cycles = blocked;
            ns.last_switched = switched;
        }
        return ns.last_window_value;
      }
    }
    return 0.0;
}

void
CongestionState::update(Cycle now)
{
    const bool window_boundary =
        cfg_.window > 0 &&
        (now % static_cast<Cycle>(cfg_.window)) == 0;

    const int nodes = mesh_.num_nodes();
    for (SubnetId s = 0; s < num_subnets_; ++s) {
        for (NodeId n = 0; n < nodes; ++n) {
            const auto idx = index(n, s);
            auto &ns = samples_[idx];
            CATNAP_ASSERT(ns.router,
                          "congestion sample not attached for node ", n,
                          " subnet ", s);
            const double v = metric_value(ns, n, s, window_boundary);
            if (v > cfg_.threshold) {
                if (sink_ && !lcs_[idx])
                    sink_->on_event(
                        {now, EventKind::kLcsSet, n, s, 0, 0, 0});
                lcs_[idx] = true;
                ns.lcs_set_until = now + static_cast<Cycle>(cfg_.lcs_hold);
            } else if (now >= ns.lcs_set_until) {
                if (sink_ && lcs_[idx])
                    sink_->on_event(
                        {now, EventKind::kLcsClear, n, s, 0, 0, 0});
                lcs_[idx] = false;
            }
        }
    }

    // The OR network latches the regional status every rcs_period cycles
    // (the H-tree propagation delay measured by SPICE, Section 4.1).
    if ((now % static_cast<Cycle>(cfg_.rcs_period)) == 0) {
        ++rcs_latch_events_;
        for (SubnetId s = 0; s < num_subnets_; ++s) {
            for (int r = 0; r < mesh_.num_regions(); ++r) {
                bool any = false;
                for (NodeId n : mesh_.nodes_in_region(r)) {
                    if (lcs_[index(n, s)]) {
                        any = true;
                        break;
                    }
                }
                const auto ridx = region_index(r, s);
                if (rcs_latched_[ridx] != any) {
                    ++rcs_transitions_;
                    rcs_latched_[ridx] = any;
                    if (sink_)
                        sink_->on_event({now,
                                         any ? EventKind::kRcsSet
                                             : EventKind::kRcsClear,
                                         r, s, 0, 0, 0});
                }
            }
        }
    }
}

void
CongestionState::glitch_rcs_for_fault(int region, SubnetId s, Cycle now)
{
    const auto ridx = region_index(region, s);
    const bool flipped = !rcs_latched_[ridx];
    rcs_latched_[ridx] = flipped;
    ++rcs_transitions_;
    if (sink_)
        sink_->on_event({now,
                         flipped ? EventKind::kRcsSet : EventKind::kRcsClear,
                         region, s, 0, 0, 0});
}

} // namespace catnap
