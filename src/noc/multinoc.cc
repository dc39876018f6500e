#include "noc/multinoc.h"

#include <sstream>

#include "check/invariants.h"
#include "common/log.h"
#include "fault/fault.h"
#include "obs/trace_buffer.h"

namespace catnap {

std::string
MultiNocConfig::label() const
{
    std::ostringstream os;
    os << num_subnets << "NT-" << subnet_link_bits() << "b";
    if (gating == GatingKind::kFinePort)
        os << "-PPG"; // per-port power gating
    else if (gating != GatingKind::kAlwaysOn)
        os << "-PG";
    return os.str();
}

MultiNocConfig
single_noc_config(int bits, GatingKind gating)
{
    MultiNocConfig cfg;
    cfg.num_subnets = 1;
    cfg.total_link_bits = bits;
    cfg.selector = SelectorKind::kRoundRobin; // degenerate with 1 subnet
    // Single-NoC gating uses the Matsutani-style policy (Section 6.1);
    // Catnap's RCS conditions do not apply to a single network. Fine
    // per-port gating is kept as requested.
    cfg.gating = (gating == GatingKind::kCatnap) ? GatingKind::kIdle : gating;
    return cfg;
}

MultiNocConfig
multi_noc_config(int subnets, GatingKind gating, SelectorKind selector)
{
    MultiNocConfig cfg;
    cfg.num_subnets = subnets;
    cfg.total_link_bits = 512;
    cfg.selector = selector;
    cfg.gating = gating;
    return cfg;
}

MultiNoc::MultiNoc(const MultiNocConfig &cfg)
    : cfg_(cfg),
      mesh_(cfg.mesh_width, cfg.mesh_height, cfg.concentration,
            cfg.region_width, cfg.torus),
      subnet_params_(),
      metrics_(cfg.num_subnets),
      congestion_(mesh_, cfg.num_subnets, cfg.congestion),
      rng_(cfg.seed)
{
    CATNAP_ASSERT(cfg.num_subnets >= 1, "need at least one subnet");
    CATNAP_ASSERT(cfg.total_link_bits % cfg.num_subnets == 0,
                  "aggregate width must split evenly across subnets");
    CATNAP_ASSERT(!cfg.torus ||
                      (cfg.num_vcs / cfg.num_classes) % 2 == 0,
                  "torus needs an even number of VCs per class for the"
                  " dateline pairs");
    CATNAP_ASSERT(cfg.num_vcs >= 1 && cfg.num_vcs <= Router::kMaxVcs,
                  "num_vcs must be in [1, ", Router::kMaxVcs, "]: the"
                  " routers' allocation request mask has one bit per"
                  " (port, VC) in 64 bits; got ", cfg.num_vcs);

    subnet_params_.link_width_bits = cfg.subnet_link_bits();
    subnet_params_.num_vcs = cfg.num_vcs;
    subnet_params_.vc_depth_flits = cfg.vc_depth_flits;
    subnet_params_.num_classes = cfg.num_classes;
    subnet_params_.t_wakeup = cfg.t_wakeup;
    subnet_params_.wakeup_hidden = cfg.wakeup_hidden;
    subnet_params_.t_breakeven = cfg.t_breakeven;
    subnet_params_.t_idle_detect = cfg.t_idle_detect;
    subnet_params_.port_gating = cfg.gating == GatingKind::kFinePort;

    const int nodes = mesh_.num_nodes();

    // Build routers, subnet by subnet, and wire the mesh links.
    routers_.resize(static_cast<std::size_t>(cfg.num_subnets));
    for (SubnetId s = 0; s < cfg.num_subnets; ++s) {
        auto &subnet = routers_[static_cast<std::size_t>(s)];
        subnet.reserve(static_cast<std::size_t>(nodes));
        for (NodeId n = 0; n < nodes; ++n) {
            subnet.push_back(
                std::make_unique<Router>(n, s, subnet_params_, mesh_));
        }
        for (NodeId n = 0; n < nodes; ++n) {
            for (int p = 1; p < kNumPorts; ++p) {
                const Direction d = direction_from_index(p);
                const NodeId m = mesh_.neighbor(n, d);
                subnet[static_cast<std::size_t>(n)]->connect(
                    d, m == kInvalidNode
                           ? nullptr
                           : subnet[static_cast<std::size_t>(m)].get());
            }
        }
    }

    // Build NIs and attach the congestion detector.
    nis_.reserve(static_cast<std::size_t>(nodes));
    for (NodeId n = 0; n < nodes; ++n) {
        std::vector<Router *> local;
        local.reserve(static_cast<std::size_t>(cfg.num_subnets));
        for (SubnetId s = 0; s < cfg.num_subnets; ++s)
            local.push_back(routers_[static_cast<std::size_t>(s)]
                                    [static_cast<std::size_t>(n)].get());
        nis_.push_back(std::make_unique<NetworkInterface>(
            n, subnet_params_, std::move(local), cfg.ni_queue_flits, mesh_,
            &metrics_));
        for (SubnetId s = 0; s < cfg.num_subnets; ++s) {
            congestion_.attach(n, s,
                               &router(s, n), nis_.back().get());
        }
    }

    // Policies.
    selector_ = make_selector(cfg.selector, nodes, cfg.num_subnets,
                              &congestion_, rng_.split(),
                              cfg.ni_queue_flits - 1);
    for (NodeId n = 0; n < nodes; ++n)
        nis_[static_cast<std::size_t>(n)]->set_selector(selector_.get());

    gating_ = make_gating_policy(cfg.gating, mesh_, &congestion_);
    for (SubnetId s = 0; s < cfg.num_subnets; ++s) {
        std::vector<Router *> ptrs;
        ptrs.reserve(static_cast<std::size_t>(nodes));
        for (NodeId n = 0; n < nodes; ++n)
            ptrs.push_back(routers_[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(n)].get());
        gating_->attach(s, std::move(ptrs));
    }

    // Fault injection (DESIGN.md §10). Only constructed for non-empty
    // plans so the fault-free configuration stays bit-identical.
    if (!cfg.fault.empty()) {
        CATNAP_ASSERT(!subnet_params_.port_gating,
                      "fault injection requires router-level gating");
        fault_ = std::make_unique<FaultController>(this, cfg.fault);
        selector_->set_health(&fault_->health());
        gating_->engage_fault_mode(fault_.get());
        for (auto &ni : nis_)
            ni->set_fault(fault_.get());
    }

#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    checker_ = std::make_unique<InvariantChecker>();
#endif
}

MultiNoc::~MultiNoc() = default;

void
MultiNoc::set_event_sink(EventSink *sink)
{
    sink_ = sink;
    for (auto &subnet : routers_)
        for (auto &r : subnet)
            r->set_sink(sink);
    for (auto &ni : nis_)
        ni->set_sink(sink);
    congestion_.set_sink(sink);
    selector_->set_sink(sink);
    if (fault_)
        fault_->set_sink(sink);
#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    // If the sink is the standard ring buffer, dump it on violations.
    checker_->set_trace(dynamic_cast<EventTrace *>(sink));
#endif
}

void
MultiNoc::tick()
{
    const Cycle now = now_;

    // Phase 0: scheduled fault events fire before anything observes
    // this cycle, so a kill at cycle C means "dead from C onward".
    if (fault_)
        fault_->pre_cycle(now);

    // Phase 1: evaluate (reads only state committed in earlier cycles).
    for (auto &subnet : routers_)
        for (auto &r : subnet)
            r->evaluate(now);
    for (auto &ni : nis_)
        ni->evaluate(now);

    // Phase 2: commit queued effects.
    for (auto &subnet : routers_)
        for (auto &r : subnet)
            r->commit(now);
    for (auto &ni : nis_)
        ni->commit(now);

    // Phase 3: congestion detection, then gating decisions. RCS glitches
    // strike right after the latch so they corrupt the freshly published
    // value, exactly like a bit flip on the OR-tree output.
    congestion_.update(now);
    if (fault_)
        fault_->post_congestion(now);
    gating_->step(now);
    metrics_.roll_series(now);

#if defined(CATNAP_CHECKS) && CATNAP_CHECKS
    checker_->run(*this, now);
#endif

    ++now_;
}

bool
MultiNoc::quiescent() const
{
    for (const auto &ni : nis_) {
        if (!ni->idle())
            return false;
    }
    for (const auto &subnet : routers_) {
        for (const auto &r : subnet) {
            if (!r->buffers_empty() || r->pending_arrivals() > 0 ||
                r->expected_packets() > 0) {
                return false;
            }
        }
    }
    return true;
}

ActivityCounters
MultiNoc::subnet_activity(SubnetId s) const
{
    ActivityCounters total;
    for (const auto &r : routers_[static_cast<std::size_t>(s)])
        total.add(r->activity());
    return total;
}

ActivityCounters
MultiNoc::total_activity() const
{
    ActivityCounters total;
    for (SubnetId s = 0; s < cfg_.num_subnets; ++s)
        total.add(subnet_activity(s));
    return total;
}

double
MultiNoc::sleep_fraction(SubnetId s) const
{
    const ActivityCounters a = subnet_activity(s);
    const auto denom = a.active_cycles + a.sleep_cycles;
    return denom ? static_cast<double>(a.sleep_cycles) /
                       static_cast<double>(denom)
                 : 0.0;
}

double
MultiNoc::csc_percent() const
{
    const ActivityCounters a = total_activity();
    const auto denom = a.active_cycles + a.sleep_cycles;
    if (denom == 0)
        return 0.0;
    const double csc =
        static_cast<double>(a.compensated_sleep_cycles) /
        static_cast<double>(denom);
    return 100.0 * csc; // per-period clamping keeps this non-negative
}

} // namespace catnap
