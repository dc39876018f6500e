#include "traffic/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "noc/multinoc.h"
#include "traffic/trace.h"

namespace catnap {

LoadSchedule
figure12_burst_schedule()
{
    return [](Cycle now) -> double {
        if (now >= 1000 && now < 1500)
            return 0.30; // first burst
        if (now >= 2000 && now < 2500)
            return 0.10; // second, smaller burst
        return 0.01;     // idle baseline
    };
}

SyntheticTraffic::SyntheticTraffic(MultiNoc *net, const SyntheticConfig &cfg,
                                   std::uint64_t seed)
    : net_(net), cfg_(cfg)
{
    CATNAP_ASSERT(net_ != nullptr, "traffic needs a network");
    CATNAP_ASSERT(cfg.load >= 0.0 && cfg.load <= 1.0,
                  "offered load must be in [0, 1] packets/node/cycle");
    Rng root(seed);
    pattern_ = make_pattern(cfg.pattern, net_->mesh(), root.split());
    const int nodes = net_->num_nodes();
    node_rng_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
        node_rng_.push_back(root.split());
    node_phase_.resize(static_cast<std::size_t>(nodes));
    if (cfg.node_bursts) {
        CATNAP_ASSERT(cfg.burst_on_fraction > 0.0 &&
                          cfg.burst_on_fraction <= 1.0,
                      "burst_on_fraction must be in (0, 1]");
        // Stagger initial phases so nodes do not pulse in lockstep.
        for (int n = 0; n < nodes; ++n) {
            auto &ph = node_phase_[static_cast<std::size_t>(n)];
            ph.on = node_rng_[static_cast<std::size_t>(n)].bernoulli(
                cfg.burst_on_fraction);
            ph.until = node_rng_[static_cast<std::size_t>(n)].next_below(
                static_cast<std::uint64_t>(cfg.burst_mean_len) + 1);
        }
    }
    const double load = cfg.load;
    schedule_ = [load](Cycle) { return load; };
}

double
SyntheticTraffic::node_load(NodeId n, Cycle now, double base)
{
    if (!cfg_.node_bursts)
        return base;
    auto &ph = node_phase_[static_cast<std::size_t>(n)];
    auto &rng = node_rng_[static_cast<std::size_t>(n)];
    if (now >= ph.until) {
        ph.on = !ph.on;
        // Phase lengths split burst_mean_len by the ON-time fraction so
        // the long-run duty cycle equals burst_on_fraction.
        const double mean = 2.0 * cfg_.burst_mean_len *
                            (ph.on ? cfg_.burst_on_fraction
                                   : 1.0 - cfg_.burst_on_fraction);
        const double p = 1.0 / std::max(1.0, mean);
        ph.until = now + 1 + rng.geometric(p);
    }
    if (!ph.on)
        return 0.0;
    return std::min(1.0, base / cfg_.burst_on_fraction);
}

void
SyntheticTraffic::step(Cycle now)
{
    const double base = schedule_(now);
    const int nodes = net_->num_nodes();
    for (NodeId n = 0; n < nodes; ++n) {
        const double load = node_load(n, now, base);
        if (load <= 0.0 ||
            !node_rng_[static_cast<std::size_t>(n)].bernoulli(load)) {
            continue;
        }
        PacketDesc pkt;
        pkt.id = next_id_++;
        pkt.src = n;
        pkt.dst = pattern_->destination(n);
        pkt.mc = cfg_.mc;
        pkt.size_bits = cfg_.packet_bits;
        pkt.created = now;
        if (recorder_)
            recorder_->note(now, pkt);
        net_->offer_packet(pkt);
        ++generated_;
    }
}

} // namespace catnap
