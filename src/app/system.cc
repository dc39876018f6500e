#include "app/system.h"

#include <algorithm>

#include "common/log.h"
#include "sim/simulator.h"

namespace catnap {

namespace {

/** Default MC placement: eight nodes spread around the mesh perimeter. */
std::vector<NodeId>
default_mc_nodes(const ConcentratedMesh &mesh)
{
    const int w = mesh.width();
    const int h = mesh.height();
    if (w >= 4 && h >= 4) {
        return {
            mesh.node_at({1, 0}),     mesh.node_at({w - 2, 0}),
            mesh.node_at({0, 1}),     mesh.node_at({w - 1, 1}),
            mesh.node_at({0, h - 2}), mesh.node_at({w - 1, h - 2}),
            mesh.node_at({1, h - 1}), mesh.node_at({w - 2, h - 1}),
        };
    }
    // Tiny meshes (tests): one MC per corner.
    return {mesh.node_at({0, 0}), mesh.node_at({w - 1, 0}),
            mesh.node_at({0, h - 1}), mesh.node_at({w - 1, h - 1})};
}

} // namespace

std::uint64_t
CmpSystem::pack(Tag t)
{
    return (static_cast<std::uint64_t>(t.kind) << 56) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.core))
            << 24) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.aux) &
                                      0xffffffu);
}

CmpSystem::Tag
CmpSystem::unpack(std::uint64_t user)
{
    Tag t;
    t.kind = static_cast<Kind>((user >> 56) & 0xff);
    t.core = static_cast<CoreId>((user >> 24) & 0xffffffffu);
    t.aux = static_cast<NodeId>(user & 0xffffffu);
    return t;
}

CmpSystem::CmpSystem(const MultiNocConfig &net_cfg, const WorkloadMix &mix,
                     const SystemParams &params)
    : cfg_(net_cfg), params_(params), rng_(params.seed)
{
    // Four message classes on four VCs: protocol-level deadlock freedom.
    cfg_.num_classes = std::min(cfg_.num_vcs, kNumMessageClasses);
    net_ = std::make_unique<MultiNoc>(cfg_);

    const int cores = net_->mesh().num_cores();
    CATNAP_ASSERT(mix.total_instances() == cores,
                  "workload mix has ", mix.total_instances(),
                  " instances for ", cores, " cores");
    cores_.reserve(static_cast<std::size_t>(cores));
    for (CoreId c = 0; c < cores; ++c) {
        cores_.push_back(std::make_unique<CoreModel>(
            c, mix.profile_for(c), rng_.split(), params.issue_width,
            params.mshrs, params.frontend_efficiency, params.rob_size));
    }

    mc_nodes_ = default_mc_nodes(net_->mesh());
    mc_next_free_.assign(mc_nodes_.size(), 0);

    for (NodeId n = 0; n < net_->num_nodes(); ++n) {
        net_->ni(n).set_packet_sink(
            [this, n](const Flit &tail, Cycle now) {
                on_packet(n, tail, now);
            });
    }
}

PacketDesc
CmpSystem::make_packet(NodeId src, NodeId dst, MessageClass mc, int bits,
                       Cycle now, Tag tag)
{
    PacketDesc pkt;
    pkt.id = next_pkt_++;
    pkt.src = src;
    pkt.dst = dst;
    pkt.mc = mc;
    pkt.size_bits = bits;
    pkt.created = now;
    pkt.user = pack(tag);
    return pkt;
}

void
CmpSystem::issue_miss(CoreId core, Cycle now)
{
    ++misses_issued_;
    const NodeId src = net_->mesh().node_of_core(core);
    const BenchmarkProfile &prof =
        cores_[static_cast<std::size_t>(core)]->profile();

    // Home L2 slice: address-interleaved uniformly across all nodes.
    const NodeId home = static_cast<NodeId>(
        rng_.next_below(static_cast<std::uint64_t>(net_->num_nodes())));

    // Decide the service path now (statistically, from the profile).
    Kind kind = Kind::kReqDirect;
    NodeId aux = kInvalidNode;
    if (rng_.bernoulli(prof.mem_fraction)) {
        kind = Kind::kReqMem;
        aux = mc_nodes_[rng_.next_below(mc_nodes_.size())];
    } else if (rng_.bernoulli(params_.forward_fraction)) {
        kind = Kind::kReqFwd;
        aux = static_cast<NodeId>(
            rng_.next_below(static_cast<std::uint64_t>(net_->num_nodes())));
    }

    net_->offer_packet(make_packet(src, home, MessageClass::kRequest,
                                   params_.ctrl_bits, now,
                                   Tag{kind, core, aux}));

    // Dirty eviction: fire-and-forget writeback of the victim block.
    if (rng_.bernoulli(params_.writeback_fraction)) {
        const NodeId victim_home = static_cast<NodeId>(rng_.next_below(
            static_cast<std::uint64_t>(net_->num_nodes())));
        net_->offer_packet(make_packet(
            src, victim_home, MessageClass::kResponseCtrl,
            params_.data_bits, now, Tag{Kind::kWriteback, core, 0}));
    }
}

void
CmpSystem::on_packet(NodeId at, const Flit &tail, Cycle now)
{
    const Tag tag = unpack(tail.user);
    const NodeId requester =
        net_->mesh().node_of_core(tag.core);

    switch (tag.kind) {
      case Kind::kReqDirect: {
        // Home L2 hit: data response after the bank latency.
        send_later(now + static_cast<Cycle>(params_.l2_latency),
                   make_packet(at, requester, MessageClass::kResponseData,
                               params_.data_bits, now,
                               Tag{Kind::kData, tag.core, 0}));
        break;
      }
      case Kind::kReqFwd: {
        // Home L2 hit, owned elsewhere: forward to the owner, recording
        // ourselves (the home) so the requester can unblock us later.
        send_later(now + static_cast<Cycle>(params_.l2_latency),
                   make_packet(at, tag.aux, MessageClass::kForward,
                               params_.ctrl_bits, now,
                               Tag{Kind::kFwd, tag.core, at}));
        break;
      }
      case Kind::kReqMem: {
        // Home L2 miss: fill request to the chosen memory controller.
        send_later(now + static_cast<Cycle>(params_.l2_latency),
                   make_packet(at, tag.aux, MessageClass::kForward,
                               params_.ctrl_bits, now,
                               Tag{Kind::kMemFill, tag.core, 0}));
        break;
      }
      case Kind::kFwd: {
        // Owner tile supplies the block (2-cycle cache probe). The
        // requester must close the 4-hop transaction with an unblock to
        // the home directory, whose node rides in aux.
        send_later(now + 2,
                   make_packet(at, requester, MessageClass::kResponseData,
                               params_.data_bits, now,
                               Tag{Kind::kDataFwd, tag.core, tag.aux}));
        break;
      }
      case Kind::kMemFill: {
        // DRAM access with per-MC channel service queuing.
        std::size_t mc = 0;
        for (std::size_t i = 0; i < mc_nodes_.size(); ++i)
            if (mc_nodes_[i] == at)
                mc = i;
        Cycle &free_at = mc_next_free_[mc];
        const Cycle start = std::max(free_at, now);
        free_at = start + static_cast<Cycle>(params_.mc_service_interval);
        send_later(start + static_cast<Cycle>(params_.mem_latency),
                   make_packet(at, requester, MessageClass::kResponseData,
                               params_.data_bits, now,
                               Tag{Kind::kData, tag.core, 0}));
        break;
      }
      case Kind::kData: {
        ++misses_completed_;
        cores_[static_cast<std::size_t>(tag.core)]->complete_miss();
        break;
      }
      case Kind::kDataFwd: {
        ++misses_completed_;
        cores_[static_cast<std::size_t>(tag.core)]->complete_miss();
        // Unblock the home directory (4-hop MESI, Section 4.1).
        net_->offer_packet(make_packet(at, tag.aux,
                                       MessageClass::kResponseCtrl,
                                       params_.ctrl_bits, now,
                                       Tag{Kind::kUnblock, tag.core, 0}));
        break;
      }
      case Kind::kUnblock:
      case Kind::kWriteback:
        break; // absorbed at the home
    }
}

void
CmpSystem::send_later(Cycle ready, PacketDesc pkt)
{
    pkt.created = ready;
    pending_.push(DeferredSend{ready, std::move(pkt)});
}

void
CmpSystem::flush_sends(Cycle now)
{
    while (!pending_.empty() && pending_.top().ready <= now) {
        net_->offer_packet(pending_.top().pkt);
        pending_.pop();
    }
}

void
CmpSystem::tick()
{
    const Cycle now = net_->now();
    flush_sends(now);
    for (auto &core : cores_) {
        const int misses = core->tick(now);
        for (int i = 0; i < misses; ++i)
            issue_miss(core->id(), now);
    }
    net_->tick();
}

std::uint64_t
CmpSystem::total_retired() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->retired();
    return total;
}

AppRunResult
run_app_workload(const MultiNocConfig &net_cfg, const WorkloadMix &mix,
                 const AppRunParams &params, const SystemParams &sys)
{
    MultiNocConfig cfg = net_cfg;
    cfg.seed = params.seed;
    SystemParams sp = sys;
    sp.seed = params.seed;
    CmpSystem system(cfg, mix, sp);

    RunParams rp;
    rp.voltage_scaling = params.voltage_scaling;
    const double vdd = config_vdd(cfg, rp);

    system.net().metrics().set_measurement_window(
        params.warmup, params.warmup + params.measure);

    system.run(params.warmup);
    PowerMeter meter(system.net(), vdd);
    meter.begin();
    const std::uint64_t retired0 = system.total_retired();
    system.run(params.measure);
    system.net().finalize_accounting();

    AppRunResult res;
    res.config_label = cfg.label();
    res.workload = mix.name;
    res.ipc = static_cast<double>(system.total_retired() - retired0) /
              static_cast<double>(params.measure) /
              static_cast<double>(system.net().mesh().num_cores());
    res.avg_latency = system.net().metrics().total_latency().mean();
    res.csc_percent = meter.csc_percent();
    res.vdd = vdd;
    res.power = meter.report();
    res.power_static = meter.report_static();
    return res;
}

} // namespace catnap
