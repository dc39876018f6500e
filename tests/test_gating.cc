/**
 * @file
 * Tests for the power-gating machinery: the router power FSM, wake-up
 * timing, CSC accounting, and the IdleGate / CatnapGate policies.
 */
#include <gtest/gtest.h>

#include "noc/multinoc.h"
#include "obs/trace_buffer.h"
#include "test_util.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

int
count_state(const MultiNoc &net, SubnetId s, PowerState ps)
{
    int count = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n)
        count += (net.router(s, n).power_state() == ps);
    return count;
}

TEST(Gating, AlwaysOnNeverSleeps)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kAlwaysOn));
    net.run(100);
    for (SubnetId s = 0; s < 4; ++s)
        EXPECT_EQ(count_state(net, s, PowerState::kActive), 64);
    EXPECT_EQ(net.total_activity().sleep_cycles, 0u);
}

TEST(Gating, IdleNetworkGatesAfterIdleDetect)
{
    MultiNoc net(single_noc_config(512, GatingKind::kIdle));
    // t_idle_detect is 4 cycles; by cycle ~6 every router must sleep.
    net.run(10);
    EXPECT_EQ(count_state(net, 0, PowerState::kSleep), 64);
    EXPECT_GT(net.total_activity().sleep_cycles, 0u);
}

TEST(Gating, CatnapKeepsSubnetZeroActive)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    net.run(200);
    EXPECT_EQ(count_state(net, 0, PowerState::kActive), 64);
    for (SubnetId s = 1; s < 4; ++s)
        EXPECT_EQ(count_state(net, s, PowerState::kSleep), 64);
}

TEST(Gating, SleepingRouterWakesForTraffic)
{
    MultiNoc net(single_noc_config(512, GatingKind::kIdle));
    net.run(20); // everything asleep
    ASSERT_EQ(count_state(net, 0, PowerState::kSleep), 64);

    Cycle done = kNoCycle;
    net.ni(7).set_packet_sink(
        [&](const Flit &, Cycle now) { done = now; });
    PacketDesc pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 7;
    pkt.size_bits = 512;
    pkt.created = net.now();
    net.offer_packet(pkt);
    const Cycle start = net.now();
    while (done == kNoCycle && net.now() < start + 2000)
        net.tick();
    ASSERT_NE(done, kNoCycle);
    // Ungated latency is 3H+3 = 24; each of the 8 routers on the path
    // adds at most T_wakeup (10) but look-ahead hides 3 cycles.
    const Cycle latency = done - start;
    EXPECT_GT(latency, 24u);
    EXPECT_LE(latency, 24u + 8u * 10u);
}

TEST(Gating, WakeupTakesConfiguredCycles)
{
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc a(cfg);
    cfg.t_wakeup = 30;
    MultiNoc b(cfg);

    auto deliver = [](MultiNoc &net) {
        net.run(20);
        Cycle done = kNoCycle;
        net.ni(7).set_packet_sink(
            [&](const Flit &, Cycle now) { done = now; });
        PacketDesc pkt;
        pkt.id = 1;
        pkt.src = 0;
        pkt.dst = 7;
        pkt.size_bits = 512;
        pkt.created = net.now();
        net.offer_packet(pkt);
        const Cycle start = net.now();
        while (done == kNoCycle && net.now() < start + 5000)
            net.tick();
        return done - start;
    };
    const Cycle fast = deliver(a);
    const Cycle slow = deliver(b);
    EXPECT_GT(slow, fast);
}

TEST(Gating, CscAccountsBreakEven)
{
    // One router sleeping for N cycles then woken earns N - 12 CSC.
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc net(cfg);
    net.run(500);
    net.finalize_accounting();
    const ActivityCounters a = net.total_activity();
    // All 64 routers slept once, from ~cycle 5 to 500.
    EXPECT_EQ(a.sleep_transitions, 64u);
    const double per_router_csc =
        static_cast<double>(a.compensated_sleep_cycles) / 64.0;
    EXPECT_NEAR(per_router_csc, 500.0 - 5.0 - 12.0, 4.0);
}

TEST(Gating, ThrashingYieldsNegativeCsc)
{
    // Force pathological thrash: a router that sleeps for fewer than
    // t_breakeven cycles accrues negative compensated sleep cycles.
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    cfg.t_idle_detect = 2;
    MultiNoc net(cfg);
    // Single-flit packets injected sparsely on one route keep waking the
    // same routers just after they fall asleep.
    PacketId id = 1;
    for (Cycle c = 0; c < 3000; ++c) {
        if (c % 18 == 0) {
            PacketDesc pkt;
            pkt.id = id++;
            pkt.src = 0;
            pkt.dst = 1;
            pkt.size_bits = 512;
            pkt.created = net.now();
            net.offer_packet(pkt);
        }
        net.tick();
    }
    net.finalize_accounting();
    const auto &r0 = net.router(0, 0).activity();
    const auto &r1 = net.router(0, 1).activity();
    EXPECT_GT(r0.sleep_transitions + r1.sleep_transitions, 40u);
    // Each sleep period on the thrashed route lasts well under 18 cycles
    // once idle-detect and wake-up are subtracted, so after the 12-cycle
    // break-even charge the two routers earn almost nothing compared to
    // routers that sleep through the whole run.
    MultiNoc idle(cfg);
    idle.run(3000);
    idle.finalize_accounting();
    const double idle_per_router =
        static_cast<double>(
            idle.router(0, 0).activity().compensated_sleep_cycles);
    const double thrashed =
        static_cast<double>(r0.compensated_sleep_cycles +
                            r1.compensated_sleep_cycles) / 2.0;
    EXPECT_LT(thrashed, 0.25 * idle_per_router);
}

TEST(Gating, CatnapWakesHigherSubnetOnCongestion)
{
    // Saturating load must force higher-order subnets awake.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    net.run(100); // subnets 1..3 asleep
    ASSERT_EQ(count_state(net, 3, PowerState::kSleep), 64);

    SyntheticConfig traffic;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 17);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
    }
    // At 0.4 packets/node/cycle all subnets are needed.
    EXPECT_GT(count_state(net, 1, PowerState::kActive), 32);
    EXPECT_GT(count_state(net, 3, PowerState::kActive), 16);
}

TEST(Gating, CatnapReturnsToSleepAfterBurst)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 29);
    for (Cycle c = 0; c < 1500; ++c) {
        gen.step(net.now());
        net.tick();
    }
    // Stop traffic; after drain + idle detect the higher subnets sleep.
    test::drain_until_quiescent(net, 30000);
    net.run(200);
    for (SubnetId s = 1; s < 4; ++s) {
        EXPECT_EQ(count_state(net, s, PowerState::kSleep), 64)
            << "subnet " << s;
    }
    EXPECT_EQ(count_state(net, 0, PowerState::kActive), 64);
}

TEST(Gating, LowLoadSleepsMostHigherOrderRouters)
{
    // The headline behaviour (Figure 4): at low load only subnet 0 works.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    SyntheticConfig traffic;
    traffic.load = 0.02;
    SyntheticTraffic gen(&net, traffic, 31);
    std::uint64_t asleep_samples = 0, samples = 0;
    for (Cycle c = 0; c < 5000; ++c) {
        gen.step(net.now());
        net.tick();
        if (c >= 1000) {
            for (SubnetId s = 1; s < 4; ++s)
                asleep_samples += static_cast<std::uint64_t>(
                    count_state(net, s, PowerState::kSleep));
            samples += 3 * 64;
        }
    }
    EXPECT_GT(static_cast<double>(asleep_samples) /
                  static_cast<double>(samples),
              0.95);
    // And the packets still flow.
    EXPECT_GT(net.metrics().ejected_packets(), 5000u);
}

TEST(Gating, ExpectedPacketBlocksSleep)
{
    MultiNocConfig cfg = single_noc_config(512, GatingKind::kIdle);
    MultiNoc net(cfg);
    net.run(20);
    // Wake path: announce a packet at router 1 without delivering it.
    net.router(0, 1).note_expected_packet();
    net.router(0, 1).request_wakeup();
    net.run(30);
    EXPECT_EQ(net.router(0, 1).power_state(), PowerState::kActive);
    net.run(100);
    // Still active: the announced packet never arrived.
    EXPECT_EQ(net.router(0, 1).power_state(), PowerState::kActive);
}

TEST(Gating, SleepFractionTracksLoad)
{
    auto sleep_frac = [](double load) {
        MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
        SyntheticConfig traffic;
        traffic.load = load;
        SyntheticTraffic gen(&net, traffic, 13);
        for (Cycle c = 0; c < 4000; ++c) {
            gen.step(net.now());
            net.tick();
        }
        double total = 0;
        for (SubnetId s = 0; s < 4; ++s)
            total += net.sleep_fraction(s);
        return total / 4.0;
    };
    const double low = sleep_frac(0.01);
    const double mid = sleep_frac(0.15);
    const double high = sleep_frac(0.45);
    EXPECT_GT(low, mid);
    EXPECT_GE(mid, high);
    EXPECT_GT(low, 0.5);
}

// ---------------------------------------------------------------------
// Skipping asleep subnets (DESIGN.md §18). Every expected value below is
// derived by hand from the power FSM: with t_idle_detect = 4 the idle
// streak reaches 4 at cycle 3's commit, so Catnap puts subnets 1-3 to
// sleep in cycle 3's policy phase, and they are skipped from cycle 4 on.
// ---------------------------------------------------------------------

/** First event of @p kind in @p trace matching @p pred, or null. */
template <typename Pred>
const TraceEvent *
find_event(const EventTrace &trace, EventKind kind, Pred pred)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &ev = trace.at(i);
        if (ev.kind == kind && pred(ev))
            return &trace.at(i);
    }
    return nullptr;
}

TEST(SubnetSkip, RouterVisitsFollowTheGatingTimeline)
{
    const MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    ASSERT_EQ(cfg.label(), "4NT-128b-PG");
    ASSERT_EQ(cfg.t_idle_detect, 4);
    MultiNoc net(cfg);
    // Cycles 0-3 visit all 4 x 64 routers; from cycle 4 only subnet 0.
    net.run(3);
    EXPECT_EQ(net.router_visits(), 3u * 256u);
    net.run(1);
    EXPECT_EQ(net.router_visits(), 4u * 256u);
    net.run(996);
    // 4 * 256 + (1000 - 4) * 64 = 64 * 1000 + 768.
    EXPECT_EQ(net.router_visits(), 64768u);

    // Ungated, every router is visited every cycle.
    MultiNoc on(multi_noc_config(4, GatingKind::kAlwaysOn));
    on.run(1000);
    EXPECT_EQ(on.router_visits(), 256000u);
}

TEST(SubnetSkip, MidSkipReadsCountEverySleepCycle)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    const MultiNoc &view = net;
    net.run(500);
    for (SubnetId s = 1; s < 4; ++s) {
        for (NodeId n = 0; n < 64; n += 21) {
            const Router &r = view.router(s, n);
            // Asleep from cycle 3 (the entry cycle counts as asleep).
            EXPECT_EQ(r.activity().sleep_cycles, 497u);
            EXPECT_EQ(r.activity().active_cycles, 3u);
            EXPECT_EQ(r.idle_streak(), 500); // commits 0..499
        }
    }
    net.run(37);
    EXPECT_EQ(view.router(3, 63).activity().sleep_cycles, 534u);
    EXPECT_EQ(view.router(3, 63).idle_streak(), 537);
    EXPECT_EQ(view.subnet_activity(2).sleep_cycles, 64u * 534u);
    EXPECT_EQ(view.total_activity().active_cycles,
              64u * 537u + 3u * 64u * 3u);
    // One open sleep period of 537 - 3 cycles, less T_breakeven = 12.
    net.finalize_accounting();
    EXPECT_EQ(view.router(1, 0).activity().compensated_sleep_cycles, 522u);
    EXPECT_EQ(net.router_visits(), 64u * 537u + 768u);
}

TEST(SubnetSkip, LowerSubnetLcsWakesSkippedSubnetInTheSameCycle)
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    cfg.congestion.threshold = 0.0; // any buffered flit sets LCS
    MultiNoc net(cfg);
    EventTrace trace;
    net.set_event_sink(&trace);
    net.run(100);
    ASSERT_EQ(count_state(net, 1, PowerState::kSleep), 64);
    ASSERT_EQ(net.router_visits(), 64u * 100u + 768u); // 1-3 skipped

    PacketDesc pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 7;
    pkt.size_bits = 512;
    pkt.created = net.now();
    net.offer_packet(pkt); // lands in subnet 0: nothing is congested
    const TraceEvent *lcs = nullptr;
    while (lcs == nullptr && net.now() < 200) {
        net.tick();
        lcs = find_event(trace, EventKind::kLcsSet,
                         [](const TraceEvent &ev) { return ev.subnet == 0; });
    }
    ASSERT_NE(lcs, nullptr);
    const Cycle t = lcs->cycle;
    const NodeId m = lcs->node;
    ASSERT_EQ(net.now(), t + 1);

    // Figure 5: the subnet-1 router at the congested node starts waking
    // in the cycle the lower subnet's LCS rises, for the RCS reason.
    const TraceEvent *wake = find_event(
        trace, EventKind::kRouterWakeBegin,
        [](const TraceEvent &ev) { return ev.subnet == 1; });
    ASSERT_NE(wake, nullptr);
    EXPECT_EQ(wake->cycle, t);
    EXPECT_EQ(wake->node, m);
    EXPECT_EQ(wake->a, static_cast<std::int32_t>(WakeReason::kRcs));

    // Cycles 0-2 active, 3..t-1 asleep, t waking (counted active).
    const Router &r = static_cast<const MultiNoc &>(net).router(1, m);
    EXPECT_EQ(r.power_state(), PowerState::kWakeup);
    EXPECT_EQ(r.activity().sleep_cycles, t - 3);
    EXPECT_EQ(r.activity().active_cycles, 4u);
    EXPECT_EQ(r.idle_streak(), static_cast<int>(t + 1));
}

TEST(SubnetSkip, SettledIdleStreakLetsRouterSleepAgainAtOnce)
{
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap));
    const MultiNoc &view = net;
    net.run(100);
    // A wake signal between ticks; cycle 100's policy phase services it.
    net.router(2, 9).request_wakeup();
    net.run(1);
    EXPECT_EQ(view.router(2, 9).power_state(), PowerState::kWakeup);
    EXPECT_EQ(view.router(2, 9).wake_done_cycle(), 110u);
    net.run(9); // through cycle 109: still waking
    EXPECT_EQ(view.router(2, 9).power_state(), PowerState::kWakeup);
    EXPECT_EQ(view.router(2, 9).idle_streak(), 110);
    // Cycle 110: the wake completes in commit and, the buffers having
    // been empty all along, the policy phase puts it straight back.
    net.run(1);
    EXPECT_EQ(view.router(2, 9).power_state(), PowerState::kSleep);
    EXPECT_EQ(view.router(2, 9).idle_streak(), 111);
    EXPECT_EQ(view.router(2, 9).activity().sleep_transitions, 2u);

    net.run(89); // to cycle 200
    const ActivityCounters &a = view.router(2, 9).activity();
    EXPECT_EQ(a.sleep_cycles, 97u + 90u); // cycles 3..99 and 110..199
    EXPECT_EQ(a.active_cycles, 3u + 10u); // cycles 0..2 and 100..109
    // Its neighbours never woke.
    EXPECT_EQ(view.router(2, 8).activity().sleep_cycles, 197u);
    net.finalize_accounting();
    // Periods of 97 and 90 cycles, each less T_breakeven = 12.
    EXPECT_EQ(view.router(2, 9).activity().compensated_sleep_cycles,
              85u + 78u);
    // Cycles 0-3: 256 routers; 4-99: 64; 100-110: subnets 0 and 2;
    // 111-199: 64 again.
    EXPECT_EQ(net.router_visits(),
              4u * 256u + 96u * 64u + 11u * 128u + 89u * 64u);
}

TEST(SubnetSkip, NiWakeSignalEndsTheSkipInTheSameCycle)
{
    // Round-robin selection sends the second packet of a node to subnet
    // 1 while it is skipped; only the NI's wake signal can end the skip.
    MultiNoc net(multi_noc_config(4, GatingKind::kCatnap,
                                  SelectorKind::kRoundRobin));
    EventTrace trace;
    net.set_event_sink(&trace);
    net.run(100);
    for (PacketId id = 1; id <= 2; ++id) {
        PacketDesc pkt;
        pkt.id = id;
        pkt.src = 5;
        pkt.dst = 60;
        pkt.size_bits = 512;
        pkt.created = net.now();
        net.offer_packet(pkt);
    }
    int delivered = 0;
    net.ni(60).set_packet_sink([&](const Flit &, Cycle) { ++delivered; });
    while (delivered < 2 && net.now() < 1000)
        net.tick();
    EXPECT_EQ(delivered, 2);

    const TraceEvent *select = find_event(
        trace, EventKind::kSubnetSelect,
        [](const TraceEvent &ev) { return ev.subnet == 1; });
    ASSERT_NE(select, nullptr);
    const TraceEvent *wake = find_event(
        trace, EventKind::kRouterWakeBegin,
        [](const TraceEvent &ev) { return ev.subnet == 1; });
    ASSERT_NE(wake, nullptr);
    EXPECT_EQ(wake->cycle, select->cycle);
    EXPECT_EQ(wake->node, 5);
    EXPECT_EQ(wake->a, static_cast<std::int32_t>(WakeReason::kLookahead));
}

} // namespace
} // namespace catnap
