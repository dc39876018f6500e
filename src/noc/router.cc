#include "noc/router.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.h"
#include "noc/routing.h"

namespace catnap {

namespace {

/** Credits assigned to the local output port, which ejects into the NI's
 * (conceptually unbounded) reassembly buffers. */
constexpr int kLocalPortCredits = std::numeric_limits<int>::max() / 2;

/** The request-mask bit of input FIFO @p idx. */
constexpr std::uint64_t
slot_bit(std::size_t idx)
{
    return std::uint64_t{1} << idx;
}

} // namespace

Router::Router(NodeId node, SubnetId subnet, const SubnetParams &params,
               const ConcentratedMesh &mesh)
    : node_(node), subnet_(subnet), params_(params), mesh_(mesh)
{
    CATNAP_ASSERT(params_.num_vcs > 0 && params_.vc_depth_flits > 0,
                  "router needs VCs and buffer depth");
    CATNAP_ASSERT(params_.num_vcs <= kMaxVcs,
                  "at most ", kMaxVcs, " VCs per port fit the 64-bit"
                  " allocation request mask; got ", params_.num_vcs);
    CATNAP_ASSERT(params_.num_vcs % params_.num_classes == 0,
                  "VCs must partition evenly across message classes");
    class_span_ = params_.vcs_per_class();
    for (int mc = 0; mc < kNumMessageClasses; ++mc)
        class_first_vc_[static_cast<std::size_t>(mc)] =
            params_.first_vc_of_class(mc % params_.num_classes);

    const auto slots =
        static_cast<std::size_t>(kNumPorts * params_.num_vcs);
    fifos_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        fifos_.emplace_back(static_cast<std::size_t>(params_.vc_depth_flits));
    vc_state_.resize(slots);
    out_owner_.assign(slots, 0);
    out_credits_.assign(slots, 0);
    // Local output port ejects into the NI: effectively infinite credit.
    for (int vc = 0; vc < params_.num_vcs; ++vc)
        out_credits_[fifo_index(port_index(Direction::kLocal), vc)] =
            kLocalPortCredits;

    va_rr_.assign(kNumPorts, 0);
    sa_input_rr_.assign(kNumPorts, 0);
    sa_output_rr_.assign(kNumPorts, 0);
}

void
Router::connect(Direction d, Router *neighbor)
{
    CATNAP_ASSERT(d != Direction::kLocal, "local port has no router peer");
    neighbors_[static_cast<std::size_t>(port_index(d))] = neighbor;
    if (neighbor) {
        // Credit-based flow control: we may send as many flits per VC as
        // the downstream buffer can hold.
        for (int vc = 0; vc < params_.num_vcs; ++vc)
            out_credits_[fifo_index(port_index(d), vc)] =
                params_.vc_depth_flits;
    }
}

bool
Router::can_accept_at(Cycle arrival) const
{
    if (failed_)
        return false;
    switch (power_state_) {
      case PowerState::kActive: return true;
      case PowerState::kWakeup: return wake_done_ <= arrival;
      case PowerState::kSleep:  return false;
    }
    return false;
}

void
Router::evaluate(Cycle now)
{
    // A gated or waking router performs no allocation; an empty router
    // with no packet mid-stream has nothing to allocate either.
    if (failed_ || power_state_ != PowerState::kActive)
        return;
    if (total_buffered_ == 0)
        return;
    run_vc_allocation(now);
    run_switch_allocation(now);
}

void
Router::run_vc_allocation(Cycle now)
{
    (void)now;
    const int num_vcs = params_.num_vcs;
    const int slots = kNumPorts * num_vcs;
    const std::uint64_t port_bits = (std::uint64_t{1} << num_vcs) - 1;

    // Requests per output port: non-empty input VCs not yet holding a
    // downstream VC whose front flit is a head routed to that port. A
    // head never requests the port it entered by (no U-turns; X-Y
    // routing never needs them).
    std::array<std::uint64_t, kNumPorts> requests{};
    for (int inport = 0; inport < kNumPorts; ++inport) {
        std::uint64_t bits = nonempty_ & (port_bits << (inport * num_vcs));
        while (bits != 0) {
            const auto slot = static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (vc_state_[slot].active)
                continue;
            const Flit &head = fifos_[slot].front();
            const int out = port_index(head.out_dir);
            if (head.is_head() && out != inport)
                requests[static_cast<std::size_t>(out)] |= slot_bit(slot);
        }
    }

    // For each output port, hand out free downstream VCs within each
    // requesting packet's message-class partition, in round-robin order
    // over the port*vc slots. The order is that of a scan whose
    // iteration i visits slot (va_rr_ + i) mod slots, re-reading va_rr_
    // after each grant, for at most `slots` iterations and num_vcs
    // grants: a grant at slot s in iteration i moves va_rr_ to s + 1 and
    // the scan on to s + 1 + (i + 1). Only requesting slots are visited;
    // `i` still counts the skipped ones, so the scan ends where the
    // full scan would.
    for (int out = 0; out < kNumPorts; ++out) {
        const auto o = static_cast<std::size_t>(out);
        std::uint64_t req = requests[o];
        int cur = va_rr_[o]; // slot visited by iteration i
        int i = 0;
        int granted = 0;
        while (req != 0 && granted < num_vcs) {
            const std::uint64_t ahead = req & (~std::uint64_t{0} << cur);
            const int slot = std::countr_zero(ahead != 0 ? ahead : req);
            i += slot >= cur ? slot - cur : slot + slots - cur;
            if (i >= slots)
                break;
            // Visited once: a granted slot is active from now on, and one
            // that finds no free VC finds none later in this scan either
            // (this scan only takes VCs of this port).
            req &= ~slot_bit(static_cast<std::size_t>(slot));
            ++i;
            const int next = slot + 1 == slots ? 0 : slot + 1;
            cur = next;

            auto &st = vc_state_[static_cast<std::size_t>(slot)];
            const Flit &head = fifos_[static_cast<std::size_t>(slot)].front();
            // Find a free VC in this message class's partition. On a
            // torus each partition is split into a dateline pair: the
            // lower half serves packets that have not crossed their
            // ring's wrap link (counting a crossing on this very hop),
            // the upper half those that have. This breaks the ring
            // buffer-dependency cycles, making DOR deadlock free.
            int base = class_first_vc_[static_cast<std::size_t>(head.mc)];
            int span = class_span_;
            if (mesh_.is_torus() && head.out_dir != Direction::kLocal) {
                span /= 2;
                const bool crossed =
                    head.wrapped || mesh_.link_wraps(node_, head.out_dir);
                if (crossed)
                    base += span;
            }
            VcId chosen = kInvalidVc;
            for (int v = 0; v < span; ++v) {
                const int vc = base + v;
                if (out_owner_[fifo_index(out, vc)] == 0) {
                    chosen = vc;
                    break;
                }
            }
            if (chosen == kInvalidVc)
                continue;
            out_owner_[fifo_index(out, chosen)] =
                static_cast<std::int64_t>(head.pkt) + 1;
            st.active = true;
            st.out_dir = head.out_dir;
            st.out_vc = chosen;
            ++granted;
            ++activity_.arb_ops;
            // Rotate priority past this requestor for fairness.
            va_rr_[o] = next;
            cur = next + i;
            if (cur >= slots)
                cur -= slots;
        }
    }
}

void
Router::run_switch_allocation(Cycle now)
{
    const int num_vcs = params_.num_vcs;
    const std::uint64_t port_bits = (std::uint64_t{1} << num_vcs) - 1;
    const Cycle arrival =
        now + static_cast<Cycle>(params_.st_delay + params_.link_delay);

    // Input-first separable allocation: each input port nominates one
    // ready VC, then each output port picks one nominating input port.
    std::array<int, kNumPorts> nominee_vc;
    nominee_vc.fill(-1);
    unsigned nominated_outs = 0; // bit per output port with a nominee

    for (int inport = 0; inport < kNumPorts; ++inport) {
        const std::uint64_t bits =
            (nonempty_ >> (inport * num_vcs)) & port_bits;
        if (bits == 0)
            continue;
        // Rotate so bit k stands for VC (sa_input_rr_ + k) mod num_vcs:
        // the lowest set bit is then the next VC in round-robin order.
        const int rr = sa_input_rr_[static_cast<std::size_t>(inport)];
        std::uint64_t order =
            ((bits >> rr) | (bits << (num_vcs - rr))) & port_bits;
        while (order != 0) {
            int invc = rr + std::countr_zero(order);
            order &= order - 1;
            if (invc >= num_vcs)
                invc -= num_vcs;
            const auto &st = vc_state_[fifo_index(inport, invc)];
            if (!st.active)
                continue;
            const int out = port_index(st.out_dir);
            if (out_credits_[fifo_index(out, st.out_vc)] <= 0)
                continue;
            if (st.out_dir != Direction::kLocal) {
                Router *nbr =
                    neighbors_[static_cast<std::size_t>(out)];
                CATNAP_ASSERT(nbr != nullptr,
                              "route out of mesh at node ", node_);
                if (!nbr->can_accept_at(arrival))
                    continue;
                if (params_.port_gating &&
                    !nbr->can_accept_port_at(opposite(st.out_dir),
                                             arrival)) {
                    continue;
                }
            }
            nominee_vc[static_cast<std::size_t>(inport)] = invc;
            nominated_outs |= 1u << out;
            break;
        }
    }

    // Output arbitration among nominating inputs.
    std::array<int, kNumPorts> winner_in;
    winner_in.fill(-1);
    for (int out = 0; out < kNumPorts; ++out) {
        if ((nominated_outs & (1u << out)) == 0)
            continue;
        const auto o = static_cast<std::size_t>(out);
        for (int i = 0; i < kNumPorts; ++i) {
            int inport = sa_output_rr_[o] + i;
            if (inport >= kNumPorts)
                inport -= kNumPorts;
            const int invc = nominee_vc[static_cast<std::size_t>(inport)];
            if (invc < 0)
                continue;
            const auto &st = vc_state_[fifo_index(inport, invc)];
            if (port_index(st.out_dir) != out)
                continue;
            winner_in[o] = inport;
            sa_output_rr_[o] = inport + 1 == kNumPorts ? 0 : inport + 1;
            break;
        }
    }

    // Traversal for winners.
    for (int out = 0; out < kNumPorts; ++out) {
        const int inport = winner_in[static_cast<std::size_t>(out)];
        if (inport < 0)
            continue;
        const int invc = nominee_vc[static_cast<std::size_t>(inport)];
        const auto idx = fifo_index(inport, invc);
        auto &st = vc_state_[idx];
        auto &fifo = fifos_[idx];

        Flit f = fifo.pop();
        --total_buffered_;
        if (fifo.empty())
            nonempty_ &= ~slot_bit(idx);
        sa_input_rr_[static_cast<std::size_t>(inport)] =
            invc + 1 == num_vcs ? 0 : invc + 1;

        ++activity_.buffer_reads;
        ++activity_.xbar_traversals;
        ++activity_.arb_ops;
        ++switched_flits_;
        head_block_cycles_ += (now > st.head_since)
            ? (now - st.head_since) : 0;

        // Consume a credit toward the downstream buffer.
        --out_credits_[fifo_index(out, st.out_vc)];

        // Return a credit for the buffer slot this flit vacated.
        if (inport == port_index(Direction::kLocal)) {
            CATNAP_ASSERT(local_client_, "no NI attached at node ", node_);
            local_client_->return_local_credit(
                invc, now + static_cast<Cycle>(params_.credit_delay));
        } else {
            Router *up = neighbors_[static_cast<std::size_t>(inport)];
            CATNAP_ASSERT(up != nullptr, "credit to missing neighbour");
            up->deliver_credit(
                opposite(direction_from_index(inport)), invc,
                now + static_cast<Cycle>(params_.credit_delay));
        }

        if (st.out_dir == Direction::kLocal) {
            CATNAP_ASSERT(local_client_, "no NI attached at node ", node_);
            local_client_->eject_flit(
                f, now + static_cast<Cycle>(params_.st_delay));
        } else {
            Router *nbr = neighbors_[static_cast<std::size_t>(out)];
            ++activity_.link_flits;
            // Look-ahead routing: stamp the output port the flit will
            // take at the downstream router before it leaves.
            Flit next = f;
            next.out_dir = xy_route(mesh_, nbr->node(), f.dst);
            next.vc = st.out_vc;
            // Dateline tracking: carry the crossed bit along the current
            // ring (including a crossing on this hop); a turn into the
            // next dimension starts that ring's journey uncrossed.
            next.wrapped =
                same_dimension(st.out_dir, next.out_dir) &&
                (f.wrapped || mesh_.link_wraps(node_, st.out_dir));
            nbr->deliver_flit(
                next, opposite(st.out_dir),
                now + static_cast<Cycle>(params_.st_delay
                                         + params_.link_delay));
        }

        if (f.is_tail()) {
            out_owner_[fifo_index(out, st.out_vc)] = 0;
            st.active = false;
            st.out_vc = kInvalidVc;
        }
        st.head_since = now + 1;
    }

    // Heads that waited this cycle without switching accumulate blocking
    // delay implicitly via head_since; nothing further to do here.
}

void
Router::deliver_flit(const Flit &flit, Direction inport, Cycle ready)
{
    arrivals_.push_back(Arrival{ready, inport, flit});
}

void
Router::deliver_credit(Direction port, VcId vc, Cycle ready)
{
    credit_events_.push_back(CreditEvent{ready, port, vc});
}

void
Router::commit(Cycle now)
{
    if (failed_)
        return; // a dead router has no queued effects and no FSM to run
    // Advance the power FSMs before accepting arrivals so a wake-up
    // that completes this cycle can receive the flit timed to land now.
    if (power_state_ == PowerState::kWakeup && now >= wake_done_) {
        power_state_ = PowerState::kActive;
        if (sink_)
            sink_->on_event(
                {now, EventKind::kRouterActive, node_, subnet_, 0, 0, 0});
    }
    if (params_.port_gating) {
        for (auto &pp : port_power_) {
            if (pp.state == PowerState::kWakeup && now >= pp.wake_done)
                pp.state = PowerState::kActive;
        }
    }

    apply_credits(now);
    apply_arrivals(now);

    if (buffers_empty()) {
        if (idle_streak_ < std::numeric_limits<int>::max())
            ++idle_streak_;
        if (sink_ && idle_streak_ == params_.t_idle_detect &&
            power_state_ == PowerState::kActive) {
            sink_->on_event({now, EventKind::kRouterIdleDetect, node_,
                             subnet_, idle_streak_, 0, 0});
        }
    } else {
        idle_streak_ = 0;
    }
    if (params_.port_gating) {
        for (int p = 0; p < kNumPorts; ++p) {
            auto &pp = port_power_[static_cast<std::size_t>(p)];
            if (port_occupancy(direction_from_index(p)) == 0) {
                if (pp.idle_streak < std::numeric_limits<int>::max())
                    ++pp.idle_streak;
            } else {
                pp.idle_streak = 0;
            }
        }
    }
}

void
Router::apply_arrivals(Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        Arrival &a = arrivals_[i];
        if (a.ready > now) {
            arrivals_[kept++] = a;
            continue;
        }
        CATNAP_ASSERT(power_state_ == PowerState::kActive,
                      "flit arrived at a non-active router ", node_,
                      " subnet ", subnet_, " state ",
                      power_state_name(power_state_));
        if (params_.port_gating) {
            const auto &pp =
                port_power_[static_cast<std::size_t>(port_index(a.inport))];
            CATNAP_ASSERT(pp.state == PowerState::kActive,
                          "flit arrived at a gated port of router ",
                          node_);
        }
        CATNAP_ASSERT(a.flit.vc >= 0 && a.flit.vc < params_.num_vcs,
                      "flit with unallocated VC");
        const auto idx = fifo_index(port_index(a.inport), a.flit.vc);
        auto &fifo = fifos_[idx];
        CATNAP_ASSERT(!fifo.full(), "buffer overflow despite credits at ",
                      node_, " port ", direction_name(a.inport));
        if (fifo.empty())
            vc_state_[idx].head_since = now + 1;
        fifo.push(a.flit);
        nonempty_ |= slot_bit(idx);
        ++total_buffered_;
        ++activity_.buffer_writes;

        if (a.flit.is_head()) {
            // The announced packet has arrived.
            if (params_.port_gating) {
                auto &pp = port_power_[static_cast<std::size_t>(
                    port_index(a.inport))];
                CATNAP_ASSERT(pp.expected > 0,
                              "unannounced head flit at node ", node_);
                --pp.expected;
            } else {
                CATNAP_ASSERT(expected_packets_ > 0,
                              "unannounced head flit at node ", node_);
                --expected_packets_;
            }
            // Announce it one hop further and send the look-ahead wake
            // signal to the next router (Section 3.3).
            if (a.flit.out_dir != Direction::kLocal) {
                Router *nxt = neighbors_[static_cast<std::size_t>(
                    port_index(a.flit.out_dir))];
                CATNAP_ASSERT(nxt != nullptr, "head routed off mesh");
                if (params_.port_gating) {
                    nxt->note_expected_packet_at(
                        opposite(a.flit.out_dir));
                    nxt->request_port_wakeup(opposite(a.flit.out_dir));
                } else {
                    nxt->note_expected_packet();
                    nxt->request_wakeup();
                }
            }
        }
    }
    arrivals_.resize(kept);
}

void
Router::apply_credits(Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < credit_events_.size(); ++i) {
        CreditEvent &c = credit_events_[i];
        if (c.ready > now) {
            credit_events_[kept++] = c;
            continue;
        }
        ++out_credits_[fifo_index(port_index(c.port), c.vc)];
        CATNAP_ASSERT(
            out_credits_[fifo_index(port_index(c.port), c.vc)] <=
                params_.vc_depth_flits ||
                c.port == Direction::kLocal,
            "credit overflow at node ", node_);
    }
    credit_events_.resize(kept);
}

bool
Router::can_sleep() const
{
    if (failed_ || power_state_ != PowerState::kActive)
        return false;
    // Seeded mutation (tools/model/ self-test): skip every occupancy
    // and idle-detect condition, i.e. the bug class property P4 exists
    // to catch. See set_model_unsafe_sleep_for_test().
    if (unsafe_sleep_for_test_)
        return true;
    if (idle_streak_ < params_.t_idle_detect)
        return false;
    if (!arrivals_.empty() || expected_packets_ > 0)
        return false;
    for (const auto &st : vc_state_)
        if (st.active)
            return false;
    return true;
}

void
Router::enter_sleep(Cycle now)
{
    CATNAP_ASSERT(power_state_ == PowerState::kActive, "sleep from non-active");
    CATNAP_ASSERT(buffers_empty() || unsafe_sleep_for_test_,
                  "sleep with buffered flits");
    power_state_ = PowerState::kSleep;
    sleep_start_ = now;
    ++activity_.sleep_transitions;
    if (sink_)
        sink_->on_event(
            {now, EventKind::kRouterSleep, node_, subnet_, 0, 0, 0});
}

void
Router::begin_wakeup(Cycle now, WakeReason reason)
{
    if (failed_ || power_state_ != PowerState::kSleep)
        return;
    const auto period = static_cast<std::int64_t>(now - sleep_start_);
    const auto be = static_cast<std::int64_t>(params_.t_breakeven);
    const std::int64_t csc_total = std::max<std::int64_t>(0, period - be);
    const std::int64_t net_total = period - be;
    activity_.compensated_sleep_cycles += csc_total - csc_credited_;
    activity_.net_sleep_savings_cycles += net_total - net_credited_;
    csc_credited_ = 0;
    net_credited_ = 0;
    power_state_ = PowerState::kWakeup;
    // A wake-stuck fault arms a wake that never matures; only a retry
    // escalation or hard failure ends it.
    wake_done_ =
        wake_stuck_ ? kNoCycle : now + static_cast<Cycle>(params_.t_wakeup);
    if (sink_)
        sink_->on_event({now, EventKind::kRouterWakeBegin, node_, subnet_,
                         static_cast<std::int32_t>(reason),
                         params_.t_wakeup, 0});
}

void
Router::retry_wakeup(Cycle now)
{
    if (failed_ || power_state_ != PowerState::kWakeup)
        return;
    if (wake_stuck_) {
        wake_done_ = kNoCycle; // re-asserted, hangs again
        return;
    }
    // A healthy wake already counting down must never be pushed back:
    // upstream routers may have flits in flight timed to the current
    // wake_done_ (can_accept_at admitted them).
    const Cycle done = now + static_cast<Cycle>(params_.t_wakeup);
    if (done < wake_done_)
        wake_done_ = done;
}

void
Router::fail(std::vector<Flit> *dropped)
{
    if (failed_)
        return;
    for (auto &fifo : fifos_) {
        while (!fifo.empty())
            dropped->push_back(fifo.pop());
    }
    total_buffered_ = 0;
    nonempty_ = 0;
    for (auto &st : vc_state_)
        st = InputVcState{};
    for (const auto &a : arrivals_)
        dropped->push_back(a.flit);
    arrivals_.clear();
    credit_events_.clear();
    std::fill(out_owner_.begin(), out_owner_.end(), 0);
    for (int p = 0; p < kNumPorts; ++p) {
        for (int vc = 0; vc < params_.num_vcs; ++vc) {
            const auto idx = fifo_index(p, vc);
            if (p == port_index(Direction::kLocal))
                out_credits_[idx] = kLocalPortCredits;
            else
                out_credits_[idx] = neighbors_[static_cast<std::size_t>(p)]
                                        ? params_.vc_depth_flits
                                        : 0;
        }
    }
    expected_packets_ = 0;
    wake_requested_ = false;
    idle_streak_ = 0;
    // Leave kActive behind so no invariant sees an impossible FSM edge;
    // failed() short-circuits every service path from here on.
    power_state_ = PowerState::kActive;
    failed_ = true;
}

bool
Router::can_accept_port_at(Direction inport, Cycle arrival) const
{
    if (!params_.port_gating)
        return can_accept_at(arrival);
    const auto &pp =
        port_power_[static_cast<std::size_t>(port_index(inport))];
    switch (pp.state) {
      case PowerState::kActive: return true;
      case PowerState::kWakeup: return pp.wake_done <= arrival;
      case PowerState::kSleep:  return false;
    }
    return false;
}

void
Router::note_expected_packet_at(Direction inport)
{
    ++port_power_[static_cast<std::size_t>(port_index(inport))].expected;
}

void
Router::request_port_wakeup(Direction inport)
{
    port_power_[static_cast<std::size_t>(port_index(inport))]
        .wake_requested = true;
}

PowerState
Router::port_power_state(Direction inport) const
{
    return port_power_[static_cast<std::size_t>(port_index(inport))].state;
}

bool
Router::port_wake_requested(Direction inport) const
{
    return port_power_[static_cast<std::size_t>(port_index(inport))]
        .wake_requested;
}

void
Router::clear_port_wake_request(Direction inport)
{
    port_power_[static_cast<std::size_t>(port_index(inport))]
        .wake_requested = false;
}

bool
Router::port_can_sleep(Direction inport) const
{
    const int p = port_index(inport);
    const auto &pp = port_power_[static_cast<std::size_t>(p)];
    if (pp.state != PowerState::kActive)
        return false;
    if (pp.idle_streak < params_.t_idle_detect || pp.expected > 0)
        return false;
    for (const auto &a : arrivals_) {
        if (port_index(a.inport) == p)
            return false;
    }
    for (int vc = 0; vc < params_.num_vcs; ++vc) {
        if (vc_state_[fifo_index(p, vc)].active)
            return false;
    }
    return true;
}

void
Router::port_enter_sleep(Direction inport, Cycle now)
{
    auto &pp = port_power_[static_cast<std::size_t>(port_index(inport))];
    CATNAP_ASSERT(pp.state == PowerState::kActive,
                  "port sleep from non-active state");
    pp.state = PowerState::kSleep;
    pp.sleep_start = now;
    ++activity_.port_sleep_transitions;
}

void
Router::port_begin_wakeup(Direction inport, Cycle now)
{
    auto &pp = port_power_[static_cast<std::size_t>(port_index(inport))];
    if (pp.state != PowerState::kSleep)
        return;
    const auto period = static_cast<std::int64_t>(now - pp.sleep_start);
    const auto be = static_cast<std::int64_t>(params_.t_breakeven);
    const std::int64_t csc_total = std::max<std::int64_t>(0, period - be);
    const std::int64_t net_total = period - be;
    activity_.port_compensated_sleep_cycles += csc_total - pp.csc_credited;
    activity_.port_net_sleep_savings_cycles += net_total - pp.net_credited;
    pp.csc_credited = 0;
    pp.net_credited = 0;
    pp.state = PowerState::kWakeup;
    pp.wake_done = now + static_cast<Cycle>(params_.t_wakeup);
}

void
Router::account_port_power_cycles()
{
    for (const auto &pp : port_power_) {
        if (pp.state == PowerState::kSleep)
            ++activity_.port_sleep_cycles;
    }
}

void
Router::flush_sleep_accounting(Cycle now)
{
    if (power_state_ != PowerState::kSleep)
        return;
    const auto period = static_cast<std::int64_t>(now - sleep_start_);
    const auto be = static_cast<std::int64_t>(params_.t_breakeven);
    const std::int64_t csc_total = std::max<std::int64_t>(0, period - be);
    const std::int64_t net_total = period - be;
    activity_.compensated_sleep_cycles += csc_total - csc_credited_;
    activity_.net_sleep_savings_cycles += net_total - net_credited_;
    csc_credited_ = csc_total;
    net_credited_ = net_total;
}

void
Router::flush_port_sleep_accounting(Cycle now)
{
    if (!params_.port_gating)
        return;
    for (auto &pp : port_power_) {
        if (pp.state != PowerState::kSleep)
            continue;
        const auto period =
            static_cast<std::int64_t>(now - pp.sleep_start);
        const auto be = static_cast<std::int64_t>(params_.t_breakeven);
        const std::int64_t csc_total =
            std::max<std::int64_t>(0, period - be);
        const std::int64_t net_total = period - be;
        activity_.port_compensated_sleep_cycles +=
            csc_total - pp.csc_credited;
        activity_.port_net_sleep_savings_cycles +=
            net_total - pp.net_credited;
        pp.csc_credited = csc_total;
        pp.net_credited = net_total;
    }
}

void
Router::account_power_cycle()
{
    if (failed_) {
        // A dead router draws nothing worth modelling; count it with the
        // gated cycles so power totals reflect the lost capacity.
        ++activity_.sleep_cycles;
        return;
    }
    if (power_state_ == PowerState::kSleep)
        ++activity_.sleep_cycles;
    else
        ++activity_.active_cycles;
}

int
Router::port_occupancy(Direction p) const
{
    int total = 0;
    for (int vc = 0; vc < params_.num_vcs; ++vc)
        total += static_cast<int>(vc_fifo(port_index(p), vc).size());
    return total;
}

int
Router::max_port_occupancy() const
{
    if (total_buffered_ == 0)
        return 0; // congestion sampling asks every router every cycle
    int best = 0;
    for (int p = 0; p < kNumPorts; ++p)
        best = std::max(best, port_occupancy(direction_from_index(p)));
    return best;
}

double
Router::avg_port_occupancy() const
{
    return static_cast<double>(total_occupancy()) / kNumPorts;
}

int
Router::total_occupancy() const
{
    return total_buffered_;
}

bool
Router::buffers_empty() const
{
    return total_buffered_ == 0;
}

int
Router::output_credits(Direction p, VcId vc) const
{
    return out_credits_[fifo_index(port_index(p), vc)];
}

int
Router::vc_occupancy(Direction p, VcId vc) const
{
    return static_cast<int>(vc_fifo(port_index(p), vc).size());
}

int
Router::pending_arrivals_for(Direction p, VcId vc) const
{
    int count = 0;
    for (const auto &a : arrivals_) {
        if (a.inport == p && a.flit.vc == vc)
            ++count;
    }
    return count;
}

int
Router::pending_credits_for(Direction p, VcId vc) const
{
    int count = 0;
    for (const auto &c : credit_events_) {
        if (c.port == p && c.vc == vc)
            ++count;
    }
    return count;
}

void
Router::corrupt_output_credit_for_test(Direction p, VcId vc, int delta)
{
    out_credits_[fifo_index(port_index(p), vc)] += delta;
}

bool
Router::vc_active(Direction p, VcId vc) const
{
    return vc_state_[fifo_index(port_index(p), vc)].active;
}

std::vector<int>
Router::arrival_lag_histogram(Direction inport, Cycle now,
                              int horizon) const
{
    std::vector<int> hist(static_cast<std::size_t>(horizon) + 1, 0);
    for (const auto &a : arrivals_) {
        if (a.inport != inport)
            continue;
        const Cycle lag = a.ready > now ? a.ready - now : 0;
        const auto capped =
            lag < static_cast<Cycle>(horizon) ? lag
                                              : static_cast<Cycle>(horizon);
        ++hist[static_cast<std::size_t>(capped)];
    }
    return hist;
}

} // namespace catnap
