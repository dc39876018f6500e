#include "catnap/gating.h"

#include <algorithm>

#include "catnap/congestion.h"
#include "common/log.h"
#include "fault/wake_fault.h"
#include "noc/router.h"
#include "topology/topology.h"

namespace catnap {

const char *
gating_kind_name(GatingKind k)
{
    switch (k) {
      case GatingKind::kAlwaysOn: return "AlwaysOn";
      case GatingKind::kIdle:     return "IdleGate";
      case GatingKind::kCatnap:   return "CatnapGate";
      case GatingKind::kFinePort: return "FinePortGate";
    }
    return "?";
}

const GatingPolicy::WakeRetryState &
GatingPolicy::retry_state(SubnetId s, NodeId n) const
{
    static const WakeRetryState kDefault{};
    const auto si = static_cast<std::size_t>(s);
    const auto ni = static_cast<std::size_t>(n);
    if (si >= retry_.size() || ni >= retry_[si].size())
        return kDefault;
    return retry_[si][ni];
}

void
GatingPolicy::service_wake_requests(Cycle now)
{
    for (auto &subnet : routers_) {
        for (Router *r : subnet) {
            if (!r->wake_requested())
                continue;
            r->clear_wake_request();
            if (fault_ && fault_->intercept_wake(r, now))
                continue; // the fault model swallowed or deferred it
            r->begin_wakeup(now);
        }
    }
}

void
GatingPolicy::service_wake_retries(Cycle now)
{
    if (!fault_)
        return;
    const FaultTuning &t = fault_->tuning();
    if (retry_.size() != routers_.size())
        retry_.resize(routers_.size());
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        auto &subnet = routers_[s];
        auto &states = retry_[s];
        if (states.size() != subnet.size())
            states.resize(subnet.size());
        for (std::size_t n = 0; n < subnet.size(); ++n) {
            Router *r = subnet[n];
            WakeRetryState &st = states[n];
            if (r->failed()) {
                st = WakeRetryState{};
                continue;
            }
            // A wake is "pending" while the router is mid-wake-up, or
            // asleep with announced packets (its look-ahead wake signal
            // was lost and flits are heading its way).
            const bool pending =
                r->power_state() == PowerState::kWakeup ||
                (r->power_state() == PowerState::kSleep &&
                 r->expected_packets() > 0);
            if (!pending) {
                st = WakeRetryState{};
                continue;
            }
            if (st.pending_since == kNoCycle) {
                st.pending_since = now;
                st.next_check = now + t.t_wake_timeout;
                st.retries = 0;
                continue;
            }
            if (now < st.next_check)
                continue;
            if (st.retries >= t.max_wake_retries) {
                fault_->escalate_wake_failure(r, now);
                st = WakeRetryState{};
                continue;
            }
            ++st.retries;
            if (r->power_state() == PowerState::kSleep)
                r->begin_wakeup(now, WakeReason::kRetry);
            else
                r->retry_wakeup(now);
            const Cycle backoff =
                t.t_wake_timeout
                << std::min(st.retries, t.backoff_cap_exp);
            st.next_check = now + backoff;
            fault_->note_wake_retry(*r, st.retries, backoff, now);
        }
    }
}

void
AlwaysOnPolicy::step(Cycle now)
{
    // Routers never sleep; just clear (and implicitly ignore) requests.
    for (auto &subnet : routers_) {
        for (Router *r : subnet) {
            r->clear_wake_request();
            r->account_power_cycle();
        }
    }
    (void)now;
}

void
IdleGatingPolicy::step(Cycle now)
{
    service_wake_requests(now);
    service_wake_retries(now);
    for (auto &subnet : routers_) {
        for (Router *r : subnet) {
            if (r->failed()) {
                r->account_power_cycle();
                continue;
            }
            if (r->can_sleep())
                r->enter_sleep(now);
            r->account_power_cycle();
        }
    }
}

void
FinePortGatingPolicy::step(Cycle now)
{
    for (auto &subnet : routers_) {
        for (Router *r : subnet) {
            for (int p = 0; p < kNumPorts; ++p) {
                const Direction d = direction_from_index(p);
                if (r->port_wake_requested(d)) {
                    r->port_begin_wakeup(d, now);
                    r->clear_port_wake_request(d);
                }
                if (r->port_can_sleep(d))
                    r->port_enter_sleep(d, now);
            }
            r->clear_wake_request(); // router-level FSM unused here
            r->account_power_cycle();
            r->account_port_power_cycles();
        }
    }
}

CatnapGatingPolicy::CatnapGatingPolicy(const ConcentratedMesh &mesh,
                                       const CongestionState *congestion)
    : mesh_(mesh), congestion_(congestion)
{
    CATNAP_ASSERT(congestion_ != nullptr,
                  "Catnap gating requires the congestion detector");
}

void
CatnapGatingPolicy::step(Cycle now)
{
    service_wake_requests(now);
    service_wake_retries(now);
    // Without faults, subnet 0 is the never-sleep subnet (Section 3.3).
    // Under the fault model the lowest *healthy* subnet takes that role
    // (DESIGN.md §10), and the priority chain skips failed subnets.
    const SubnetId promoted = fault_ ? fault_->never_sleep_subnet() : 0;
    for (std::size_t s = 0; s < routers_.size(); ++s) {
        auto &subnet = routers_[s];
        for (Router *r : subnet) {
            if (fault_ && r->failed()) {
                r->account_power_cycle();
                continue;
            }
            if (static_cast<SubnetId>(s) == promoted) {
                // The never-sleep subnet is always kept active; a freshly
                // promoted subnet may still be asleep and must be woken.
                if (fault_ && r->power_state() == PowerState::kSleep)
                    r->begin_wakeup(now, WakeReason::kRcs);
                r->account_power_cycle();
                continue;
            }
            if (promoted == kNoSubnet) {
                // Every subnet failed; nothing left to gate.
                r->account_power_cycle();
                continue;
            }
            const SubnetId lower =
                fault_ ? fault_->health().next_lower_healthy(
                             static_cast<SubnetId>(s))
                       : static_cast<SubnetId>(s) - 1;
            if (lower == kNoSubnet) {
                r->account_power_cycle();
                continue;
            }
            const bool lower_congested =
                congestion_->congested(r->node(), lower);
            if (r->power_state() == PowerState::kSleep) {
                // Wake as soon as the lower-order subnet congests: new
                // packets are about to be steered our way.
                if (lower_congested)
                    r->begin_wakeup(now, WakeReason::kRcs);
            } else if (r->can_sleep() && !lower_congested) {
                r->enter_sleep(now);
            }
            r->account_power_cycle();
        }
    }
}

std::unique_ptr<GatingPolicy>
make_gating_policy(GatingKind kind, const ConcentratedMesh &mesh,
                   const CongestionState *congestion)
{
    switch (kind) {
      case GatingKind::kAlwaysOn:
        return std::make_unique<AlwaysOnPolicy>();
      case GatingKind::kIdle:
        return std::make_unique<IdleGatingPolicy>();
      case GatingKind::kCatnap:
        return std::make_unique<CatnapGatingPolicy>(mesh, congestion);
      case GatingKind::kFinePort:
        return std::make_unique<FinePortGatingPolicy>();
    }
    CATNAP_PANIC("unknown gating kind");
}

} // namespace catnap
