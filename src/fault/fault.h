/**
 * @file
 * Deterministic fault injector + graceful-degradation controller
 * (DESIGN.md §10).
 *
 * The FaultController executes a FaultPlan against a live MultiNoc. It
 * hooks into the tick loop at two points -- pre_cycle() before the
 * evaluate phase (scheduled hard faults, delayed wake delivery) and
 * post_congestion() right after the congestion update (RCS glitches, so
 * a glitch lands on the freshly latched value) -- plus two callback
 * paths: the gating layer routes every look-ahead wake through
 * intercept_wake() (loss/delay faults) and asks for escalation when a
 * wake exhausts its retries, and destination NIs report tail-flit
 * ejection through note_delivered() so source NIs can retire their
 * end-to-end delivery timers.
 *
 * Hard faults (router death, dead link, wake escalation) have subnet
 * granularity: fail_subnet() atomically purges every router and NI slot
 * of the subnet, accounts each dropped flit, notifies the source NI of
 * every lost packet (triggering retransmission on a healthy subnet), and
 * publishes the health transition. Determinism: all randomness comes
 * from a private Rng seeded with FaultPlan::seed; the network's own
 * stream is never touched.
 */
#ifndef CATNAP_FAULT_FAULT_H
#define CATNAP_FAULT_FAULT_H

#include <cstdint>
#include <vector>

#include "common/phase.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "fault/wake_fault.h"
#include "obs/event.h"

namespace catnap {

class MultiNoc;
class Router;
struct Flit;

class FaultController final : public WakeFaultModel
{
  public:
    /** Binds the plan to @p noc (not owned). Sorts scheduled events. */
    FaultController(MultiNoc *noc, const FaultPlan &plan);

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink);

    /** Runs before the evaluate phase: fires scheduled hard faults and
     * delivers delayed wake-ups that have matured. */
    CATNAP_PHASE_WRITE void pre_cycle(Cycle now);

    /** Runs right after the congestion update: injects scheduled and
     * probabilistic RCS glitches onto the freshly latched status. */
    CATNAP_PHASE_WRITE void post_congestion(Cycle now);

    /**
     * Called by the gating layer for every pending look-ahead wake-up.
     * Returns true when the fault model swallows (or defers) the wake;
     * the caller must then NOT call begin_wakeup.
     */
    CATNAP_PHASE_WRITE bool intercept_wake(Router *router,
                                           Cycle now) override;

    /** A wake exhausted its retry budget: hard-fail the router (and with
     * it the subnet). */
    CATNAP_PHASE_WRITE void escalate_wake_failure(Router *router,
                                                  Cycle now) override;

    /** Emits the kWakeRetry trace event for the gating layer. */
    void note_wake_retry(const Router &router, int retry, Cycle backoff,
                         Cycle now) override;

    /** Destination NI saw @p tail eject: ack the source NI's timer. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    note_delivered(const Flit &tail);

    const HealthMask &health() const override { return monitor_.mask(); }

    /** Subnet currently holding subnet 0's never-sleep duty. */
    SubnetId never_sleep_subnet() const override
    {
        return monitor_.never_sleep_subnet();
    }

    const FaultTuning &tuning() const override { return plan_.tuning; }
    const FaultPlan &plan() const { return plan_; }

    /** Individual fault activations so far (scheduled + probabilistic). */
    std::uint64_t faults_fired() const { return faults_fired_; }

    /** Subnets lost to hard faults so far. */
    std::uint64_t subnet_failures() const { return monitor_.subnet_failures(); }

  private:
    /** A wake deferred by a kDelayedWake window, waiting to mature. */
    struct DelayedWake {
        Cycle fire_at;
        SubnetId subnet;
        NodeId node;
    };

    /** Active loss/delay window over one router's wake-up signal. */
    struct WakeWindow {
        Cycle from;
        Cycle until; // exclusive
        SubnetId subnet;
        NodeId node;
        bool delay; // false: lose the wake; true: defer it
        Cycle delay_by;
    };

    void fire(const FaultEvent &ev, Cycle now);
    void fail_subnet(SubnetId s, NodeId root, Cycle now);
    CATNAP_PHASE_WRITE void emit_fault(FaultKind kind, NodeId node, SubnetId subnet,
                    std::int32_t detail, Cycle now);

    MultiNoc *noc_;
    FaultPlan plan_;
    HealthMonitor monitor_;
    Rng rng_;
    EventSink *sink_ = nullptr;

    /** Scheduled hard faults (router/link/wake-stuck), sorted by cycle. */
    std::vector<FaultEvent> timeline_;
    std::size_t next_event_ = 0;
    /** Scheduled RCS glitches, sorted by cycle. */
    std::vector<FaultEvent> glitches_;
    std::size_t next_glitch_ = 0;

    std::vector<WakeWindow> windows_;
    std::vector<DelayedWake> delayed_;
    std::uint64_t faults_fired_ = 0;
};

} // namespace catnap

#endif // CATNAP_FAULT_FAULT_H
