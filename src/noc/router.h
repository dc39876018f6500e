/**
 * @file
 * Two-stage speculative input-buffered virtual-channel router with
 * wormhole switching, look-ahead X-Y routing, credit-based flow control,
 * and power-gating hooks (Sections 2.1, 3.1, 3.3 of the paper).
 *
 * Pipeline model: a flit that is visible in an input buffer at cycle t
 * may perform VC allocation and (speculative) switch allocation in the
 * same evaluate step; a switch-allocation winner traverses the crossbar
 * and the output link, becoming visible in the downstream buffer at
 * t + st_delay + link_delay (3-cycle per-hop latency with the default
 * 1+1+1 parameters, matching a 2-stage router plus a 1-cycle link).
 *
 * Simulation discipline: each cycle runs three phases over all routers —
 * evaluate() (reads only state committed in previous cycles; queues
 * effects), commit() (applies queued arrivals/credits and advances the
 * power FSM), and a policy phase owned by the gating policy (wake/sleep
 * transitions). This two-phase-plus-policy structure makes results
 * independent of router iteration order.
 */
#ifndef CATNAP_NOC_ROUTER_H
#define CATNAP_NOC_ROUTER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/phase.h"
#include "common/types.h"
#include "noc/buffer.h"
#include "noc/flit.h"
#include "noc/params.h"
#include "obs/event.h"
#include "power/activity.h"
#include "topology/topology.h"

namespace catnap {

/**
 * Interface the router uses to talk to the node's network interface over
 * its local port: ejecting flits and returning injection credits.
 */
class LocalPortClient
{
  public:
    virtual ~LocalPortClient() = default;

    /** A credit for VC @p vc of the local input port, usable at @p ready.
     * A declared mailbox crossing: the router appends into the NI's
     * staging queues during evaluate (order-independent). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual void
    return_local_credit(VcId vc, Cycle ready) = 0;

    /** Flit ejected through the local output port, arriving at @p ready. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual void
    eject_flit(const Flit &flit, Cycle ready) = 0;
};

/**
 * One router of one subnet. See file comment for the pipeline and
 * phasing model.
 */
class Router
{
  public:
    /** Most VCs per input port: the allocators' request set is one bit
     * per (port, VC) input FIFO in a 64-bit mask. */
    static constexpr int kMaxVcs = 64 / kNumPorts;

    /**
     * Creates a router.
     *
     * @param node its position in the mesh
     * @param subnet which subnet it belongs to (0 == lowest order)
     * @param params structural/timing parameters shared by the subnet
     * @param mesh the topology (used for look-ahead route computation)
     */
    Router(NodeId node, SubnetId subnet, const SubnetParams &params,
           const ConcentratedMesh &mesh);

    /** Wires the neighbour in direction @p d (nullptr at mesh edges). */
    void connect(Direction d, Router *neighbor);

    /** Registers the NI-side client of the local port. */
    void set_local_client(LocalPortClient *client) { local_client_ = client; }

    /** Attaches the trace-event sink (null disables emission). */
    void set_sink(EventSink *sink) { sink_ = sink; }

    // ------------------------------------------------------------------
    // Per-cycle phases
    // ------------------------------------------------------------------

    /** Phase 1: VC allocation + switch allocation + traversal decisions. */
    CATNAP_PHASE_READ void evaluate(Cycle now);

    /** Phase 2: apply queued arrivals and credits; advance power FSM. */
    CATNAP_PHASE_WRITE void commit(Cycle now);

    // ------------------------------------------------------------------
    // Upstream-facing interface (called by neighbours / the NI)
    // ------------------------------------------------------------------

    /**
     * Hands over a flit that will be written into input port @p inport
     * at cycle @p ready. The caller must have checked can_accept_at().
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void deliver_flit(const Flit &flit,
                                        Direction inport, Cycle ready);

    /** Returns a credit for output port @p port, VC @p vc at @p ready. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void deliver_credit(Direction port, VcId vc,
                                          Cycle ready);

    /**
     * Look-ahead wake signal (Section 3.3): asks the gating policy to
     * wake this router in the current cycle's policy phase.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void request_wakeup() { wake_requested_ = true; }

    /**
     * Announces that a packet head has been committed one hop upstream
     * (or entered the NI's injection slot) and will eventually arrive.
     * Routers with announced packets refuse to sleep.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void note_expected_packet() { ++expected_packets_; }

    /** True if the router can receive a flit arriving at @p arrival. */
    bool can_accept_at(Cycle arrival) const;

    // ------------------------------------------------------------------
    // Fine-grained per-port gating (params.port_gating; Matsutani [20]).
    // The router-level FSM stays Active in this mode; each input port
    // has its own sleep/wake state driven by FinePortGatingPolicy.
    // ------------------------------------------------------------------

    /** True if input port @p inport can take a flit arriving then. */
    bool can_accept_port_at(Direction inport, Cycle arrival) const;

    /** Announces an inbound packet for @p inport (blocks its sleep). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void note_expected_packet_at(Direction inport);

    /** Look-ahead wake signal addressed to one input port. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void request_port_wakeup(Direction inport);

    /** Power state of input port @p inport (Active when not gating). */
    PowerState port_power_state(Direction inport) const;

    /** True if @p inport may sleep (structural conditions only). */
    bool port_can_sleep(Direction inport) const;

    /** Puts @p inport to sleep / starts waking it (policy phase). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void port_enter_sleep(Direction inport, Cycle now);
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void port_begin_wakeup(Direction inport, Cycle now);

    /** True if a wake signal arrived for @p inport this cycle. */
    bool port_wake_requested(Direction inport) const;
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void clear_port_wake_request(Direction inport);

    /** Accounts one cycle of port power-state residency (all ports). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void account_port_power_cycles();

    // ------------------------------------------------------------------
    // Power FSM (driven by the gating policy in the policy phase)
    // ------------------------------------------------------------------

    /** Current power state. */
    PowerState power_state() const { return power_state_; }

    /** Cycle at which a wake-up in progress completes. */
    Cycle wake_done_cycle() const { return wake_done_; }

    /** True if a look-ahead wake signal arrived this cycle. */
    bool wake_requested() const { return wake_requested_; }

    /** Clears the wake-request flag (policy phase). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void clear_wake_request() { wake_requested_ = false; }

    /**
     * True when the router satisfies every structural condition for
     * sleeping: Active, buffers empty for >= t_idle_detect cycles, no
     * in-flight arrivals, no announced packets, and no packet holding a
     * VC mid-stream. The gating policy adds its own conditions on top
     * (e.g. Catnap's RCS check).
     */
    bool can_sleep() const;

    /** Transitions Active -> Sleep (policy phase). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void enter_sleep(Cycle now);

    /** Starts Sleep -> Wakeup -> Active; no-op unless sleeping. @p reason
     * is recorded on the emitted trace event only. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void
    begin_wakeup(Cycle now, WakeReason reason = WakeReason::kLookahead);

    /** Accounts one cycle of residency in the current power state. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void account_power_cycle();

    // ------------------------------------------------------------------
    // Fault model (src/fault; DESIGN.md §10)
    // ------------------------------------------------------------------

    /** True once a hard fault has removed this router from service. */
    bool failed() const { return failed_; }

    /**
     * Wake-stuck fault: while set, begin_wakeup() and retry_wakeup()
     * arm a wake that never completes (wake_done_ = kNoCycle), modelling
     * a wake sequence that hangs until the gating layer escalates.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void set_wake_stuck(bool stuck) { wake_stuck_ = stuck; }
    bool wake_stuck() const { return wake_stuck_; }

    /**
     * Re-arms an in-progress wake-up (gating wake-retry path): restarts
     * the t_wakeup countdown as if the wake signal were re-asserted.
     * No-op unless the router is in kWakeup.
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void retry_wakeup(Cycle now);

    /**
     * Hard router failure: every buffered and in-flight flit is moved
     * into @p dropped (the fault controller accounts them and notifies
     * the source NIs), all allocation and power state is cleared, and
     * the router permanently refuses service. A failed router holds no
     * flits and accounts its cycles as sleep (a dead router leaks
     * nothing the power model should charge for).
     */
    CATNAP_SHARD_SAFE CATNAP_PHASE_WRITE void fail(std::vector<Flit> *dropped);

    /**
     * Folds an in-progress sleep period into the CSC counter without
     * waking the router (call at the end of a measurement interval so
     * still-sleeping routers are credited for their sleep so far).
     */
    CATNAP_PHASE_WRITE void flush_sleep_accounting(Cycle now);

    /** Same, for the per-port sleep periods of fine-grained gating. */
    CATNAP_PHASE_WRITE void flush_port_sleep_accounting(Cycle now);

    // ------------------------------------------------------------------
    // Observability (congestion metrics, tests, power model)
    // ------------------------------------------------------------------

    /** Flits buffered across all VCs of input port @p p. */
    int port_occupancy(Direction p) const;

    /** Maximum port occupancy over all input ports (the BFM metric). */
    int max_port_occupancy() const;

    /** Mean port occupancy over all input ports (the BFA metric). */
    double avg_port_occupancy() const;

    /** Total flits buffered in the router. */
    int total_occupancy() const;

    /** True if every input buffer is empty. */
    bool buffers_empty() const;

    /** Consecutive cycles (up to now) with all buffers empty. */
    int idle_streak() const { return idle_streak_; }

    /** Cumulative cycles head flits spent blocked (Delay metric input). */
    std::uint64_t head_block_cycles() const { return head_block_cycles_; }

    /** Cumulative flits that won switch allocation (Delay metric input). */
    std::uint64_t switched_flits() const { return switched_flits_; }

    /** Activity counters for the power model. */
    const ActivityCounters &activity() const { return activity_; }

    /** Credits one NI-side flit transfer to this router's activity
     * counters. An order-independent mailbox: the NI bumps its local
     * routers' monotonic counters during evaluate/commit, so this
     * replaces direct writes through a mutable activity() accessor
     * (which rule L7 rejects as an undeclared cross-shard write). */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ void
    note_ni_flit()
    {
        activity_.ni_flits += 1;
    }

    /** Node this router serves. */
    NodeId node() const { return node_; }

    /** Subnet this router belongs to. */
    SubnetId subnet() const { return subnet_; }

    /** Credits available on output port @p p, VC @p vc (tests). */
    int output_credits(Direction p, VcId vc) const;

    /** Number of queued (not yet committed) arrivals (tests). */
    std::size_t pending_arrivals() const { return arrivals_.size(); }

    /** Announced packets not yet arrived (tests). */
    int expected_packets() const { return expected_packets_; }

    // ------------------------------------------------------------------
    // Invariant-engine accessors (src/check): per-link conservation
    // arithmetic needs VC-granular visibility into buffers and the
    // in-flight arrival/credit queues.
    // ------------------------------------------------------------------

    /** Flits buffered in VC @p vc of input port @p p. */
    int vc_occupancy(Direction p, VcId vc) const;

    /** Queued (not yet committed) arrivals for input port @p p, VC @p vc. */
    int pending_arrivals_for(Direction p, VcId vc) const;

    /** In-flight credits queued toward output port @p p, VC @p vc. */
    int pending_credits_for(Direction p, VcId vc) const;

    /**
     * Test-only fault injection: skews the credit counter of output port
     * @p p, VC @p vc by @p delta so fault-injection tests can prove the
     * credit-conservation invariant fires. Never call outside tests.
     */
    void corrupt_output_credit_for_test(Direction p, VcId vc, int delta);

    // ------------------------------------------------------------------
    // Model-checker accessors and hooks (tools/model/; DESIGN.md §11)
    // ------------------------------------------------------------------

    /** True if a packet currently holds VC @p vc of input port @p p. */
    bool vc_active(Direction p, VcId vc) const;

    /**
     * Histogram of in-flight arrival readiness for input port
     * @p inport relative to @p now: bucket d counts queued arrivals
     * becoming visible at now + d, with everything at or beyond
     * @p horizon clamped into the last bucket. The model checker folds
     * this into its state vector so two states differing only in
     * arrival timing never alias.
     */
    std::vector<int> arrival_lag_histogram(Direction inport, Cycle now,
                                           int horizon) const;

    /**
     * Seeded-mutation hook (tools/model/ self-test ONLY): reintroduces
     * the known-bad gating variant in which idle detection and buffer
     * occupancy are ignored by can_sleep() and enter_sleep() skips its
     * empty-buffer assertion. The model checker's mutation test proves
     * property P4 (no sleep with occupied buffers) catches it with a
     * minimal counterexample. Never set in simulation code.
     */
    void set_model_unsafe_sleep_for_test(bool on)
    {
        unsafe_sleep_for_test_ = on;
    }

  private:
    /** Per-input-VC packet-in-progress state. */
    struct InputVcState
    {
        bool active = false;            ///< a packet holds this VC
        Direction out_dir = Direction::kLocal; ///< its output port here
        VcId out_vc = kInvalidVc;       ///< allocated downstream VC
        Cycle head_since = 0;           ///< when current front became head
    };

    /** A flit in flight toward one of our input buffers. */
    struct Arrival
    {
        Cycle ready;
        Direction inport;
        Flit flit;
    };

    /** A credit in flight toward one of our output-port counters. */
    struct CreditEvent
    {
        Cycle ready;
        Direction port;
        VcId vc;
    };

    CATNAP_PHASE_READ void run_vc_allocation(Cycle now);
    CATNAP_PHASE_READ void run_switch_allocation(Cycle now);
    CATNAP_PHASE_WRITE void apply_arrivals(Cycle now);
    CATNAP_PHASE_WRITE void apply_credits(Cycle now);

    RingFifo<Flit> &vc_fifo(int port, int vc) { return fifos_[fifo_index(port, vc)]; }
    const RingFifo<Flit> &vc_fifo(int port, int vc) const
    {
        return fifos_[fifo_index(port, vc)];
    }
    std::size_t
    fifo_index(int port, int vc) const
    {
        return static_cast<std::size_t>(port * params_.num_vcs + vc);
    }

    NodeId node_;
    SubnetId subnet_;
    const SubnetParams &params_;
    const ConcentratedMesh &mesh_;

    std::array<Router *, kNumPorts> neighbors_{};
    LocalPortClient *local_client_ = nullptr;
    EventSink *sink_ = nullptr;

    /** Input buffers: [port][vc] flattened. */
    std::vector<RingFifo<Flit>> fifos_;
    std::vector<InputVcState> vc_state_; // same indexing as fifos_

    /** Bit fifo_index(port, vc) is set iff that input FIFO holds a flit:
     * the request set both allocators walk. Derived from fifos_, so it
     * is rebuilt on restore rather than serialized. */
    std::uint64_t nonempty_ = 0;

    /** First VC and width of each message class's VC partition
     * (SubnetParams::first_vc_of_class / vcs_per_class), precomputed so
     * VC allocation does no division. */
    std::array<int, kNumMessageClasses> class_first_vc_{};
    int class_span_ = 0;

    /** Output-side bookkeeping: [port][vc] flattened. */
    std::vector<std::int64_t> out_owner_; // packet id + 1, 0 == free
    std::vector<int> out_credits_;

    /** Round-robin pointers: per output port for VA, per input/output for SA. */
    std::vector<int> va_rr_;          // per output port, over port*vc slots
    std::vector<int> sa_input_rr_;    // per input port, over vcs
    std::vector<int> sa_output_rr_;   // per output port, over input ports

    std::vector<Arrival> arrivals_;
    std::vector<CreditEvent> credit_events_;

    /** Per-input-port power FSM (fine-grained gating mode only). */
    struct PortPower
    {
        PowerState state = PowerState::kActive;
        Cycle wake_done = 0;
        Cycle sleep_start = 0;
        std::int64_t csc_credited = 0;
        std::int64_t net_credited = 0;
        int idle_streak = 0;
        int expected = 0;
        bool wake_requested = false;
    };

    // Power / gating state
    PowerState power_state_ = PowerState::kActive;
    Cycle wake_done_ = 0;
    Cycle sleep_start_ = 0;
    /** CSC / net savings already credited for the open sleep period by
     * flush_sleep_accounting(), so later flushes and the final wake-up
     * only add deltas. */
    std::int64_t csc_credited_ = 0;
    std::int64_t net_credited_ = 0;
    bool wake_requested_ = false;
    int expected_packets_ = 0;
    int idle_streak_ = 0;
    bool failed_ = false;
    bool wake_stuck_ = false;
    bool unsafe_sleep_for_test_ = false; ///< seeded-mutation hook (§11)

    int total_buffered_ = 0;

    std::array<PortPower, kNumPorts> port_power_{};

    // Delay-metric instrumentation
    std::uint64_t head_block_cycles_ = 0;
    std::uint64_t switched_flits_ = 0;

    ActivityCounters activity_;
};

} // namespace catnap

#endif // CATNAP_NOC_ROUTER_H
