/**
 * @file
 * Structured cycle-stamped trace events and the sink interface they are
 * emitted through.
 *
 * Every interesting micro-architectural occurrence — a flit entering or
 * leaving the network, a router power-state transition, an LCS/RCS flip,
 * a subnet-selection escalation — is described by one fixed-size
 * TraceEvent. Components hold an EventSink pointer that is null unless a
 * recorder is attached, so the disabled path is a single well-predicted
 * branch per potential event:
 *
 *     if (sink_)
 *         sink_->on_event({now, EventKind::kRouterSleep, node_, subnet_});
 *
 * Payload fields `a`, `b`, and `pkt` carry kind-specific values; the
 * per-kind meaning is documented on each enumerator. Exporters
 * (obs/export.h) translate them into named JSON fields.
 */
#ifndef CATNAP_OBS_EVENT_H
#define CATNAP_OBS_EVENT_H

#include <cstdint>

#include "common/phase.h"
#include "common/types.h"

namespace catnap {

/** What a TraceEvent describes. Payload meanings in [brackets]. */
enum class EventKind : std::int8_t {
    /** A flit entered a subnet at its source NI. [pkt=packet id,
     * a=flit sequence number, b=flits in the packet] */
    kFlitInject = 0,

    /** A flit finished ejecting at its destination NI. [pkt=packet id,
     * a=flit sequence number, b=1 if tail flit] */
    kFlitEject = 1,

    /** The NI bound the packet at its queue head to a subnet's injection
     * slot. [pkt=packet id, a=flits in the packet, b=destination node] */
    kSubnetSelect = 2,

    /** The Catnap selector escalated a packet past the preferred subnet.
     * [pkt=packet id, a=subnets skipped, b=reason: 0 lower subnets
     * congested, 1 busy-slot pressure spill, 2 saturation round-robin] */
    kEscalation = 3,

    /** Local congestion status set / cleared for (node, subnet). */
    kLcsSet = 4,
    kLcsClear = 5,

    /** Regional congestion status latched set / cleared. [node=region
     * index, not a node id] */
    kRcsSet = 6,
    kRcsClear = 7,

    /** Router buffers have been empty for t_idle_detect consecutive
     * cycles: the router becomes a sleep candidate. */
    kRouterIdleDetect = 8,

    /** Router power gated (Active -> Sleep). */
    kRouterSleep = 9,

    /** Router wake-up started (Sleep -> Wakeup). [a=WakeReason,
     * b=t_wakeup cycles until operational] */
    kRouterWakeBegin = 10,

    /** Router wake-up completed (Wakeup -> Active). */
    kRouterActive = 11,

    /** A fault from the FaultPlan fired (src/fault). [a=FaultKind,
     * b=kind-specific detail: port for link faults, region for RCS
     * glitches, retry count for wake escalations] */
    kFaultInjected = 12,

    /** A subnet was removed from service by a hard fault. [node=root
     * fault node, b=subnet now holding the never-sleep duty (kNoSubnet
     * when every subnet is dead)] */
    kSubnetHealth = 13,

    /** The gating layer re-asserted a wake that failed to complete
     * within t_wake_timeout. [a=retry number, b=backoff in cycles until
     * the next check] */
    kWakeRetry = 14,

    /** A source NI's end-to-end delivery deadline expired for a packet
     * not known lost; the timer re-arms. [pkt=packet id, a=attempts] */
    kPacketTimeout = 15,

    /** A source NI re-offered a packet whose flits were purged by a
     * hard fault. [pkt=packet id, a=attempt number] */
    kPacketRetransmit = 16,

    /** A source NI abandoned a packet after exhausting retransmission
     * attempts (or with no healthy subnet left). [pkt=packet id,
     * a=attempts] */
    kPacketDrop = 17,

    /**
     * Execution engine (src/exec): a batch job started on a pool
     * worker. Unlike every other kind, `cycle` holds host wall-clock
     * *microseconds since batch start*, not simulation cycles, and the
     * payload reflects host scheduling (run-to-run nondeterministic).
     * [node=job index, a=worker index, b=jobs in the batch]
     */
    kExecJobBegin = 18,

    /** Execution engine: a batch job finished. [node=job index,
     * a=worker index, b=0 ok / 1 threw, pkt=duration in microseconds;
     * `cycle` is host microseconds since batch start] */
    kExecJobEnd = 19,

    /**
     * Crash-isolated sweep backend (exec/proc_runner.h): a worker
     * subprocess was spawned for a sweep point. Host-time semantics
     * like kExecJob*: `cycle` is host microseconds since the sweep
     * started. [node=point index, a=attempt number (1-based), b=pid]
     */
    kProcSpawn = 20,

    /** A worker subprocess reached a terminal state. [node=point
     * index, a=attempt number, b=outcome (PointFailKind: 0 ok, 1 exit,
     * 2 signal, 3 timeout, 4 bad result), pkt=detail — exit code or
     * signal number; `cycle` is host microseconds] */
    kProcExit = 21,

    /** A failed point is being retried after its backoff. [node=point
     * index, a=next attempt number, b=backoff in milliseconds] */
    kProcRetry = 22,

    /** A point exhausted its retry budget and was quarantined; the
     * rest of the sweep continues. [node=point index, a=attempts] */
    kProcQuarantine = 23,

    /**
     * Sweep service (serve/server.h): one sweep request was answered.
     * Host-time semantics like kExecJob*: `cycle` is host microseconds
     * since the daemon started. [node=points in the request, a=cache
     * hits, b=misses executed for the requester]
     */
    kServeRequest = 24,

    /** Sweep service: one executed cache miss finished, on either
     * backend. [node=point index in the request, a=attempts (1 in
     * process, workers spawned under isolate), b=0 ok / 1 quarantined;
     * `cycle` is host microseconds] */
    kServeExec = 25,

    /** Sweep service: a sweep's cache inserts pushed the result cache
     * past its byte bound and evicted oldest-first; one event per
     * such sweep. [a=entries the sweep evicted, b=entries still live
     * after it; `cycle` is host microseconds] */
    kServeEvict = 26,
};

/** Number of distinct event kinds. */
inline constexpr int kNumEventKinds = 27;

/** Why a sleeping router was woken (kRouterWakeBegin payload `a`). */
enum class WakeReason : std::int8_t {
    kLookahead = 0, ///< look-ahead wake signal from upstream / the NI
    kRcs = 1,       ///< Catnap policy: lower-order subnet's RCS set
    kRetry = 2,     ///< fault model: gating re-asserted a stuck wake
};

/** Stable machine-readable name for @p k (used by the exporters). */
const char *event_kind_name(EventKind k);

/** Human-readable name for @p r. */
const char *wake_reason_name(WakeReason r);

/** One cycle-stamped observation. POD, 32 bytes. */
struct TraceEvent
{
    Cycle cycle = 0;
    EventKind kind = EventKind::kFlitInject;
    NodeId node = kInvalidNode; ///< node id (kRcs*: region index)
    SubnetId subnet = 0;
    std::int32_t a = 0;  ///< kind-specific (see EventKind)
    std::int32_t b = 0;  ///< kind-specific (see EventKind)
    PacketId pkt = 0;    ///< packet id for flit/packet events, else 0
};

/**
 * Receiver of trace events. Implementations must tolerate being called
 * once per flit per cycle on hot paths; the bundled EventTrace ring
 * buffer (obs/trace_buffer.h) is the standard recorder.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** Consumes one event. Called in deterministic simulation order.
     * A declared mailbox crossing (rule L7): every component hands
     * events to the sink during evaluate/commit; the only effect is
     * an order-independent append to the sink's own buffer. */
    CATNAP_SHARD_SAFE CATNAP_PHASE_READ virtual void
    on_event(const TraceEvent &ev) = 0;
};

} // namespace catnap

#endif // CATNAP_OBS_EVENT_H
