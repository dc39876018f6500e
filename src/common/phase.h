/**
 * @file
 * Two-phase-discipline annotations checked by `catnap_lint` (rule L2).
 *
 * Every cycle of the simulation runs in phases (see noc/router.h):
 * an *evaluate* phase that may only read state committed in earlier
 * cycles and queue effects, followed by a *commit* phase that applies
 * queued effects, and a policy phase that drives the power FSMs. The
 * cycle-accuracy and router-iteration-order independence of the whole
 * simulator rests on no component mutating committed state during the
 * evaluate phase.
 *
 * The macros below expand to nothing at compile time; they exist so the
 * static checker can build a table of read-phase and write-phase
 * functions and flag a read-phase function that calls a write-phase one
 * (a same-cycle read-after-write hazard). Annotate:
 *
 *  - CATNAP_PHASE_READ  on functions that run in the evaluate phase.
 *    They may read committed state, queue deferred effects (arrivals,
 *    credits), and raise deferred-read signals (wake requests, packet
 *    announcements), but must not apply queued effects or advance FSMs.
 *  - CATNAP_PHASE_WRITE on functions that run in the commit or policy
 *    phase and mutate committed state (applying arrivals/credits,
 *    power-state transitions, latching congestion status).
 *
 * `catnap_lint` additionally requires every `evaluate`/`commit` method
 * declaration to carry one of the two annotations, so new components
 * opt into the check by construction.
 *
 * Convention for dual-use helpers: a function whose only effect is
 * order-independent — appending to its own staging queue
 * (`RingFifo::push`, `Router::deliver_flit`), bumping a monotonic
 * counter (`NetMetrics::note_*`, the stats accumulators), latching a
 * wake-request flag, or recording a trace event — is annotated
 * CATNAP_PHASE_READ even when the commit phase also calls it: it is
 * *legal during evaluate*, which is exactly what the label asserts, and
 * WRITE functions may freely call READ ones. CATNAP_PHASE_WRITE is
 * reserved for functions that mutate state other components read in the
 * same cycle, where ordering matters. Lint rules L4 (no transitive
 * READ → WRITE reach through unannotated helpers) and L5 (every
 * member-state mutator reachable from the tick path carries a label)
 * keep the annotation set closed over the call graph.
 *
 * The shard-safety contract (rules L6-L8, DESIGN.md §14) adds a third
 * marker for the *crossings*: functions through which one component
 * instance legitimately touches another. A future sharded core places
 * component instances on different shards; every cross-instance effect
 * must then be either an order-independent mailbox append or a
 * barrier-serialised entry point. CATNAP_SHARD_SAFE declares which,
 * by combination with the phase label:
 *
 *  - CATNAP_SHARD_SAFE + CATNAP_PHASE_READ: an order-independent
 *    *mailbox* — peers may call it concurrently during the evaluate
 *    phase because its only effect is appending to the callee's own
 *    staging state or latching a monotonic flag/counter
 *    (`Router::deliver_flit`, `NetMetrics::note_*`,
 *    `EventSink::on_event`). The sharded core serialises the appends;
 *    order independence makes the serialisation order irrelevant.
 *  - CATNAP_SHARD_SAFE + CATNAP_PHASE_WRITE: a *barrier* entry point —
 *    called only from the serialised commit/policy section between
 *    parallel evaluate regions (`Router::enter_sleep` from the gating
 *    policy, `MultiNoc::offer_packet` from the traffic drivers).
 *    The sharded core must run these single-threaded at the cycle
 *    barrier.
 *
 * Lint rule L7 flags any tick-path cross-instance write that is not
 * routed through a CATNAP_SHARD_SAFE function; rule L6 checks the
 * phase labels against each function's *inferred* transitive effects;
 * the L8 manifest (results/effects.json) freezes the resulting
 * per-class contract so drift is a reviewed diff. Annotating a base
 * declaration (`EventSink::on_event`) covers every override.
 *
 * The hot-path cost analysis (rules L9-L11, DESIGN.md §16) adds a
 * fourth marker. The per-cycle tick closure — everything reachable
 * from a phase-annotated function or an evaluate/commit entry point —
 * must stay allocation-free, lock-free, I/O-free, and throw-free
 * (rule L9), and is profiled into the checked-in hot-path manifest
 * (rule L10, results/hotpath.json). Some annotated entry points are
 * *slow paths* that run rarely (or outside the measured loop) yet
 * still carry a phase label because they touch committed state under
 * the two-phase discipline: the counters' Serialize, fault handling,
 * invariant reporting. CATNAP_COLD_PATH declares exactly
 * that: the function (and everything reachable only through it) is
 * pruned from the hot-path closure, so it may allocate, do I/O, or
 * throw without tripping L9 — and it does not pollute the hot-path
 * cost manifest the data-oriented rewrite consumes. The marker is an
 * *assertion of rarity*, not a licence: annotating a genuinely
 * per-cycle function hides real cost, so reviews should treat a new
 * CATNAP_COLD_PATH like a new suppression. Write the markers in the
 * order CATNAP_COLD_PATH, CATNAP_SHARD_SAFE, CATNAP_PHASE_* so L2's
 * declaration check still sees the phase label adjacent to the
 * declarator. Annotating a base declaration covers every override.
 */
#ifndef CATNAP_COMMON_PHASE_H
#define CATNAP_COMMON_PHASE_H

/** Marks a function as evaluate-phase (reads committed state only). */
#define CATNAP_PHASE_READ

/** Marks a function as commit/policy-phase (mutates committed state). */
#define CATNAP_PHASE_WRITE

/** Marks a declared cross-instance crossing: an order-independent
 * mailbox (with CATNAP_PHASE_READ) or a barrier-serialised entry point
 * (with CATNAP_PHASE_WRITE). See the file comment. */
#define CATNAP_SHARD_SAFE

/** Marks a phase-annotated entry point as a rarely-run slow path
 * (counter serialisation, fault handling, reporting): it and everything
 * reachable only through it are pruned from the hot-path closure, so
 * rules L9/L10 ignore it. See the file comment. */
#define CATNAP_COLD_PATH

#endif // CATNAP_COMMON_PHASE_H
