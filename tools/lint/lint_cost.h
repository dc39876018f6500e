/**
 * @file
 * Hot-path purity and cost analysis for catnap_lint (DESIGN.md §16).
 *
 * The *hot set* is the transitive call-graph closure of the tick
 * phase: every definition reachable from a phase-annotated function or
 * an evaluate/commit entry point without crossing a CATNAP_COLD_PATH
 * declaration (common/phase.h). Two rules consume it:
 *
 *  L9  hot-path purity — no dynamic allocation, lock acquisition,
 *      I/O, or exception throws anywhere in the hot set. These are
 *      exactly the operations whose latency is unbounded (allocator
 *      locks, kernel calls) or whose control flow escapes the cycle
 *      barrier (throws), so one occurrence caps the tick rate and
 *      breaks the sharded core's bounded-cycle guarantee. Slow paths
 *      that legitimately allocate/IO/throw (counter serialisation,
 *      fault handling, invariant reporting) opt out with
 *      CATNAP_COLD_PATH at their entry declaration.
 *  L10 hot-path cost manifest — a deterministic per-method cost
 *      profile of the hot set ("catnap-hotpath-v1", checked in as
 *      results/hotpath.json): pointer-indirection depth, virtual
 *      dispatch sites, call sites, and estimated bytes touched per
 *      call. CI regenerates and diffs it, so every PR's hot-path
 *      footprint change is a reviewed diff — the worklist for the
 *      data-oriented rewrite.
 *
 * Scope matches L6-L8: definitions in contract scope (files under
 * src/, or named explicitly on the command line). The cost figures
 * are static estimates from the token stream, not measurements; their
 * value is that they are *stable and diffable*, so a regression (a
 * new virtual hop, a deeper pointer chain) shows up at review time.
 */
#ifndef CATNAP_LINT_COST_H
#define CATNAP_LINT_COST_H

#include <string>
#include <vector>

#include "lint_effects.h"
#include "lint_graph.h"
#include "lint_rules.h"
#include "lint_source.h"

namespace catnap_lint {

/**
 * Per-definition hot-set membership. Roots are phase-annotated
 * definitions and evaluate/commit methods; propagation follows
 * resolve_call edges and stops at (never enters) CATNAP_COLD_PATH
 * definitions. Requires resolved phase and cold_path flags on every
 * def.
 */
std::vector<char> compute_hot_set(const Program &prog);

/** L9: bans allocation, locks, I/O, and throws in hot definitions. */
void check_l9(const Program &prog, const std::vector<char> &hot,
              const std::vector<SourceFile> &sources,
              std::vector<Violation> &out);

/** Renders the hot-path cost manifest JSON ("catnap-hotpath-v1"). */
std::string build_hotpath_manifest(const Program &prog,
                                   const Effects &fx,
                                   const std::vector<char> &hot,
                                   const std::vector<SourceFile> &sources);

/**
 * Compares @p json against the checked-in baseline at
 * @p baseline_path and appends one L10 violation on any difference
 * (or a missing/unreadable baseline), with the regeneration command
 * in the message.
 */
void check_l10_baseline(const std::string &baseline_path,
                        const std::string &json,
                        std::vector<Violation> &out);

} // namespace catnap_lint

#endif // CATNAP_LINT_COST_H
