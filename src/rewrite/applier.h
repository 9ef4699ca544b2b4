/**
 * @file
 * Rule application strategies (paper §5.3, "Randomly selecting
 * subcircuits"): a rewrite transformation performs one full pass over
 * the circuit starting from a random anchor, replacing every match of
 * the rule that is disjoint from, and not wire-adjacent to, the
 * matches before it.
 *
 * applyRulePass / applyRulePassRandom are the *legacy* copy-everything
 * implementation, kept as the reference the incremental
 * rewrite::RewriteEngine (engine.h) is differentially tested against;
 * hot paths (the GUOQ loop, applyRulesToFixpoint, the rl-like
 * baseline) run through the engine.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "ir/circuit.h"
#include "rewrite/rule.h"
#include "support/rng.h"

namespace guoq {
namespace rewrite {

/** Outcome of a rule pass. */
struct PassResult
{
    ir::Circuit circuit;
    int applications = 0; //!< number of disjoint matches replaced
};

/**
 * One full pass of @p rule over @p c: anchors are visited starting at
 * @p start_anchor and wrapping around; every match whose gates are
 * neither used by nor wire neighbours of an earlier match is applied.
 * Greedy and deterministic given the anchor.
 */
PassResult applyRulePass(const ir::Circuit &c, const RewriteRule &rule,
                         std::size_t start_anchor);

/** applyRulePass from a uniformly random anchor. */
PassResult applyRulePassRandom(const ir::Circuit &c, const RewriteRule &rule,
                               support::Rng &rng);

/**
 * Repeatedly sweep all of @p rules (in order, anchor 0) until no rule
 * fires or @p max_rounds is hit — the fixed-sequence baseline engine.
 */
ir::Circuit applyRulesToFixpoint(const ir::Circuit &c,
                                 const std::vector<RewriteRule> &rules,
                                 int max_rounds = 64);

} // namespace rewrite
} // namespace guoq
