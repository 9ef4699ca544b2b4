/**
 * @file
 * The copy-everything rule pass that rewrite transformations ran (paper
 * §5.3, "Randomly selecting subcircuits") before rewrite::RewriteEngine,
 * kept outside the library as the reference the engine is
 * differentially tested against (tests/test_rewrite_engine.cc) and the
 * `legacy` tool of the `rewrite_throughput` bench case measures.
 *
 * One pass of a rule from a start anchor visits every anchor in cyclic
 * order, and replaces each match whose gates are neither used by nor
 * wire neighbours of an earlier match of the pass. Every pass builds a
 * fresh wire index (Matcher), probes all n anchors and rebuilds the
 * whole circuit through a std::multimap.
 */

#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"
#include "support/rng.h"

namespace guoq {
namespace oracle {

/** rewrite::matchAt over one circuit, with its own wire index. */
class Matcher
{
  public:
    explicit Matcher(const ir::Circuit &c) : circuit_(c), dag_(c) {}

    /** rewrite::matchAt with pattern gate 0 at @p anchor. */
    std::optional<rewrite::Match>
    matchAt(const rewrite::RewriteRule &rule, std::size_t anchor) const
    {
        return rewrite::matchAt(circuit_, dag_, rule, anchor, scratch_);
    }

    const dag::CircuitDag &dag() const { return dag_; }

  private:
    const ir::Circuit &circuit_;
    dag::CircuitDag dag_;
    mutable rewrite::MatchScratch scratch_;
};

/** Outcome of a rule pass. */
struct PassResult
{
    ir::Circuit circuit;
    int applications = 0; //!< number of disjoint matches replaced
};

/**
 * One full pass of @p rule over @p c from @p start_anchor, wrapping
 * around; greedy and deterministic given the anchor.
 */
inline PassResult
applyRulePass(const ir::Circuit &c, const rewrite::RewriteRule &rule,
              std::size_t start_anchor)
{
    const std::size_t n = c.size();
    PassResult result;
    if (n == 0) {
        result.circuit = c;
        return result;
    }

    Matcher matcher(c);
    std::vector<bool> used(n, false);
    // Wire neighbours of used gates: a later match may not touch an
    // earlier one, or their replacement blocks, each spliced at a
    // window computed on the original circuit, could land out of order.
    std::vector<bool> neighbour(n, false);
    // insertPos -> replacement gate lists to emit at that position.
    std::multimap<std::size_t, std::vector<ir::Gate>> insertions;

    for (std::size_t off = 0; off < n; ++off) {
        const std::size_t anchor = (start_anchor + off) % n;
        if (used[anchor])
            continue;
        auto m = matcher.matchAt(rule, anchor);
        if (!m)
            continue;
        bool overlap = false;
        for (std::size_t gi : m->gateIndices) {
            if (used[gi] || neighbour[gi]) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            continue;
        for (std::size_t gi : m->gateIndices) {
            used[gi] = true;
            for (int q : c.gate(gi).qubits) {
                for (std::size_t nb : {matcher.dag().prev(gi, q),
                                       matcher.dag().next(gi, q)})
                    if (nb != dag::kNoGate)
                        neighbour[nb] = true;
            }
        }
        insertions.emplace(m->insertPos,
                           rule.instantiateReplacement(m->qubitBinding,
                                                       m->angleBinding));
        ++result.applications;
    }

    ir::Circuit out(c.numQubits());
    for (std::size_t i = 0; i <= n; ++i) {
        auto [lo, hi] = insertions.equal_range(i);
        for (auto it = lo; it != hi; ++it)
            for (ir::Gate &g : it->second)
                out.add(g);
        if (i < n && !used[i])
            out.add(c.gate(i));
    }
    result.circuit = std::move(out);
    return result;
}

/** applyRulePass from a uniformly random anchor (no draw when empty). */
inline PassResult
applyRulePassRandom(const ir::Circuit &c, const rewrite::RewriteRule &rule,
                    support::Rng &rng)
{
    const std::size_t anchor = c.empty() ? 0 : rng.index(c.size());
    return applyRulePass(c, rule, anchor);
}

} // namespace oracle
} // namespace guoq
