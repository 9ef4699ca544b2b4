#include "baselines/passes.h"

#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "transpile/to_gate_set.h"

namespace guoq {
namespace baselines {

namespace {

/** The size-reducing subset of a gate set's rule library. */
std::vector<rewrite::RewriteRule>
reducingRules(ir::GateSetKind set)
{
    std::vector<rewrite::RewriteRule> out;
    for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
        if (r.sizeDelta() > 0)
            out.push_back(r);
    return out;
}

/** The size-preserving (commutation) subset. */
std::vector<rewrite::RewriteRule>
commutationRules(ir::GateSetKind set)
{
    std::vector<rewrite::RewriteRule> out;
    for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
        if (r.sizeDelta() == 0)
            out.push_back(r);
    return out;
}

} // namespace

ir::Circuit
reduceFixpoint(const ir::Circuit &c, ir::GateSetKind set)
{
    return rewrite::applyRulesToFixpoint(c, reducingRules(set));
}

ir::Circuit
commuteAndReduce(const ir::Circuit &c, ir::GateSetKind set, int rounds)
{
    const std::vector<rewrite::RewriteRule> commutes =
        commutationRules(set);
    ir::Circuit best = reduceFixpoint(c, set);
    ir::Circuit cur = best;
    for (int round = 0; round < rounds; ++round) {
        // One sweep of each commutation (staggered anchors so
        // successive rounds explore different shuffles); reduce after
        // every sweep so a forward/reverse commutation pair cannot
        // undo each other before cancellations are harvested.
        for (std::size_t i = 0; i < commutes.size(); ++i) {
            const std::size_t anchor =
                cur.empty()
                    ? 0
                    : (static_cast<std::size_t>(round) * 7 + i) %
                          cur.size();
            rewrite::RewriteEngine engine{ir::Circuit(cur)};
            if (!engine.preparePass(commutes[i], anchor))
                continue;
            engine.commit();
            cur = reduceFixpoint(engine.circuit(), set);
            if (cur.gateCount() < best.gateCount())
                best = cur;
        }
    }
    return best;
}

ir::Circuit
fusionPass(const ir::Circuit &c, ir::GateSetKind set)
{
    return transpile::fuseOneQubitRuns(c, set);
}

} // namespace baselines
} // namespace guoq
