#include "rewrite/applier.h"

#include <algorithm>
#include <map>

#include "rewrite/engine.h"
#include "rewrite/matcher.h"

namespace guoq {
namespace rewrite {

PassResult
applyRulePass(const ir::Circuit &c, const RewriteRule &rule,
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

PassResult
applyRulePassRandom(const ir::Circuit &c, const RewriteRule &rule,
                    support::Rng &rng)
{
    const std::size_t anchor = c.empty() ? 0 : rng.index(c.size());
    return applyRulePass(c, rule, anchor);
}

ir::Circuit
applyRulesToFixpoint(const ir::Circuit &c,
                     const std::vector<RewriteRule> &rules, int max_rounds)
{
    // One engine carries the circuit across every pass of every round,
    // so each pass probes only its rule's kind bucket instead of
    // rebuilding Matcher + circuit from scratch (legacy behavior is
    // preserved pass for pass; see tests/test_rewrite_engine.cc).
    RewriteEngine engine{ir::Circuit(c)};
    for (int round = 0; round < max_rounds; ++round) {
        int fired = 0;
        for (const RewriteRule &rule : rules) {
            if (engine.preparePass(rule, 0)) {
                fired += 1;
                engine.commit();
            }
        }
        if (fired == 0)
            break;
    }
    return engine.release();
}

} // namespace rewrite
} // namespace guoq
