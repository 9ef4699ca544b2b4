#include "rewrite/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/logging.h"

namespace guoq {
namespace rewrite {

RewriteEngine::RewriteEngine(ir::Circuit c) : circuit_(std::move(c))
{
    candidate_ = ir::Circuit(circuit_.numQubits());
    reindex();
    recount();
    resetMemo();
}

void
RewriteEngine::setGateLogCost(std::function<double(const ir::Gate &)> fn)
{
    gateLogCost_ = std::move(fn);
    fidLogCost_ = 0;
    if (gateLogCost_)
        for (const ir::Gate &g : circuit_.gates())
            fidLogCost_ += gateLogCost_(g);
}

void
RewriteEngine::assign(ir::Circuit c)
{
    if (pending())
        support::panic("RewriteEngine::assign: a pass is pending");
    if (c.numQubits() != circuit_.numQubits())
        candidate_ = ir::Circuit(c.numQubits());
    circuit_ = std::move(c);
    reindex();
    recount();
    resetMemo();
}

ir::Circuit
RewriteEngine::release()
{
    if (pending())
        support::panic("RewriteEngine::release: a pass is pending");
    return std::move(circuit_);
}

void
RewriteEngine::resetMemo()
{
    emptySince_.clear();
    gateStamp_.assign(circuit_.size(), 0);
}

std::optional<RewriteEngine::Attempt>
RewriteEngine::preparePass(const RewriteRule &rule,
                           std::size_t start_anchor)
{
    if (pending())
        support::panic("RewriteEngine::preparePass: a pass is pending");
    const std::size_t n = circuit_.size();
    if (n == 0)
        return std::nullopt;

    const auto memo = emptySince_.find(&rule);
    if (memo != emptySince_.end() && memo->second.commit != kNoMemo &&
        stillEmpty(rule, memo->second)) {
        memo->second = EmptyMark{commits_, stampsOfKinds(rule)};
        ++memoNoops_;
        return std::nullopt;
    }

    candidateReady_ = false;
    pendingCounts_ = counts_;
    pendingFidLogCost_ = fidLogCost_;
    usedStamp_.resize(n, 0);
    ++passEpoch_;

    // The oracle pass visits anchors (start + off) % n for off 0..n-1
    // and lets matchAt reject every anchor whose kind differs from the
    // rule's first pattern gate. Restricted to the kind bucket, that
    // cyclic order is: bucket entries >= start ascending, then the
    // wrapped prefix.
    const auto &bucket =
        buckets_[static_cast<std::size_t>(rule.pattern().front().kind)];
    const auto split = static_cast<std::size_t>(
        std::lower_bound(bucket.begin(), bucket.end(), start_anchor) -
        bucket.begin());

    for (std::size_t off = 0; off < bucket.size(); ++off) {
        const std::size_t pos = split + off;
        const std::size_t anchor =
            bucket[pos < bucket.size() ? pos : pos - bucket.size()];
        if (usedStamp_[anchor] == passEpoch_)
            continue;
        auto m = matchAt(circuit_, dag_, rule, anchor, scratch_);
        if (!m)
            continue;
        // A match may neither share a gate with an earlier match of
        // this pass nor touch one along a wire: every splice window is
        // computed against the original circuit, and two adjacent
        // matches' replacement blocks could be emitted out of order.
        bool overlap = false;
        for (std::size_t gi : m->gateIndices) {
            if (usedStamp_[gi] == passEpoch_ ||
                nbrStamp_[gi] == passEpoch_) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            continue;
        PendingMatch pm;
        pm.insertPos = m->insertPos;
        pm.gateIndices = std::move(m->gateIndices);
        pm.replacement =
            rule.instantiateReplacement(m->qubitBinding, m->angleBinding);
        for (std::size_t gi : pm.gateIndices) {
            usedStamp_[gi] = passEpoch_;
            const ir::Gate &g = circuit_.gate(gi);
            for (int q : g.qubits) {
                for (std::size_t nb : {dag_.prev(gi, q), dag_.next(gi, q)})
                    if (nb != dag::kNoGate)
                        nbrStamp_[nb] = passEpoch_;
            }
            --pendingCounts_.gates;
            if (g.arity() == 2)
                --pendingCounts_.twoQubit;
            if (ir::isTGate(g.kind))
                --pendingCounts_.tGates;
            if (gateLogCost_)
                pendingFidLogCost_ -= gateLogCost_(g);
        }
        for (const ir::Gate &g : pm.replacement) {
            ++pendingCounts_.gates;
            if (g.arity() == 2)
                ++pendingCounts_.twoQubit;
            if (ir::isTGate(g.kind))
                ++pendingCounts_.tGates;
            if (gateLogCost_)
                pendingFidLogCost_ += gateLogCost_(g);
        }
        pendingMatches_.push_back(std::move(pm));
    }

    const EmptyMark verdict{pendingMatches_.empty() ? commits_ : kNoMemo,
                            stampsOfKinds(rule)};
    if (memo != emptySince_.end())
        memo->second = verdict;
    else
        emptySince_.emplace(&rule, verdict);
    if (pendingMatches_.empty())
        return std::nullopt;

    // Emission order: ascending insertPos, discovery order within a
    // position — the oracle's multimap semantics.
    emitOrder_.resize(pendingMatches_.size());
    for (std::size_t i = 0; i < emitOrder_.size(); ++i)
        emitOrder_[i] = i;
    std::stable_sort(emitOrder_.begin(), emitOrder_.end(),
                     [this](std::size_t a, std::size_t b) {
                         return pendingMatches_[a].insertPos <
                                pendingMatches_[b].insertPos;
                     });

    Attempt a;
    a.applications = static_cast<int>(pendingMatches_.size());
    a.startAnchor = start_anchor;
    a.counts = pendingCounts_;
    a.fidelityLogCost = pendingFidLogCost_;
    return a;
}

std::uint64_t
RewriteEngine::stampsOfKinds(const RewriteRule &rule) const
{
    static_assert(static_cast<std::size_t>(ir::GateKind::NumKinds) <= 64);
    std::uint64_t seen = 0; // kinds already summed, as a bit set
    std::uint64_t total = 0;
    for (const PatternGate &pg : rule.pattern()) {
        const auto k = static_cast<std::size_t>(pg.kind);
        if (!(seen >> k & 1))
            total += stampsIssued_[k];
        seen |= std::uint64_t{1} << k;
    }
    return total;
}

bool
RewriteEngine::stillEmpty(const RewriteRule &rule, const EmptyMark &mark)
{
    if (mark.commit == commits_)
        return true; // nothing changed since

    // A stamped gate of one of the pattern's kinds costs about one
    // probe. Past half the kind bucket in probes, or a whole bucket in
    // such stamps issued since, the full pass is as cheap, and it
    // refreshes the memo.
    const std::size_t budget =
        buckets_[static_cast<std::size_t>(rule.pattern().front().kind)]
            .size() /
        2;
    if (stampsOfKinds(rule) - mark.stamps > 2 * budget)
        return false;

    // In a match, pattern gate j > 0 is the wire successor of the last
    // earlier pattern gate on each wire it shares with one (matchAt
    // finds it that way). back[j] names one such wire, by qubit slot
    // of gate j, and that earlier gate, so a gate matched at j leads
    // back, one wire step at a time, to its match's anchor.
    const std::vector<PatternGate> &pattern = rule.pattern();
    constexpr std::size_t kMaxPattern = 8;
    if (pattern.size() > kMaxPattern)
        return false;
    struct Back
    {
        std::size_t slot = 0;
        std::size_t from = 0;
        bool linked = false;
    };
    std::array<Back, kMaxPattern> back{};
    for (std::size_t j = 1; j < pattern.size(); ++j) {
        for (std::size_t k = 0; k < pattern[j].qubits.size() &&
                                !back[j].linked;
             ++k) {
            for (std::size_t i = j; i-- > 0;) {
                const auto &qs = pattern[i].qubits;
                if (std::find(qs.begin(), qs.end(), pattern[j].qubits[k]) !=
                    qs.end()) {
                    back[j] = Back{k, i, true};
                    break;
                }
            }
        }
    }

    // Every match that did not exist back then holds a gate stamped
    // since; probe the anchor each stamped gate leads back to from each
    // pattern position it could fill.
    const std::uint64_t since = mark.commit;
    std::size_t probes = 0;
    const std::size_t n = circuit_.size();
    probedStamp_.resize(n, 0);
    ++probeEpoch_;
    for (std::size_t stamped = 0; stamped < n; ++stamped) {
        if (gateStamp_[stamped] <= since)
            continue;
        const ir::GateKind kind = circuit_.gate(stamped).kind;
        for (std::size_t j = 0; j < pattern.size(); ++j) {
            if (pattern[j].kind != kind)
                continue;
            std::size_t gi = stamped;
            std::size_t pos = j;
            while (pos > 0 && gi != dag::kNoGate) {
                if (!back[pos].linked ||
                    circuit_.gate(gi).kind != pattern[pos].kind) {
                    gi = dag::kNoGate;
                    break;
                }
                gi = dag_.prev(gi, circuit_.gate(gi).qubits[back[pos].slot]);
                pos = back[pos].from;
            }
            if (gi == dag::kNoGate ||
                circuit_.gate(gi).kind != pattern[0].kind ||
                probedStamp_[gi] == probeEpoch_)
                continue;
            probedStamp_[gi] = probeEpoch_;
            if (++probes > budget ||
                matchAt(circuit_, dag_, rule, gi, scratch_))
                return false;
        }
    }
    return true;
}

std::optional<RewriteEngine::Attempt>
RewriteEngine::preparePassRandom(const RewriteRule &rule,
                                 support::Rng &rng)
{
    // One index draw on a non-empty circuit, none on an empty one.
    const std::size_t anchor =
        circuit_.empty() ? 0 : rng.index(circuit_.size());
    return preparePass(rule, anchor);
}

template <class Emit>
void
RewriteEngine::emitPending(Emit &&emit)
{
    const std::size_t n = circuit_.size();
    std::size_t j = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        while (j < emitOrder_.size() &&
               pendingMatches_[emitOrder_[j]].insertPos == i) {
            for (ir::Gate &g : pendingMatches_[emitOrder_[j]].replacement)
                emit(g, dag::kNoGate);
            ++j;
        }
        if (i < n && usedStamp_[i] != passEpoch_)
            emit(circuit_.gates()[i], i);
    }
}

const ir::Circuit &
RewriteEngine::candidate()
{
    if (!pending())
        support::panic("RewriteEngine::candidate: no pass is pending");
    if (!candidateReady_) {
        // resize + element-wise assignment (not clear + push_back) so
        // the buffer and each gate's qubit/param storage are reused
        // when warm.
        std::vector<ir::Gate> &out = candidate_.gates();
        out.resize(pendingCounts_.gates);
        std::size_t w = 0;
        emitPending([&](const ir::Gate &g, std::size_t) { out[w++] = g; });
        if (w != out.size())
            support::panic("RewriteEngine: pending gate count mismatch");
        candidateReady_ = true;
    }
    return candidate_;
}

void
RewriteEngine::commit()
{
    if (!pending())
        support::panic("RewriteEngine::commit: no pass is pending");
    stampRelinked();
    // Carry every stamp to its gate's new position; inserted gates
    // take this commit's.
    stampScratch_.resize(pendingCounts_.gates);
    std::size_t w = 0;
    auto carry = [&](const ir::Gate &, std::size_t from) {
        stampScratch_[w++] =
            from == dag::kNoGate ? commits_ : gateStamp_[from];
    };
    if (candidateReady_) {
        // The pass was already materialized for a cost evaluation:
        // adopt it wholesale instead of re-emitting.
        emitPending(carry);
        circuit_.gates().swap(candidate_.gates());
    } else {
        // One walk moves the gates and carries their stamps; resize +
        // element-wise assignment reuses the buffer when warm.
        gateScratch_.resize(pendingCounts_.gates);
        emitPending([&](ir::Gate &g, std::size_t from) {
            gateScratch_[w] = std::move(g);
            carry(g, from);
        });
        circuit_.gates().swap(gateScratch_);
    }
    if (w != stampScratch_.size())
        support::panic("RewriteEngine: pending gate count mismatch");
    gateStamp_.swap(stampScratch_);
    counts_ = pendingCounts_;
    fidLogCost_ = pendingFidLogCost_;
    clearPending();
    reindex();
}

void
RewriteEngine::stampRelinked()
{
    ++commits_;
    // Re-linked survivors are the wire neighbours of removed gates. A
    // replacement acts only on its match's wires and lands between
    // those neighbours, so they are also every survivor that gains an
    // inserted neighbour.
    auto count = [this](ir::GateKind kind) {
        ++stampsIssued_[static_cast<std::size_t>(kind)];
    };
    for (const PendingMatch &pm : pendingMatches_) {
        for (const ir::Gate &g : pm.replacement)
            count(g.kind);
        for (std::size_t gi : pm.gateIndices) {
            for (int q : circuit_.gate(gi).qubits) {
                for (std::size_t nb : {dag_.prev(gi, q), dag_.next(gi, q)}) {
                    if (nb != dag::kNoGate && usedStamp_[nb] != passEpoch_) {
                        gateStamp_[nb] = commits_;
                        count(circuit_.gate(nb).kind);
                    }
                }
            }
        }
    }
}

void
RewriteEngine::discard()
{
    clearPending();
}

void
RewriteEngine::clearPending()
{
    pendingMatches_.clear();
    emitOrder_.clear();
    candidateReady_ = false;
}

void
RewriteEngine::reindex()
{
    dag_.rebuild(circuit_);
    for (auto &b : buckets_)
        b.clear();
    const auto &gates = circuit_.gates();
    for (std::size_t i = 0; i < gates.size(); ++i)
        buckets_[static_cast<std::size_t>(gates[i].kind)].push_back(i);
    usedStamp_.resize(gates.size(), 0);
    nbrStamp_.resize(gates.size(), 0);
}

void
RewriteEngine::recount()
{
    counts_ = circuit_.counts();
    fidLogCost_ = 0;
    if (gateLogCost_)
        for (const ir::Gate &g : circuit_.gates())
            fidLogCost_ += gateLogCost_(g);
}

void
RewriteEngine::checkInvariants() const
{
    const auto &gates = circuit_.gates();

    if (counts_ != circuit_.counts())
        support::panic("RewriteEngine: cached counts diverge from the "
                       "working circuit");

    if (gateLogCost_) {
        double fresh = 0;
        for (const ir::Gate &g : gates)
            fresh += gateLogCost_(g);
        // Delta-maintained fp sum: allow ulp-scale drift only.
        if (std::abs(fresh - fidLogCost_) >
            1e-9 * std::max(1.0, std::abs(fresh)))
            support::panic("RewriteEngine: cached fidelity log-cost "
                           "diverges from a fresh scan");
    }

    std::size_t bucketed = 0;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
        std::size_t prev_idx = 0;
        bool first = true;
        for (std::size_t gi : buckets_[k]) {
            if (gi >= gates.size() ||
                gates[gi].kind != static_cast<ir::GateKind>(k))
                support::panic("RewriteEngine: kind bucket entry does "
                               "not match its gate");
            if (!first && gi <= prev_idx)
                support::panic("RewriteEngine: kind bucket not in "
                               "ascending order");
            prev_idx = gi;
            first = false;
            ++bucketed;
        }
    }
    if (bucketed != gates.size())
        support::panic("RewriteEngine: kind buckets do not cover the "
                       "gate list");

    const dag::CircuitDag fresh(circuit_);
    if (dag_.numGates() != fresh.numGates() ||
        dag_.numQubits() != fresh.numQubits())
        support::panic("RewriteEngine: stale wire index shape");
    for (std::size_t i = 0; i < gates.size(); ++i) {
        for (int q : gates[i].qubits) {
            if (dag_.next(i, q) != fresh.next(i, q) ||
                dag_.prev(i, q) != fresh.prev(i, q))
                support::panic("RewriteEngine: stale wire link");
        }
    }

    if (gateStamp_.size() != gates.size())
        support::panic("RewriteEngine: gate stamps do not cover the "
                       "gate list");
    for (std::uint64_t st : gateStamp_)
        if (st > commits_)
            support::panic("RewriteEngine: gate stamped by a future "
                           "commit");

    // The memo itself: a match of a rule it holds as empty since
    // commit `since` must hold a gate stamped after that, or the memo
    // would hide it.
    MatchScratch scratch;
    for (const auto &[rule, mark] : emptySince_) {
        const std::uint64_t since = mark.commit;
        if (since == kNoMemo)
            continue;
        const auto anchor_kind =
            static_cast<std::size_t>(rule->pattern().front().kind);
        for (std::size_t gi : buckets_[anchor_kind]) {
            const auto m = matchAt(circuit_, dag_, *rule, gi, scratch);
            if (!m)
                continue;
            bool seen = false;
            for (std::size_t mi : m->gateIndices)
                seen |= gateStamp_[mi] > since;
            if (!seen)
                support::panic("RewriteEngine: the no-op memo hides a "
                               "match of rule " +
                               rule->name());
        }
    }
}

ir::Circuit
applyRulesToFixpoint(const ir::Circuit &c,
                     const std::vector<RewriteRule> &rules, int max_rounds)
{
    // One engine carries the circuit across every pass of every round,
    // so each pass probes only its rule's kind bucket.
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
