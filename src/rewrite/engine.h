/**
 * @file
 * The incremental rewrite engine: the one implementation of a rule
 * pass (paper §5.3, "Randomly selecting subcircuits"). A pass of a rule
 * from a start anchor visits every anchor in cyclic order and replaces
 * each match that is disjoint from, and not wire-adjacent to, the
 * matches before it. The GUOQ loop, Transformation::apply,
 * applyRulesToFixpoint and the baselines all run their passes here.
 *
 * The copy-everything pass it replaced (tests/rule_pass_oracle.h)
 * pays O(n) several times per *attempt*: it builds a fresh wire index,
 * probes all n anchors even when the gate kind cannot match the rule's
 * first pattern gate, and rebuilds the whole circuit through a
 * std::multimap. The engine instead owns the working circuit together
 * with a persistent wire index and per-GateKind anchor buckets:
 *
 *   circuit_  ──┬── dag_      (CircuitDag, rebuilt in place, no alloc)
 *               └── buckets_  (GateKind -> ascending gate indices)
 *
 *   preparePass(rule)  probe only buckets_[pattern[0].kind], in the
 *                      cyclic anchor order          — O(bucket·|pat|)
 *   commit()           one compaction sweep + reindex — O(n), accepted
 *                      passes only
 *   discard()          drop the pending pass          — O(matches)
 *
 * so a *rejected* attempt (the overwhelming majority in a Metropolis
 * search) costs bucket probes instead of several full-circuit passes,
 * and gate/2q/T counters (plus the fidelity log-cost sum, when
 * configured) are maintained as deltas from the removed/inserted gate
 * lists instead of re-scanned.
 *
 * Most passes find no match at all, and most of those repeat an
 * earlier empty pass of the same rule. The no-op memo makes them
 * cost only what changed since: the engine remembers, per rule, the
 * commit after which the rule last matched nowhere, and every commit
 * stamps the gates it inserts or re-links (a surviving gate whose wire
 * neighbour was removed or inserted). A match made only of unstamped
 * gates has the same kinds, angles, wire links and splice window as
 * when the rule was last empty, so it cannot exist; any new match
 * holds a stamped gate, and its anchor lies at most |pattern| - 1 wire
 * steps before that gate. A memoized rule is answered by probing only
 * those anchors; when one of them matches, the ordinary full pass runs
 * from the requested anchor, so results stay bit-identical. assign()
 * forgets every memo.
 *
 * Rules are remembered by address: a rule passed to the engine must
 * outlive it (the rule libraries of rulesFor() are static).
 *
 * Equivalence contract: for any (circuit, rule, anchor), a
 * preparePass + commit yields bit-for-bit the gate list of the oracle
 * pass, and preparePassRandom consumes exactly the same RNG draws as
 * the oracle's random pass (one index draw on a non-empty circuit) —
 * tests/test_rewrite_engine.cc holds the engine to that
 * differentially.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"
#include "support/rng.h"

namespace guoq {
namespace rewrite {

/** The incremental pass applier (see file comment). */
class RewriteEngine
{
  public:
    /** Take ownership of @p c and index it. */
    explicit RewriteEngine(ir::Circuit c);

    /** The working circuit (always index-consistent). */
    const ir::Circuit &circuit() const { return circuit_; }

    /** Cached count metrics of circuit() — O(1). */
    const ir::CircuitCounts &counts() const { return counts_; }

    /**
     * Cached Σ -log(1-err) over circuit() (0 unless setGateLogCost was
     * called). Maintained by floating-point deltas, so it can drift by
     * ulps from a fresh scan over a long run — informational, not used
     * for accept decisions.
     */
    double fidelityLogCost() const { return fidLogCost_; }

    /**
     * Configure the per-gate -log(1-err) weight for the cached
     * fidelity log-cost sum, and (re)initialize the sum by one scan.
     */
    void setGateLogCost(std::function<double(const ir::Gate &)> fn);

    /** Replace the working circuit wholesale (fusion/resynth accepts). */
    void assign(ir::Circuit c);

    /** Move the working circuit out; the engine is then empty. */
    ir::Circuit release();

    /** A prepared (not yet applied) rule pass. */
    struct Attempt
    {
        int applications = 0;       //!< matches recorded by the pass
        std::size_t startAnchor = 0; //!< anchor the pass started from
        ir::CircuitCounts counts;   //!< counts *after* the pass
        double fidelityLogCost = 0; //!< cached sum after the pass
    };

    /**
     * Run one full rule pass from @p start_anchor in the cyclic
     * anchor order, recording every match that neither overlaps nor
     * touches along a wire an earlier one of the pass, without
     * touching the working circuit. Returns std::nullopt (and leaves
     * nothing pending) when no match fires; for a rule the no-op memo
     * holds as empty, that answer costs only the anchors near gates
     * stamped since. The pass must then be resolved with commit() or
     * discard() before the next one.
     */
    std::optional<Attempt> preparePass(const RewriteRule &rule,
                                       std::size_t start_anchor);

    /**
     * preparePass from a uniformly random anchor: one index draw when
     * the circuit is non-empty, none when empty.
     */
    std::optional<Attempt> preparePassRandom(const RewriteRule &rule,
                                             support::Rng &rng);

    /** True while a prepared pass awaits commit()/discard(). */
    bool pending() const { return !pendingMatches_.empty(); }

    /**
     * The circuit the pending pass would produce, materialized lazily
     * (count-based objectives never need it). Valid until the pass is
     * resolved.
     */
    const ir::Circuit &candidate();

    /** Apply the pending pass to the working circuit and reindex. */
    void commit();

    /** Drop the pending pass; the working circuit is untouched. */
    void discard();

    /**
     * Rule passes the no-op memo answered without a full bucket scan
     * (see file comment), since construction.
     */
    long memoNoops() const { return memoNoops_; }

    /**
     * Revalidate every cached structure — wire links, kind buckets,
     * counters, gate stamps — against a fresh scan of the working
     * circuit, and re-scan every rule the no-op memo holds as empty.
     * Panics (support::panic) on any corruption or on a match the
     * memo hides; used by the test suite after splices and by
     * debugging sessions.
     */
    void checkInvariants() const;

  private:
    void reindex();
    void recount();
    /** Forget every memo and stamp (the circuit was replaced). */
    void resetMemo();
    struct EmptyMark;
    /**
     * True when @p rule, matchless at @p mark, provably still matches
     * nowhere: no anchor that a gate stamped since leads back to
     * matches. False when one does, or when probing them would cost
     * more than half the full pass.
     */
    bool stillEmpty(const RewriteRule &rule, const EmptyMark &mark);
    /** Stamps issued so far to gates of @p rule's pattern kinds. */
    std::uint64_t stampsOfKinds(const RewriteRule &rule) const;
    /**
     * Count a commit and stamp, in place, the surviving gates the
     * pending pass re-links; runs while the working circuit and wire
     * index still describe the old circuit.
     */
    void stampRelinked();
    /**
     * Walk the pending pass in output order, replicating the oracle's
     * rebuild: at each original position first the replacement blocks
     * whose insertPos equals it (in discovery order), then the
     * original gate when unmatched. Calls
     * @p emit(gate, old index), with dag::kNoGate for replacements.
     */
    template <class Emit>
    void emitPending(Emit &&emit);
    void clearPending();

    ir::Circuit circuit_;
    dag::CircuitDag dag_;
    std::array<std::vector<std::size_t>,
               static_cast<std::size_t>(ir::GateKind::NumKinds)>
        buckets_;
    ir::CircuitCounts counts_;
    double fidLogCost_ = 0;
    std::function<double(const ir::Gate &)> gateLogCost_;

    MatchScratch scratch_;

    // Pending pass state. usedStamp_[i] == passEpoch_ marks gate i as
    // consumed by the pending (or most recent) pass; nbrStamp_[i] ==
    // passEpoch_ marks it as a wire neighbour of a consumed gate, which
    // no later match of the pass may use.
    struct PendingMatch
    {
        std::size_t insertPos = 0;
        std::vector<std::size_t> gateIndices;
        std::vector<ir::Gate> replacement;
    };
    std::vector<PendingMatch> pendingMatches_;
    std::vector<std::uint64_t> usedStamp_;
    std::vector<std::uint64_t> nbrStamp_;
    std::uint64_t passEpoch_ = 0;
    ir::CircuitCounts pendingCounts_;
    double pendingFidLogCost_ = 0;
    std::vector<std::size_t> emitOrder_; // pending sorted by insertPos
    ir::Circuit candidate_;
    bool candidateReady_ = false;
    std::vector<ir::Gate> gateScratch_; // commit compaction buffer

    // No-op memo (see file comment). emptySince_[rule] marks when the
    // rule last matched nowhere: the commit count and stampsOfKinds
    // then (commit kNoMemo: it matched). gateStamp_[i] is the last
    // commit that inserted or re-linked gate i (0: none since
    // construction or assign()); stampsIssued_ counts the stamps given
    // out per gate kind, repeats included.
    static constexpr std::uint64_t kNoMemo = ~std::uint64_t{0};
    struct EmptyMark
    {
        std::uint64_t commit = kNoMemo;
        std::uint64_t stamps = 0;
    };
    std::unordered_map<const RewriteRule *, EmptyMark> emptySince_;
    std::vector<std::uint64_t> gateStamp_;
    std::uint64_t commits_ = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(ir::GateKind::NumKinds)>
        stampsIssued_{};
    long memoNoops_ = 0;
    std::vector<std::uint64_t> stampScratch_; // commit's stamp buffer
    std::vector<std::uint64_t> probedStamp_;  // anchors probed, by epoch
    std::uint64_t probeEpoch_ = 0;
};

/**
 * Repeatedly sweep all of @p rules (in order, anchor 0) until no rule
 * fires or @p max_rounds is hit — the fixed-sequence baseline engine
 * and resynthesis's exact cleanup.
 */
ir::Circuit applyRulesToFixpoint(const ir::Circuit &c,
                                 const std::vector<RewriteRule> &rules,
                                 int max_rounds = 64);

} // namespace rewrite
} // namespace guoq
