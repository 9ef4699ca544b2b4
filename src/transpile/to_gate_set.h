/**
 * @file
 * The transpiler: lower any circuit into one of the five target gate
 * sets of Table 2, exactly (modulo global phase). This is how the
 * benchmark suite produces per-gate-set inputs ("the input circuit is
 * always already decomposed into the target gate set", paper §6) and
 * how resynthesis results are re-expressed natively.
 */

#pragma once

#include "ir/circuit.h"
#include "ir/gate_set.h"

namespace guoq {
namespace transpile {

/**
 * Lower @p c into the native gates of @p set.
 *
 * The pipeline expands ≥2-qubit non-CX gates into {CX + 1q}, converts
 * the entangler (CX → Rxx for IonQ), and re-expresses every non-native
 * 1q gate in the set's native 1q basis. For Clifford+T the circuit
 * must be exactly representable (rotation angles at π/4 multiples);
 * otherwise the transpiler calls fatal() rather than approximating.
 */
ir::Circuit toGateSet(const ir::Circuit &c, ir::GateSetKind set);

/** True when every gate of @p c is native to @p set. */
bool allNative(const ir::Circuit &c, ir::GateSetKind set);

/**
 * Fuse maximal runs of adjacent 1-qubit gates on each wire into the
 * minimal native 1q form for @p set (via the run's 2x2 product and the
 * set's Euler decomposition). Runs whose fused form is no shorter are
 * left untouched. Not applicable to Clifford+T (returns the input).
 *
 * This is the "1q fusion" transformation GUOQ uses alongside rewrite
 * rules: exact (ε = 0) and cheap, but — unlike a pattern rule — able
 * to collapse arbitrarily long 1q runs.
 */
ir::Circuit fuseOneQubitRuns(const ir::Circuit &c, ir::GateSetKind set);

/**
 * True iff fuseOneQubitRuns(c, set) has fewer gates than @p c, i.e.
 * some run's fused form is shorter than the run. Decided with the
 * same arithmetic but without building a circuit or allocating (after
 * the first call on a thread), and it stops at the first run that
 * shrinks — the check 1q fusion makes before paying for a rebuild.
 */
bool fusionShrinks(const ir::Circuit &c, ir::GateSetKind set);

} // namespace transpile
} // namespace guoq
