/**
 * @file
 * Statevector simulation — cheaper than the full unitary (O(2^n) per
 * gate) and the hot inner loop of sampling verification
 * (verify/sampling.cc), usable up to ~24 qubits.
 *
 * Gate application runs through the specialized kernels of
 * sim/kernels.h: per-gate dispatch picks a diagonal, permutation,
 * dense-1q/2q, or phase-mask kernel (applyGeneric keeps the legacy
 * span x span matrix apply as the reference and fallback), and the
 * whole-circuit path additionally fuses runs of 1q gates on the same
 * qubit into one 2x2 matrix and applies runs of block-local ops one
 * cache-sized chunk at a time (one pass over the 2^n amplitudes per
 * run instead of one pass per gate). Equivalence against the generic
 * path is pinned by tests/test_statevector_kernels.cc: bit-for-bit
 * for single diagonal/permutation gates, <= 1e-12 per amplitude where
 * fusion or SIMD reassociate the arithmetic. The perf methodology and
 * the `statevector` bench case live in docs/PERFORMANCE.md.
 */

#pragma once

#include <vector>

#include "ir/circuit.h"
#include "linalg/complex_matrix.h"

namespace guoq {
namespace sim {

/** A normalized 2^n state vector (qubit 0 = MSB, as in unitary_sim). */
class StateVector
{
  public:
    /** |0...0> on @p num_qubits qubits. */
    explicit StateVector(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t dim() const { return amps_.size(); }

    const std::vector<linalg::Complex> &amplitudes() const { return amps_; }

    /** Apply one gate in place via its specialized kernel. */
    void apply(const ir::Gate &gate);

    /** Apply a whole circuit in place: fuses same-qubit 1q runs and
     *  cache-blocks runs of block-local ops (see file header). */
    void apply(const ir::Circuit &c);

    /** Apply one gate via the legacy generic matrix path — the
     *  reference the kernel tests and the `statevector` bench case
     *  compare against, and the fallback for gate kinds without a
     *  specialized kernel. */
    void applyGeneric(const ir::Gate &gate);

    /** Apply a whole circuit gate-by-gate via applyGeneric (the
     *  pre-kernel behaviour; no fusion, no blocking). */
    void applyGeneric(const ir::Circuit &c);

    /** Probability of measuring basis state @p index (must be < dim). */
    double probability(std::size_t index) const;

    /** Complex inner product <this|other>. The verification layer's
     *  sampling backend averages this over random product states to
     *  estimate Tr(U†V)/2^n (verify/sampling.cc). Both states must
     *  have the same qubit count. */
    linalg::Complex innerProduct(const StateVector &other) const;

    /** Inner-product magnitude |<this|other>|. */
    double overlap(const StateVector &other) const;

  private:
    int numQubits_;
    std::vector<linalg::Complex> amps_;
};

/** Run @p c on |0...0> and return the final state. */
StateVector runCircuit(const ir::Circuit &c);

} // namespace sim
} // namespace guoq
