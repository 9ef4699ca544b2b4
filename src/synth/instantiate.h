/**
 * @file
 * Numerical instantiation: fit an ansatz's free angles to a target
 * unitary by minimizing the Hilbert–Schmidt cost with analytic
 * gradients (the BQSKit-style inner loop of circuit synthesis).
 *
 * The cost and gradient come from an HsObjective built once per
 * instantiate() call and reused by every evaluation of every start. It
 * holds U†, a table of bound slot matrices (refilled from the angles,
 * without building ir::Gate values) and one workspace for the m
 * prefix matrices P_k = F_k ... F_0 and the backward matrix
 * B_k = U† F_{m-1} ... F_{k+1}, so a warm evaluation allocates
 * nothing:
 *
 *   forward   P_k = F_k · P_{k-1}: the slot mixes rows of the prefix
 *             (O(d²) per 1q/2q slot; Rz is a row scale, CX a row swap)
 *   cost      T = Tr(U† · P_{m-1})
 *   backward  ∂T/∂θ_k = -i/2 · Tr(B_k · P · P_k), read with the Pauli
 *             generator P as a signed/phased row permutation of P_k;
 *             then B_{k-1} = B_k · F_k mixes columns of B.
 *
 * The complex products are written as explicit real arithmetic: the
 * same values std::complex gives for finite inputs, without the NaN
 * recovery call it adds to every multiply. The result agrees with the
 * dense reference formulation (tests/hs_oracle.h) to rounding; the
 * test suite pins it at <= 1e-12.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/complex_matrix.h"
#include "linalg/numopt.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/templates.h"

namespace guoq {
namespace synth {

/**
 * The Hilbert–Schmidt cost 1 - |Tr(U†V)|/N of an ansatz V(θ) against
 * a target U, with its gradient in the ansatz angles (see the file
 * comment for the sweep). Supports Rz/Ry/Rx/Rxx slots (free or
 * fixed), CX, and any fixed 1-qubit kind.
 */
class HsObjective
{
  public:
    HsObjective(const Ansatz &ansatz, const linalg::ComplexMatrix &target);

    /**
     * The cost at @p params (the ansatz's numParams() angles). When
     * @p grad is non-null it is resized to numParams() and filled with
     * the gradient. Allocates nothing once @p grad has that capacity.
     */
    double operator()(const std::vector<double> &params,
                      std::vector<double> *grad);

  private:
    /** How a slot acts on the index space. */
    enum class Op
    {
        Rz,     //!< diag(m[0], m[1]) on one bit
        Ry,     //!< [[c, -s], [s, c]], c = m[0].re, s = m[1].re
        Dense1, //!< any 2x2 matrix m[0..4) on one bit
        Cx,     //!< flip `lo` where `hi` is set
        Rxx,    //!< c·I - i·s·X⊗X, c = m[0].re, s = m[1].re
    };
    /** The Pauli generator P of a free slot (∂G/∂θ = -i/2 · P · G). */
    enum class Gen
    {
        X, //!< rows swapped by genFlip (X for Rx, X⊗X for Rxx)
        Y, //!< rows swapped by genFlip with phases -i (bit clear), +i
        Z, //!< rows with `hi` set negated
    };
    struct Slot
    {
        Op op = Op::Cx;
        int param = -1;       //!< free angle index, or -1 when fixed
        std::size_t hi = 0;   //!< index bit of the first qubit
        std::size_t lo = 0;   //!< index bit of the second qubit (2q)
        linalg::Complex m[4]; //!< bound entries (see Op)
        Gen gen = Gen::X;
        std::size_t genFlip = 0; //!< index bits the generator flips
    };

    /** Fill the entries of an Rz/Ry/Rx/Rxx slot for angle @p theta. */
    static void bindSlot(Slot &s, double theta);
    /** dst = F · src (row mix), both d x d row-major. */
    void applyLeft(const Slot &s, const linalg::Complex *src,
                   linalg::Complex *dst) const;
    /** b = b · F (column mix), in place. */
    void applyRight(const Slot &s, linalg::Complex *b) const;
    /** Tr(B · P · p) with P the generator of slot @p s. */
    linalg::Complex traceWithGenerator(const Slot &s,
                                       const linalg::Complex *b,
                                       const linalg::Complex *p) const;

    std::size_t dim_;
    int numParams_;
    std::vector<Slot> slots_;
    std::vector<linalg::Complex> udag_; //!< U†, row-major
    /** [I | P_0 | ... | P_{m-1} | B], each d x d row-major. */
    std::vector<linalg::Complex> work_;
};

/** Result of fitting an ansatz against a target unitary. */
struct InstantiateResult
{
    std::vector<double> params;
    double hsDistanceValue = 1.0; //!< Δ(target, ansatz(params))
    bool success = false;         //!< Δ ≤ the requested threshold
};

/**
 * The minimizer options instantiate() runs with for threshold @p eps
 * (see instantiate()): a 600-iteration cap per start, and a cost
 * tolerance 4x under the cost that Hilbert–Schmidt distance eps maps
 * to, so measured distances keep a margin after native re-expression.
 */
linalg::MinimizeOptions instantiateOptions(double eps,
                                           const support::Deadline &deadline);

/**
 * Fit @p ansatz to @p target so that the Hilbert–Schmidt distance is
 * at most @p eps (Def. 3.2): multi-start L-BFGS
 * (linalg::minimizeMultiStart) over an HsObjective.
 *
 * @param target   the 2^n x 2^n target unitary.
 * @param eps      distance threshold defining success; eps = 0 is
 *                 interpreted as numerically-exact (1e-7, the metric's
 *                 resolution at machine precision).
 * @param restarts total starts (the first uses @p hint when given).
 * @param hint     warm-start parameters, e.g. the parent structure's
 *                 fit in QSearch; may be shorter than numParams() (the
 *                 tail is randomized).
 */
InstantiateResult instantiate(const Ansatz &ansatz,
                              const linalg::ComplexMatrix &target,
                              double eps, int restarts, support::Rng &rng,
                              const support::Deadline &deadline,
                              const std::vector<double> *hint = nullptr);

} // namespace synth
} // namespace guoq
