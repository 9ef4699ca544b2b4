/**
 * @file
 * The reference formulation of the Hilbert–Schmidt cost and gradient,
 * kept outside the library as the oracle synth::HsObjective is held
 * to (tests/test_instantiate.cc) and measured against (the
 * `instantiate_throughput` bench case).
 *
 * It is the direct dense transcription of the math: each ansatz slot
 * is bound to an ir::Gate, every prefix P_k = F_k ... F_0 is a fresh
 * ComplexMatrix built with sim::applyGate, each gradient entry copies
 * P_k and left-multiplies the Pauli generator, and the backward
 * matrix absorbs F_k through a dense O(d³) product.
 */

#pragma once

#include <cmath>
#include <vector>

#include "ir/gate.h"
#include "linalg/complex_matrix.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "synth/templates.h"

namespace guoq {
namespace oracle {

/** Tr(A · B) without forming the product: Σ_ij A_ij B_ji. */
inline linalg::Complex
traceOfProduct(const linalg::ComplexMatrix &a, const linalg::ComplexMatrix &b)
{
    const std::size_t n = a.rows();
    linalg::Complex t = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            t += a(i, j) * b(j, i);
    return t;
}

/** The concrete gate for an ansatz slot under @p params. */
inline ir::Gate
bindGate(const synth::AnsatzGate &g, const std::vector<double> &params)
{
    std::vector<double> ps;
    if (ir::gateParamCount(g.kind) == 1)
        ps.push_back(g.paramIndex >= 0
                         ? params[static_cast<std::size_t>(g.paramIndex)]
                         : g.fixedParam);
    return ir::Gate(g.kind, g.qubits, ps);
}

/**
 * Left-multiply @p m by the Pauli generator P of slot @p g (Z for Rz,
 * Y for Ry, X for Rx, X⊗X for Rxx) so that
 * ∂G/∂θ · rest = -i/2 · P · G · rest.
 */
inline void
applyGenerator(linalg::ComplexMatrix &m, const synth::AnsatzGate &g,
               int num_qubits)
{
    switch (g.kind) {
      case ir::GateKind::Rz:
        sim::applyGate(m, ir::Gate(ir::GateKind::Z, {g.qubits[0]}),
                       num_qubits);
        return;
      case ir::GateKind::Ry:
        sim::applyGate(m, ir::Gate(ir::GateKind::Y, {g.qubits[0]}),
                       num_qubits);
        return;
      case ir::GateKind::Rx:
        sim::applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[0]}),
                       num_qubits);
        return;
      case ir::GateKind::Rxx:
        sim::applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[0]}),
                       num_qubits);
        sim::applyGate(m, ir::Gate(ir::GateKind::X, {g.qubits[1]}),
                       num_qubits);
        return;
      default:
        support::panic("applyGenerator: unsupported parameterized kind");
    }
}

/** The cost 1 - |Tr(U†V)|/N and, when @p grad is non-null, its gradient. */
inline double
hsCostAndGrad(const synth::Ansatz &ansatz,
              const linalg::ComplexMatrix &target,
              const std::vector<double> &params, std::vector<double> *grad)
{
    using linalg::Complex;
    using linalg::ComplexMatrix;
    const int nq = ansatz.numQubits();
    const std::size_t dim = std::size_t{1} << nq;
    const double n = static_cast<double>(dim);
    const auto &gates = ansatz.gates();
    const std::size_t m = gates.size();

    // Cumulative prefixes P_k = F_k ... F_0 (P_{m-1} is the full V).
    std::vector<ComplexMatrix> prefix(m);
    ComplexMatrix cum = ComplexMatrix::identity(dim);
    for (std::size_t k = 0; k < m; ++k) {
        sim::applyGate(cum, bindGate(gates[k], params), nq);
        prefix[k] = cum;
    }
    const ComplexMatrix &v = m == 0 ? cum : prefix[m - 1];

    const ComplexMatrix udag = target.dagger();
    const Complex t = traceOfProduct(udag, v);
    const double abs_t = std::abs(t);
    const double cost = std::max(0.0, 1.0 - abs_t / n);
    if (!grad)
        return cost;

    grad->assign(static_cast<std::size_t>(ansatz.numParams()), 0.0);
    if (abs_t < 1e-300)
        return cost; // gradient of |T| undefined at T = 0
    const Complex t_dir = std::conj(t) / abs_t;

    // B_k = U† · F_{m-1} ... F_{k+1}; starts at U† and absorbs F_k
    // from the right after each step.
    ComplexMatrix b = udag;
    for (std::size_t k = m; k-- > 0;) {
        const synth::AnsatzGate &g = gates[k];
        if (g.paramIndex >= 0) {
            // dV/dθ_k = B_k† ... = A_{k+1} · (-i/2 P_k) · prefix_k.
            ComplexMatrix pp = prefix[k];
            applyGenerator(pp, g, nq);
            const Complex dt = Complex(0, -0.5) * traceOfProduct(b, pp);
            (*grad)[static_cast<std::size_t>(g.paramIndex)] =
                -(1.0 / n) * std::real(t_dir * dt);
        }
        if (k > 0) {
            // Absorb F_k into B (right multiplication).
            ComplexMatrix f = ComplexMatrix::identity(dim);
            sim::applyGate(f, bindGate(g, params), nq);
            b = b * f;
        }
    }
    return cost;
}

} // namespace oracle
} // namespace guoq
