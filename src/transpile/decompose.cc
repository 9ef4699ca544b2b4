#include "transpile/decompose.h"

#include <algorithm>
#include <cmath>

#include "linalg/decompose_1q.h"
#include "linalg/unitary.h"
#include "support/logging.h"

namespace guoq {
namespace transpile {

namespace {

using ir::Gate;
using ir::GateKind;

} // namespace

std::vector<Gate>
ccxDecomposition(int a, int b, int target)
{
    // The standard 6-CX / 7-T Toffoli network (Nielsen & Chuang §4.3).
    std::vector<Gate> out;
    auto cx = [&out](int c, int t) {
        out.emplace_back(GateKind::CX, std::vector<int>{c, t});
    };
    auto one = [&out](GateKind k, int q) {
        out.emplace_back(k, std::vector<int>{q});
    };
    one(GateKind::H, target);
    cx(b, target);
    one(GateKind::Tdg, target);
    cx(a, target);
    one(GateKind::T, target);
    cx(b, target);
    one(GateKind::Tdg, target);
    cx(a, target);
    one(GateKind::T, b);
    one(GateKind::T, target);
    one(GateKind::H, target);
    cx(a, b);
    one(GateKind::T, a);
    one(GateKind::Tdg, b);
    cx(a, b);
    return out;
}

std::vector<Gate>
cxViaRxx(int control, int target)
{
    // CX = (Ry(-π/2) Rx(-π/2) ⊗ Rx(-π/2)) XX(π/2) (Ry(π/2) ⊗ I) up to
    // global phase — the native IonQ realization (gates in time order).
    std::vector<Gate> out;
    out.emplace_back(GateKind::Ry, std::vector<int>{control},
                     std::vector<double>{M_PI / 2});
    out.emplace_back(GateKind::Rxx, std::vector<int>{control, target},
                     std::vector<double>{M_PI / 2});
    out.emplace_back(GateKind::Rx, std::vector<int>{control},
                     std::vector<double>{-M_PI / 2});
    out.emplace_back(GateKind::Rx, std::vector<int>{target},
                     std::vector<double>{-M_PI / 2});
    out.emplace_back(GateKind::Ry, std::vector<int>{control},
                     std::vector<double>{-M_PI / 2});
    return out;
}

std::vector<Gate>
rxxViaCx(double theta, int a, int b)
{
    // exp(-iθ/2 X⊗X) = (H⊗H) exp(-iθ/2 Z⊗Z) (H⊗H) and the ZZ rotation
    // is CX · (I ⊗ Rz(θ)) · CX. Exact, including global phase.
    std::vector<Gate> out;
    out.emplace_back(GateKind::H, std::vector<int>{a});
    out.emplace_back(GateKind::H, std::vector<int>{b});
    out.emplace_back(GateKind::CX, std::vector<int>{a, b});
    out.emplace_back(GateKind::Rz, std::vector<int>{b},
                     std::vector<double>{theta});
    out.emplace_back(GateKind::CX, std::vector<int>{a, b});
    out.emplace_back(GateKind::H, std::vector<int>{a});
    out.emplace_back(GateKind::H, std::vector<int>{b});
    return out;
}

ir::Circuit
expandToCxBasis(const ir::Circuit &c)
{
    ir::Circuit out(c.numQubits());
    for (const Gate &gate : c.gates()) {
        switch (gate.kind) {
          case GateKind::CZ:
            out.h(gate.qubits[1]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.h(gate.qubits[1]);
            break;
          case GateKind::Swap:
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.cx(gate.qubits[1], gate.qubits[0]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            break;
          case GateKind::CP: {
            // diag(1,1,1,e^{iλ}) via phase pushes around two CXs.
            const double lam = gate.params[0];
            out.u1(lam / 2, gate.qubits[0]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.u1(-lam / 2, gate.qubits[1]);
            out.cx(gate.qubits[0], gate.qubits[1]);
            out.u1(lam / 2, gate.qubits[1]);
            break;
          }
          case GateKind::Rxx:
            for (Gate &g :
                 rxxViaCx(gate.params[0], gate.qubits[0], gate.qubits[1]))
                out.add(std::move(g));
            break;
          case GateKind::CCX:
            for (Gate &g : ccxDecomposition(gate.qubits[0], gate.qubits[1],
                                            gate.qubits[2]))
                out.add(std::move(g));
            break;
          case GateKind::CCZ:
            out.h(gate.qubits[2]);
            for (Gate &g : ccxDecomposition(gate.qubits[0], gate.qubits[1],
                                            gate.qubits[2]))
                out.add(std::move(g));
            out.h(gate.qubits[2]);
            break;
          default:
            out.add(gate);
            break;
        }
    }
    return out;
}

void
NativeOneQubit::push(ir::GateKind kind, std::initializer_list<double> params)
{
    Op &op = ops[static_cast<std::size_t>(size++)];
    op.kind = kind;
    op.numParams = static_cast<int>(params.size());
    std::copy(params.begin(), params.end(), op.params.begin());
}

void
NativeOneQubit::pushRz(double angle)
{
    const double a = ir::normalizeAngle(angle);
    if (!ir::isZeroAngle(a, 1e-12))
        push(GateKind::Rz, {a});
}

NativeOneQubit
nativeOneQubit(const linalg::Matrix2 &u, ir::GateSetKind set)
{
    const linalg::EulerZyz e = linalg::decomposeZyz(u);
    NativeOneQubit out;

    // Single-gate dictionary: when the unitary is (mod phase) one of
    // the set's fixed native 1q gates, emit exactly that gate instead
    // of a full Euler chain.
    for (GateKind kind : ir::nativeGates(set)) {
        if (ir::gateArity(kind) != 1 || ir::isParameterized(kind))
            continue;
        if (linalg::equalUpToGlobalPhase(ir::oneQubitMatrix(kind, {}), u,
                                         1e-10)) {
            out.push(kind, {});
            return out;
        }
    }
    // X-axis rotations for sets with native Rx: ZYZ form
    // Rx(θ) = Rz(-π/2) Ry(θ) Rz(π/2).
    if (ir::isNative(set, GateKind::Rx) &&
        std::abs(ir::normalizeAngle(e.beta + M_PI / 2)) <= 1e-10 &&
        std::abs(ir::normalizeAngle(e.delta - M_PI / 2)) <= 1e-10) {
        out.push(GateKind::Rx, {e.gamma});
        return out;
    }

    // Diagonal case: the whole unitary is a single Rz.
    if (ir::isZeroAngle(ir::normalizeAngle(e.gamma), 1e-12)) {
        switch (set) {
          case ir::GateSetKind::Ibmq20:
            if (!ir::isZeroAngle(ir::normalizeAngle(e.beta + e.delta)))
                out.push(GateKind::U1,
                         {ir::normalizeAngle(e.beta + e.delta)});
            return out;
          default:
            out.pushRz(e.beta + e.delta);
            return out;
        }
    }

    switch (set) {
      case ir::GateSetKind::Ibmq20:
        // U3(θ,φ,λ) ∝ Rz(φ) Ry(θ) Rz(λ); θ = π/2 is exactly a U2.
        if (std::abs(ir::normalizeAngle(e.gamma - M_PI / 2)) <= 1e-12)
            out.push(GateKind::U2, {e.beta, e.delta});
        else
            out.push(GateKind::U3, {e.gamma, e.beta, e.delta});
        return out;
      case ir::GateSetKind::IbmEagle:
        // U3(θ,φ,λ) ∝ Rz(φ+π) SX Rz(θ+π) SX Rz(λ) — the Qiskit
        // ZSXZSXZ form (gates emitted in time order, inner Rz first).
        out.pushRz(e.delta);
        out.push(GateKind::SX, {});
        out.pushRz(e.gamma + M_PI);
        out.push(GateKind::SX, {});
        out.pushRz(e.beta + M_PI);
        return out;
      case ir::GateSetKind::IonQ:
        out.pushRz(e.delta);
        out.push(GateKind::Ry, {e.gamma});
        out.pushRz(e.beta);
        return out;
      case ir::GateSetKind::Nam: {
        // ZXZ with Rx(γ) = H Rz(γ) H.
        const linalg::EulerZxz x = linalg::decomposeZxz(u);
        out.pushRz(x.delta);
        out.push(GateKind::H, {});
        out.pushRz(x.gamma);
        out.push(GateKind::H, {});
        out.pushRz(x.beta);
        return out;
      }
      case ir::GateSetKind::CliffordT:
        support::panic("oneQubitToNative: Clifford+T is finite; use "
                       "oneQubitCliffordT");
    }
    support::panic("oneQubitToNative: unknown gate set");
}

int
longestNativeOneQubit(ir::GateSetKind set)
{
    switch (set) {
      case ir::GateSetKind::Ibmq20:
        return 1; // one U1/U2/U3
      case ir::GateSetKind::IonQ:
        return 3; // Rz Ry Rz
      default:
        return 5; // Rz SX Rz SX Rz / Rz H Rz H Rz
    }
}

std::vector<Gate>
oneQubitToNative(const linalg::Matrix2 &u, int qubit, ir::GateSetKind set)
{
    const NativeOneQubit form = nativeOneQubit(u, set);
    std::vector<Gate> out;
    out.reserve(static_cast<std::size_t>(form.size));
    for (int i = 0; i < form.size; ++i) {
        const NativeOneQubit::Op &op = form.ops[static_cast<std::size_t>(i)];
        out.emplace_back(op.kind, std::vector<int>{qubit},
                         std::vector<double>(op.params.begin(),
                                             op.params.begin() +
                                                 op.numParams));
    }
    return out;
}

std::vector<Gate>
oneQubitToNative(const linalg::ComplexMatrix &u, int qubit,
                 ir::GateSetKind set)
{
    return oneQubitToNative(u.toMatrix2(), qubit, set);
}

bool
isPiOver4Multiple(double angle, double tol)
{
    const double k = angle / (M_PI / 4);
    return std::abs(k - std::round(k)) * (M_PI / 4) <= tol;
}

std::vector<Gate>
rzToCliffordT(double angle, int qubit)
{
    if (!isPiOver4Multiple(angle))
        support::fatal(support::strcat(
            "rzToCliffordT: angle ", angle,
            " is not a multiple of pi/4; exact Clifford+T expansion "
            "impossible (this library does not approximate rotations)"));
    int k = static_cast<int>(std::llround(angle / (M_PI / 4))) % 8;
    if (k < 0)
        k += 8;
    std::vector<Gate> out;
    auto one = [&out, qubit](GateKind kind) {
        out.emplace_back(kind, std::vector<int>{qubit});
    };
    switch (k) {
      case 0: break;
      case 1: one(GateKind::T); break;
      case 2: one(GateKind::S); break;
      case 3: one(GateKind::S); one(GateKind::T); break;
      case 4: one(GateKind::S); one(GateKind::S); break;
      case 5: one(GateKind::Sdg); one(GateKind::Tdg); break;
      case 6: one(GateKind::Sdg); break;
      case 7: one(GateKind::Tdg); break;
      default: support::panic("rzToCliffordT: unreachable");
    }
    return out;
}

std::vector<Gate>
oneQubitCliffordT(const ir::Gate &gate)
{
    const int q = gate.qubits[0];
    std::vector<Gate> out;
    auto one = [&out, q](GateKind kind) {
        out.emplace_back(kind, std::vector<int>{q});
    };
    auto extend = [&out](std::vector<Gate> gs) {
        for (Gate &g : gs)
            out.push_back(std::move(g));
    };
    switch (gate.kind) {
      case GateKind::Z:
        one(GateKind::S);
        one(GateKind::S);
        return out;
      case GateKind::Y:
        // Y ∝ X·Z: apply Z then X (time order Z, X).
        one(GateKind::S);
        one(GateKind::S);
        one(GateKind::X);
        return out;
      case GateKind::SX:
        // SX ∝ Rx(π/2) = H Rz(π/2) H ∝ H S H.
        one(GateKind::H);
        one(GateKind::S);
        one(GateKind::H);
        return out;
      case GateKind::SXdg:
        one(GateKind::H);
        one(GateKind::Sdg);
        one(GateKind::H);
        return out;
      case GateKind::Rz:
      case GateKind::U1:
        return rzToCliffordT(gate.params[0], q);
      case GateKind::Rx:
        one(GateKind::H);
        extend(rzToCliffordT(gate.params[0], q));
        one(GateKind::H);
        return out;
      case GateKind::Ry:
        // Ry(θ) = S Rx(θ) S† (matrix order): time order S†, Rx, S.
        one(GateKind::Sdg);
        one(GateKind::H);
        extend(rzToCliffordT(gate.params[0], q));
        one(GateKind::H);
        one(GateKind::S);
        return out;
      case GateKind::U2:
      case GateKind::U3: {
        // U3(θ,φ,λ) ∝ Rz(φ) Ry(θ) Rz(λ): representable when all three
        // angles are π/4 multiples.
        const double theta =
            gate.kind == GateKind::U2 ? M_PI / 2 : gate.params[0];
        const double phi =
            gate.kind == GateKind::U2 ? gate.params[0] : gate.params[1];
        const double lam =
            gate.kind == GateKind::U2 ? gate.params[1] : gate.params[2];
        extend(rzToCliffordT(lam, q));
        extend(oneQubitCliffordT(
            Gate(GateKind::Ry, {q}, {theta})));
        extend(rzToCliffordT(phi, q));
        return out;
      }
      default:
        support::fatal(support::strcat(
            "oneQubitCliffordT: no exact Clifford+T expansion for ",
            ir::gateName(gate.kind)));
    }
}

} // namespace transpile
} // namespace guoq
