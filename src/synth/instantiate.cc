#include "synth/instantiate.h"

#include <algorithm>
#include <cmath>

#include "linalg/unitary.h"
#include "support/logging.h"

namespace guoq {
namespace synth {

using linalg::Complex;
using linalg::ComplexMatrix;

namespace {

/** a · b, rounded as std::complex rounds finite inputs. */
inline Complex
mul(Complex a, Complex b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** The index after @p j, ascending, whose bit @p bit is clear. */
inline std::size_t
nextClear(std::size_t j, std::size_t bit)
{
    return ((j | bit) + 1) & ~bit;
}

/**
 * Tr(B · P · p) for a Pauli generator P that maps row j to
 * phase_j · row (j ^ flip), both d x d row-major. kSwap: P has the
 * ±i phases of Y (i·x with sign -1 where @p bit is clear, +1 where
 * set); otherwise kSigned gives Z's signs (-1 where set), and neither
 * is X. Each phase is exact, and b · (sign·y) = sign · (b · y)
 * exactly, so the sign is applied to the product.
 */
template <bool kSwap, bool kSigned>
Complex
generatorTrace(const Complex *b, const Complex *p, std::size_t d,
               std::size_t bit, std::size_t flip)
{
    double re = 0, im = 0;
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const Complex x = p[(j ^ flip) * d + i];
            const Complex t =
                mul(b[i * d + j], kSwap ? Complex(-x.imag(), x.real()) : x);
            if (kSigned && ((j & bit) != 0) != kSwap) {
                re -= t.real();
                im -= t.imag();
            } else {
                re += t.real();
                im += t.imag();
            }
        }
    }
    return {re, im};
}

} // namespace

HsObjective::HsObjective(const Ansatz &ansatz, const ComplexMatrix &target)
    : dim_(std::size_t{1} << ansatz.numQubits()),
      numParams_(ansatz.numParams())
{
    const int nq = ansatz.numQubits();
    if (target.rows() != dim_ || target.cols() != dim_)
        support::panic("HsObjective: target size does not match the "
                       "ansatz width");
    auto bit = [nq](int q) { return std::size_t{1} << (nq - 1 - q); };

    for (const AnsatzGate &g : ansatz.gates()) {
        Slot s;
        s.param = g.paramIndex;
        s.hi = bit(g.qubits[0]);
        if (g.qubits.size() == 2)
            s.lo = bit(g.qubits[1]);
        switch (g.kind) {
          case ir::GateKind::Rz:
            s.op = Op::Rz;
            s.gen = Gen::Z;
            break;
          case ir::GateKind::Ry:
            s.op = Op::Ry;
            s.gen = Gen::Y;
            s.genFlip = s.hi;
            break;
          case ir::GateKind::Rx:
            s.op = Op::Dense1;
            s.genFlip = s.hi;
            break;
          case ir::GateKind::Rxx:
            s.op = Op::Rxx;
            s.genFlip = s.hi | s.lo;
            break;
          case ir::GateKind::CX:
            s.op = Op::Cx;
            break;
          default: {
            if (g.paramIndex >= 0 || ir::gateArity(g.kind) != 1 ||
                ir::gateParamCount(g.kind) > 1)
                support::panic(support::strcat(
                    "HsObjective: unsupported ansatz slot ",
                    ir::gateName(g.kind)));
            std::vector<double> ps;
            if (ir::gateParamCount(g.kind) == 1)
                ps.push_back(g.fixedParam);
            const linalg::Matrix2 m = ir::oneQubitMatrix(g.kind, ps);
            s.op = Op::Dense1;
            std::copy(m.begin(), m.end(), s.m);
            slots_.push_back(s);
            continue;
          }
        }
        if (g.kind != ir::GateKind::CX)
            bindSlot(s, g.paramIndex >= 0 ? 0.0 : g.fixedParam);
        slots_.push_back(s);
    }

    udag_.resize(dim_ * dim_);
    for (std::size_t i = 0; i < dim_; ++i)
        for (std::size_t j = 0; j < dim_; ++j)
            udag_[i * dim_ + j] = std::conj(target(j, i));

    // Block 0 is the identity the first slot applies to; the last
    // holds B.
    work_.assign((slots_.size() + 2) * dim_ * dim_, Complex{});
    for (std::size_t i = 0; i < dim_; ++i)
        work_[i * dim_ + i] = 1.0;
}

void
HsObjective::bindSlot(Slot &s, double theta)
{
    // The entries of ir::gateMatrix; Rz's two phases share one cos/sin
    // (cos is even and sin odd).
    const double c = std::cos(theta / 2), sn = std::sin(theta / 2);
    switch (s.op) {
      case Op::Rz:
        s.m[0] = Complex(c, -sn);
        s.m[1] = Complex(c, sn);
        return;
      case Op::Dense1: // the only free or angle-bound Dense1 kind is Rx
        s.m[0] = c;
        s.m[1] = Complex(-0.0, -1.0) * sn;
        s.m[2] = s.m[1];
        s.m[3] = c;
        return;
      case Op::Ry:
      case Op::Rxx:
        s.m[0] = c;
        s.m[1] = sn;
        return;
      case Op::Cx:
        return;
    }
}

void
HsObjective::applyLeft(const Slot &s, const Complex *src,
                       Complex *dst) const
{
    const std::size_t d = dim_;
    switch (s.op) {
      case Op::Rz:
        for (std::size_t r = 0; r < d; ++r) {
            const Complex f = s.m[(r & s.hi) ? 1 : 0];
            for (std::size_t c = 0; c < d; ++c)
                dst[r * d + c] = mul(src[r * d + c], f);
        }
        return;
      case Op::Ry: {
        const double co = s.m[0].real(), sn = s.m[1].real();
        for (std::size_t r = 0; r < d; r = nextClear(r, s.hi)) {
            const Complex *x0 = src + r * d, *x1 = src + (r | s.hi) * d;
            Complex *y0 = dst + r * d, *y1 = dst + (r | s.hi) * d;
            for (std::size_t c = 0; c < d; ++c) {
                y0[c] = {co * x0[c].real() - sn * x1[c].real(),
                         co * x0[c].imag() - sn * x1[c].imag()};
                y1[c] = {sn * x0[c].real() + co * x1[c].real(),
                         sn * x0[c].imag() + co * x1[c].imag()};
            }
        }
        return;
      }
      case Op::Dense1:
        for (std::size_t r = 0; r < d; r = nextClear(r, s.hi)) {
            const Complex *x0 = src + r * d, *x1 = src + (r | s.hi) * d;
            Complex *y0 = dst + r * d, *y1 = dst + (r | s.hi) * d;
            for (std::size_t c = 0; c < d; ++c) {
                y0[c] = mul(s.m[0], x0[c]) + mul(s.m[1], x1[c]);
                y1[c] = mul(s.m[2], x0[c]) + mul(s.m[3], x1[c]);
            }
        }
        return;
      case Op::Cx:
        for (std::size_t r = 0; r < d; ++r) {
            const Complex *x = src + ((r & s.hi) ? r ^ s.lo : r) * d;
            std::copy(x, x + d, dst + r * d);
        }
        return;
      case Op::Rxx: {
        // c·x_r - i·s·x_{r ^ flip}
        const double co = s.m[0].real(), sn = s.m[1].real();
        for (std::size_t r = 0; r < d; ++r) {
            const Complex *x = src + r * d, *y = src + (r ^ s.genFlip) * d;
            Complex *out = dst + r * d;
            for (std::size_t c = 0; c < d; ++c)
                out[c] = {co * x[c].real() + sn * y[c].imag(),
                          co * x[c].imag() - sn * y[c].real()};
        }
        return;
      }
    }
}

void
HsObjective::applyRight(const Slot &s, Complex *b) const
{
    const std::size_t d = dim_;
    switch (s.op) {
      case Op::Rz:
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t j = 0; j < d; ++j)
                b[i * d + j] = mul(b[i * d + j], s.m[(j & s.hi) ? 1 : 0]);
        return;
      case Op::Ry: {
        const double co = s.m[0].real(), sn = s.m[1].real();
        for (std::size_t i = 0; i < d; ++i) {
            Complex *row = b + i * d;
            for (std::size_t j = 0; j < d; j = nextClear(j, s.hi)) {
                const Complex y0 = row[j], y1 = row[j | s.hi];
                row[j] = {co * y0.real() + sn * y1.real(),
                          co * y0.imag() + sn * y1.imag()};
                row[j | s.hi] = {co * y1.real() - sn * y0.real(),
                                 co * y1.imag() - sn * y0.imag()};
            }
        }
        return;
      }
      case Op::Dense1:
        for (std::size_t i = 0; i < d; ++i) {
            Complex *row = b + i * d;
            for (std::size_t j = 0; j < d; j = nextClear(j, s.hi)) {
                const Complex y0 = row[j], y1 = row[j | s.hi];
                row[j] = mul(y0, s.m[0]) + mul(y1, s.m[2]);
                row[j | s.hi] = mul(y0, s.m[1]) + mul(y1, s.m[3]);
            }
        }
        return;
      case Op::Cx:
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t j = 0; j < d; ++j)
                if ((j & s.hi) && !(j & s.lo))
                    std::swap(b[i * d + j], b[i * d + (j | s.lo)]);
        return;
      case Op::Rxx: {
        const double co = s.m[0].real(), sn = s.m[1].real();
        for (std::size_t i = 0; i < d; ++i) {
            Complex *row = b + i * d;
            for (std::size_t j = 0; j < d; ++j) {
                const std::size_t k = j ^ s.genFlip;
                if (k < j)
                    continue;
                const Complex y0 = row[j], y1 = row[k];
                row[j] = {co * y0.real() + sn * y1.imag(),
                          co * y0.imag() - sn * y1.real()};
                row[k] = {co * y1.real() + sn * y0.imag(),
                          co * y1.imag() - sn * y0.real()};
            }
        }
        return;
      }
    }
}

Complex
HsObjective::traceWithGenerator(const Slot &s, const Complex *b,
                                const Complex *p) const
{
    switch (s.gen) {
      case Gen::X:
        return generatorTrace<false, false>(b, p, dim_, s.hi, s.genFlip);
      case Gen::Y:
        return generatorTrace<true, true>(b, p, dim_, s.hi, s.genFlip);
      case Gen::Z:
        return generatorTrace<false, true>(b, p, dim_, s.hi, s.genFlip);
    }
    return {};
}

double
HsObjective::operator()(const std::vector<double> &params,
                        std::vector<double> *grad)
{
    const std::size_t d2 = dim_ * dim_;
    const std::size_t m = slots_.size();
    const double n = static_cast<double>(dim_);
    auto block = [&](std::size_t k) { return work_.data() + k * d2; };

    // Block k + 1 holds P_k = F_k · P_{k-1}; block 0 is the identity.
    for (std::size_t k = 0; k < m; ++k) {
        Slot &s = slots_[k];
        if (s.param >= 0)
            bindSlot(s, params[static_cast<std::size_t>(s.param)]);
        applyLeft(s, block(k), block(k + 1));
    }

    // T = Tr(U† · V): the trace with no generator (flip 0, no signs).
    const Complex t =
        generatorTrace<false, false>(udag_.data(), block(m), dim_, 0, 0);
    const double abs_t = std::abs(t);
    const double cost = std::max(0.0, 1.0 - abs_t / n);
    if (!grad)
        return cost;

    grad->assign(static_cast<std::size_t>(numParams_), 0.0);
    if (abs_t < 1e-300)
        return cost; // gradient of |T| undefined at T = 0
    const Complex t_dir = std::conj(t) / abs_t;

    // B_k = U† · F_{m-1} ... F_{k+1}: starts at U† and absorbs F_k
    // from the right after each step.
    Complex *b = block(m + 1);
    std::copy(udag_.begin(), udag_.end(), b);
    for (std::size_t k = m; k-- > 0;) {
        const Slot &s = slots_[k];
        if (s.param >= 0) {
            const Complex dt =
                Complex(0, -0.5) * traceWithGenerator(s, b, block(k + 1));
            (*grad)[static_cast<std::size_t>(s.param)] =
                -(1.0 / n) * std::real(t_dir * dt);
        }
        if (k > 0)
            applyRight(s, b);
    }
    return cost;
}

linalg::MinimizeOptions
instantiateOptions(double eps, const support::Deadline &deadline)
{
    const double eps_eff = eps > 0 ? eps : 1e-7;
    linalg::MinimizeOptions opts;
    opts.maxIters = 600;
    // Aim 4x under the threshold so measured distances land with
    // margin to spare after native re-expression noise.
    opts.tolerance = linalg::hsCostThresholdForDistance(eps_eff) * 0.25;
    opts.deadline = deadline;
    return opts;
}

InstantiateResult
instantiate(const Ansatz &ansatz, const ComplexMatrix &target, double eps,
            int restarts, support::Rng &rng,
            const support::Deadline &deadline,
            const std::vector<double> *hint)
{
    const double eps_eff = eps > 0 ? eps : 1e-7;
    HsObjective objective(ansatz, target);
    linalg::GradFn fn = [&objective](const std::vector<double> &x,
                                     std::vector<double> *g) {
        return objective(x, g);
    };
    const linalg::MinimizeOptions opts = instantiateOptions(eps, deadline);

    // First start: the warm-start hint when given (tail randomized),
    // otherwise fully random — the all-zero (identity) point is a
    // near-stationary plateau of the HS cost for most targets.
    std::vector<double> x0(static_cast<std::size_t>(ansatz.numParams()));
    for (std::size_t i = 0; i < x0.size(); ++i) {
        if (hint && i < hint->size())
            x0[i] = (*hint)[i] + rng.uniform(-0.05, 0.05);
        else
            x0[i] = rng.uniform(-M_PI, M_PI);
    }
    const linalg::MinimizeResult r = linalg::minimizeMultiStart(
        fn, std::move(x0), restarts < 1 ? 1 : restarts, rng, opts);

    InstantiateResult result;
    result.params = r.x;
    // Δ = sqrt(cost · (2 - cost)) from cost = 1 - |T|/N.
    result.hsDistanceValue =
        std::sqrt(std::max(0.0, r.value * (2.0 - r.value)));
    result.success = result.hsDistanceValue <= eps_eff;
    return result;
}

} // namespace synth
} // namespace guoq
