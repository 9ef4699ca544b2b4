/** @file Tests for ansatz templates and numerical instantiation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "sim/unitary_sim.h"
#include "synth/instantiate.h"
#include "tests/hs_oracle.h"
#include "tests/test_util.h"

// Every global operator new in this binary is counted, so a test can
// assert that a code path allocates nothing. The replacements stay out
// of line: inlined, GCC would pair malloc()/free() with the new/delete
// at each call site and reject the build (-Wmismatched-new-delete).
namespace {
std::atomic<long> g_allocations{0};
} // namespace

__attribute__((noinline)) void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace guoq {
namespace {

/** A random 2^n x 2^n target: a native circuit's unitary. */
linalg::ComplexMatrix
randomTarget(int num_qubits, support::Rng &rng)
{
    return sim::circuitUnitary(testutil::randomNativeCircuit(
        ir::GateSetKind::IbmEagle, num_qubits, 6 * num_qubits, rng));
}

/**
 * A QSearch-shaped ansatz on @p num_qubits: the initial 1q layer plus
 * @p blocks entangler blocks on random ordered pairs.
 */
synth::Ansatz
randomAnsatz(int num_qubits, int blocks, bool use_rxx, support::Rng &rng)
{
    synth::Ansatz a = synth::initialAnsatz(num_qubits);
    for (int b = 0; b < blocks && num_qubits > 1; ++b) {
        const auto n = static_cast<std::size_t>(num_qubits);
        const int qa = static_cast<int>(rng.index(n));
        int qb = qa;
        while (qb == qa)
            qb = static_cast<int>(rng.index(n));
        synth::appendEntanglerBlock(&a, qa, qb, use_rxx);
    }
    return a;
}

/**
 * @p a with about a third of its free slots frozen at random angles
 * (the shape qsearch's angle simplification instantiates).
 */
synth::Ansatz
freezeSome(const synth::Ansatz &a, support::Rng &rng)
{
    synth::Ansatz out(a.numQubits());
    for (const synth::AnsatzGate &g : a.gates()) {
        if (g.paramIndex >= 0 && rng.chance(0.35))
            out.addFixed(g.kind, g.qubits, rng.uniform(-M_PI, M_PI));
        else if (g.paramIndex >= 0)
            out.addParameterized(g.kind, g.qubits);
        else
            out.addFixed(g.kind, g.qubits, g.fixedParam);
    }
    return out;
}

std::vector<double>
randomParams(const synth::Ansatz &a, support::Rng &rng)
{
    std::vector<double> x(static_cast<std::size_t>(a.numParams()));
    for (double &xi : x)
        xi = rng.uniform(-M_PI, M_PI);
    return x;
}

/** Max |Δ| over the cost and every gradient entry vs the oracle. */
double
maxDiffVsOracle(const synth::Ansatz &a, const linalg::ComplexMatrix &target,
                const std::vector<double> &x)
{
    std::vector<double> want, got;
    const double want_cost = oracle::hsCostAndGrad(a, target, x, &want);
    synth::HsObjective objective(a, target);
    const double got_cost = objective(x, &got);
    EXPECT_EQ(got.size(), want.size());
    double diff = std::abs(got_cost - want_cost);
    // The cost-only call must agree with the cost of the full one.
    diff = std::max(diff, std::abs(objective(x, nullptr) - want_cost));
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
        diff = std::max(diff, std::abs(got[i] - want[i]));
    return diff;
}

TEST(Ansatz, InitialAnsatzShape)
{
    const synth::Ansatz a = synth::initialAnsatz(3);
    EXPECT_EQ(a.numParams(), 9);
    EXPECT_EQ(a.gates().size(), 9u);
    EXPECT_EQ(a.twoQubitCount(), 0);
}

TEST(Ansatz, EntanglerBlockAddsCxAndDressing)
{
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    EXPECT_EQ(a.numParams(), 12);
    EXPECT_EQ(a.twoQubitCount(), 1);
}

TEST(Ansatz, RxxBlockIsParameterized)
{
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, true);
    EXPECT_EQ(a.numParams(), 13); // entangler angle is free too
}

TEST(Ansatz, InstantiateBindsParameters)
{
    synth::Ansatz a(1);
    a.addParameterized(ir::GateKind::Rz, {0});
    a.addFixed(ir::GateKind::Ry, {0}, 0.5);
    const ir::Circuit c = a.instantiate({1.25});
    ASSERT_EQ(c.size(), 2u);
    EXPECT_NEAR(c.gate(0).params[0], 1.25, 1e-15);
    EXPECT_NEAR(c.gate(1).params[0], 0.5, 1e-15);
}

class GradientCheck : public ::testing::TestWithParam<int>
{
};

TEST_P(GradientCheck, AnalyticMatchesNumeric)
{
    // Params 0-7 on 2 qubits, 8-15 on 3; odd params use Rxx.
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 311 + 7);
    const int nq = GetParam() < 8 ? 2 : 3;
    synth::Ansatz a = synth::initialAnsatz(nq);
    for (int q = 0; q + 1 < nq; ++q)
        synth::appendEntanglerBlock(&a, q, q + 1, GetParam() % 2 == 1);

    const linalg::ComplexMatrix target = randomTarget(nq, rng);

    std::vector<double> x(static_cast<std::size_t>(a.numParams()));
    for (double &xi : x)
        xi = rng.uniform(-2, 2);
    synth::HsObjective objective(a, target);
    std::vector<double> grad;
    const double f0 = objective(x, &grad);

    const double h = 1e-6;
    for (std::size_t k = 0; k < x.size(); k += 3) {
        std::vector<double> xp = x;
        xp[k] += h;
        const double fp = objective(xp, nullptr);
        EXPECT_NEAR((fp - f0) / h, grad[k], 1e-4) << "param " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GradientCheck, ::testing::Range(0, 16));

TEST(HsObjective, MatchesOracleOnRandomAnsaetze)
{
    // 1-4 qubits, CX and Rxx entanglers, all-free and partly frozen
    // slots: cost and every gradient entry within 1e-12.
    support::Rng rng(2024);
    for (int nq = 1; nq <= 4; ++nq) {
        for (int rxx = 0; rxx < 2; ++rxx) {
            for (int trial = 0; trial < 4; ++trial) {
                const int blocks = nq == 1 ? 0 : 1 + trial;
                const synth::Ansatz base =
                    randomAnsatz(nq, blocks, rxx == 1, rng);
                const linalg::ComplexMatrix target = randomTarget(nq, rng);
                for (const synth::Ansatz &a : {base, freezeSome(base, rng)}) {
                    const std::vector<double> x = randomParams(a, rng);
                    EXPECT_LE(maxDiffVsOracle(a, target, x), 1e-12)
                        << nq << " qubits, rxx " << rxx << ", trial "
                        << trial << ", " << a.numParams() << " params";
                }
            }
        }
    }
}

TEST(HsObjective, MatchesOracleOnRxAndFixedOneQubitKinds)
{
    // Slots the QSearch templates do not emit but an Ansatz admits.
    support::Rng rng(77);
    synth::Ansatz a(2);
    a.addFixed(ir::GateKind::H, {0});
    a.addParameterized(ir::GateKind::Rx, {1});
    a.addFixed(ir::GateKind::CX, {1, 0});
    a.addFixed(ir::GateKind::T, {1});
    a.addFixed(ir::GateKind::Rx, {0}, 0.4);
    a.addParameterized(ir::GateKind::Rz, {0});
    a.addFixed(ir::GateKind::U1, {1}, -0.9);
    a.addParameterized(ir::GateKind::Rxx, {1, 0});
    a.addParameterized(ir::GateKind::Ry, {1});
    const linalg::ComplexMatrix target = randomTarget(2, rng);
    for (int trial = 0; trial < 4; ++trial)
        EXPECT_LE(maxDiffVsOracle(a, target, randomParams(a, rng)), 1e-12);
}

TEST(HsObjective, EmptyAnsatzIsTheIdentity)
{
    const synth::Ansatz a(2);
    synth::HsObjective objective(a, linalg::ComplexMatrix::identity(4));
    std::vector<double> grad{1.0};
    EXPECT_NEAR(objective({}, &grad), 0.0, 1e-15);
    EXPECT_TRUE(grad.empty());
}

TEST(HsObjective, WarmEvaluationDoesNotAllocate)
{
    support::Rng rng(11);
    const synth::Ansatz a = randomAnsatz(3, 6, false, rng);
    const linalg::ComplexMatrix target = randomTarget(3, rng);
    synth::HsObjective objective(a, target);
    std::vector<double> x = randomParams(a, rng);
    std::vector<double> grad;
    objective(x, &grad); // warm: grad takes its capacity here

    // The counter is live in this binary (a direct call, which unlike a
    // new-expression may not be elided).
    const long probe = g_allocations.load();
    ::operator delete(::operator new(16));
    ASSERT_GT(g_allocations.load(), probe);

    const long before = g_allocations.load();
    double sink = 0;
    for (int i = 0; i < 20; ++i) {
        x[static_cast<std::size_t>(i) % x.size()] += 0.1;
        sink += objective(x, &grad);
        sink += objective(x, nullptr);
    }
    EXPECT_EQ(g_allocations.load() - before, 0);
    EXPECT_TRUE(std::isfinite(sink));
}

TEST(Instantiate, FitsSingleQubitTarget)
{
    support::Rng rng(3);
    synth::Ansatz a = synth::initialAnsatz(1);
    ir::Circuit t(1);
    t.u3(0.7, -1.1, 2.2, 0);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-7, 4, rng, support::Deadline::in(10));
    EXPECT_TRUE(r.success);
    EXPECT_LE(r.hsDistanceValue, 1e-7);
}

TEST(Instantiate, FitsTwoQubitTargetWithTwoBlocks)
{
    support::Rng rng(4);
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    ir::Circuit t(2);
    t.h(0);
    t.cx(0, 1);
    t.rz(0.3, 1);
    t.cx(0, 1);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-6, 6, rng,
        support::Deadline::in(20));
    EXPECT_TRUE(r.success);
}

TEST(Instantiate, ReportsFailureWhenStructureTooWeak)
{
    // A bare 1q layer cannot realize an entangling target.
    support::Rng rng(5);
    synth::Ansatz a = synth::initialAnsatz(2);
    ir::Circuit t(2);
    t.h(0);
    t.cx(0, 1);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-6, 3, rng,
        support::Deadline::in(5));
    EXPECT_FALSE(r.success);
    EXPECT_GT(r.hsDistanceValue, 0.05);
}

TEST(Instantiate, WarmStartHintConverges)
{
    // Fit once, perturb, refit with the hint: should converge quickly.
    support::Rng rng(6);
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    std::vector<double> truth(static_cast<std::size_t>(a.numParams()));
    for (double &v : truth)
        v = rng.uniform(-M_PI, M_PI);
    const linalg::ComplexMatrix target =
        sim::circuitUnitary(a.instantiate(truth));
    const synth::InstantiateResult r = synth::instantiate(
        a, target, 1e-7, 1, rng, support::Deadline::in(10), &truth);
    EXPECT_TRUE(r.success);
}

TEST(Instantiate, HonorsDeadline)
{
    support::Rng rng(7);
    synth::Ansatz a = synth::initialAnsatz(3);
    for (int i = 0; i < 6; ++i)
        synth::appendEntanglerBlock(&a, i % 2, i % 2 + 1, false);
    ir::Circuit t(3);
    t.ccx(0, 1, 2);
    support::Timer timer;
    synth::instantiate(a, sim::circuitUnitary(t), 1e-12, 100, rng,
                       support::Deadline::in(0.2));
    EXPECT_LT(timer.seconds(), 2.0);
}

/** initialAnsatz plus @p blocks CX blocks on the qubit pairs in turn. */
synth::Ansatz
pairCycleAnsatz(int num_qubits, int blocks)
{
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < num_qubits; ++a)
        for (int b = a + 1; b < num_qubits; ++b)
            pairs.emplace_back(a, b);
    synth::Ansatz an = synth::initialAnsatz(num_qubits);
    for (int i = 0; i < blocks; ++i) {
        const auto &[a, b] = pairs[static_cast<std::size_t>(i) % pairs.size()];
        synth::appendEntanglerBlock(&an, a, b, false);
    }
    return an;
}

/** Outcome of a batch of seeded fits, with cost+gradient counts. */
struct FitTally
{
    int fits = 0;
    int runs = 0;
    std::vector<int> evals;     //!< per run
    std::vector<int> fitEvals;  //!< per converged run
};

int
median(std::vector<int> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

/**
 * Fit @p targets seeded targets, each the unitary of the
 * @p blocks-block pair-cycle ansatz at random angles, with the
 * structure that is @p short_by blocks shorter, from @p restarts starts
 * at instantiate()'s exact-mode options. Each run counts its
 * evaluations through a wrapping GradFn over an HsObjective.
 */
FitTally
seededFits(int num_qubits, int blocks, int short_by, int targets,
           int restarts, const support::Deadline &deadline = {})
{
    support::Rng rng(1);
    FitTally tally;
    const synth::Ansatz full = pairCycleAnsatz(num_qubits, blocks);
    const synth::Ansatz fit = pairCycleAnsatz(num_qubits, blocks - short_by);
    for (int t = 0; t < targets; ++t) {
        const linalg::ComplexMatrix target =
            sim::circuitUnitary(full.instantiate(randomParams(full, rng)));
        std::vector<double> x0 = randomParams(fit, rng);
        synth::HsObjective objective(fit, target);
        int evals = 0;
        const linalg::GradFn fn = [&](const std::vector<double> &x,
                                      std::vector<double> *g) {
            ++evals;
            return objective(x, g);
        };
        support::Rng restart_rng(1000 + static_cast<std::uint64_t>(t));
        const linalg::MinimizeResult r = linalg::minimizeMultiStart(
            fn, std::move(x0), restarts, restart_rng,
            synth::instantiateOptions(0, deadline));
        ++tally.runs;
        tally.evals.push_back(evals);
        if (r.converged) {
            ++tally.fits;
            tally.fitEvals.push_back(evals);
        }
    }
    return tally;
}

/** QSearchOptions::restartsPerNode's default. */
constexpr int kRestarts = 4;

TEST(InstantiateConvergence, RealizableTwoQubitTargetsAllFit)
{
    for (int blocks : {3, 6}) {
        const FitTally t = seededFits(2, blocks, 0, 20, kRestarts);
        EXPECT_EQ(t.fits, t.runs) << blocks << " blocks";
    }
}

TEST(InstantiateConvergence, ThreeQubitSingleStartRateAtLeastAdams)
{
    // Adam (tests/adam_oracle.h at instantiate()'s old learning rate
    // 0.1) fit 12/20 of these 3-block targets and 2/20 of the 6-block
    // ones from the same single starts; L-BFGS fits 16/20 and 4/20.
    EXPECT_GE(seededFits(3, 3, 0, 20, 1).fits, 12);
    EXPECT_GE(seededFits(3, 6, 0, 20, 1).fits, 2);
}

TEST(InstantiateConvergence, MedianEvaluationsPerFitStayLow)
{
    // Adam's median per converged fit on the same targets and starts
    // was 316-332 evaluations; L-BFGS's is 30-64.
    for (const auto &[qubits, blocks] :
         {std::pair<int, int>{2, 3}, {2, 6}, {3, 3}}) {
        const FitTally t = seededFits(qubits, blocks, 0, 20, 1);
        ASSERT_FALSE(t.fitEvals.empty());
        EXPECT_LE(median(t.fitEvals), 100)
            << qubits << " qubits, " << blocks << " blocks";
    }
}

TEST(InstantiateConvergence, StructureOneBlockShortStallsEarly)
{
    // The targets need every block, so no start can converge; the
    // stall stop must end each start long before the 600-iteration
    // cap (Adam's median here was 1,618-1,810 of the 2,400 cap).
    for (const auto &[qubits, blocks] :
         {std::pair<int, int>{2, 3}, {3, 6}}) {
        const FitTally t = seededFits(qubits, blocks, 1, 10, kRestarts);
        EXPECT_EQ(t.fits, 0);
        for (int e : t.evals)
            EXPECT_LT(e, kRestarts * 600);
        EXPECT_LT(median(t.evals), kRestarts * 600 / 3)
            << qubits << " qubits, " << blocks << " blocks";
    }
}

TEST(InstantiateConvergence, ExpiredDeadlineEvaluatesOncePerStart)
{
    const FitTally t =
        seededFits(3, 6, 0, 4, kRestarts, support::Deadline::in(0));
    for (int e : t.evals)
        EXPECT_LE(e, kRestarts);
}

} // namespace
} // namespace guoq
