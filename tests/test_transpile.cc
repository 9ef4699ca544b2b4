/** @file Tests for the transpiler: all decompositions must be exact. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/unitary_sim.h"
#include "tests/test_util.h"
#include "transpile/decompose.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace guoq {
namespace {

using testutil::kExact;

TEST(Decompose, CcxNetworkExact)
{
    ir::Circuit a(3);
    a.ccx(0, 1, 2);
    ir::Circuit b(3);
    for (const ir::Gate &g : transpile::ccxDecomposition(0, 1, 2))
        b.add(g);
    EXPECT_EQ(b.countOf(ir::GateKind::CX), 6u);
    EXPECT_EQ(b.tGateCount(), 7u);
    EXPECT_LT(sim::circuitDistance(a, b), kExact);
}

TEST(Decompose, CxViaRxxExact)
{
    ir::Circuit a(2);
    a.cx(0, 1);
    ir::Circuit b(2);
    for (const ir::Gate &g : transpile::cxViaRxx(0, 1))
        b.add(g);
    EXPECT_EQ(b.countOf(ir::GateKind::Rxx), 1u);
    EXPECT_LT(sim::circuitDistance(a, b), kExact);
}

TEST(Decompose, RxxViaCxExactOverAngleSweep)
{
    for (double theta : {-2.5, -0.3, 0.0, 0.7, 1.9, 3.1}) {
        ir::Circuit a(2);
        a.rxx(theta, 0, 1);
        ir::Circuit b(2);
        for (const ir::Gate &g : transpile::rxxViaCx(theta, 0, 1))
            b.add(g);
        EXPECT_LT(sim::circuitDistance(a, b), kExact) << theta;
    }
}

class ExpandGate : public ::testing::TestWithParam<int>
{
};

TEST_P(ExpandGate, ExpandToCxBasisExactForEveryMultiQubitKind)
{
    ir::Circuit a(3);
    switch (GetParam()) {
      case 0: a.cz(0, 1); break;
      case 1: a.swap(1, 2); break;
      case 2: a.cp(1.234, 0, 2); break;
      case 3: a.rxx(0.8, 0, 1); break;
      case 4: a.ccx(0, 1, 2); break;
      case 5: a.ccz(0, 1, 2); break;
      default: FAIL();
    }
    const ir::Circuit b = transpile::expandToCxBasis(a);
    for (const ir::Gate &g : b.gates())
        if (g.arity() >= 2) {
            EXPECT_EQ(g.kind, ir::GateKind::CX);
        }
    EXPECT_LT(sim::circuitDistance(a, b), kExact);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ExpandGate, ::testing::Range(0, 6));

class OneQubitToNativeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OneQubitToNativeSweep, ExactAndNative)
{
    const auto [set_index, seed] = GetParam();
    const ir::GateSetKind set =
        ir::allGateSets()[static_cast<std::size_t>(set_index)];
    if (set == ir::GateSetKind::CliffordT)
        GTEST_SKIP() << "finite set uses oneQubitCliffordT";
    support::Rng rng(static_cast<std::uint64_t>(seed) * 17 + 3);
    ir::Circuit a(1);
    a.u3(rng.uniform(-M_PI, M_PI), rng.uniform(-M_PI, M_PI),
         rng.uniform(-M_PI, M_PI), 0);
    ir::Circuit b(1);
    for (const ir::Gate &g : transpile::oneQubitToNative(
             sim::circuitUnitary(a), 0, set))
        b.add(g);
    EXPECT_TRUE(transpile::allNative(b, set));
    EXPECT_LT(sim::circuitDistance(a, b), kExact);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneQubitToNativeSweep,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 8)));

TEST(OneQubitToNative, RecognizesNativeFixedGates)
{
    // H into nam must come back as the single H gate, not a chain.
    const auto h = transpile::oneQubitToNative(
        ir::gateMatrix(ir::GateKind::H, {}), 0, ir::GateSetKind::Nam);
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h[0].kind, ir::GateKind::H);
    const auto sx = transpile::oneQubitToNative(
        ir::gateMatrix(ir::GateKind::SX, {}), 0,
        ir::GateSetKind::IbmEagle);
    ASSERT_EQ(sx.size(), 1u);
    EXPECT_EQ(sx[0].kind, ir::GateKind::SX);
}

TEST(OneQubitToNative, DiagonalBecomesSingleRotation)
{
    const auto gates = transpile::oneQubitToNative(
        ir::gateMatrix(ir::GateKind::Rz, {0.37}), 0,
        ir::GateSetKind::IbmEagle);
    ASSERT_EQ(gates.size(), 1u);
    EXPECT_EQ(gates[0].kind, ir::GateKind::Rz);
    EXPECT_NEAR(gates[0].params[0], 0.37, 1e-9);
}

TEST(PiOver4, RecognizesMultiples)
{
    EXPECT_TRUE(transpile::isPiOver4Multiple(0));
    EXPECT_TRUE(transpile::isPiOver4Multiple(M_PI / 4));
    EXPECT_TRUE(transpile::isPiOver4Multiple(-3 * M_PI / 4));
    EXPECT_TRUE(transpile::isPiOver4Multiple(2 * M_PI));
    EXPECT_FALSE(transpile::isPiOver4Multiple(0.5));
    EXPECT_FALSE(transpile::isPiOver4Multiple(M_PI / 8));
}

TEST(RzToCliffordT, AllEightResiduesExact)
{
    for (int k = -8; k <= 8; ++k) {
        const double angle = k * M_PI / 4;
        ir::Circuit a(1);
        a.rz(angle, 0);
        ir::Circuit b(1);
        for (const ir::Gate &g : transpile::rzToCliffordT(angle, 0))
            b.add(g);
        EXPECT_LE(b.size(), 2u) << "k=" << k;
        EXPECT_LT(sim::circuitDistance(a, b), kExact) << "k=" << k;
    }
}

TEST(RzToCliffordT, RejectsNonMultiples)
{
    EXPECT_EXIT(transpile::rzToCliffordT(0.5, 0),
                ::testing::ExitedWithCode(1), "pi/4");
}

TEST(OneQubitCliffordT, ExactExpansions)
{
    using ir::Gate;
    using ir::GateKind;
    const std::vector<Gate> cases = {
        Gate(GateKind::Z, {0}),  Gate(GateKind::Y, {0}),
        Gate(GateKind::SX, {0}), Gate(GateKind::SXdg, {0}),
        Gate(GateKind::Rz, {0}, {3 * M_PI / 4}),
        Gate(GateKind::Rx, {0}, {-M_PI / 2}),
        Gate(GateKind::Ry, {0}, {M_PI / 4}),
        Gate(GateKind::U1, {0}, {M_PI}),
    };
    for (const Gate &g : cases) {
        ir::Circuit a(1);
        a.add(g);
        ir::Circuit b(1);
        for (const Gate &out : transpile::oneQubitCliffordT(g))
            b.add(out);
        EXPECT_TRUE(transpile::allNative(b, ir::GateSetKind::CliffordT));
        EXPECT_LT(sim::circuitDistance(a, b), kExact)
            << ir::gateName(g.kind);
    }
}

class ToGateSetWorkloads
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  public:
    static ir::Circuit
    workload(int which)
    {
        switch (which) {
          case 0: return workloads::qft(4);
          case 1: return workloads::barencoTof(3);
          case 2: return workloads::ghz(5);
          default: return workloads::cuccaroAdder(2);
        }
    }
};

TEST_P(ToGateSetWorkloads, NativeAndExact)
{
    const auto [set_index, which] = GetParam();
    const ir::GateSetKind set =
        ir::allGateSets()[static_cast<std::size_t>(set_index)];
    const ir::Circuit c = workload(which);
    if (set == ir::GateSetKind::CliffordT && which == 0)
        GTEST_SKIP() << "qft_4 is not exactly Clifford+T representable";
    const ir::Circuit out = transpile::toGateSet(c, set);
    EXPECT_TRUE(transpile::allNative(out, set));
    if (c.numQubits() <= 8) {
        EXPECT_LT(sim::circuitDistance(c, out), kExact);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ToGateSetWorkloads,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4)));

TEST(Fusion, MergesOneQubitRuns)
{
    ir::Circuit c(1);
    c.rz(0.3, 0);
    c.rz(0.4, 0);
    c.rz(0.5, 0);
    const ir::Circuit out =
        transpile::fuseOneQubitRuns(c, ir::GateSetKind::IbmEagle);
    EXPECT_LT(out.size(), c.size());
    EXPECT_LT(sim::circuitDistance(c, out), kExact);
}

TEST(Fusion, StopsAtTwoQubitGates)
{
    ir::Circuit c(2);
    c.rz(0.3, 0);
    c.cx(0, 1);
    c.rz(0.4, 0);
    const ir::Circuit out =
        transpile::fuseOneQubitRuns(c, ir::GateSetKind::IbmEagle);
    EXPECT_EQ(out.size(), 3u); // nothing fusable across the CX
    EXPECT_LT(sim::circuitDistance(c, out), kExact);
}

/** fusionShrinks must say exactly whether the rebuild is shorter. */
::testing::AssertionResult
checkAgreesWithRebuild(const ir::Circuit &c, ir::GateSetKind set)
{
    const bool rebuilt =
        transpile::fuseOneQubitRuns(c, set).size() < c.size();
    if (transpile::fusionShrinks(c, set) == rebuilt)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << ir::gateSetName(set) << ": rebuild "
           << (rebuilt ? "shrinks" : "does not shrink") << "\n"
           << c.toString();
}

const std::vector<ir::GateSetKind> kContinuousSets = {
    ir::GateSetKind::Ibmq20, ir::GateSetKind::IbmEagle,
    ir::GateSetKind::IonQ, ir::GateSetKind::Nam};

/** The set's native diagonal rotation: U1 on ibmq20, Rz elsewhere. */
ir::GateKind
phaseKind(ir::GateSetKind set)
{
    return set == ir::GateSetKind::Ibmq20 ? ir::GateKind::U1
                                          : ir::GateKind::Rz;
}

TEST(Fusion, NeverGrowsTheCircuit)
{
    support::Rng rng(55);
    int shrinking = 0;
    int stable = 0;
    for (int round = 0; round < 30; ++round) {
        for (ir::GateSetKind set : kContinuousSets) {
            // Few qubits give long 1q runs, many give short ones.
            const ir::Circuit c = testutil::randomNativeCircuit(
                set, 2 + round % 5, 8 + 5 * (round % 8), rng);
            const ir::Circuit out = transpile::fuseOneQubitRuns(c, set);
            EXPECT_LE(out.size(), c.size()) << ir::gateSetName(set);
            if (round < 5) {
                EXPECT_LT(sim::circuitDistance(c, out), kExact)
                    << ir::gateSetName(set);
            }
            EXPECT_TRUE(checkAgreesWithRebuild(c, set));
            // A fused circuit mostly has nothing left to fuse.
            EXPECT_TRUE(checkAgreesWithRebuild(out, set));
            for (const ir::Circuit *x : {&c, &out})
                ++(transpile::fusionShrinks(*x, set) ? shrinking : stable);
        }
    }
    EXPECT_GT(shrinking, 0);
    EXPECT_GT(stable, 0);

    // Boundary inputs, each a run on qubit 0 next to a CX.
    auto run = [](std::vector<ir::Gate> gates) {
        ir::Circuit c(2);
        c.cx(0, 1);
        for (ir::Gate &g : gates)
            c.add(std::move(g));
        c.cx(0, 1);
        return c;
    };
    for (ir::GateSetKind set : kContinuousSets) {
        const ir::GateKind phase = phaseKind(set);
        // Runs whose product is a fixed native gate (or the identity).
        std::vector<std::vector<ir::Gate>> cases = {
            {{phase, {0}, {M_PI / 2}}, {phase, {0}, {M_PI / 2}}}, // s.s
        };
        if (set == ir::GateSetKind::Nam)
            cases.push_back({{ir::GateKind::H, {0}}, {ir::GateKind::H, {0}}});
        if (set == ir::GateSetKind::IbmEagle)
            cases.push_back(
                {{ir::GateKind::SX, {0}}, {ir::GateKind::SX, {0}}});
        // Phase pairs summing to 0 or 2π, and just off, by 1e-13.
        for (double total : {0.0, 2 * M_PI})
            for (double off : {-1e-13, 0.0, 1e-13})
                cases.push_back({{phase, {0}, {0.7}},
                                 {phase, {0}, {total - 0.7 + off}}});
        // Single-gate runs only: nothing to fuse.
        cases.push_back({{phase, {0}, {0.3}}});
        for (const std::vector<ir::Gate> &gates : cases)
            EXPECT_TRUE(checkAgreesWithRebuild(run(gates), set));
        EXPECT_FALSE(transpile::fusionShrinks(
            run({{phase, {0}, {0.3}}}), set));
    }
}

TEST(Fusion, CliffordTPassThrough)
{
    ir::Circuit c(1);
    c.t(0);
    c.t(0);
    const ir::Circuit out =
        transpile::fuseOneQubitRuns(c, ir::GateSetKind::CliffordT);
    EXPECT_EQ(out.size(), 2u);
}

} // namespace
} // namespace guoq
