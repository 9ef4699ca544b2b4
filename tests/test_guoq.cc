/** @file Tests for the GUOQ search loop (Alg. 1, Thm. 5.3). */

#include <gtest/gtest.h>

#include "core/guoq.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace guoq {
namespace {

core::GuoqConfig
quickConfig(double eps = 0, double seconds = 2.0, long iterations = -1)
{
    core::GuoqConfig cfg;
    cfg.epsilonTotal = eps;
    cfg.timeBudgetSeconds = seconds;
    // Most properties here are anytime-safe (they hold for any prefix
    // of the search), so an iteration cap keeps the test fast and
    // machine-independent; quality-sensitive tests pass -1 and run
    // their full wall-clock budget.
    cfg.maxIterations = iterations;
    cfg.seed = 7;
    return cfg;
}

TEST(Guoq, DrainsFullyRedundantCircuit)
{
    ir::Circuit c(2);
    for (int i = 0; i < 4; ++i)
        c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.x(1);
    c.x(1);
    const core::GuoqResult r = core::optimize(
        c, ir::GateSetKind::Nam, quickConfig(0, 2.0, 5000));
    EXPECT_EQ(r.best.size(), 0u);
    EXPECT_EQ(r.errorBound, 0.0);
}

TEST(Guoq, ExactModeNeverSpendsError)
{
    support::Rng rng(1);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::IbmEagle, 4, 40, rng);
    const core::GuoqResult r = core::optimize(
        c, ir::GateSetKind::IbmEagle, quickConfig(0, 1.5, 2000));
    EXPECT_EQ(r.errorBound, 0.0);
    EXPECT_EQ(r.stats.resynthAccepted, 0);
    EXPECT_LT(sim::circuitDistance(c, r.best), testutil::kExact);
}

class GuoqTheorem53 : public ::testing::TestWithParam<int>
{
};

TEST_P(GuoqTheorem53, OutputWithinEpsilonOfInput)
{
    // Thm. 5.3: guoq(C, ε_f, T) ≡_{ε_f} C.
    const ir::GateSetKind set =
        ir::allGateSets()[static_cast<std::size_t>(GetParam()) % 5];
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 59 + 11);
    const ir::Circuit c = testutil::randomNativeCircuit(set, 4, 35, rng);
    const double eps = 1e-5;
    core::GuoqConfig cfg = quickConfig(eps, 1.5, 1500);
    cfg.seed = static_cast<std::uint64_t>(GetParam());
    const core::GuoqResult r = core::optimize(c, set, cfg);
    EXPECT_LE(r.errorBound, eps);
    EXPECT_LE(sim::circuitDistance(c, r.best),
              eps + testutil::kExact);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GuoqTheorem53, ::testing::Range(0, 10));

TEST(Guoq, NeverReturnsWorseThanInput)
{
    support::Rng rng(3);
    for (ir::GateSetKind set : ir::allGateSets()) {
        const ir::Circuit c =
            testutil::randomNativeCircuit(set, 4, 30, rng);
        const core::CostFunction cost(core::Objective::TwoQubitCount,
                                      set);
        const core::GuoqResult r =
            core::optimize(c, set, quickConfig(1e-5, 1.0, 1000));
        EXPECT_LE(cost(r.best), cost(c)) << ir::gateSetName(set);
    }
}

TEST(Guoq, SameSeedSameResultInIterationMode)
{
    support::Rng rng(4);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::CliffordT, 3, 30, rng);
    core::GuoqConfig cfg = quickConfig(0, 60.0);
    cfg.maxIterations = 400;
    const core::GuoqResult a =
        core::optimize(c, ir::GateSetKind::CliffordT, cfg);
    const core::GuoqResult b =
        core::optimize(c, ir::GateSetKind::CliffordT, cfg);
    EXPECT_EQ(a.best.toString(), b.best.toString());
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(Guoq, RespectsIterationCap)
{
    support::Rng rng(5);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 3, 20, rng);
    core::GuoqConfig cfg = quickConfig(0, 60.0);
    cfg.maxIterations = 50;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_EQ(r.stats.iterations, 50);
}

TEST(Guoq, RespectsTimeBudget)
{
    support::Rng rng(6);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 5, 80, rng);
    support::Timer timer;
    core::optimize(c, ir::GateSetKind::Nam, quickConfig(1e-6, 0.5));
    EXPECT_LT(timer.seconds(), 3.0);
}

TEST(Guoq, SyncResynthesisStopsAtTheRunBudget)
{
    // Every iteration resynthesizes, and one call alone may take far
    // longer than the run: the call must be cut at the run's deadline.
    support::Rng rng(6);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 3, 60, rng);
    core::GuoqConfig cfg = quickConfig(1e-6, 0.3);
    cfg.resynthProbability = 1.0;
    cfg.resynthCallSeconds = 30.0;
    cfg.resynthCallEpsilon = 1e-12;
    support::Timer timer;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_GT(r.stats.resynthCalls, 0);
    EXPECT_LT(timer.seconds(), 2.0);
}

TEST(Guoq, FastPathCountersAreReported)
{
    support::Rng rng(9);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 5, 120, rng);
    const core::GuoqResult r = core::optimize(
        c, ir::GateSetKind::Nam, quickConfig(0, 10.0, 20000));
    // Memo answers are no-op rule passes; fusion rebuilds are fusion
    // applications.
    EXPECT_GT(r.stats.memoNoops, 0);
    EXPECT_LE(r.stats.memoNoops, r.stats.noops);
    EXPECT_LE(r.stats.fusionBuilds, r.stats.rewriteApplications);
}

TEST(Guoq, TraceIsMonotoneNonIncreasing)
{
    const ir::Circuit c =
        transpile::toGateSet(workloads::qft(4), ir::GateSetKind::Nam);
    core::GuoqConfig cfg = quickConfig(1e-6, 1.5, 1500);
    cfg.recordTrace = true;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    ASSERT_GE(r.trace.size(), 1u);
    for (std::size_t i = 1; i < r.trace.size(); ++i)
        EXPECT_LE(r.trace[i].cost, r.trace[i - 1].cost + 1e-12);
}

TEST(Guoq, ResynthOnlyModeRequiresBudget)
{
    ir::Circuit c(2);
    c.cx(0, 1);
    core::GuoqConfig cfg = quickConfig(0, 0.2);
    cfg.selection = core::TransformSelection::ResynthOnly;
    EXPECT_EXIT(core::optimize(c, ir::GateSetKind::Nam, cfg),
                ::testing::ExitedWithCode(1), "resynth-only");
}

TEST(Guoq, RewriteOnlyAblationRuns)
{
    const ir::Circuit c = transpile::toGateSet(workloads::qft(4),
                                               ir::GateSetKind::Ibmq20);
    core::GuoqConfig cfg = quickConfig(1e-6, 1.0, 2000);
    cfg.selection = core::TransformSelection::RewriteOnly;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Ibmq20, cfg);
    EXPECT_EQ(r.stats.resynthCalls, 0);
    EXPECT_LT(sim::circuitDistance(c, r.best), testutil::kExact);
}

TEST(Guoq, AsyncModeRespectsTheorem53)
{
    const ir::Circuit c =
        transpile::toGateSet(workloads::qft(4), ir::GateSetKind::Nam);
    core::GuoqConfig cfg = quickConfig(1e-5, 2.0);
    cfg.synthWorkers = 1;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LE(r.errorBound, 1e-5);
    EXPECT_LE(sim::circuitDistance(c, r.best), 1e-5 + testutil::kExact);
}

TEST(Guoq, ResynthesisFindsReductionsRulesCannot)
{
    // The paper's headline behaviour (Fig. 7): resynthesis escapes the
    // rewrite-rule local minimum. Two ZZ rotations on the same pair
    // written with opposite CX orientations: no library rule matches,
    // but the combined 2q unitary needs only 2 CXs instead of 4.
    ir::Circuit c(2);
    c.cx(0, 1);
    c.rz(0.3, 1);
    c.cx(0, 1);
    c.cx(1, 0);
    c.rz(0.4, 0);
    c.cx(1, 0);
    core::GuoqConfig cfg = quickConfig(1e-5, 8.0);
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LE(r.best.twoQubitGateCount(), 2u);
    EXPECT_LE(sim::circuitDistance(c, r.best), 1e-5 + testutil::kExact);

    // Sanity check the premise: rewrite rules alone stay stuck.
    core::GuoqConfig rewrite_only = quickConfig(0, 1.0);
    rewrite_only.selection = core::TransformSelection::RewriteOnly;
    const core::GuoqResult stuck =
        core::optimize(c, ir::GateSetKind::Nam, rewrite_only);
    EXPECT_EQ(stuck.best.twoQubitGateCount(), 4u);
}

TEST(Guoq, StatsAreInternallyConsistent)
{
    support::Rng rng(8);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 4, 30, rng);
    core::GuoqConfig cfg = quickConfig(1e-6, 1.0, 1000);
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_GT(r.stats.iterations, 0);
    EXPECT_GE(r.stats.seconds, 0.0);
    EXPECT_LE(r.stats.accepted + r.stats.uphillAccepted +
                  r.stats.rejected + r.stats.noops +
                  r.stats.budgetSkips,
              r.stats.iterations + 1);
}

} // namespace
} // namespace guoq
