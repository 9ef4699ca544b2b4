/** @file Tests for the numerical minimizers. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "linalg/numopt.h"
#include "support/timer.h"

namespace guoq {
namespace {

/** Convex quadratic with minimum at (1, -2). */
double
quadratic(const std::vector<double> &x, std::vector<double> *g)
{
    const double dx = x[0] - 1.0, dy = x[1] + 2.0;
    if (g) {
        (*g)[0] = 2 * dx;
        (*g)[1] = 2 * dy;
    }
    return dx * dx + dy * dy;
}

TEST(Lbfgs, MinimizesQuadratic)
{
    linalg::MinimizeOptions opts;
    opts.maxIters = 3000;
    opts.tolerance = 1e-10;
    const linalg::MinimizeResult r =
        linalg::minimizeLbfgs(quadratic, {5.0, 5.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], -2.0, 1e-4);
    // A 2-D quadratic is solved in a handful of quasi-Newton steps.
    EXPECT_LE(r.iterations, 10);
}

TEST(Lbfgs, StopsAtTolerance)
{
    linalg::MinimizeOptions opts;
    opts.maxIters = 100000;
    opts.tolerance = 1e-3;
    const linalg::MinimizeResult r =
        linalg::minimizeLbfgs(quadratic, {3.0, 0.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.value, 1e-3);
    EXPECT_LT(r.iterations, 100000);
}

TEST(Lbfgs, ConvergesOnRosenbrock)
{
    // The curved valley of f = (1 - x)² + 100 (y - x²)²: needs the
    // curvature pairs, a first-order step crawls along it.
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.maxIters = 600;
    opts.tolerance = 1e-14;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&evals](const std::vector<double> &x, std::vector<double> *g) {
            ++evals;
            const double a = 1.0 - x[0], b = x[1] - x[0] * x[0];
            if (g) {
                (*g)[0] = -2.0 * a - 400.0 * x[0] * b;
                (*g)[1] = 200.0 * b;
            }
            return a * a + 100.0 * b * b;
        },
        {-1.2, 1.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.x[1], 1.0, 1e-5);
    EXPECT_LT(evals, 300);
}

TEST(Lbfgs, EmptyParameterVectorReturnsInitialValue)
{
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.tolerance = 0.1;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&evals](const std::vector<double> &, std::vector<double> *) {
            ++evals;
            return 0.5;
        },
        {}, opts);
    EXPECT_NEAR(r.value, 0.5, 1e-12);
    EXPECT_TRUE(r.x.empty());
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(evals, 1);
}

TEST(Lbfgs, RespectsDeadline)
{
    // exp(x) decreases forever: only the deadline ends the run early.
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.maxIters = 1 << 30;
    opts.tolerance = -1; // unreachable
    opts.deadline = support::Deadline::in(0.02);
    support::Timer timer;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&evals](const std::vector<double> &x, std::vector<double> *g) {
            ++evals;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (g)
                (*g)[0] = std::exp(x[0]);
            return std::exp(x[0]);
        },
        {10.0}, opts);
    EXPECT_FALSE(r.converged);
    EXPECT_LT(timer.seconds(), 1.0);
    EXPECT_LT(evals, 200);
}

TEST(Lbfgs, ExpiredDeadlineEvaluatesOnce)
{
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.tolerance = 0;
    opts.deadline = support::Deadline::in(0);
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&evals](const std::vector<double> &x, std::vector<double> *g) {
            ++evals;
            return quadratic(x, g);
        },
        {3.0, 3.0}, opts);
    EXPECT_EQ(evals, 1);
    EXPECT_NEAR(r.value, quadratic({3.0, 3.0}, nullptr), 1e-12);
}

TEST(Lbfgs, ReportsBestNotLast)
{
    // f = x², but the reported gradient is 1e5 times too steep, so the
    // Armijo test asks for a decrease no step delivers: the only line
    // search fails from x0. Its trials did lower f, and the result
    // must be the lowest point evaluated, not the point it stopped at.
    double best_seen = 1e9;
    linalg::MinimizeOptions opts;
    opts.maxIters = 500;
    opts.tolerance = -1;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&best_seen](const std::vector<double> &x,
                     std::vector<double> *g) {
            const double v = x[0] * x[0];
            if (g)
                (*g)[0] = 1e5 * 2 * x[0];
            best_seen = std::min(best_seen, v);
            return v;
        },
        {3.0}, opts);
    EXPECT_LT(best_seen, 9.0);
    EXPECT_NEAR(r.value, best_seen, 1e-12);
    EXPECT_NEAR(r.x[0] * r.x[0], r.value, 1e-12);
}

TEST(Lbfgs, ResetsMemoryWhenItsDirectionFails)
{
    // f = ½‖x‖², but the second evaluation reports a gradient that
    // barely differs from the first: the stored pair claims a curvature
    // of 1e-12, and the next direction overshoots by ~1e12, beyond
    // what 30 halvings can repair. The minimizer must drop the memory
    // and continue along -g rather than stop at the failed search.
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.maxIters = 200;
    opts.tolerance = 1e-12;
    std::vector<double> g0;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&](const std::vector<double> &x, std::vector<double> *g) {
            ++evals;
            const double v = 0.5 * (x[0] * x[0] + x[1] * x[1]);
            (*g)[0] = x[0];
            (*g)[1] = x[1];
            if (evals == 1) {
                g0 = *g;
            } else if (evals == 2) {
                // g0 + 1e-12 · s with s = x - x0 = x - (3, 4).
                (*g)[0] = g0[0] + 1e-12 * (x[0] - 3.0);
                (*g)[1] = g0[1] + 1e-12 * (x[1] - 4.0);
            }
            return v;
        },
        {3.0, 4.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.value, 1e-12);
    // One failed 30-trial search, then a fresh quasi-Newton run.
    EXPECT_LT(evals, 60);
}

TEST(Lbfgs, StopsAtStationaryStart)
{
    // cos has zero slope at its maximum: -g is not a descent
    // direction, so the run stops after the one evaluation.
    int evals = 0;
    linalg::MinimizeOptions opts;
    opts.maxIters = 600;
    opts.tolerance = -1;
    const linalg::MinimizeResult r = linalg::minimizeLbfgs(
        [&evals](const std::vector<double> &x, std::vector<double> *g) {
            ++evals;
            if (g)
                (*g)[0] = -std::sin(x[0]);
            return std::cos(x[0]) + 1.0;
        },
        {0.0}, opts);
    EXPECT_EQ(evals, 1);
    EXPECT_NEAR(r.value, 2.0, 1e-15);
}

TEST(MultiStart, EscapesBadStart)
{
    // f has a broad spurious plateau at x>3 and the true minimum near
    // 0; a start on the plateau needs restarts to find the bowl.
    support::Rng rng(11);
    linalg::MinimizeOptions opts;
    opts.maxIters = 800;
    opts.tolerance = 1e-8;
    auto f = [](const std::vector<double> &x, std::vector<double> *g) {
        const double v = 1.0 - std::exp(-x[0] * x[0]);
        if (g)
            (*g)[0] = 2 * x[0] * std::exp(-x[0] * x[0]);
        return v;
    };
    const linalg::MinimizeResult r =
        linalg::minimizeMultiStart(f, {8.0}, 6, rng, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.0, 1e-2);
}

TEST(MultiStart, FirstStartSufficesWhenConverged)
{
    support::Rng rng(12);
    linalg::MinimizeOptions opts;
    opts.maxIters = 3000;
    opts.tolerance = 1e-9;
    const linalg::MinimizeResult r =
        linalg::minimizeMultiStart(quadratic, {1.1, -2.1}, 5, rng, opts);
    EXPECT_TRUE(r.converged);
}

} // namespace
} // namespace guoq
