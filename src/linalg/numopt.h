/**
 * @file
 * The numerical minimizer behind circuit instantiation.
 *
 * The continuous synthesizer minimizes the Hilbert–Schmidt cost of a
 * parameterized ansatz against a target unitary. The cost is smooth in
 * the rotation angles and its analytic gradient costs about two cost
 * evaluations, so a quasi-Newton method (L-BFGS) reaches the ~1e-13
 * cost thresholds of exact-mode fits in a few dozen evaluations where
 * a first-order method needs hundreds. minimizeMultiStart() wraps it
 * with random restarts for the cost's local minima.
 */

#pragma once

#include <functional>
#include <vector>

#include "support/rng.h"
#include "support/timer.h"

namespace guoq {
namespace linalg {

/**
 * Objective callback: returns f(x); when @p grad is non-null it must be
 * filled with ∇f(x) (same length as x).
 */
using GradFn =
    std::function<double(const std::vector<double> &, std::vector<double> *)>;

/** Options for the minimizers. */
struct MinimizeOptions
{
    int maxIters = 2000;
    double tolerance = 1e-12;    //!< stop when f(x) <= tolerance
    support::Deadline deadline;  //!< hard wall-clock stop
};

/** Result of a minimization run. */
struct MinimizeResult
{
    std::vector<double> x;
    double value = 0;
    int iterations = 0;
    bool converged = false; //!< value <= tolerance
};

/**
 * L-BFGS with a backtracking Armijo line search.
 *
 * The direction comes from the two-loop recursion over the last 8
 * (s, y) pairs, scaled by γ = sᵀy/yᵀy of the newest pair; with an
 * empty memory it is -γ₀·g with γ₀ = min(1, 0.1/‖g‖∞), so the first
 * step moves no coordinate by more than 0.1. A pair is stored only
 * when sᵀy > 0, which keeps the implied Hessian inverse positive
 * definite. When a direction is not a descent direction, or its line
 * search (c₁ = 1e-4, step halved up to 30 times) finds no acceptable
 * step, the memory is cleared and the iteration falls back to -γ₀·g;
 * when that fails too the point is stationary to working precision
 * and the run stops.
 *
 * Stops at opts.tolerance, opts.maxIters iterations, the deadline
 * (checked every iteration), or after 20 iterations in which the best
 * value improved by less than 1e-3 relative and 1e-9 absolute. Every
 * evaluation, line-search trials included, asks for the gradient; the
 * result is the best point evaluated, not the last.
 */
MinimizeResult minimizeLbfgs(const GradFn &f, std::vector<double> x0,
                             const MinimizeOptions &opts);

/**
 * Multi-start L-BFGS: runs from @p x0, then from up to @p starts - 1
 * random points in [-π, π]^n until one converges or the deadline
 * expires, returning the best result found.
 */
MinimizeResult minimizeMultiStart(const GradFn &f, std::vector<double> x0,
                                  int starts, support::Rng &rng,
                                  const MinimizeOptions &opts);

} // namespace linalg
} // namespace guoq
