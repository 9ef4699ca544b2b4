/**
 * @file
 * The Adam minimizer that numerical instantiation ran (one run per
 * start) before L-BFGS, kept outside the library as the reference the
 * `instantiate_convergence` bench case measures linalg::minimizeLbfgs
 * against from identical starts.
 *
 * Adam with bias correction (β₁ = 0.9, β₂ = 0.999), one cost+gradient
 * evaluation per step. It stops at the tolerance, at the iteration cap,
 * at the deadline (checked every 32 steps), after 140 steps without a
 * 1e-3 relative / 1e-9 absolute improvement of the best value, or
 * after 40 steps whose value changed by less than 1e-14.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/numopt.h"

namespace guoq {
namespace oracle {

/** The step size instantiate() ran Adam at. */
constexpr double kAdamLearningRate = 0.1;

/** Adam from @p x0; the result is the best point visited. */
inline linalg::MinimizeResult
minimizeAdam(const linalg::GradFn &f, std::vector<double> x0,
             const linalg::MinimizeOptions &opts)
{
    const std::size_t n = x0.size();
    std::vector<double> g(n), m(n, 0.0), v(n, 0.0);
    linalg::MinimizeResult best;
    best.x = x0;
    best.value = f(x0, nullptr);

    std::vector<double> x = std::move(x0);
    const double b1 = 0.9, b2 = 0.999, epsn = 1e-8;
    double b1t = 1.0, b2t = 1.0;
    int flat = 0;
    double prev = best.value;
    double stall_ref = best.value;
    int stall = 0;

    for (int it = 0; it < opts.maxIters; ++it) {
        if ((it & 31) == 0 && opts.deadline.expired())
            break;
        const double fx = f(x, &g);
        if (fx < best.value) {
            best.value = fx;
            best.x = x;
        }
        best.iterations = it + 1;
        if (fx <= opts.tolerance) {
            best.converged = true;
            break;
        }
        if (best.value < stall_ref * (1.0 - 1e-3) ||
            best.value < stall_ref - 1e-9) {
            stall_ref = best.value;
            stall = 0;
        } else if (++stall > 140) {
            break;
        }
        if (std::abs(prev - fx) < 1e-14 * std::max(1.0, std::abs(fx))) {
            if (++flat > 40)
                break;
        } else {
            flat = 0;
        }
        prev = fx;

        b1t *= b1;
        b2t *= b2;
        for (std::size_t i = 0; i < n; ++i) {
            m[i] = b1 * m[i] + (1 - b1) * g[i];
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i];
            const double mh = m[i] / (1 - b1t);
            const double vh = v[i] / (1 - b2t);
            x[i] -= kAdamLearningRate * mh / (std::sqrt(vh) + epsn);
        }
    }
    if (best.value <= opts.tolerance)
        best.converged = true;
    return best;
}

} // namespace oracle
} // namespace guoq
