#include "linalg/numopt.h"

#include <algorithm>
#include <cmath>

namespace guoq {
namespace linalg {

namespace {

constexpr std::size_t kMemory = 8;  //!< (s, y) pairs kept
constexpr double kArmijoC1 = 1e-4;  //!< sufficient-decrease constant
constexpr int kMaxLineTrials = 30;  //!< step halvings per line search
constexpr int kStallIters = 20;     //!< iterations without improvement

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

/** d = -γ₀·g, γ₀ = min(1, 0.1/‖g‖∞): no coordinate moves over 0.1. */
void
steepestDirection(const std::vector<double> &g, std::vector<double> &d)
{
    double gmax = 0;
    for (double gi : g)
        gmax = std::max(gmax, std::abs(gi));
    const double gamma = gmax > 0 ? std::min(1.0, 0.1 / gmax) : 1.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        d[i] = -gamma * g[i];
}

/**
 * The limited-memory pairs as a ring: pair k (0 = oldest) lives at
 * slot (head + k) % kMemory of the flat s/y arrays.
 */
class LbfgsMemory
{
  public:
    explicit LbfgsMemory(std::size_t n)
        : n_(n), s_(kMemory * n), y_(kMemory * n)
    {
    }

    bool empty() const { return count_ == 0; }
    void clear() { count_ = 0; }

    /** Store s = x1 - x0, y = g1 - g0 when sᵀy > 0. */
    void
    push(const std::vector<double> &x0, const std::vector<double> &x1,
         const std::vector<double> &g0, const std::vector<double> &g1)
    {
        double sy = 0, yy = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            const double yi = g1[i] - g0[i];
            sy += (x1[i] - x0[i]) * yi;
            yy += yi * yi;
        }
        if (!(sy > 0) || !std::isfinite(yy))
            return;
        // When full, the next slot holds the oldest pair: overwrite it.
        const std::size_t slot = (head_ + count_) % kMemory;
        for (std::size_t i = 0; i < n_; ++i) {
            s_[slot * n_ + i] = x1[i] - x0[i];
            y_[slot * n_ + i] = g1[i] - g0[i];
        }
        rho_[slot] = 1.0 / sy;
        gamma_ = sy / yy;
        if (count_ < kMemory)
            ++count_;
        else
            head_ = (head_ + 1) % kMemory;
    }

    /** d = -H·g by the two-loop recursion (memory non-empty). */
    void
    direction(const std::vector<double> &g, std::vector<double> &d)
    {
        d = g;
        for (std::size_t k = count_; k-- > 0;) {
            const std::size_t slot = (head_ + k) % kMemory;
            const double *s = &s_[slot * n_];
            const double *y = &y_[slot * n_];
            double a = 0;
            for (std::size_t i = 0; i < n_; ++i)
                a += s[i] * d[i];
            a *= rho_[slot];
            alpha_[slot] = a;
            for (std::size_t i = 0; i < n_; ++i)
                d[i] -= a * y[i];
        }
        for (double &di : d)
            di *= gamma_;
        for (std::size_t k = 0; k < count_; ++k) {
            const std::size_t slot = (head_ + k) % kMemory;
            const double *s = &s_[slot * n_];
            const double *y = &y_[slot * n_];
            double b = 0;
            for (std::size_t i = 0; i < n_; ++i)
                b += y[i] * d[i];
            b *= rho_[slot];
            for (std::size_t i = 0; i < n_; ++i)
                d[i] += (alpha_[slot] - b) * s[i];
        }
        for (double &di : d)
            di = -di;
    }

  private:
    std::size_t n_;
    std::vector<double> s_, y_;
    double rho_[kMemory] = {};
    double alpha_[kMemory] = {};
    double gamma_ = 1;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace

MinimizeResult
minimizeLbfgs(const GradFn &f, std::vector<double> x0,
              const MinimizeOptions &opts)
{
    const std::size_t n = x0.size();
    std::vector<double> g(n);
    double fx = f(x0, &g);
    MinimizeResult best;
    best.x = x0;
    best.value = fx;
    if (n == 0 || fx <= opts.tolerance) {
        best.converged = fx <= opts.tolerance;
        return best;
    }

    std::vector<double> x = std::move(x0);
    std::vector<double> d(n), xt(n), gt(n);
    LbfgsMemory memory(n);
    double stall_ref = fx;
    int stall = 0;

    for (int it = 0; it < opts.maxIters; ++it) {
        if (opts.deadline.expired())
            break;
        best.iterations = it + 1;

        const bool from_memory = !memory.empty();
        if (from_memory)
            memory.direction(g, d);
        else
            steepestDirection(g, d);
        double slope = dot(g, d);
        if (from_memory && !(slope < 0)) {
            memory.clear();
            steepestDirection(g, d);
            slope = dot(g, d);
        }
        if (!(slope < 0))
            break; // stationary (or a non-finite gradient)

        // Backtracking Armijo search along d; a trial at or under the
        // tolerance is taken as it is.
        double step = 1.0;
        double ft = fx;
        bool accepted = false;
        for (int trial = 0; trial < kMaxLineTrials; ++trial) {
            for (std::size_t i = 0; i < n; ++i)
                xt[i] = x[i] + step * d[i];
            ft = f(xt, &gt);
            if (ft < best.value) {
                best.value = ft;
                best.x = xt;
            }
            if (ft <= fx + kArmijoC1 * step * slope ||
                ft <= opts.tolerance) {
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if (!accepted) {
            if (!from_memory)
                break; // no decrease even along -g
            memory.clear(); // retry this point along -g
            continue;
        }

        memory.push(x, xt, g, gt);
        x.swap(xt);
        g.swap(gt);
        fx = ft;
        if (best.value <= opts.tolerance)
            break;
        if (best.value < stall_ref * (1.0 - 1e-3) ||
            best.value < stall_ref - 1e-9) {
            stall_ref = best.value;
            stall = 0;
        } else if (++stall >= kStallIters) {
            break;
        }
    }
    best.converged = best.value <= opts.tolerance;
    return best;
}

MinimizeResult
minimizeMultiStart(const GradFn &f, std::vector<double> x0, int starts,
                   support::Rng &rng, const MinimizeOptions &opts)
{
    MinimizeResult best = minimizeLbfgs(f, x0, opts);
    for (int s = 1; s < starts && !best.converged; ++s) {
        if (opts.deadline.expired())
            break;
        std::vector<double> x(x0.size());
        for (auto &xi : x)
            xi = rng.uniform(-3.14159265358979323846, 3.14159265358979323846);
        MinimizeResult r = minimizeLbfgs(f, std::move(x), opts);
        if (r.value < best.value)
            best = std::move(r);
    }
    return best;
}

} // namespace linalg
} // namespace guoq
