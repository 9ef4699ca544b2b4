/**
 * @file
 * Perf trajectory of numerical instantiation's inner kernel: cost +
 * gradient evaluations per second of the Hilbert–Schmidt objective,
 * under two tools — `oracle` (tests/hs_oracle.h: bound ir::Gate per
 * slot, heap-allocated prefix per slot, generator copies, dense O(d³)
 * backward products) and `kernel` (synth::HsObjective: bound slot
 * table, one preallocated workspace, O(d²) row/column mixes) — on
 * QSearch-shaped ansätze at 2 and 3 qubits with 3 and 6 entangler
 * blocks. Both tools evaluate the same parameter vectors in the same
 * process; the `max_abs_diff_vs_oracle` guard row is the largest
 * |Δ| over the cost and every gradient entry.
 *
 * Measured as the `instantiate_throughput` case of guoq-bench-v1
 * (BENCH_013.json); methodology in docs/PERFORMANCE.md. Evaluation
 * counts scale with --scale so the CI smoke run (0.05) finishes in
 * well under a second.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "linalg/complex_matrix.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"
#include "synth/instantiate.h"
#include "synth/templates.h"
#include "tests/hs_oracle.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

/** A Haar-ish target: the unitary of a random Rz·Ry·Rz + CX circuit. */
linalg::ComplexMatrix
randomTarget(int num_qubits, support::Rng &rng)
{
    ir::Circuit c(num_qubits);
    for (int layer = 0; layer < 4 * num_qubits; ++layer) {
        for (int q = 0; q < num_qubits; ++q) {
            c.rz(rng.uniform(-M_PI, M_PI), q);
            c.ry(rng.uniform(-M_PI, M_PI), q);
            c.rz(rng.uniform(-M_PI, M_PI), q);
        }
        const int a = layer % num_qubits;
        c.cx(a, (a + 1) % num_qubits);
    }
    return sim::circuitUnitary(c);
}

/** initialAnsatz plus @p blocks CX blocks on the pairs in turn. */
synth::Ansatz
benchAnsatz(int num_qubits, int blocks)
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

std::string
fmt(const char *spec, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

void
runInstantiateThroughput(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Instantiation kernel: cost+gradient evaluations/sec "
                    "vs the dense oracle ===\n\n");

    struct Shape
    {
        int qubits;
        int blocks;
    };
    const std::vector<Shape> shapes = {{2, 3}, {2, 6}, {3, 3}, {3, 6}};
    const long evals = std::max<long>(
        200, static_cast<long>(40000.0 * ctx.opts().scale));
    constexpr std::size_t kPoints = 16;

    support::TextTable table({"case", "tool", "evals/s", "speedup",
                              "max |diff|"});

    for (const Shape &sh : shapes) {
        const synth::Ansatz a = benchAnsatz(sh.qubits, sh.blocks);
        const std::string bench = support::strcat(
            "instantiate_", sh.qubits, "q_", sh.blocks, "b");

        double best_oracle = 0;
        double best_kernel = 0;
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            support::Rng rng(seed + static_cast<std::uint64_t>(
                                        100 * sh.qubits + sh.blocks));
            const linalg::ComplexMatrix target =
                randomTarget(sh.qubits, rng);
            std::vector<std::vector<double>> xs(kPoints);
            for (auto &x : xs) {
                x.resize(static_cast<std::size_t>(a.numParams()));
                for (double &v : x)
                    v = rng.uniform(-M_PI, M_PI);
            }

            // Guard: cost and every gradient entry on every point.
            double diff = 0;
            {
                synth::HsObjective objective(a, target);
                std::vector<double> want, got;
                for (const auto &x : xs) {
                    const double cw =
                        oracle::hsCostAndGrad(a, target, x, &want);
                    const double cg = objective(x, &got);
                    diff = std::max(diff, std::abs(cw - cg));
                    for (std::size_t i = 0; i < want.size(); ++i)
                        diff = std::max(diff, std::abs(want[i] - got[i]));
                }
            }

            double sink = 0;
            std::vector<double> grad;
            support::Timer oracle_timer;
            for (long i = 0; i < evals; ++i)
                sink += oracle::hsCostAndGrad(
                    a, target, xs[static_cast<std::size_t>(i) % kPoints],
                    &grad);
            const double oracle_s = oracle_timer.seconds();

            // The objective is built inside the timed region, as every
            // instantiate() call builds its own.
            support::Timer kernel_timer;
            synth::HsObjective objective(a, target);
            for (long i = 0; i < evals; ++i)
                sink += objective(xs[static_cast<std::size_t>(i) % kPoints],
                                  &grad);
            const double kernel_s = kernel_timer.seconds();
            if (!std::isfinite(sink))
                support::panic("instantiate_throughput: non-finite cost");

            const double oracle_eps = oracle_s > 0 ? evals / oracle_s : 0.0;
            const double kernel_eps = kernel_s > 0 ? evals / kernel_s : 0.0;
            for (const auto &[tool, eps, secs] :
                 {std::tuple<const char *, double, double>{
                      "oracle", oracle_eps, oracle_s},
                  {"kernel", kernel_eps, kernel_s}}) {
                CaseResult row;
                row.benchmark = bench;
                row.tool = tool;
                row.metric = "evals_per_second";
                row.value = eps;
                row.seconds = secs;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }

            CaseResult guard;
            guard.benchmark = bench;
            guard.tool = "kernel";
            guard.metric = "max_abs_diff_vs_oracle";
            guard.value = diff;
            guard.trial = t;
            guard.seed = seed;
            ctx.record(std::move(guard));

            best_oracle = std::max(best_oracle, oracle_eps);
            best_kernel = std::max(best_kernel, kernel_eps);
            if (t == 0) {
                table.addRow({bench, "oracle", fmt("%.0f", oracle_eps),
                              "1.00x", "-"});
                table.addRow({bench, "kernel", fmt("%.0f", kernel_eps),
                              fmt("%.2fx", kernel_eps /
                                               std::max(oracle_eps, 1e-9)),
                              fmt("%.1e", diff)});
            }
            if (diff > 1e-12)
                support::panic(support::strcat(
                    "instantiate_throughput: kernel diverged from the "
                    "oracle on ",
                    bench, " (max |diff| ", diff, ")"));
        }

        // Aggregate: best-of-trials speedup (the acceptance metric at
        // 3 qubits).
        CaseResult agg;
        agg.benchmark = bench;
        agg.tool = "kernel";
        agg.metric = "speedup_vs_oracle";
        agg.value = best_oracle > 0 ? best_kernel / best_oracle : 0.0;
        agg.trial = 0;
        agg.seed = ctx.opts().trialSeed(0);
        ctx.record(std::move(agg));
    }

    if (ctx.pretty()) {
        table.print();
        std::printf("\nshape check: the kernel agrees with the oracle to "
                    "<= 1e-12 and runs >= 5x its evaluations/sec at 3 "
                    "qubits.\n");
    }
}

const CaseRegistrar kInstantiateThroughput(
    "instantiate_throughput",
    "instantiation kernel vs dense oracle: HS cost+gradient "
    "evaluations/sec",
    340, runInstantiateThroughput);

} // namespace

#ifndef GUOQ_BENCH_NO_MAIN
int
main()
{
    return guoq::bench::legacyMain();
}
#endif
