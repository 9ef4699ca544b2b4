/**
 * @file
 * Perf trajectory of numerical instantiation, in two cases.
 *
 * `instantiate_throughput` measures the inner kernel: cost + gradient
 * evaluations per second of the Hilbert–Schmidt objective, under two
 * tools — `oracle` (tests/hs_oracle.h: bound ir::Gate per slot,
 * heap-allocated prefix per slot, generator copies, dense O(d³)
 * backward products) and `kernel` (synth::HsObjective: bound slot
 * table, one preallocated workspace, O(d²) row/column mixes) — on
 * QSearch-shaped ansätze at 2 and 3 qubits with 3 and 6 entangler
 * blocks. Both tools evaluate the same parameter vectors in the same
 * process; the `max_abs_diff_vs_oracle` guard row is the largest
 * |Δ| over the cost and every gradient entry (BENCH_013.json).
 *
 * `instantiate_convergence` measures the minimizer around it: how many
 * cost+gradient evaluations a fit takes and how often it converges,
 * for the Adam reference (tests/adam_oracle.h) and the library's
 * L-BFGS from identical starts, on targets the structure can realize
 * and on structures one block short of them; then the ms per call of
 * synth::resynthesize() on blocks core::prepareResynth draws from two
 * approximate-mode panel circuits (BENCH_014.json).
 *
 * Methodology in docs/PERFORMANCE.md. Work scales with --scale so the
 * CI smoke runs (0.05) finish in seconds.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/transformation.h"
#include "linalg/complex_matrix.h"
#include "linalg/numopt.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"
#include "synth/instantiate.h"
#include "synth/resynth.h"
#include "synth/templates.h"
#include "tests/adam_oracle.h"
#include "tests/hs_oracle.h"
#include "transpile/to_gate_set.h"
#include "workloads/simulation.h"
#include "workloads/variational.h"

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

/** One row of the convergence case. */
void
recordRow(CaseContext &ctx, const std::string &bench, const char *tool,
          const char *metric, double value, double seconds, int trial,
          std::uint64_t seed)
{
    CaseResult row;
    row.benchmark = bench;
    row.tool = tool;
    row.metric = metric;
    row.value = value;
    row.seconds = seconds;
    row.trial = trial;
    row.seed = seed;
    ctx.record(std::move(row));
}

/** Single-start fits of one tool over a batch of targets. */
struct FitStats
{
    int converged = 0;
    long evals = 0;
    double seconds = 0;
};

/**
 * The fit half of `instantiate_convergence`: for each shape, @p n
 * targets realizable by the shape's ansatz (its unitary at random
 * angles) are fitted by that ansatz (`realizable`) and by the one with
 * a block fewer (`short`: it converges only where the shorter
 * structure is still universal, as at 2 qubits and 5 blocks). Adam
 * and L-BFGS start from the same point at instantiate()'s exact-mode
 * options.
 */
void
runFitRows(CaseContext &ctx, support::TextTable &table, int trial,
           std::uint64_t seed, int n)
{
    struct Shape
    {
        int qubits;
        int blocks;
    };
    const linalg::MinimizeOptions opts =
        synth::instantiateOptions(0, support::Deadline());
    for (const Shape &sh : {Shape{2, 3}, {2, 6}, {3, 3}, {3, 6}}) {
        const synth::Ansatz full = benchAnsatz(sh.qubits, sh.blocks);
        for (const int short_by : {0, 1}) {
            const synth::Ansatz fit =
                benchAnsatz(sh.qubits, sh.blocks - short_by);
            const std::string bench = support::strcat(
                "fit_", sh.qubits, "q_", sh.blocks, "b_",
                short_by == 0 ? "realizable" : "short");
            support::Rng rng(seed + static_cast<std::uint64_t>(
                                        100 * sh.qubits + sh.blocks));
            FitStats adam, lbfgs;
            for (int i = 0; i < n; ++i) {
                std::vector<double> truth(
                    static_cast<std::size_t>(full.numParams()));
                for (double &v : truth)
                    v = rng.uniform(-M_PI, M_PI);
                const linalg::ComplexMatrix target =
                    sim::circuitUnitary(full.instantiate(truth));
                std::vector<double> x0(
                    static_cast<std::size_t>(fit.numParams()));
                for (double &v : x0)
                    v = rng.uniform(-M_PI, M_PI);

                synth::HsObjective objective(fit, target);
                long evals = 0;
                const linalg::GradFn fn = [&](const std::vector<double> &x,
                                              std::vector<double> *g) {
                    ++evals;
                    return objective(x, g);
                };
                for (const bool use_adam : {true, false}) {
                    FitStats &st = use_adam ? adam : lbfgs;
                    evals = 0;
                    support::Timer timer;
                    const linalg::MinimizeResult r =
                        use_adam ? oracle::minimizeAdam(fn, x0, opts)
                                 : linalg::minimizeLbfgs(fn, x0, opts);
                    st.seconds += timer.seconds();
                    st.evals += evals;
                    st.converged += r.converged ? 1 : 0;
                }
            }
            for (const auto &[tool, st] :
                 {std::pair<const char *, const FitStats &>{"adam", adam},
                  {"lbfgs", lbfgs}}) {
                const double evals_per_run =
                    static_cast<double>(st.evals) / n;
                const double ms_per_run = 1000.0 * st.seconds / n;
                recordRow(ctx, bench, tool, "converged", st.converged,
                          st.seconds, trial, seed);
                recordRow(ctx, bench, tool, "runs", n, st.seconds, trial,
                          seed);
                recordRow(ctx, bench, tool, "evals_per_run", evals_per_run,
                          st.seconds, trial, seed);
                recordRow(ctx, bench, tool, "ms_per_run", ms_per_run,
                          st.seconds, trial, seed);
                if (trial == 0)
                    table.addRow({bench, tool,
                                  support::strcat(st.converged, "/", n),
                                  fmt("%.0f", evals_per_run),
                                  fmt("%.2f", ms_per_run)});
            }
            recordRow(ctx, bench, "lbfgs", "evals_ratio_vs_adam",
                      adam.evals > 0 ? static_cast<double>(lbfgs.evals) /
                                           static_cast<double>(adam.evals)
                                     : 0.0,
                      lbfgs.seconds, trial, seed);
        }
    }
}

/**
 * The resynthesis half: @p calls blocks drawn by core::prepareResynth
 * from each approximate-mode panel circuit (the ε, qubit cap and 1 s
 * call budget of `guoq_cli --epsilon 1e-5`), each resynthesized by
 * synth::resynthesize() right after it is drawn. Blocks come from their
 * own RNG stream, so the same seed draws the same blocks whatever the
 * synthesizer does with its own stream.
 */
void
runResynthRows(CaseContext &ctx, support::TextTable &table, int trial,
               std::uint64_t seed, int calls)
{
    struct Panel
    {
        const char *name;
        ir::GateSetKind set;
        ir::Circuit circuit;
    };
    const std::vector<Panel> panels = {
        {"resynth_heisenberg_8x3@ibm-eagle", ir::GateSetKind::IbmEagle,
         transpile::toGateSet(workloads::trotterHeisenberg(8, 3),
                              ir::GateSetKind::IbmEagle)},
        {"resynth_qaoa_16x4@nam", ir::GateSetKind::Nam,
         transpile::toGateSet(workloads::qaoaMaxCut(16, 4, 1),
                              ir::GateSetKind::Nam)},
    };
    constexpr double kCallEpsilon = 1e-5 / 16; // core's per-call share
    constexpr int kMaxQubits = 3;
    constexpr double kCallSeconds = 1.0;
    for (const Panel &p : panels) {
        support::Rng block_rng(seed);
        int made = 0, succeeded = 0;
        long removed = 0;
        double seconds = 0;
        for (int i = 0; made < calls && i < 4 * calls; ++i) {
            const std::optional<core::ResynthCall> call =
                core::prepareResynth(p.circuit, block_rng, p.set,
                                     kCallEpsilon, kMaxQubits,
                                     kCallSeconds);
            if (!call)
                continue;
            support::Rng synth_rng(seed * 7919 +
                                   static_cast<std::uint64_t>(made));
            support::Timer timer;
            const synth::ResynthResult r =
                synth::resynthesize(call->block, call->options, synth_rng);
            seconds += timer.seconds();
            ++made;
            if (!r.success)
                continue;
            ++succeeded;
            removed += static_cast<long>(call->block.counts().twoQubit) -
                static_cast<long>(r.circuit.counts().twoQubit);
        }
        const double ms_per_call = made > 0 ? 1000.0 * seconds / made : 0.0;
        recordRow(ctx, p.name, "lbfgs", "calls", made, seconds, trial, seed);
        recordRow(ctx, p.name, "lbfgs", "ms_per_call", ms_per_call, seconds,
                  trial, seed);
        recordRow(ctx, p.name, "lbfgs", "success", succeeded, seconds, trial,
                  seed);
        recordRow(ctx, p.name, "lbfgs", "2q_removed",
                  static_cast<double>(removed), seconds, trial, seed);
        if (trial == 0)
            table.addRow({p.name, "lbfgs",
                          support::strcat(succeeded, "/", made),
                          support::strcat(removed, " 2q removed"),
                          fmt("%.1f", ms_per_call)});
    }
}

void
runInstantiateConvergence(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Instantiation: evaluations per fit, Adam oracle vs "
                    "L-BFGS, and resynthesize() calls ===\n\n");
    const int fits = std::max(6, static_cast<int>(30 * ctx.opts().scale));
    const int calls = std::max(4, static_cast<int>(60 * ctx.opts().scale));
    support::TextTable fit_table(
        {"case", "tool", "converged", "evals/run", "ms/run"});
    support::TextTable resynth_table(
        {"case", "tool", "success", "2q removed", "ms/call"});
    for (int t = 0; t < ctx.opts().trials; ++t) {
        const std::uint64_t seed = ctx.opts().trialSeed(t);
        runFitRows(ctx, fit_table, t, seed, fits);
        runResynthRows(ctx, resynth_table, t, seed, calls);
    }
    if (ctx.pretty()) {
        fit_table.print();
        std::printf("\n");
        resynth_table.print();
        std::printf("\nshape check: on every realizable row L-BFGS "
                    "converges at least as often as Adam with <= 1/3 of "
                    "its evaluations per run.\n");
    }
}

const CaseRegistrar kInstantiateConvergence(
    "instantiate_convergence",
    "instantiation minimizer: Adam oracle vs L-BFGS evaluations per fit, "
    "and resynthesize() ms per call",
    350, runInstantiateConvergence);

} // namespace
