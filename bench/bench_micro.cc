/**
 * @file
 * Microbenchmarks (google-benchmark) for the substrates every search
 * iteration leans on: unitary simulation, the rewrite engine, convex
 * subcircuit ops, distance evaluation, and instantiation gradients.
 */

#include <benchmark/benchmark.h>

#include "dag/circuit_dag.h"
#include "dag/subcircuit.h"
#include "linalg/unitary.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/statevector.h"
#include "sim/unitary_sim.h"
#include "synth/instantiate.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace {

using namespace guoq;

ir::Circuit
benchCircuit(int qubits)
{
    return transpile::toGateSet(workloads::qft(qubits),
                                ir::GateSetKind::Nam);
}

void
BM_CircuitUnitary(benchmark::State &state)
{
    const ir::Circuit c = benchCircuit(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::circuitUnitary(c));
}
BENCHMARK(BM_CircuitUnitary)->Arg(3)->Arg(5)->Arg(7);

void
BM_Statevector(benchmark::State &state)
{
    const ir::Circuit c = benchCircuit(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::runCircuit(c));
}
BENCHMARK(BM_Statevector)->Arg(5)->Arg(10)->Arg(14);

void
BM_HsDistance(benchmark::State &state)
{
    const auto u = sim::circuitUnitary(benchCircuit(5));
    const auto v = sim::circuitUnitary(benchCircuit(5).inverse());
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::hsDistance(u, v));
}
BENCHMARK(BM_HsDistance);

void
BM_RulePass(benchmark::State &state)
{
    const ir::Circuit c = benchCircuit(static_cast<int>(state.range(0)));
    const auto &rules = rewrite::rulesFor(ir::GateSetKind::Nam);
    support::Rng rng(1);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    for (auto _ : state) {
        const auto &rule = rules[rng.index(rules.size())];
        auto att = engine.preparePassRandom(rule, rng);
        benchmark::DoNotOptimize(att);
        if (att)
            engine.discard();
    }
}
BENCHMARK(BM_RulePass)->Arg(5)->Arg(8)->Arg(10);

void
BM_DagConstruction(benchmark::State &state)
{
    const ir::Circuit c = benchCircuit(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(dag::CircuitDag(c));
}
BENCHMARK(BM_DagConstruction)->Arg(5)->Arg(10);

void
BM_ConvexGrowExtractSplice(benchmark::State &state)
{
    const ir::Circuit c = benchCircuit(8);
    support::Rng rng(2);
    for (auto _ : state) {
        const auto sel = dag::randomConvex(c, rng, 3, 24, 6);
        if (sel.empty())
            continue;
        const ir::Circuit sub = dag::extract(c, sel);
        benchmark::DoNotOptimize(dag::splice(c, sel, sub));
    }
}
BENCHMARK(BM_ConvexGrowExtractSplice);

void
BM_InstantiateGradient(benchmark::State &state)
{
    synth::Ansatz a = synth::initialAnsatz(3);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    synth::appendEntanglerBlock(&a, 1, 2, false);
    ir::Circuit t(3);
    t.ccx(0, 1, 2);
    const auto target = sim::circuitUnitary(t);
    std::vector<double> x(static_cast<std::size_t>(a.numParams()), 0.3);
    std::vector<double> grad;
    synth::HsObjective objective(a, target);
    for (auto _ : state)
        benchmark::DoNotOptimize(objective(x, &grad));
}
BENCHMARK(BM_InstantiateGradient);

void
BM_Transpile(benchmark::State &state)
{
    const ir::Circuit c = workloads::barencoTof(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            transpile::toGateSet(c, ir::GateSetKind::IbmEagle));
}
BENCHMARK(BM_Transpile);

} // namespace

BENCHMARK_MAIN();
