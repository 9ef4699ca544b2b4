/**
 * @file
 * Extending the framework (paper §4): circuit transformations are
 * closed boxes, so user code can plug its own τ_ε's in. This example
 * instantiates the primitives directly — rule passes, 1q fusion, and
 * a resynthesis call on a hand-picked subcircuit — and composes them
 * manually while tracking the Thm. 4.2 additive error bound.
 *
 * Run: ./examples/custom_transform
 */

#include <cstdio>

#include "dag/subcircuit.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/unitary_sim.h"
#include "synth/resynth.h"
#include "transpile/to_gate_set.h"
#include "workloads/simulation.h"

int
main()
{
    using namespace guoq;

    const ir::GateSetKind set = ir::GateSetKind::Nam;
    ir::Circuit circuit =
        transpile::toGateSet(workloads::trotterIsing(4, 2), set);
    const ir::Circuit original = circuit;
    double error_bound = 0;

    std::printf("trotter ising, 4 qubits x 2 steps on %s: %zu gates\n",
                ir::gateSetName(set).c_str(), circuit.size());

    // Transformation 1 (ε = 0): one full pass of every library rule,
    // each from a random anchor, through the incremental rewrite
    // engine (a pass is prepared, then committed or discarded).
    support::Rng rng(5);
    rewrite::RewriteEngine engine{circuit};
    for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set))
        if (engine.preparePassRandom(rule, rng))
            engine.commit();
    circuit = engine.release();
    std::printf("after rule passes:        %zu gates (error bound "
                "%.1e)\n",
                circuit.size(), error_bound);

    // Transformation 2 (ε = 0): exact 1q-run fusion.
    circuit = transpile::fuseOneQubitRuns(circuit, set);
    std::printf("after 1q fusion:          %zu gates (error bound "
                "%.1e)\n",
                circuit.size(), error_bound);

    // Transformation 3 (ε > 0): resynthesize a convex subcircuit. The
    // measured distance is charged against the budget (Thm. 4.2: the
    // final error is at most the sum of the step errors).
    for (int attempt = 0; attempt < 30; ++attempt) {
        const dag::SubcircuitSelection sel =
            dag::randomConvex(circuit, rng, 3, 24, 6);
        if (sel.size() < 4)
            continue;
        synth::ResynthOptions opts;
        opts.targetSet = set;
        opts.epsilon = 1e-6;
        opts.deadline = support::Deadline::in(3.0);
        const synth::ResynthResult r =
            synth::resynthesize(dag::extract(circuit, sel), opts, rng);
        if (!r.success)
            continue;
        circuit = dag::splice(circuit, sel, r.circuit);
        error_bound += r.distance;
        std::printf("after resynthesis splice: %zu gates (error bound "
                    "%.1e)\n",
                    circuit.size(), error_bound);
        break;
    }

    // Validate the composed bound against ground truth.
    const double actual = sim::circuitDistance(original, circuit);
    std::printf("\nThm 4.2 check: measured distance %.2e <= summed "
                "bound %.2e (+ metric noise)\n",
                actual, error_bound);
    std::printf("2q count: %zu -> %zu\n", original.twoQubitGateCount(),
                circuit.twoQubitGateCount());
    return 0;
}
