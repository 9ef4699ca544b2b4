#include "transpile/to_gate_set.h"

#include <array>
#include <cmath>
#include <vector>

#include "transpile/decompose.h"
#include "support/logging.h"

namespace guoq {
namespace transpile {

namespace {

using ir::Gate;
using ir::GateKind;

/** Emit @p gate re-expressed in the native 1q basis of @p set. */
void
emitOneQubit(ir::Circuit *out, const Gate &gate, ir::GateSetKind set)
{
    if (ir::isNative(set, gate.kind)) {
        out->add(gate);
        return;
    }
    if (set == ir::GateSetKind::CliffordT) {
        for (Gate &g : oneQubitCliffordT(gate))
            out->add(std::move(g));
        return;
    }
    for (Gate &g : oneQubitToNative(gate.matrix(), gate.qubits[0], set))
        out->add(std::move(g));
}

/** Per-kind "is a native 1q gate of the set" (the fusable gates). */
std::array<bool, static_cast<std::size_t>(GateKind::NumKinds)>
fusableKinds(ir::GateSetKind set)
{
    std::array<bool, static_cast<std::size_t>(GateKind::NumKinds)> out{};
    for (GateKind k : ir::nativeGates(set))
        out[static_cast<std::size_t>(k)] = ir::gateArity(k) == 1;
    return out;
}

/**
 * One wire's open run in fusionShrinks: its length, its first gate,
 * and from the second gate on its product.
 */
struct OpenRun
{
    int length = 0;
    const Gate *first = nullptr;
    linalg::Matrix2 product{};
};

} // namespace

ir::Circuit
toGateSet(const ir::Circuit &c, ir::GateSetKind set)
{
    const ir::Circuit cx_based = expandToCxBasis(c);
    ir::Circuit out(c.numQubits());
    for (const Gate &gate : cx_based.gates()) {
        if (gate.arity() == 2) {
            // expandToCxBasis leaves only CX at arity 2.
            if (set == ir::GateSetKind::IonQ) {
                for (Gate &g : cxViaRxx(gate.qubits[0], gate.qubits[1]))
                    out.add(std::move(g));
            } else {
                out.add(gate);
            }
        } else {
            emitOneQubit(&out, gate, set);
        }
    }
    return out;
}

bool
allNative(const ir::Circuit &c, ir::GateSetKind set)
{
    for (const Gate &g : c.gates())
        if (!ir::isNative(set, g.kind))
            return false;
    return true;
}

bool
fusionShrinks(const ir::Circuit &c, ir::GateSetKind set)
{
    if (set == ir::GateSetKind::CliffordT)
        return false;
    const auto fusable = fusableKinds(set);
    const int longest = longestNativeOneQubit(set);
    // Grow-only per-thread scratch: no allocation once warm.
    thread_local std::vector<OpenRun> runs;
    runs.assign(static_cast<std::size_t>(c.numQubits()), OpenRun{});

    // A run shrinks iff its fused form, as fuseOneQubitRuns computes
    // it, has fewer gates than the run.
    auto shrinks = [set](const OpenRun &r) {
        return r.length >= 2 && nativeOneQubit(r.product, set).size < r.length;
    };
    for (const Gate &g : c.gates()) {
        if (fusable[static_cast<std::size_t>(g.kind)]) {
            OpenRun &r = runs[static_cast<std::size_t>(g.qubits[0])];
            if (++r.length > longest)
                return true; // no fused form is that long
            // Time order, later gates on the left: fuseOneQubitRuns'
            // product, operation for operation. A single-gate run needs
            // no matrix at all.
            if (r.length == 1) {
                r.first = &g;
                continue;
            }
            if (r.length == 2)
                r.product = ir::oneQubitMatrix(r.first->kind, r.first->params);
            r.product = linalg::product(ir::oneQubitMatrix(g.kind, g.params),
                                        r.product);
        } else {
            for (int q : g.qubits) {
                OpenRun &r = runs[static_cast<std::size_t>(q)];
                if (shrinks(r))
                    return true;
                r.length = 0;
            }
        }
    }
    for (const OpenRun &r : runs)
        if (shrinks(r))
            return true;
    return false;
}

ir::Circuit
fuseOneQubitRuns(const ir::Circuit &c, ir::GateSetKind set)
{
    if (set == ir::GateSetKind::CliffordT)
        return c; // finite basis: no continuous Euler form to fuse into

    const auto fusable = fusableKinds(set);
    ir::Circuit out(c.numQubits());
    // Pending run of 1q gates per wire, in time order.
    std::vector<std::vector<Gate>> runs(
        static_cast<std::size_t>(c.numQubits()));

    auto flush = [&out, set](std::vector<Gate> &run) {
        if (run.empty())
            return;
        if (run.size() == 1) {
            out.add(run[0]);
            run.clear();
            return;
        }
        // Product in time order: later gates multiply on the left.
        linalg::Matrix2 u = ir::oneQubitMatrix(run[0].kind, run[0].params);
        for (std::size_t i = 1; i < run.size(); ++i)
            u = linalg::product(
                ir::oneQubitMatrix(run[i].kind, run[i].params), u);
        std::vector<Gate> fused =
            oneQubitToNative(u, run[0].qubits[0], set);
        const std::vector<Gate> &shorter =
            fused.size() < run.size() ? fused : run;
        for (const Gate &g : shorter)
            out.add(g);
        run.clear();
    };

    for (const Gate &g : c.gates()) {
        if (fusable[static_cast<std::size_t>(g.kind)]) {
            runs[static_cast<std::size_t>(g.qubits[0])].push_back(g);
        } else {
            for (int q : g.qubits)
                flush(runs[static_cast<std::size_t>(q)]);
            out.add(g);
        }
    }
    for (auto &run : runs)
        flush(run);
    return out;
}

} // namespace transpile
} // namespace guoq
