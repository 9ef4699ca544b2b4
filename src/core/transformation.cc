#include "core/transformation.h"

#include <algorithm>

#include "rewrite/engine.h"
#include "support/logging.h"
#include "synth/service.h"
#include "transpile/to_gate_set.h"

namespace guoq {
namespace core {

namespace {

/** Gate cap for resynthesis subcircuits: bounds unitary-eval time. */
constexpr std::size_t kMaxSubcircuitGates = 32;

/**
 * Entangler cap for resynthesis subcircuits: instantiation cost and
 * the deletion search both scale with the seed structure depth.
 */
constexpr int kMaxSubcircuitEntanglers = 6;

} // namespace

std::optional<ResynthCall>
prepareResynth(const ir::Circuit &c, support::Rng &rng, ir::GateSetKind set,
               double epsilon, int max_qubits, double seconds)
{
    if (c.empty())
        return std::nullopt;
    ResynthCall call;
    call.selection = dag::randomConvex(c, rng, max_qubits,
                                       kMaxSubcircuitGates,
                                       kMaxSubcircuitEntanglers);
    if (call.selection.size() < 2)
        return std::nullopt;
    call.block = dag::extract(c, call.selection);
    call.options.targetSet = set;
    call.options.epsilon = epsilon;
    call.options.maxQubits = max_qubits;
    call.options.deadline = support::Deadline::in(seconds);
    return call;
}

Transformation
Transformation::fromRule(const rewrite::RewriteRule *rule)
{
    Transformation t;
    t.name_ = "rule:" + rule->name();
    t.kind_ = TransformKind::RewriteRule;
    t.epsilon_ = 0;
    t.rule_ = rule;
    return t;
}

Transformation
Transformation::fusion(ir::GateSetKind set)
{
    Transformation t;
    t.name_ = "fusion:1q";
    t.kind_ = TransformKind::Fusion;
    t.epsilon_ = 0;
    t.set_ = set;
    return t;
}

Transformation
Transformation::resynthesis(ir::GateSetKind set, double epsilon,
                            double per_call_seconds, int max_qubits,
                            synth::SynthService *service,
                            synth::ResynthCounters *counters)
{
    Transformation t;
    t.name_ = "resynth:" + ir::gateSetName(set);
    t.kind_ = TransformKind::Resynthesis;
    t.epsilon_ = epsilon;
    t.set_ = set;
    t.perCallSeconds_ = per_call_seconds;
    t.maxQubits_ = max_qubits;
    t.service_ = service;
    t.counters_ = counters;
    return t;
}

std::optional<TransformOutcome>
Transformation::apply(const ir::Circuit &c, support::Rng &rng,
                      double max_seconds) const
{
    switch (kind_) {
      case TransformKind::RewriteRule: {
        // A one-shot engine: same anchor draw and gates as the pass
        // the GUOQ loop runs on its persistent engine.
        rewrite::RewriteEngine engine{ir::Circuit(c)};
        if (!engine.preparePassRandom(*rule_, rng))
            return std::nullopt;
        engine.commit();
        return TransformOutcome{engine.release(), 0.0};
      }
      case TransformKind::Fusion: {
        // Nearly every call fuses nothing: decide that without
        // building a circuit, and rebuild only when a run shrinks.
        if (!transpile::fusionShrinks(c, set_))
            return std::nullopt;
        return TransformOutcome{transpile::fuseOneQubitRuns(c, set_), 0.0};
      }
      case TransformKind::Resynthesis: {
        const std::optional<ResynthCall> call =
            prepareResynth(c, rng, set_, epsilon_, maxQubits_,
                           std::min(perCallSeconds_, max_seconds));
        if (!call)
            return std::nullopt;
        synth::SynthService *svc =
            service_ != nullptr ? service_ : &synth::SynthService::global();
        const synth::SynthOutcome so =
            svc->resynthesize(call->block, call->options, rng);
        if (counters_ != nullptr)
            counters_->add(so);
        const synth::ResynthResult &r = so.result;
        if (!r.success || r.circuit.gates() == call->block.gates())
            return std::nullopt; // failed or unchanged: free no-op
        return TransformOutcome{call->splice(c, r.circuit), r.distance};
      }
    }
    support::panic("Transformation::apply: unknown kind");
}

} // namespace core
} // namespace guoq
