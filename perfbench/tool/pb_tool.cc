/**
 * @file
 * pb_tool: the end-to-end benchmark's helper, linked against the guoq
 * library. The benchmark (perfbench/run.py) runs guoq_cli, the
 * program under test, and uses this tool for everything around it:
 *
 *   pb_tool gen OUTDIR SPEC...      write seeded input circuits
 *   pb_tool suite SET MAXQ          list suite circuits of <= MAXQ qubits
 *   pb_tool machine                 compiler and SIMD backend of the build
 *   pb_tool check MANIFEST [--threads N] [--spans F]
 *                                   check outputs: verify + nativeness
 *   pb_tool trace OPTIONS           traced replay of the GUOQ loop
 *   pb_tool serve-trace MANIFEST --iterations N [--spans F]
 *                                   traced serial replay of serve requests
 *
 * Every result is one JSON object per line on stdout. Spans are kept
 * in memory and written out (TSV) when a subcommand ends.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/framework.h"
#include "core/guoq.h"
#include "core/transformation.h"
#include "dag/subcircuit.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "rewrite/engine.h"
#include "sim/kernels.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/service.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workloads/simulation.h"
#include "workloads/standard.h"
#include "workloads/suite.h"
#include "workloads/variational.h"

using namespace guoq;

namespace {

// --- small utilities --------------------------------------------------

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "pb_tool: %s\n", msg.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usage("cannot read " + path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        usage("cannot write " + path);
}

/** FNV-1a, the fingerprint hash (run.py computes the same). */
std::string
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::vector<std::string>>
readTsv(const std::string &path)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::size_t pos = 0;
        for (;;) {
            const std::size_t tab = line.find('\t', pos);
            cells.push_back(line.substr(pos, tab - pos));
            if (tab == std::string::npos)
                break;
            pos = tab + 1;
        }
        rows.push_back(std::move(cells));
    }
    return rows;
}

ir::GateSetKind
gateSet(const std::string &name)
{
    for (ir::GateSetKind set : ir::allGateSets())
        if (ir::gateSetName(set) == name)
            return set;
    usage("unknown gate set " + name);
}

/** The objectives the panels use (both count-based). */
core::Objective
objective(const std::string &name)
{
    for (core::Objective obj :
         {core::Objective::TwoQubitCount, core::Objective::TCount})
        if (core::objectiveName(obj) == name)
            return obj;
    usage("unsupported objective " + name);
}

ir::Circuit
parseOrDie(const std::string &source, const std::string &name)
{
    qasm::ParseResult pr = qasm::parseSource(source, qasm::Dialect::Auto,
                                             name);
    if (!pr.ok)
        usage("parse error: " + pr.error.str());
    return std::move(pr.circuit);
}

/** "%.17g": every digit, so run.py sees the value as measured. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Minimal flat JSON object writer (keys and values are plain). */
class Json
{
  public:
    Json &
    raw(const std::string &key, const std::string &value)
    {
        out_ += (out_.empty() ? "{\"" : ", \"") + key + "\": " + value;
        return *this;
    }
    Json &num(const std::string &key, double v)
    {
        return raw(key, ::num(v));
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char ch : v) {
            if (ch == '"' || ch == '\\')
                q += '\\';
            if (static_cast<unsigned char>(ch) >= 0x20)
                q += ch;
        }
        return raw(key, q + "\"");
    }
    Json &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

  private:
    std::string out_;
};

/** Positional arguments and "--key value" pairs of one subcommand. */
struct Flags
{
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> named;

    Flags(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            const std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                if (i + 1 >= argc)
                    usage(a + " expects a value");
                named.emplace_back(a, argv[++i]);
            } else {
                positional.push_back(a);
            }
        }
    }
    std::string
    get(const std::string &key, const std::string &dflt) const
    {
        for (const auto &kv : named)
            if (kv.first == key)
                return kv.second;
        return dflt;
    }
    double real(const std::string &key, double dflt) const
    {
        return std::stod(get(key, ::num(dflt)));
    }
};

// --- spans --------------------------------------------------------------

/** The layer boundaries a span can name. */
enum SpanName : std::uint32_t
{
    kLoop,
    kPrepare,
    kCommit,
    kDiscard,
    kAssign,
    kFuse,
    kResynth,
    kCost,
    kParse,
    kEmit,
    kOptimize,
    kVerify,
    kRequest,
    kSubmit,
    kSample,
    kNumNames,
};

const char *const kSpanNames[kNumNames] = {
    "core.loop",     "rewrite.prepare", "rewrite.commit", "rewrite.discard",
    "rewrite.assign", "transpile.fuse", "synth.resynth",  "core.cost",
    "qasm.parse",    "qasm.emit",       "core.optimize",  "verify.check",
    "serve.request", "synth.submit",   "core.sample",
};

constexpr std::uint32_t kNoParent = ~0u;

/**
 * In-memory span log: name, start, end, parent span and operation id
 * per call. Times are nanoseconds since the tracer's construction.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t name = 0;
        std::uint32_t parent = kNoParent;
        std::uint32_t op = 0;
        std::int64_t start = 0;
        std::int64_t end = -1;
    };

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    /** Open a span that later spans name as parent. */
    std::uint32_t
    open(SpanName name, std::uint32_t parent, std::uint32_t op)
    {
        spans_.push_back({name, parent, op, now(), -1});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void close(std::uint32_t idx) { spans_[idx].end = now(); }

    /** Record a closed leaf span that started at @p start. */
    void
    leaf(SpanName name, std::int64_t start, std::uint32_t parent,
         std::uint32_t op)
    {
        spans_.push_back({name, parent, op, start, now()});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name calls, total and self seconds, as a JSON object. */
    std::string
    summary() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent != kNoParent)
                child[s.parent] += static_cast<double>(s.end - s.start);
        std::vector<long> calls(kNumNames, 0);
        std::vector<double> total(kNumNames, 0.0), self(kNumNames, 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double d = static_cast<double>(s.end - s.start);
            ++calls[s.name];
            total[s.name] += d;
            self[s.name] += d - child[i];
        }
        Json all;
        for (std::uint32_t n = 0; n < kNumNames; ++n) {
            if (calls[n] == 0)
                continue;
            all.raw(kSpanNames[n],
                    Json()
                        .num("calls", static_cast<double>(calls[n]))
                        .num("s", total[n] * 1e-9)
                        .num("self_s", self[n] * 1e-9)
                        .done());
        }
        return all.done();
    }

    /** Write every span as TSV: name, parent, op, start_ns, end_ns. */
    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::string text = "name\tparent\top\tstart_ns\tend_ns\n";
        for (const Span &s : spans_)
            text += std::string(kSpanNames[s.name]) + "\t" +
                    (s.parent == kNoParent ? std::string("-1")
                                           : std::to_string(s.parent)) +
                    "\t" + std::to_string(s.op) + "\t" +
                    std::to_string(s.start) + "\t" +
                    std::to_string(s.end) + "\n";
        writeFile(path, text);
    }

  private:
    std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

// --- gen / suite --------------------------------------------------------

/** Parse "<a>x<b>[s<seed>]" into its integers. */
std::vector<std::uint64_t>
specNumbers(const std::string &s)
{
    std::vector<std::uint64_t> out;
    std::string cur;
    for (char ch : s + "|") {
        if (ch >= '0' && ch <= '9') {
            cur += ch;
        } else {
            if (!cur.empty())
                out.push_back(std::stoull(cur));
            cur.clear();
            if (ch != 'x' && ch != 's' && ch != '|')
                usage("bad circuit spec parameters '" + s + "'");
        }
    }
    return out;
}

/**
 * Build one input circuit from "<family>_<params>@<set>", lowered to
 * the gate set: cuccaro_<n>, qaoa_<n>x<layers>[s<seed>],
 * heisenberg_<n>x<steps>, barenco_tof_<k>, random_<n>x<gates>s<seed>,
 * or suite/<name> (a suiteFor(set) entry, already lowered).
 */
ir::Circuit
buildSpec(const std::string &spec)
{
    const std::size_t at = spec.find('@');
    if (at == std::string::npos)
        usage("circuit spec needs @<gate-set>: " + spec);
    const std::string name = spec.substr(0, at);
    const ir::GateSetKind set = gateSet(spec.substr(at + 1));
    if (name.rfind("suite/", 0) == 0) {
        static std::vector<std::pair<ir::GateSetKind,
                                     std::vector<workloads::Benchmark>>>
            suites;
        auto it = std::find_if(suites.begin(), suites.end(),
                               [&](const auto &s) { return s.first == set; });
        if (it == suites.end()) {
            suites.emplace_back(set, workloads::suiteFor(set));
            it = suites.end() - 1;
        }
        for (const workloads::Benchmark &b : it->second)
            if (b.name == name.substr(6))
                return b.circuit;
        usage("no suite circuit " + name);
    }
    auto params = [&](const std::string &prefix) {
        return specNumbers(name.substr(prefix.size()));
    };
    ir::Circuit c;
    if (name.rfind("cuccaro_", 0) == 0) {
        c = workloads::cuccaroAdder(static_cast<int>(params("cuccaro_")[0]));
    } else if (name.rfind("qaoa_", 0) == 0) {
        const auto p = params("qaoa_");
        c = workloads::qaoaMaxCut(static_cast<int>(p.at(0)),
                                  static_cast<int>(p.at(1)),
                                  p.size() > 2 ? p[2] : 1);
    } else if (name.rfind("heisenberg_", 0) == 0) {
        const auto p = params("heisenberg_");
        c = workloads::trotterHeisenberg(static_cast<int>(p.at(0)),
                                         static_cast<int>(p.at(1)));
    } else if (name.rfind("barenco_tof_", 0) == 0) {
        c = workloads::barencoTof(
            static_cast<int>(params("barenco_tof_").at(0)));
    } else if (name.rfind("random_", 0) == 0) {
        const auto p = params("random_");
        c = workloads::randomCircuit(static_cast<int>(p.at(0)),
                                     static_cast<int>(p.at(1)), p.at(2));
    } else {
        usage("unknown circuit family in " + spec);
    }
    return transpile::toGateSet(c, set);
}

int
cmdGen(const Flags &f)
{
    if (f.positional.size() < 2)
        usage("gen OUTDIR SPEC...");
    const std::string dir = f.positional[0];
    for (std::size_t i = 1; i < f.positional.size(); ++i) {
        const ir::Circuit c = buildSpec(f.positional[i]);
        const std::string path = dir + "/" + std::to_string(i - 1) +
                                 ".qasm";
        writeFile(path, qasm::toQasm(c, qasm::Dialect::Qasm2));
        const ir::CircuitCounts k = c.counts();
        std::printf("%s\n",
                    Json()
                        .str("spec", f.positional[i])
                        .str("file", path)
                        .num("qubits", c.numQubits())
                        .num("gates", static_cast<double>(k.gates))
                        .num("twoq", static_cast<double>(k.twoQubit))
                        .num("t", static_cast<double>(k.tGates))
                        .done()
                        .c_str());
    }
    return 0;
}

int
cmdSuite(const Flags &f)
{
    if (f.positional.size() != 2)
        usage("suite SET MAXQ");
    const int maxq = std::stoi(f.positional[1]);
    for (const workloads::Benchmark &b :
         workloads::suiteFor(gateSet(f.positional[0])))
        if (b.circuit.numQubits() <= maxq)
            std::printf("%s\n", b.name.c_str());
    return 0;
}

// --- check ----------------------------------------------------------------

/** Sampling shots per check above 10 qubits (64 leave a 0.87 half-width
 *  at 12 qubits and pass the known inequivalent outputs). */
constexpr long kCheckShots = 128;

/**
 * The benchmark's correctness check of one output: it parses, is native
 * to the gate set, reports error_bound <= epsilon, and is equivalent to
 * its input within epsilon by the verify layer ("auto": dense up to 10
 * qubits, sampling above with a fixed shot count).
 */
std::string
checkOne(const std::vector<std::string> &row, int threads, Tracer &tr,
         std::uint32_t op)
{
    if (row.size() != 6)
        usage("check manifest rows: in out set eps error_bound seed");
    const ir::GateSetKind set = gateSet(row[2]);
    const double eps = std::stod(row[3]);
    const double errorBound = std::stod(row[4]);
    Json j;
    j.str("out", row[1]);
    const ir::Circuit in = parseOrDie(readFile(row[0]), row[0]);
    std::ifstream probe(row[1]);
    if (!probe) {
        return j.flag("ok", false).str("why", "no output").done();
    }
    qasm::ParseResult pr = qasm::parseSource(readFile(row[1]),
                                             qasm::Dialect::Auto, row[1]);
    if (!pr.ok)
        return j.flag("ok", false).str("why", "output does not parse")
            .done();
    const bool native = transpile::allNative(pr.circuit, set);
    const bool bounded = errorBound <= eps;

    verify::VerifyRequest req;
    req.epsilon = eps;
    req.tolerance = 1e-6; // guoq_cli --verify's noise floor
    req.shots = kCheckShots;
    req.seed = std::stoull(row[5]);
    req.threads = threads;
    const verify::EquivalenceChecker *checker =
        verify::CheckerRegistry::global().find("auto");
    const std::string err = checker->checkRequest(in, pr.circuit, req);
    if (!err.empty())
        return j.flag("ok", false).str("why", "unverifiable: " + err)
            .done();
    const std::int64_t t0 = tr.now();
    const verify::VerifyReport vr = checker->run(in, pr.circuit, req);
    tr.leaf(kVerify, t0, kNoParent, op);
    const double span_s = static_cast<double>(tr.now() - t0) * 1e-9;
    const bool equivalent = vr.verdict == verify::Verdict::Equivalent;
    std::string why;
    if (!equivalent)
        why = "inequivalent";
    else if (!native)
        why = "not native";
    else if (!bounded)
        why = "error_bound above epsilon";
    return j.flag("ok", equivalent && native && bounded)
        .str("why", why)
        .str("method", vr.method)
        .num("distance", vr.distanceEstimate)
        .num("bound", vr.bound)
        .num("span_s", span_s)
        .num("qubits", in.numQubits())
        .num("twoq_in", static_cast<double>(in.twoQubitGateCount()))
        .num("twoq_out",
             static_cast<double>(pr.circuit.twoQubitGateCount()))
        .num("t_in", static_cast<double>(in.tGateCount()))
        .num("t_out", static_cast<double>(pr.circuit.tGateCount()))
        .done();
}

int
cmdCheck(const Flags &f)
{
    if (f.positional.size() != 1)
        usage("check MANIFEST [--threads N] [--spans F]");
    const int threads = std::stoi(f.get("--threads", "1"));
    Tracer tr;
    std::uint32_t op = 0;
    for (const auto &row : readTsv(f.positional[0]))
        std::printf("%s\n", checkOne(row, threads, tr, op++).c_str());
    tr.write(f.get("--spans", ""));
    return 0;
}

// --- trace: Alg. 1 replayed through public entry points -------------------

/** Counts measured at the layer boundaries of one replay. */
struct LayerCounts
{
    long prepareHits = 0;
    long fuseHits = 0;
    long resynthSuccess = 0;
    long resynthDeadline = 0;
    std::vector<double> resynthSeconds;
};

struct Replay
{
    ir::Circuit best;
    double errorBound = 0;
    core::GuoqStats stats;
    LayerCounts layers;
    double loopSeconds = 0;
};

/** core::optimize's per-call ε default (guoq.cc). */
double
perCallEpsilon(const core::GuoqConfig &cfg)
{
    if (cfg.resynthCallEpsilon > 0)
        return cfg.resynthCallEpsilon;
    return std::max(cfg.epsilonTotal / 16.0, 3e-7);
}

/** One in-flight asynchronous resynthesis call (as in guoq.cc). */
struct PendingResynth
{
    std::future<synth::SynthOutcome> future;
    ir::Circuit snapshot;
    dag::SubcircuitSelection selection;
    std::int64_t submitted = 0;
};

/**
 * The GUOQ loop of core::optimize (Alg. 1), step for step and RNG draw
 * for RNG draw, with a span around every call into a layer:
 * TransformationSet::sample, the RewriteEngine calls, fusion and
 * resynthesis (Transformation::apply) and CostFunction. With cfg.synthWorkers > 0 it
 * takes the asynchronous path (SynthService::submit, harvest in launch
 * order); an async call's synth.resynth span runs from submission to
 * the harvest that first sees it done, and has no parent because it
 * overlaps the loop. On the same input, seed and iteration cap the
 * synchronous replay must end with core::optimize's circuit and counts.
 */
Replay
replay(const ir::Circuit &c, ir::GateSetKind set,
       const core::GuoqConfig &cfg, Tracer &tr, std::uint32_t op,
       std::uint32_t parent = kNoParent)
{
    const std::uint32_t loop = tr.open(kLoop, parent, op);
    const support::Deadline deadline =
        support::Deadline::in(cfg.timeBudgetSeconds);
    support::Rng rng(cfg.seed);
    const core::CostFunction cost(cfg.objective, set);
    core::TransformSelection selection = cfg.selection;
    if (cfg.epsilonTotal <= 0 &&
        selection == core::TransformSelection::Combined)
        selection = core::TransformSelection::RewriteOnly;
    synth::SynthService *svc = &synth::SynthService::global();
    synth::ResynthCounters counters;
    const core::TransformationSet transforms(
        set, selection, perCallEpsilon(cfg), cfg.resynthProbability,
        cfg.resynthCallSeconds, cfg.maxSubcircuitQubits, svc, &counters);

    Replay out;
    core::GuoqStats &st = out.stats;
    rewrite::RewriteEngine engine(c);

    auto priced = [&](auto &&fn) {
        const std::int64_t t0 = tr.now();
        const double v = fn();
        tr.leaf(kCost, t0, loop, op);
        return v;
    };
    double cost_best = priced([&] { return cost(c); });
    double cost_curr = cost_best;
    double error_curr = 0;
    double error_best = 0;
    bool best_is_curr = true;

    auto decide = [&](double cost_cand) {
        if (cost_cand <= cost_curr) {
            ++st.accepted;
            return true;
        }
        const double p = std::exp(-cfg.temperature * cost_cand /
                                  std::max(cost_curr, 1e-12));
        if (rng.chance(p)) {
            ++st.uphillAccepted;
            return true;
        }
        ++st.rejected;
        return false;
    };
    auto snapshot_if_leaving_best = [&](double cost_cand) {
        if (best_is_curr && !(cost_cand < cost_best)) {
            out.best = engine.circuit();
            best_is_curr = false;
        }
    };
    auto on_accepted = [&](double cost_cand, double eps_spent,
                           bool from_resynth) {
        cost_curr = cost_cand;
        error_curr += eps_spent;
        if (from_resynth)
            ++st.resynthAccepted;
        if (cost_curr < cost_best) {
            cost_best = cost_curr;
            error_best = error_curr;
            best_is_curr = true;
        }
    };
    auto consider_circuit = [&](ir::Circuit &&candidate, double eps_spent,
                                bool from_resynth) {
        const double cost_cand = priced([&] { return cost(candidate); });
        if (!decide(cost_cand))
            return;
        snapshot_if_leaving_best(cost_cand);
        const std::int64_t t0 = tr.now();
        engine.assign(std::move(candidate));
        tr.leaf(kAssign, t0, loop, op);
        on_accepted(cost_cand, eps_spent, from_resynth);
    };
    auto consider_prepared = [&](const rewrite::RewriteEngine::Attempt
                                     &att) {
        // objective() admits only count-based objectives, which
        // core::optimize prices from the pass's delta counters.
        const double cost_cand =
            priced([&] { return cost.fromCounts(att.counts); });
        if (!decide(cost_cand)) {
            const std::int64_t t0 = tr.now();
            engine.discard();
            tr.leaf(kDiscard, t0, loop, op);
            return;
        }
        snapshot_if_leaving_best(cost_cand);
        const std::int64_t t0 = tr.now();
        engine.commit();
        tr.leaf(kCommit, t0, loop, op);
        on_accepted(cost_cand, 0.0, false);
    };

    // Close one resynthesis call's span and record its duration.
    auto resynthSpan = [&](std::int64_t start, std::uint32_t parent) {
        tr.leaf(kResynth, start, parent, op);
        const Tracer::Span &span = tr.spans().back();
        const double s = static_cast<double>(span.end - span.start) * 1e-9;
        out.layers.resynthSeconds.push_back(s);
        if (s >= 0.95 * cfg.resynthCallSeconds)
            ++out.layers.resynthDeadline;
    };

    std::vector<PendingResynth> pending;
    auto harvestAsync = [&](bool wait) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            PendingResynth &p = pending[i];
            if (!wait &&
                p.future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                if (keep != i)
                    pending[keep] = std::move(p);
                ++keep;
                continue;
            }
            const synth::SynthOutcome so = p.future.get();
            resynthSpan(p.submitted, kNoParent);
            counters.add(so);
            const synth::ResynthResult &r = so.result;
            if (!r.success)
                continue;
            ++out.layers.resynthSuccess;
            if (error_curr + r.distance > cfg.epsilonTotal)
                continue;
            consider_circuit(dag::splice(p.snapshot, p.selection,
                                         r.circuit),
                             r.distance, true);
        }
        pending.resize(keep);
    };

    while (!deadline.expired() &&
           (cfg.maxIterations < 0 || st.iterations < cfg.maxIterations)) {
        ++st.iterations;
        harvestAsync(false);
        const std::int64_t s0 = tr.now();
        const std::size_t idx = transforms.sample(rng);
        tr.leaf(kSample, s0, loop, op);
        const core::Transformation &tau = transforms.all()[idx];
        if (error_curr + tau.epsilon() > cfg.epsilonTotal &&
            tau.epsilon() > 0) {
            ++st.budgetSkips;
            continue;
        }
        if (tau.kind() == core::TransformKind::Resynthesis) {
            ++st.resynthCalls;
            if (cfg.synthWorkers > 0) {
                if (pending.size() >=
                        static_cast<std::size_t>(cfg.synthWorkers) ||
                    engine.circuit().empty())
                    continue;
                PendingResynth p;
                p.selection = dag::randomConvex(
                    engine.circuit(), rng, cfg.maxSubcircuitQubits, 32, 6);
                if (p.selection.size() < 2)
                    continue;
                p.snapshot = engine.circuit();
                ir::Circuit sub = dag::extract(p.snapshot, p.selection);
                synth::ResynthOptions opts;
                opts.targetSet = set;
                opts.epsilon = perCallEpsilon(cfg);
                opts.maxQubits = cfg.maxSubcircuitQubits;
                opts.deadline = support::Deadline::in(std::min(
                    cfg.resynthCallSeconds, deadline.remaining()));
                support::Rng child = rng.fork();
                p.submitted = tr.now();
                auto fut = svc->submit(std::move(sub), opts, child);
                tr.leaf(kSubmit, p.submitted, loop, op);
                if (!fut)
                    continue;
                p.future = std::move(*fut);
                pending.push_back(std::move(p));
                continue;
            }
        }

        if (tau.kind() == core::TransformKind::RewriteRule) {
            const std::int64_t t0 = tr.now();
            auto att = engine.preparePassRandom(*tau.rule(), rng);
            tr.leaf(kPrepare, t0, loop, op);
            if (!att) {
                ++st.noops;
                continue;
            }
            ++out.layers.prepareHits;
            ++st.rewriteApplications;
            consider_prepared(*att);
            continue;
        }

        const bool resynth =
            tau.kind() == core::TransformKind::Resynthesis;
        const std::int64_t t0 = tr.now();
        auto outcome = tau.apply(engine.circuit(), rng);
        if (resynth)
            resynthSpan(t0, loop);
        else
            tr.leaf(kFuse, t0, loop, op);
        if (!outcome) {
            ++st.noops;
            continue;
        }
        if (resynth) {
            ++out.layers.resynthSuccess;
        } else {
            ++out.layers.fuseHits;
            ++st.rewriteApplications;
        }
        if (error_curr + outcome->epsilonSpent > cfg.epsilonTotal &&
            outcome->epsilonSpent > 0) {
            ++st.budgetSkips;
            continue;
        }
        consider_circuit(std::move(outcome->circuit),
                         outcome->epsilonSpent, resynth);
    }

    harvestAsync(true);
    if (best_is_curr)
        out.best = engine.release();
    out.errorBound = error_best;
    st.poolQueuePeak = svc->poolQueuePeak();
    tr.close(loop);
    const Tracer::Span &s = tr.spans()[loop];
    out.loopSeconds = static_cast<double>(s.end - s.start) * 1e-9;
    return out;
}

std::string
statsJson(const core::GuoqStats &s)
{
    return Json()
        .num("iterations", static_cast<double>(s.iterations))
        .num("accepted", static_cast<double>(s.accepted))
        .num("uphill", static_cast<double>(s.uphillAccepted))
        .num("rejected", static_cast<double>(s.rejected))
        .num("noops", static_cast<double>(s.noops))
        .num("budget_skips", static_cast<double>(s.budgetSkips))
        .num("resynth_calls", static_cast<double>(s.resynthCalls))
        .num("resynth_accepted", static_cast<double>(s.resynthAccepted))
        .num("pool_queue_peak", static_cast<double>(s.poolQueuePeak))
        .done();
}

bool
sameStats(const core::GuoqStats &a, const core::GuoqStats &b)
{
    return a.iterations == b.iterations && a.accepted == b.accepted &&
           a.uphillAccepted == b.uphillAccepted &&
           a.rejected == b.rejected && a.noops == b.noops &&
           a.budgetSkips == b.budgetSkips &&
           a.resynthCalls == b.resynthCalls &&
           a.resynthAccepted == b.resynthAccepted;
}

/**
 * Replay one input with spans, write its output QASM, and (with
 * --reference 1) run core::optimize untraced on the same request to
 * check the replay is output-identical and to time the untraced loop.
 */
int
cmdTrace(const Flags &f)
{
    const std::string inPath = f.get("--in", "");
    const std::string outPath = f.get("--out", "");
    if (inPath.empty() || outPath.empty())
        usage("trace --in F --out F --set S --objective O --epsilon E "
              "--iterations N --time T --seed S [--op K] [--synth-workers N] "
              "[--reference 0|1] [--spans F]");
    const ir::GateSetKind set = gateSet(f.get("--set", "nam"));
    core::GuoqConfig cfg;
    cfg.objective = objective(f.get("--objective", "2q-count"));
    cfg.epsilonTotal = f.real("--epsilon", 0);
    cfg.maxIterations = std::stol(f.get("--iterations", "-1"));
    // As guoq_cli: an iteration cap without --time lifts the 10 s
    // default, so the cap, not machine speed, ends the run.
    cfg.timeBudgetSeconds =
        f.real("--time", cfg.maxIterations >= 0 ? 1e7 : 10);
    cfg.seed = std::stoull(f.get("--seed", "1"));
    cfg.synthWorkers = std::stoi(f.get("--synth-workers", "0"));
    const auto op = static_cast<std::uint32_t>(std::stoul(f.get("--op", "0")));
    if (cfg.synthWorkers > 0)
        synth::SynthService::global().configurePool(cfg.synthWorkers);

    Tracer tr;
    const std::int64_t p0 = tr.now();
    const std::string source = readFile(inPath);
    const ir::Circuit input = parseOrDie(source, inPath);
    tr.leaf(kParse, p0, kNoParent, op);

    const std::uint32_t opt = tr.open(kOptimize, kNoParent, op);
    const Replay r = replay(input, set, cfg, tr, op, opt);
    tr.close(opt);

    const std::int64_t e0 = tr.now();
    const std::string qasm = qasm::toQasm(r.best, qasm::Dialect::Qasm2);
    tr.leaf(kEmit, e0, kNoParent, op);
    writeFile(outPath, qasm);

    std::string rs = "[";
    for (double v : r.layers.resynthSeconds)
        rs += (rs.size() > 1 ? ", " : "") + ::num(v);
    Json j;
    j.num("op", op)
        .str("qasm_hash", fnv1a(qasm))
        .num("error_bound", r.errorBound)
        .num("loop_s", r.loopSeconds)
        .num("parse_bytes", static_cast<double>(source.size()))
        .raw("stats", statsJson(r.stats))
        .num("prepare_hits", static_cast<double>(r.layers.prepareHits))
        .num("fuse_hits", static_cast<double>(r.layers.fuseHits))
        .num("resynth_success",
             static_cast<double>(r.layers.resynthSuccess))
        .num("resynth_deadline",
             static_cast<double>(r.layers.resynthDeadline))
        .raw("resynth_s", rs + "]");

    if (f.get("--reference", "0") == "1") {
        const core::GuoqResult ref = core::optimize(input, set, cfg);
        const bool identical =
            qasm::toQasm(ref.best, qasm::Dialect::Qasm2) == qasm &&
            sameStats(ref.stats, r.stats) &&
            ref.errorBound == r.errorBound;
        j.raw("reference", Json()
                               .flag("identical", identical)
                               .num("loop_s", ref.stats.seconds)
                               .done());
    }
    j.raw("layers", tr.summary());
    std::printf("%s\n", j.done().c_str());
    tr.write(f.get("--spans", ""));
    return 0;
}

// --- serve-trace: one request at a time through the serve layers ----------

/**
 * Replay serve requests serially as the pipeline's worker runs them
 * under serve-verify's settings (nam, 2q-count, exact, no time budget):
 * qasm::parseSource -> optimize -> EquivalenceChecker::run ->
 * qasm::toQasm, each in its own span under one serve.request span. The
 * optimize step is the traced GUOQ loop replay (guoq at one thread is
 * core::optimize), so its rewrite-layer spans nest under core.optimize.
 */
int
cmdServeTrace(const Flags &f)
{
    if (f.positional.size() != 1)
        usage("serve-trace MANIFEST --iterations N [--spans F]");
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    core::GuoqConfig cfg;
    cfg.objective = core::Objective::TwoQubitCount;
    cfg.epsilonTotal = 0;
    cfg.maxIterations = std::stol(f.get("--iterations", "-1"));
    // guoq_cli lifts the time budget when only an iteration cap is set.
    cfg.timeBudgetSeconds = 1e7;
    const verify::EquivalenceChecker *checker =
        verify::CheckerRegistry::global().find("auto");

    Tracer tr;
    std::uint32_t op = 0;
    for (const auto &row : readTsv(f.positional[0])) {
        if (row.size() != 3)
            usage("serve-trace manifest rows: id seed path");
        const std::string source = readFile(row[2]);
        const std::uint32_t req = tr.open(kRequest, kNoParent, op);

        std::int64_t t0 = tr.now();
        qasm::ParseResult pr =
            qasm::parseSource(source, qasm::Dialect::Auto, row[0]);
        tr.leaf(kParse, t0, req, op);
        Json j;
        j.str("id", row[0]).num("bytes", static_cast<double>(source.size()));
        if (!pr.ok) {
            tr.close(req);
            std::printf("%s\n", j.str("status", "parse_error").done().c_str());
            ++op;
            continue;
        }
        cfg.seed = std::stoull(row[1]);
        const std::uint32_t opt = tr.open(kOptimize, req, op);
        const Replay r = replay(pr.circuit, set, cfg, tr, op, opt);
        tr.close(opt);

        verify::VerifyRequest vreq;
        vreq.epsilon = cfg.epsilonTotal;
        vreq.tolerance = 1e-6; // guoq_cli --verify's noise floor
        vreq.seed = cfg.seed;
        t0 = tr.now();
        const verify::VerifyReport vr =
            checker->run(pr.circuit, r.best, vreq);
        tr.leaf(kVerify, t0, req, op);

        t0 = tr.now();
        const std::string qasm = qasm::toQasm(r.best, pr.dialect);
        tr.leaf(kEmit, t0, req, op);
        tr.close(req);
        std::printf(
            "%s\n",
            j.str("status", vr.verdict == verify::Verdict::Equivalent
                                ? "ok"
                                : "verify_failed")
                .str("qasm_hash", fnv1a(qasm))
                .str("method", vr.method)
                .num("distance", vr.distanceEstimate)
                .raw("stats", statsJson(r.stats))
                .num("prepare_hits", static_cast<double>(r.layers.prepareHits))
                .num("fuse_hits", static_cast<double>(r.layers.fuseHits))
                .done()
                .c_str());
        ++op;
    }
    std::printf("%s\n", Json().raw("layers", tr.summary()).done().c_str());
    tr.write(f.get("--spans", ""));
    return 0;
}

int
cmdMachine()
{
    std::printf("%s\n", Json()
#ifdef __clang__
                            .str("compiler", "clang " __clang_version__)
#else
                            .str("compiler", "gcc " __VERSION__)
#endif
                            .str("simd", sim::kernels::backendName())
                            .done()
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("usage: pb_tool gen|suite|machine|check|trace|serve-trace ...");
    const std::string cmd = argv[1];
    const Flags f(argc, argv, 2);
    try {
        if (cmd == "gen")
            return cmdGen(f);
        if (cmd == "suite")
            return cmdSuite(f);
        if (cmd == "machine")
            return cmdMachine();
        if (cmd == "check")
            return cmdCheck(f);
        if (cmd == "trace")
            return cmdTrace(f);
        if (cmd == "serve-trace")
            return cmdServeTrace(f);
    } catch (const std::logic_error &e) {
        // std::stoi and friends on a malformed number.
        usage(cmd + ": bad numeric argument (" + e.what() + ")");
    }
    usage("unknown subcommand " + cmd);
}
