"""Traced runs (--trace 1): the per-layer metrics of each workload.

Spans are recorded by pb_tool around calls into each layer's public
functions, never inside the program:

- exact-panel, approx-anytime, approx-async: every panel circuit runs
  once through guoq_cli untraced and once through `pb_tool trace`, which
  replays the GUOQ loop (Alg. 1) with a span per layer call. On
  exact-panel the replay must reproduce guoq_cli's output byte for byte
  and core::optimize's counts, or the run is not correct.
- serve-verify: the untraced open loop gives the queueing figures; then
  the first requests of the reference rung are replayed serially by
  `pb_tool serve-trace` (parse -> optimize -> verify -> emit), and each
  replayed output must match the row guoq_cli --serve --jobs 1 returns.

A layer a workload does not use reports 0 for its metrics.
"""

import json
import os
import statistics

import run as rb

SERVE_REPLAYS = 12  # requests replayed serially by serve-trace


def replay_matches(row, replay):
    """Whether a serial replay agrees with guoq_cli's --jobs 1 row: the
    same status and, for ok rows, the same output QASM. A verify_failed
    row carries no QASM, so its status is all there is to compare."""
    if row is None or row.get("status") != replay["status"]:
        return False
    if row["status"] != "ok":
        return True
    return rb.fnv1a(row["qasm"].encode()) == replay["qasm_hash"]


def merge_layers(into, summary):
    for name, agg in summary.items():
        cur = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k in cur:
            cur[k] += agg.get(k, 0)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(layers, replays):
    """Metrics measured at the layer spans of the replays."""
    L = lambda name: layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
    st = lambda key: sum(r["stats"][key] for r in replays)
    iterations = st("iterations")
    resynth = sorted(x for r in replays for x in r.get("resynth_s", []))
    loop = L("core.loop")
    return {
        "core.loop.iterations": iterations,
        "core.loop.iters_per_s": ratio(iterations, loop["s"]),
        "core.loop.noop_ratio": ratio(st("noops"), iterations),
        "core.loop.budget_skips": st("budget_skips"),
        "rewrite.prepare.calls": L("rewrite.prepare")["calls"],
        "rewrite.prepare.s": L("rewrite.prepare")["s"],
        "rewrite.prepare.hit_ratio": ratio(
            sum(r["prepare_hits"] for r in replays),
            L("rewrite.prepare")["calls"]),
        "rewrite.commit.calls": L("rewrite.commit")["calls"],
        "rewrite.commit.s": L("rewrite.commit")["s"],
        "rewrite.discard.s": L("rewrite.discard")["s"],
        "rewrite.assign.calls": L("rewrite.assign")["calls"],
        "rewrite.assign.s": L("rewrite.assign")["s"],
        "transpile.fuse.calls": L("transpile.fuse")["calls"],
        "transpile.fuse.s": L("transpile.fuse")["s"],
        "transpile.fuse.hit_ratio": ratio(
            sum(r["fuse_hits"] for r in replays), L("transpile.fuse")["calls"]),
        "core.cost.calls": L("core.cost")["calls"],
        "core.cost.s": L("core.cost")["s"],
        "synth.resynth.calls": L("synth.resynth")["calls"],
        "synth.resynth.s": L("synth.resynth")["s"],
        "synth.resynth.s_p50": statistics.median(resynth) if resynth else 0.0,
        "synth.resynth.success_ratio": ratio(
            sum(r.get("resynth_success", 0) for r in replays),
            L("synth.resynth")["calls"]),
        "synth.resynth.accept_ratio": ratio(
            st("resynth_accepted"), L("synth.resynth")["calls"]),
        "synth.resynth.deadline_ratio": ratio(
            sum(r.get("resynth_deadline", 0) for r in replays),
            L("synth.resynth")["calls"]),
        "qasm.parse.calls": L("qasm.parse")["calls"],
        "qasm.parse.s": L("qasm.parse")["s"],
        "qasm.parse.bytes_per_s": ratio(
            sum(r.get("parse_bytes", r.get("bytes", 0)) for r in replays),
            L("qasm.parse")["s"]),
        "qasm.emit.s": L("qasm.emit")["s"],
        "core.optimize.calls": L("core.optimize")["calls"],
        "core.optimize.s": L("core.optimize")["s"],
        "trace.coverage": 1.0 - ratio(loop["self_s"], loop["s"]),
    }


def verify_metrics(verify, tally):
    return {
        "verify.check.calls": verify["calls"],
        "verify.check.s": verify["s"],
        "verify.check.dense_s": verify["dense_s"],
        "verify.check.sampling_s": verify["sampling_s"],
        "verify.check.failed_frac": tally.frac(),
    }


NO_SERVE = {
    "serve.queue_wait_ms.p50": 0.0,
    "serve.queue_wait_ms.tail": 0.0,
    "serve.worker_busy_ratio": 0.0,
    "serve.tail_ms": 0.0,
    "serve.max_rate_req_per_s": 0.0,
    "gen.late_ms_max": 0.0,
}


def trace_panel(ctx, items):
    """Run each (input, gate set, objective, guoq_cli args, pb_tool
    args, hard limit) once untraced through guoq_cli and once through
    the traced replay. Returns the untraced ops, the replays and the
    merged span summary."""
    ops, replays, layers = [], [], {}
    for i, (gen, gs, obj, cli_args, tool_args, limit) in enumerate(items):
        out = os.path.join(ctx.work, "cli_%d.qasm" % i)
        op = rb.cli_op(ctx, gen["file"], out, gs, obj, ctx.seed, cli_args,
                       limit)
        op["circuit"] = i
        ops.append(op)
        args = ["trace", "--in", gen["file"], "--out",
                os.path.join(ctx.work, "replay_%d.qasm" % i), "--set", gs,
                "--objective", obj, "--seed", str(ctx.seed), "--op", str(i),
                "--spans", os.path.join(ctx.work, "spans_%d.tsv" % i)]
        rep = rb.tool_json(ctx, args + tool_args, timeout=limit + 30)[0]
        replays.append(rep)
        merge_layers(layers, rep.pop("layers"))
    return ops, replays, layers


def judge_panel(ctx, ops, gen, panel, epsilon):
    checks, verify = rb.check_panel(ctx, ops, gen, panel, epsilon)
    tally = rb.Tally()
    for o, c in zip(ops, checks):
        tally.add(*rb.judge_op(o, c, epsilon))
    return tally, verify


def run_traced_exact(ctx):
    specs = [n.format(seed=ctx.seed) + "@" + gs
             for n, gs, _, _ in rb.EXACT_PANEL]
    gen = rb.generate(ctx, specs, "in")
    items = [(gen[i], gs, obj, ["--iterations", str(cap)],
              ["--iterations", str(cap), "--reference", "1"],
              rb.EXACT_OP_LIMIT_S)
             for i, (_, gs, obj, cap) in enumerate(rb.EXACT_PANEL)]
    ops, replays, layers = trace_panel(ctx, items)
    identical = []
    for op, rep in zip(ops, replays):
        ref = rep["reference"]
        same = (op["ok"] and ref["identical"] and
                rep["qasm_hash"] == rb.fnv1a(rb.read_bytes(op["out"])) and
                rep["stats"]["iterations"] == op["stats"]["iterations"] and
                rep["stats"]["accepted"] == op["stats"]["accepted"])
        identical.append(same)
    if not all(identical):
        ctx.correct = False
        rb.log("traced replay differs from guoq_cli/core::optimize: %s"
               % identical)
    tally, verify = judge_panel(ctx, ops, gen, rb.EXACT_PANEL, 0.0)
    m = layer_metrics(layers, replays)
    m.update(verify_metrics(verify, tally))
    m.update(NO_SERVE)
    m["core.loop.overrun_s"] = 0.0
    m["synth.resynth.accepted"] = sum(o["stats"].get("resynth_accepted", 0)
                                      for o in ops)
    m["synth.pool.queue_peak"] = 0
    m["trace.overhead_s"] = sum(r["loop_s"] - r["reference"]["loop_s"]
                                for r in replays)
    return m, tally, {"replay_identical": identical,
                      "untraced_loop_s": [r["reference"]["loop_s"]
                                          for r in replays],
                      "traced_loop_s": [r["loop_s"] for r in replays]}


def run_traced_approx(ctx, synth_workers):
    specs = [n + "@" + gs for n, gs, _ in rb.APPROX_PANEL]
    gen = rb.generate(ctx, specs, "in")
    budget = ctx.seconds / len(rb.APPROX_PANEL)
    args = ["--epsilon", repr(rb.APPROX_EPSILON), "--time", repr(budget),
            "--synth-workers", str(synth_workers)]
    items = [(gen[i], gs, obj, args, args, budget + rb.APPROX_SLACK_S)
             for i, (_, gs, obj) in enumerate(rb.APPROX_PANEL)]
    ops, replays, layers = trace_panel(ctx, items)
    tally, verify = judge_panel(ctx, ops, gen, rb.APPROX_PANEL,
                                rb.APPROX_EPSILON)
    m = layer_metrics(layers, replays)
    m.update(verify_metrics(verify, tally))
    m.update(NO_SERVE)
    m["core.loop.overrun_s"] = max(max(r["loop_s"] - budget, 0.0)
                                   for r in replays)
    # The async counts come from guoq_cli's own GuoqStats.
    m["synth.resynth.accepted"] = sum(o["stats"].get("resynth_accepted", 0)
                                      for o in ops)
    m["synth.pool.queue_peak"] = max(o["stats"].get("pool_queue_peak", 0)
                                     for o in ops)
    m["trace.overhead_s"] = sum(r["loop_s"] for r in replays) - sum(
        o["stats"].get("loop_s", 0.0) for o in ops)
    return m, tally, {"budget_s": budget,
                      "untraced_iterations": [o["stats"].get("iterations")
                                              for o in ops],
                      "traced_iterations": [r["stats"]["iterations"]
                                            for r in replays]}


def run_traced_serve(ctx):
    _, tally, detail = rb.run_serve(ctx)
    sv = ctx.serve
    done = [q for q in sv["results"] if q["row"] is not None and
            q["latency_ms"] < 1000 * rb.SERVE_REQUEST_LIMIT_S]
    waits = [q["latency_ms"] - 1000 * q["row"].get("seconds", 0.0)
             for q in done]
    tail = rb.tail_percentile(waits)
    first_due = min(q["due_abs"] for q in sv["results"])
    last_row = max(sv["row_times"]) if sv["row_times"] else first_due
    busy = sum(q["row"].get("seconds", 0.0) for q in done)

    # Serial replay of the first requests of the reference rung, checked
    # against guoq_cli --serve --jobs 1 on the same frames.
    picked = [q for q in done if q["id"].startswith("r0_")][:SERVE_REPLAYS]
    manifest = os.path.join(ctx.work, "replay.tsv")
    frames = b""
    with open(manifest, "w") as f:
        for q in picked:
            path = sv["gen"][q["circuit"]]["file"]
            f.write("%s\t%d\t%s\n" % (q["id"], q["seed"], path))
            frames += rb.frame(q["id"], q["seed"], rb.read_bytes(path))
    serial = rb.run_proc(rb.serve_argv(ctx, 1), 120, frames)
    rows = {r["id"]: r for r in (json.loads(l) for l in
                                 serial.out.decode().splitlines() if l)}
    res = rb.tool_json(ctx, ["serve-trace", manifest,
                             "--iterations", str(rb.SERVE_ITERATIONS),
                             "--spans", os.path.join(ctx.work, "spans.tsv")],
                       timeout=120)
    replays, summary = res[:-1], res[-1]["layers"]
    identical = [replay_matches(rows.get(r["id"]), r) for r in replays]
    if not all(identical):
        ctx.correct = False
        rb.log("serve replay differs from --jobs 1 rows: %s" % identical)
    layers = {}
    merge_layers(layers, summary)
    m = layer_metrics(layers, replays)
    # The replay's checks are dense (<= 10 qubits), like the run's own.
    replay_verify = layers.get("verify.check", {"calls": 0, "s": 0.0})
    verify = dict(sv["verify"])
    for k in ("calls", "s"):
        verify[k] += replay_verify[k]
    verify["dense_s"] += replay_verify["s"]
    m.update(verify_metrics(verify, tally))
    m.update({
        "core.loop.overrun_s": 0.0,
        "synth.resynth.accepted": 0,
        "synth.pool.queue_peak": 0,
        "serve.queue_wait_ms.p50": statistics.median(waits) if waits else 0.0,
        "serve.queue_wait_ms.tail": tail[1] if tail else 0.0,
        "serve.worker_busy_ratio": ratio(
            busy, rb.SERVE_JOBS * (last_row - first_due)),
        "serve.tail_ms": detail["tail_ms"] or 0.0,
        "serve.max_rate_req_per_s": detail["max_rate_req_per_s"],
        "gen.late_ms_max": detail["gen_late_ms_max"],
        "trace.overhead_s": layers.get("serve.request", {}).get("s", 0.0) -
        sum(rows[r["id"]].get("seconds", 0.0) for r in replays
            if r["id"] in rows),
    })
    detail["replay_identical"] = identical
    return m, tally, detail


def run_traced(ctx, workload):
    fn = {
        "exact-panel": run_traced_exact,
        "approx-anytime": lambda c: run_traced_approx(c, 0),
        "approx-async": lambda c: run_traced_approx(c, 2),
        "serve-verify": run_traced_serve,
    }[workload]
    metrics, tally, detail = fn(ctx)
    with open(os.path.join(rb.ROOT, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    if set(metrics) != names:
        raise rb.BenchError("traced metrics differ from BENCHMARK.json: %s"
                            % sorted(set(metrics) ^ names))
    return metrics, tally, detail
