#!/usr/bin/env python3
"""The GUOQ end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds guoq_cli and the
benchmark's helper pb_tool (perfbench/CMakeLists.txt) into .bench_build,
or into $CARGO_TARGET_DIR when that is set. The program under test,
guoq_cli, receives only the inputs generated here from --seed. Every
output is checked outside the timed region. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; the line before
it holds the machine/build metadata and the workload's detail figures.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_LIMIT_S = 170         # the whole run, set-up and checks included
CHECK_THREADS = 4
# Set-up is timed SETUP_REPEATS times per run: once to make the inputs,
# then spread over the gaps between the measured operations (see
# SetupTimer).
SETUP_REPEATS = 50

# exact-panel: (circuit, gate set, objective, iteration cap). The random
# circuit's seed is the benchmark seed. The panel runs one pass per
# EXACT_PASS_S of --seconds (a pass takes about that long on a 4-core
# x86-64 VM), so a seed and --seconds fix the calls a run makes.
EXACT_PANEL = [
    ("cuccaro_7", "nam", "2q-count", 60000),
    ("qaoa_16x4", "ibm-eagle", "2q-count", 20000),
    ("random_12x400s{seed}", "nam", "2q-count", 50000),
    ("barenco_tof_5", "cliffordt", "t-count", 300000),
]
EXACT_PASS_S = 2.5
EXACT_OP_LIMIT_S = 60

# approx-anytime / approx-async: (circuit, gate set, objective); each
# circuit gets --seconds / len(APPROX_PANEL) of wall clock.
APPROX_PANEL = [
    ("heisenberg_8x3", "ibm-eagle", "2q-count"),
    ("qaoa_16x4", "nam", "2q-count"),
    ("cuccaro_7", "cliffordt", "t-count"),
]
APPROX_EPSILON = 1e-5
APPROX_SLACK_S = 20       # hard limit = budget + slack

# serve-verify: an open loop against guoq_cli --serve --verify. The
# pool stops at 8 qubits: 10-qubit dense verification is memory-bound,
# and it made the same inputs' mean latency swing by 30% between runs.
SERVE_MAX_QUBITS = 8
SERVE_ITERATIONS = 2000
SERVE_JOBS = 4
SERVE_LIMIT_MS = 500.0    # latency limit on tail_ms for max_rate
SERVE_REQUEST_LIMIT_S = 20.0
# (offered rate in req/s, share of --seconds). The first rung is the
# fixed rate the latency metrics are reported at; it sends the whole
# pool SERVE_REFERENCE_PASSES times, however long that takes.
SERVE_LADDER = [(36.0, None), (72.0, 0.2), (108.0, 0.2)]
SERVE_REFERENCE_PASSES = 10


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fnv1a(data):
    """64-bit FNV-1a, as pb_tool's fingerprint hash."""
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def output_key(row):
    """Check-dedup key: identical outputs of one input check once."""
    out = fnv1a(read_bytes(row[1])) if os.path.exists(row[1]) else row[1]
    return (row[0], out) + tuple(row[2:5])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(ms):
    """The latency figures of one set of operations, in ms: the mean
    (the bounded end-to-end metric), the median and the tail (see
    tail_percentile), with the sample count."""
    tail = tail_percentile(ms)
    return {"mean_ms": statistics.fmean(ms), "p50_ms": statistics.median(ms),
            "tail_pct": tail[0] if tail else None,
            "tail_ms": tail[1] if tail else None, "samples": len(ms)}


def tail_percentile(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value) for the sorted samples: the value at
    rank n - beyond - 1 (0-based), i.e. the largest sample that still
    has `beyond` samples beyond it, or None with fewer than beyond + 1
    samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, xs[k]


# --- processes -------------------------------------------------------------


# Every child still running; stop_children_and_exit stops them all.
_children = set()
_children_lock = threading.Lock()


def _track(p, alive):
    with _children_lock:
        (_children.add if alive else _children.discard)(p)


def stop_children_and_exit(why):
    """Kill and reap every child, then exit without a result (the run
    watchdog, SIGTERM and SIGINT)."""
    log("stopping: " + why)
    with _children_lock:
        live = list(_children)
    for p in live:
        try:
            p.kill()
        except OSError:
            pass
    for p in live:
        try:
            os.waitpid(p.pid, 0)
        except OSError:
            pass
    os._exit(3)


class Proc:
    """One finished child: exit code, output, wall time, peak RSS."""

    def __init__(self, rc, out, err, wall, rss_mb, timed_out):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.rss_mb, self.timed_out = wall, rss_mb, timed_out


def _reap(p, timeout):
    """Wait for p (killing it after `timeout` s) and reap it with its
    rusage. The pid is not reaped until the kill can no longer fire."""
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def on_timeout():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                p.kill()

    timer = threading.Timer(timeout, on_timeout)
    timer.start()
    os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, ru = os.wait4(p.pid, 0)
    _track(p, False)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_maxrss / 1024.0, state["timed_out"]


def run_proc(argv, timeout, stdin_bytes=b""):
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    _track(p, True)
    chunks = {}

    def pump(name, stream):
        chunks[name] = stream.read()

    pumps = [threading.Thread(target=pump, args=("out", p.stdout)),
             threading.Thread(target=pump, args=("err", p.stderr))]
    for t in pumps:
        t.start()
    try:
        p.stdin.write(stdin_bytes)
        p.stdin.close()
    except BrokenPipeError:
        pass
    rc, rss, timed_out = _reap(p, timeout)
    wall = time.perf_counter() - t0
    for t in pumps:
        t.join()
    return Proc(rc, chunks.get("out", b""), chunks.get("err", b""), wall, rss,
                timed_out)


def tool_json(ctx, args, timeout=120):
    """Run pb_tool; return its stdout as a list of JSON objects."""
    pr = run_proc([ctx.tool] + args, timeout)
    if pr.rc != 0:
        raise BenchError("pb_tool %s failed (%s): %s" % (
            args[0], pr.rc, pr.err.decode(errors="replace").strip()))
    return [json.loads(l) for l in pr.out.decode().splitlines() if l.strip()]


# --- build and metadata ----------------------------------------------------


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no GUOQ source tree next to perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 4)],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    tool = os.path.join(bdir, "pb_tool")
    cli = os.path.join(bdir, "guoq", "guoq_cli")
    if not (os.access(tool, os.X_OK) and os.access(cli, os.X_OK)):
        raise BenchError("build did not produce pb_tool and guoq_cli")
    return tool, cli


def machine_meta(ctx):
    meta = tool_json(ctx, ["machine"])[0]
    cache = {}
    with open(os.path.join(ctx.bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=")[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    meta["flags"] = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE",
                                                 "").upper(), "")]))
    meta["build_type"] = cache.get("CMAKE_BUILD_TYPE", "")
    meta["nproc"] = os.cpu_count()
    meta["loadavg_start"] = list(os.getloadavg())
    meta["git_describe"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            meta["git_describe"] = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return meta


# --- inputs and checks -----------------------------------------------------


def generate(ctx, specs, subdir):
    """Write the circuits for `specs` (name@set) under work/subdir."""
    out = os.path.join(ctx.work, subdir)
    os.makedirs(out, exist_ok=True)
    return tool_json(ctx, ["gen", out] + specs)


def primary_count(objective, which, check):
    return check[("t_" if objective == "t-count" else "twoq_") + which]


def check_outputs(ctx, rows):
    """Check (input, output, set, eps, error_bound, seed, qubits) rows
    with the verify layer: dense checks in four single-threaded pb_tool
    processes, then the sampling checks with four threads each.
    Identical outputs of one input are checked once. Returns one result
    per row and the verify layer's totals, timed by pb_tool's spans."""
    unique = {}
    for r in rows:
        unique.setdefault(output_key(r), r)
    dense = [k for k in unique if unique[k][6] <= 10]
    wide = [k for k in unique if unique[k][6] > 10]
    results, errors = {}, []

    def run_group(i, keys, nthreads):
        manifest = os.path.join(ctx.work, "check%d.tsv" % i)
        with open(manifest, "w") as f:
            for k in keys:
                f.write("\t".join(str(x) for x in unique[k][:6]) + "\n")
        try:
            res = tool_json(ctx, ["check", manifest, "--threads",
                                  str(nthreads), "--spans",
                                  manifest + ".spans"],
                            timeout=150)
        except BenchError as e:
            errors.append(str(e))
            return
        results.update(zip(keys, res))

    threads = [threading.Thread(target=run_group,
                                args=(i, dense[i::CHECK_THREADS], 1))
               for i in range(CHECK_THREADS) if dense[i::CHECK_THREADS]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if wide:
        run_group(CHECK_THREADS, wide, CHECK_THREADS)
    if errors:
        raise BenchError("; ".join(errors))
    ran = [v for v in results.values() if "span_s" in v]
    verify = {"calls": len(ran), "s": sum(v["span_s"] for v in ran)}
    for method in ("dense", "sampling"):
        verify[method + "_s"] = sum(v["span_s"] for v in ran
                                    if v["method"] == method)
    return [results[output_key(r)] for r in rows], verify


# --- guoq_cli single-file runs ---------------------------------------------


def parse_cli_stats(err):
    """The figures guoq_cli prints on stderr."""
    stats = {}
    for line in err.decode(errors="replace").splitlines():
        w = line.split()
        if "iterations total," in line:
            stats["iterations"] = int(w[1])
            stats["accepted"] = int(w[4])
            stats["resynth_accepted"] = int(w[6])
            stats["loop_s"] = float(w[9].rstrip("s"))
        elif line.startswith("guoq_cli: best cost"):
            stats["error_bound"] = float(w[-1])
        elif "pool queue peak" in line:
            stats["pool_queue_peak"] = int(w[-1])
    return stats


def cli_op(ctx, inp, out, gate_set, objective, seed, extra, timeout):
    argv = [ctx.cli, "--in", inp, "--out", out, "--gate-set", gate_set,
            "--objective", objective, "--threads", "1", "--seed", str(seed)]
    pr = run_proc(argv + extra, timeout)
    stats = parse_cli_stats(pr.err)
    ok = pr.rc == 0 and not pr.timed_out and "iterations" in stats
    return {"ok": ok, "wall": pr.wall, "rss_mb": pr.rss_mb,
            "timed_out": pr.timed_out, "stats": stats, "out": out}


class SetupTimer:
    """Times set-up SETUP_REPEATS times in one run: once up front, which
    makes the inputs, and the rest spread evenly over `gaps` points
    between the measured operations. On a shared 4-core VM a 20 ms
    set-up reads up to 1.5x slower in spells of a second or more;
    repetitions spread over the run sample many spells, where two blocks
    at its ends sampled two. `rep` does one set-up and returns (result,
    seconds)."""

    def __init__(self, rep, gaps):
        self.rep, self.gaps = rep, gaps
        self.left = SETUP_REPEATS - 1
        self.result, t = rep()
        self.times = [t]

    def gap(self):
        """Set-up repetitions for the next gap between operations."""
        n = -(-self.left // self.gaps)
        self.gaps -= 1
        self.left -= n
        for _ in range(n):
            self.times.append(self.rep()[1])


def panel_setup(ctx, specs, panel, extra):
    """Set-up as a user meets it: generate the inputs, then start
    guoq_cli with the workload's own flags on each circuit and bring
    its first operation to completion (parse + a one-iteration run at a
    fixed seed + emit). Returns the inputs and the time. Every
    repetition writes the same bytes over one set of input files:
    creating fresh files each time timed the file system's inode
    allocation, which doubled over a few hundred files on ext4, instead
    of generation."""
    t0 = time.perf_counter()
    gen = generate(ctx, specs, "in")
    for g, (_, gs, obj) in zip(gen, panel):
        pr = run_proc([ctx.cli, "--in", g["file"], "--out",
                       os.path.join(ctx.work, "warm.qasm"), "--gate-set",
                       gs, "--objective", obj, "--threads", "1",
                       "--seed", "1", "--iterations", "1", "--quiet"] +
                      extra, 60)
        if pr.rc != 0:
            raise BenchError("guoq_cli failed on a warm-up operation")
    return gen, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[why] = self.reasons.get(why, 0) + 1

    def frac(self):
        return self.failed / max(1, self.attempted)


def judge_op(op, check, epsilon):
    """Whether one optimize call succeeded, and why not."""
    if op["timed_out"]:
        return False, "hard time limit"
    if not op["ok"]:
        return False, "guoq_cli failed"
    if not check.get("ok"):
        return False, check.get("why") or "check failed"
    if op["stats"].get("error_bound", 0.0) > epsilon:
        return False, "error_bound above epsilon"
    return True, ""


def exact_passes(seconds):
    """Panel passes in an exact-panel run: fixed by --seconds, never by
    the clock, so two runs of one seed attempt the same calls."""
    return max(1, round(seconds / EXACT_PASS_S))


def run_exact(ctx):
    specs = [name.format(seed=ctx.seed) + "@" + gs
             for name, gs, _, _ in EXACT_PANEL]
    panel = [p[:3] for p in EXACT_PANEL]
    passes = exact_passes(ctx.seconds)
    setup = SetupTimer(lambda: panel_setup(ctx, specs, panel, []),
                       1 + passes * len(EXACT_PANEL))
    gen = setup.result
    ops = []
    setup.gap()
    for p in range(passes):
        for i, (name, gs, obj, cap) in enumerate(EXACT_PANEL):
            out = os.path.join(ctx.work, "out_%d_%d.qasm" % (i, p))
            op = cli_op(ctx, gen[i]["file"], out, gs, obj, ctx.seed,
                        ["--iterations", str(cap)], EXACT_OP_LIMIT_S)
            op["circuit"] = i
            ops.append(op)
            setup.gap()

    checks, _ = check_panel(ctx, ops, gen, EXACT_PANEL, 0.0)
    tally = Tally()
    fingerprints = {}
    for o, c in zip(ops, checks):
        ok, why = judge_op(o, c, 0.0)
        fp = None
        if o["ok"]:
            fp = "%s:%d:%d" % (fnv1a(read_bytes(o["out"])),
                               o["stats"]["iterations"],
                               o["stats"]["accepted"])
            first = fingerprints.setdefault(o["circuit"], fp)
            if fp != first:
                ok, why = False, "nondeterministic output"
        tally.add(ok, why)
        o["check"], o["pass_ok"] = c, ok

    good = [o for o in ops if o["pass_ok"]]
    per_circuit = {}
    for o in ops:
        if o["ok"]:
            per_circuit.setdefault(o["circuit"], []).append(
                o["stats"]["iterations"] / o["wall"])
    lat = latency_summary([1000 * o["wall"] for o in ops])
    detail = {
        "latency": lat,
        "passes": passes,
        "circuit_p50_ms": [statistics.median(1000 * o["wall"] for o in ops
                                             if o["circuit"] == i)
                           for i in range(len(EXACT_PANEL))],
        "fingerprints": [fingerprints.get(i) for i in range(len(EXACT_PANEL))],
        "iters_per_s": geomean([statistics.median(v)
                                for v in per_circuit.values()]),
        "failed_frac": tally.frac(),
        "failures": tally.reasons,
        "setup_reps_s": setup.times,
    }
    metrics = {
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
        "cost_ratio": cost_ratio(good, EXACT_PANEL),
        "latency_mean_ms": lat["mean_ms"],
    }
    return metrics, tally, detail


def check_panel(ctx, ops, gen, panel, epsilon):
    """Check the output of every call of a panel run; returns the
    per-call check results and the verify layer's totals."""
    rows = [(gen[o["circuit"]]["file"], o["out"], panel[o["circuit"]][1],
             epsilon, o["stats"].get("error_bound", 0.0), ctx.seed,
             gen[o["circuit"]]["qubits"]) for o in ops]
    return check_outputs(ctx, rows)


def cost_ratio(ops, panel):
    """Geometric mean over correct operations of the objective's primary
    count after / before (2q gates, or T gates for t-count)."""
    ratios = []
    for o in ops:
        obj = panel[o["circuit"]][2]
        before = primary_count(obj, "in", o["check"])
        after = primary_count(obj, "out", o["check"])
        if before > 0:
            ratios.append(max(after, 0.5) / before)
    if not ratios:
        raise BenchError("no correct operation to take cost_ratio over")
    return geomean(ratios)


def run_approx(ctx, synth_workers):
    specs = [name + "@" + gs for name, gs, _ in APPROX_PANEL]
    flags = ["--epsilon", repr(APPROX_EPSILON),
             "--synth-workers", str(synth_workers)]
    setup = SetupTimer(lambda: panel_setup(ctx, specs, APPROX_PANEL, flags),
                       1 + len(APPROX_PANEL))
    gen = setup.result
    budget = ctx.seconds / len(APPROX_PANEL)
    extra = flags + ["--time", repr(budget)]
    ops = []
    setup.gap()
    for i, (name, gs, obj) in enumerate(APPROX_PANEL):
        out = os.path.join(ctx.work, "out_%d.qasm" % i)
        op = cli_op(ctx, gen[i]["file"], out, gs, obj, ctx.seed, extra,
                    budget + APPROX_SLACK_S)
        op["circuit"] = i
        ops.append(op)
        setup.gap()
    checks, _ = check_panel(ctx, ops, gen, APPROX_PANEL, APPROX_EPSILON)
    tally = Tally()
    for o, c in zip(ops, checks):
        ok, why = judge_op(o, c, APPROX_EPSILON)
        tally.add(ok, why)
        o["check"], o["pass_ok"] = c, ok
    good = [o for o in ops if o["pass_ok"]]
    lat = latency_summary([1000 * o["wall"] for o in ops])
    detail = {
        "latency": lat,
        "budget_s": budget,
        "overrun_s": [o["wall"] - budget for o in ops],
        "iterations": [o["stats"].get("iterations") for o in ops],
        "resynth_accepted": [o["stats"].get("resynth_accepted") for o in ops],
        "pool_queue_peak": [o["stats"].get("pool_queue_peak") for o in ops],
        "failed_frac": tally.frac(),
        "failures": tally.reasons,
        "setup_reps_s": setup.times,
    }
    metrics = {
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": max(o["rss_mb"] for o in ops),
        "cost_ratio": cost_ratio(good, APPROX_PANEL),
        "latency_mean_ms": lat["mean_ms"],
    }
    return metrics, tally, detail


# --- serve-verify ----------------------------------------------------------


class Server:
    """guoq_cli --serve with a reader thread timestamping each row."""

    def __init__(self, ctx):
        self.p = subprocess.Popen(serve_argv(ctx, SERVE_JOBS),
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
        _track(self.p, True)
        self.rows = {}
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read)
        self.reader.start()
        self.rss_mb = None

    def _read(self):
        for line in self.p.stdout:
            now = time.perf_counter()
            try:
                row = json.loads(line)
            except ValueError:
                continue
            with self.cond:
                self.rows[row.get("id")] = (now, row)
                self.cond.notify_all()

    def send(self, rid, seed, payload):
        self.p.stdin.write(frame(rid, seed, payload))
        self.p.stdin.flush()

    def wait_rows(self, ids, until):
        with self.cond:
            while not all(i in self.rows for i in ids):
                left = until - time.perf_counter()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True

    def close(self, timeout=30):
        try:
            self.p.stdin.close()
        except BrokenPipeError:
            pass
        _, self.rss_mb, timed_out = _reap(self.p, timeout)
        self.reader.join()
        return not timed_out


def frame(rid, seed, payload):
    """One guoq-serve-v1 request frame."""
    return b"request %s seed=%d\npayload %d\n" % (
        rid.encode(), seed, len(payload)) + payload + b"end\n"


def serve_argv(ctx, jobs):
    return [ctx.cli, "--serve", "--jobs", str(jobs), "--threads", "1",
            "--verify", "--gate-set", "nam", "--iterations",
            str(SERVE_ITERATIONS), "--quiet"]


def serve_pool(ctx):
    names = [l for l in run_proc([ctx.tool, "suite", "nam",
                                  str(SERVE_MAX_QUBITS)], 60)
             .out.decode().split()]
    return ["suite/%s@nam" % n for n in names]


def serve_setup(ctx):
    """Set-up as a serve user meets it: generate the request pool into
    work/pool, start the server and bring a first request to
    completion; the server is then stopped, untimed. Every repetition
    writes the same bytes over the pool's files (see panel_setup).
    Returns (pool, payloads) and the time."""
    t0 = time.perf_counter()
    gen = generate(ctx, serve_pool(ctx), "pool")
    payloads = [read_bytes(g["file"]) for g in gen]
    server = Server(ctx)
    server.send("warmup", 1, payloads[0])
    ok = server.wait_rows(["warmup"], time.perf_counter() + 60)
    t = time.perf_counter() - t0
    server.close(30 if ok else 5)
    if not ok:
        raise BenchError("serve warm-up request got no row")
    return (gen, payloads), t


def serve_schedule(ctx, n_pool):
    """Seeded open-loop arrivals, Poisson at each rung's rate. The
    reference rung sends seeded permutations of the whole pool, so
    every run measures latency over the same mix; the other rungs last
    their share of --seconds and keep drawing from fresh permutations.
    Each request also draws its own optimizer seed."""
    rng = random.Random(ctx.seed * 1000003 + 7)
    order = []
    rungs = []
    for r, (rate, share) in enumerate(SERVE_LADDER):
        t, reqs = 0.0, []
        while True:
            t += rng.expovariate(rate)
            if (len(reqs) == SERVE_REFERENCE_PASSES * n_pool if r == 0
                    else t >= share * ctx.seconds):
                break
            if not order:
                order = list(range(n_pool))
                rng.shuffle(order)
            reqs.append({"id": "r%d_%d" % (r, len(reqs)), "due": t,
                         "circuit": order.pop(),
                         "seed": rng.randrange(1, 1 << 31)})
        rungs.append((rate, reqs))
    return rungs


def run_rung(server, payloads, reqs):
    """Send one rung open loop and wait for its rows (up to the hard
    limit); returns how late the generator ran, in seconds."""
    start = time.perf_counter()
    late = 0.0
    for q in reqs:
        due = start + q["due"]
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        now = time.perf_counter()
        late = max(late, now - due)
        q["due_abs"] = due
        server.send(q["id"], q["seed"], payloads[q["circuit"]])
    last_due = start + (reqs[-1]["due"] if reqs else 0)
    server.wait_rows([q["id"] for q in reqs],
                     last_due + SERVE_REQUEST_LIMIT_S)
    return late


def run_serve(ctx):
    setup = SetupTimer(lambda: serve_setup(ctx), 1 + len(SERVE_LADDER))
    gen, payloads = setup.result
    rungs = serve_schedule(ctx, len(payloads))
    late_max = 0.0
    setup.gap()
    server = Server(ctx)
    try:
        # Warm-up, not measured: the whole pool once, as a burst, so
        # the first rung does not pay for an idle machine.
        warm = ["warm%d" % i for i in range(len(payloads))]
        for rid, payload in zip(warm, payloads):
            server.send(rid, 1, payload)
        server.wait_rows(warm, time.perf_counter() + SERVE_REQUEST_LIMIT_S)
        for r, (_, reqs) in enumerate(rungs):
            if r:
                setup.gap()
            late_max = max(late_max, run_rung(server, payloads, reqs))
    finally:
        server.close()
    setup.gap()

    tally = Tally()
    rows, results = [], []
    rung_stats = []
    for r, (rate, reqs) in enumerate(rungs):
        lats, last_done = [], 0.0
        for q in reqs:
            got = server.rows.get(q["id"])
            # A request past the hard limit counts at the limit.
            lat = 1000 * SERVE_REQUEST_LIMIT_S
            if got and got[0] - q["due_abs"] <= SERVE_REQUEST_LIMIT_S:
                lat = 1000 * (got[0] - q["due_abs"])
                last_done = max(last_done, got[0])
            q["latency_ms"] = lat
            q["row"] = got[1] if got else None
            lats.append(lat)
            results.append(q)
        stats = latency_summary(lats)
        stats.update(rate=rate, drain_ms=1000 * (last_done -
                                                  reqs[-1]["due_abs"]))
        rung_stats.append(stats)

    work = os.path.join(ctx.work, "serve_out")
    os.makedirs(work, exist_ok=True)
    checked = []
    for q in results:
        row = q["row"]
        if row is None or q["latency_ms"] >= 1000 * SERVE_REQUEST_LIMIT_S:
            tally.add(False, "hard time limit")
            continue
        if row.get("status") != "ok":
            tally.add(False, "row status " + str(row.get("status")))
            continue
        out = os.path.join(work, q["id"] + ".qasm")
        with open(out, "w") as f:
            f.write(row["qasm"])
        checked.append(q)
        rows.append((gen[q["circuit"]]["file"], out, "nam", 0,
                     row.get("error_bound", 0.0), q["seed"],
                     gen[q["circuit"]]["qubits"]))
    checks, verify_layer = check_outputs(ctx, rows)
    ratios = []
    for q, c in zip(checked, checks):
        ok = bool(c.get("ok"))
        tally.add(ok, "" if ok else (c.get("why") or "check failed"))
        if ok and q["row"]["twoq_before"] > 0:
            ratios.append(max(q["row"]["twoq_after"], 0.5) /
                          q["row"]["twoq_before"])
    if not ratios:
        raise BenchError("no correct request to take cost_ratio over")

    passing = [s["rate"] for s in rung_stats
               if s["tail_ms"] is not None and s["tail_ms"] <= SERVE_LIMIT_MS
               and s["drain_ms"] <= SERVE_LIMIT_MS]
    ref = rung_stats[0]
    detail = {
        "rungs": rung_stats,
        "tail_ms": ref["tail_ms"],
        "max_rate_req_per_s": max(passing) if passing else 0.0,
        "gen_late_ms_max": 1000 * late_max,
        "failed_frac": tally.frac(),
        "failures": tally.reasons,
        "setup_reps_s": setup.times,
    }
    metrics = {
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": server.rss_mb,
        "cost_ratio": geomean(ratios),
        "latency_mean_ms": ref["mean_ms"],
    }
    ctx.serve = {"gen": gen, "results": results, "verify": verify_layer,
                 "row_times": [t for t, _ in server.rows.values()]}
    return metrics, tally, detail


WORKLOADS = {
    "exact-panel": run_exact,
    "approx-anytime": lambda ctx: run_approx(ctx, 0),
    "approx-async": lambda ctx: run_approx(ctx, 2),
    "serve-verify": run_serve,
}


# --- main ------------------------------------------------------------------


class Ctx:
    pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ctx = Ctx()
    ctx.seed, ctx.seconds = args.seed, args.seconds
    ctx.correct = True
    ctx.bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"))
    try:
        ctx.tool, ctx.cli = build(ctx.bdir)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    os.makedirs(os.path.join(ctx.bdir, "work"), exist_ok=True)
    ctx.work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                                dir=os.path.join(ctx.bdir, "work"))
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop_children_and_exit("signal"))
    watchdog = threading.Timer(RUN_LIMIT_S, stop_children_and_exit,
                               args=("run exceeded %d s" % RUN_LIMIT_S,))
    watchdog.daemon = True
    watchdog.start()
    try:
        meta = machine_meta(ctx)
        if args.trace:
            from traced import run_traced
            metrics, tally, detail = run_traced(ctx, args.workload)
        else:
            metrics, tally, detail = WORKLOADS[args.workload](ctx)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        watchdog.cancel()
        subprocess.run(["rm", "-rf", ctx.work])
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    print(json.dumps({"meta": dict(meta, workload=args.workload,
                                   seed=args.seed, seconds=args.seconds,
                                   trace=args.trace), "detail": detail}))
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
