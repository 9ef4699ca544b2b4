"""Tests of the benchmark's own logic.

    python3 perfbench/tests/test_perfbench.py

The correctness-check test builds pb_tool and guoq_cli like run.py
does (into .bench_build, or $CARGO_TARGET_DIR).
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run as rb  # noqa: E402
import traced  # noqa: E402


class ServeReplayMatchTest(unittest.TestCase):
    """The serial serve replay is compared with guoq_cli's rows."""

    QASM = "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"

    def replay(self, status, qasm=QASM):
        return {"id": "r0_0", "status": status,
                "qasm_hash": rb.fnv1a(qasm.encode())}

    def test_ok_rows_compare_output(self):
        row = {"id": "r0_0", "status": "ok", "qasm": self.QASM}
        self.assertTrue(traced.replay_matches(row, self.replay("ok")))
        self.assertFalse(traced.replay_matches(
            row, self.replay("ok", self.QASM + "h q[0];\n")))

    def test_verify_failed_row_has_no_qasm(self):
        # A verify_failed row carries no output; the known inequivalence
        # must not make the replay look different.
        row = {"id": "r0_0", "status": "verify_failed", "code": 2}
        self.assertTrue(traced.replay_matches(
            row, self.replay("verify_failed")))

    def test_status_or_row_differs(self):
        row = {"id": "r0_0", "status": "ok", "qasm": self.QASM}
        self.assertFalse(traced.replay_matches(
            row, self.replay("verify_failed")))
        self.assertFalse(traced.replay_matches(None, self.replay("ok")))


class RunSizeTest(unittest.TestCase):
    """A seed and --seconds fix the operations a run attempts, so two
    runs of one seed count the same failures."""

    def test_exact_passes_follow_seconds(self):
        self.assertEqual(rb.exact_passes(0.1), 1)
        self.assertEqual(rb.exact_passes(15), 6)
        self.assertEqual(rb.exact_passes(60), 24)

    def test_setup_repetitions_spread_over_gaps(self):
        for gaps in (1, 4, 25, 80):
            calls = []
            timer = rb.SetupTimer(lambda: (len(calls), calls.append(1)
                                           or 0.01), gaps)
            self.assertEqual(timer.result, 0)
            per_gap = []
            for _ in range(gaps):
                before = len(timer.times)
                timer.gap()
                per_gap.append(len(timer.times) - before)
            self.assertEqual(len(timer.times), rb.SETUP_REPEATS, gaps)
            self.assertLessEqual(max(per_gap) - min(per_gap), 1, gaps)

    def test_serve_schedule_is_seeded(self):
        def schedule(seed):
            ctx = rb.Ctx()
            ctx.seed, ctx.seconds = seed, 15.0
            return [[(q["due"], q["circuit"], q["seed"]) for q in reqs]
                    for _, reqs in rb.serve_schedule(ctx, 37)]
        self.assertEqual(schedule(3), schedule(3))
        self.assertNotEqual(schedule(3), schedule(4))
        self.assertEqual(len(schedule(3)[0]), 37 * rb.SERVE_REFERENCE_PASSES)


class TailPercentileTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(rb.tail_percentile([]))
        self.assertIsNone(rb.tail_percentile(list(range(10))))

    def test_exactly_ten_samples_beyond(self):
        for n in (11, 12, 20, 57, 100, 1000):
            xs = [float(i) for i in range(n)]
            pct, value = rb.tail_percentile(reversed(xs))
            self.assertEqual(sum(1 for x in xs if x > value), 10, n)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_percentiles(self):
        self.assertEqual(rb.tail_percentile(range(100))[0], 90.0)
        self.assertEqual(rb.tail_percentile(range(1000))[0], 99.0)
        self.assertEqual(rb.tail_percentile(range(20)), (50.0, 9))

    def test_slowest_samples_stay_beyond(self):
        xs = [1.0] * 30 + [float("inf")] * 10
        self.assertEqual(rb.tail_percentile(xs)[1], 1.0)
        xs.append(float("inf"))
        self.assertEqual(rb.tail_percentile(xs)[1], float("inf"))


class Ctx:
    pass


class CorruptedOutputTest(unittest.TestCase):
    """A deliberately corrupted output must be counted as failed."""

    @classmethod
    def setUpClass(cls):
        ctx = Ctx()
        ctx.bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                   os.path.join(rb.ROOT, ".bench_build"))
        ctx.tool, ctx.cli = rb.build(ctx.bdir)
        os.makedirs(os.path.join(ctx.bdir, "work"), exist_ok=True)
        ctx.work = tempfile.mkdtemp(prefix="test-", dir=os.path.join(
            ctx.bdir, "work"))
        ctx.seed = 3
        cls.ctx = ctx
        cls.gen = rb.generate(ctx, ["barenco_tof_3@nam"], "in")[0]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.ctx.work, ignore_errors=True)

    def optimize(self, name):
        out = os.path.join(self.ctx.work, name)
        op = rb.cli_op(self.ctx, self.gen["file"], out, "nam", "2q-count", 3,
                       ["--iterations", "2000"], 60)
        self.assertTrue(op["ok"])
        return op

    def judge(self, op):
        row = (self.gen["file"], op["out"], "nam", 0, 0, 3,
               self.gen["qubits"])
        checks, _ = rb.check_outputs(self.ctx, [row])
        tally = rb.Tally()
        ok, why = rb.judge_op(op, checks[0], 0.0)
        tally.add(ok, why)
        return tally, why

    def test_correct_output_passes(self):
        tally, _ = self.judge(self.optimize("good.qasm"))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_dropped_gate_fails(self):
        op = self.optimize("dropped.qasm")
        with open(op["out"]) as f:
            lines = f.read().splitlines(True)
        cx = [i for i, l in enumerate(lines) if l.startswith("cx ")]
        del lines[cx[len(cx) // 2]]
        with open(op["out"], "w") as f:
            f.writelines(lines)
        tally, why = self.judge(op)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertEqual(why, "inequivalent")
        self.assertEqual(tally.frac(), 1.0)

    def test_foreign_gate_fails(self):
        op = self.optimize("foreign.qasm")
        with open(op["out"], "a") as f:
            f.write("swap q[0],q[1];\nswap q[0],q[1];\n")
        tally, why = self.judge(op)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(why, "not native")

    def test_error_bound_above_epsilon_fails(self):
        op = self.optimize("bound.qasm")
        op["stats"]["error_bound"] = 1e-3
        tally, why = self.judge(op)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(why, "error_bound above epsilon")

    def test_missing_output_fails(self):
        op = self.optimize("missing.qasm")
        os.remove(op["out"])
        tally, why = self.judge(op)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(why, "no output")

    def test_hard_limit_stops_and_fails(self):
        pr = rb.run_proc(["sleep", "30"], 0.3)
        self.assertTrue(pr.timed_out)
        self.assertLess(pr.wall, 5)
        op = {"ok": pr.rc == 0, "timed_out": pr.timed_out, "stats": {}}
        self.assertEqual(rb.judge_op(op, {"ok": True}, 0.0),
                         (False, "hard time limit"))


if __name__ == "__main__":
    unittest.main()
