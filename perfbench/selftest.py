"""Tests of the benchmark itself (not of oscquad).

    python3 perfbench/selftest.py

They check that inputs follow the seed, that tracing leaves the program as it
found it and changes no value, that the correctness check flags failures, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the fixed environment before NumPy loads)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

import oscquad as oq  # noqa: E402
import oscquad.benchcli  # noqa: E402,F401


def _bindings() -> dict:
    """Every attribute of every oscquad module and of its traced classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "oscquad" or name.startswith("oscquad."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for _, (modname, names) in tracing.TARGETS.items():
        for entry in names:
            if "." in entry:
                cls = getattr(sys.modules[modname], entry.split(".")[0])
                for attr, value in vars(cls).items():
                    out[(modname, entry.split(".")[0], attr)] = value
    return out


def _first_ops(desc, k):
    return [desc.ops[i] for i in desc.order[:k]]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in wl.WORKLOADS:
            self.assertEqual(wl.describe(name, 7), wl.describe(name, 7))

    def test_other_seed_other_inputs(self):
        for name in wl.WORKLOADS:
            a, b = wl.describe(name, 7), wl.describe(name, 8)
            self.assertNotEqual(a.problems, b.problems)
            self.assertNotEqual(a.order, b.order)

    def test_no_input_repeats_across_passes(self):
        for name in wl.WORKLOADS:
            seen = set()
            for k in range(4):
                problems = set(wl.describe(name, 7, k).problems)
                self.assertFalse(problems & seen, name)
                seen |= problems

    def test_same_mix_for_every_seed_and_pass(self):
        def mix(desc):
            return sorted((type(op).__name__, getattr(op, "method", None) or op.command) for op in desc.ops)

        for name in wl.WORKLOADS:
            self.assertEqual(mix(wl.describe(name, 1)), mix(wl.describe(name, 2)))
            self.assertEqual(mix(wl.describe(name, 1)), mix(wl.describe(name, 1, 5)))


class TraceTest(unittest.TestCase):
    def _outcomes(self, name, k, trace):
        desc = wl.describe(name, 3)
        specs = wl.materialize(oq, desc)
        tracer = tracing.Tracer() if trace else None
        out = []
        for i, op in enumerate(_first_ops(desc, k)):
            if tracer:
                tracer.install()
                tracer.begin(i)
            try:
                out.append(wl.comparable(run._run_guarded(oq, specs, op)))
            finally:
                if tracer:
                    tracer.end()
                    tracer.restore()
        return out, tracer

    def test_wrappers_are_restored(self):
        before = _bindings()
        _, tracer = self._outcomes("points-hermite", 2, trace=True)
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        self.assertGreater(len(tracer.spans), 0)

    def test_install_reaches_every_binding(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            import oscquad.filon as filon
            import oscquad.levin as levin

            self.assertIs(filon.ps_mul, sys.modules["oscquad._series"].ps_mul)
            self.assertIs(levin.radau_grid, sys.modules["oscquad.cheb"].radau_grid)
            self.assertIs(oq.compute, sys.modules["oscquad.quadrature"].compute)
            self.assertTrue(hasattr(filon.ps_mul, "__wrapped__"))
            self.assertTrue(hasattr(oq.Amplitude.series_at, "__wrapped__"))
        finally:
            tracer.restore()
        self.assertFalse(hasattr(oq.compute, "__wrapped__"))

    def test_traced_values_equal_untraced(self):
        for name, k in (("points-physical", 6), ("points-hermite", 4), ("sweep-cli", 2)):
            plain, _ = self._outcomes(name, k, trace=False)
            traced, tracer = self._outcomes(name, k, trace=True)
            self.assertEqual(plain, traced, name)

    def test_self_time_never_exceeds_duration(self):
        _, tracer = self._outcomes("points-physical", 3, trace=True)
        for _, _, _, _, t0, t1, self_ns in tracer.spans:
            self.assertGreaterEqual(self_ns, 0)
            self.assertLessEqual(self_ns, t1 - t0)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.desc = wl.describe("points-physical", 1)
        self.op = self.desc.ops[0]
        self.refs = {p: 1.0 + 1.0j for p in self.desc.problems}

    def test_exception_fails(self):
        c = wl.check(self.desc, self.refs, self.op, ZeroDivisionError("x"))
        self.assertTrue(c.failed.startswith("raised"))
        self.assertFalse(c.wrong)

    def test_nan_value_fails(self):
        c = wl.check(self.desc, self.refs, self.op, complex("nan+1j"))
        self.assertEqual(c.failed, "non-finite value")

    def test_wrong_value_is_flagged(self):
        c = wl.check(self.desc, self.refs, self.op, -1.0 - 1.0j)
        self.assertIsNotNone(c.failed)
        self.assertTrue(c.wrong)

    def test_good_value_passes(self):
        c = wl.check(self.desc, self.refs, self.op, 1.0 + 1.0j)
        self.assertIsNone(c.failed)
        self.assertEqual(c.digits, [wl.DIGITS_CAP])

    def test_value_without_reference_is_checked_for_finiteness(self):
        self.assertIsNone(wl.check(self.desc, {}, self.op, -1.0 - 1.0j).failed)
        self.assertEqual(wl.check(self.desc, {}, self.op, complex("nan")).failed, "non-finite value")

    def test_converged_cell_has_a_tight_tolerance(self):
        # LEVIN_FREQ at n=14, s=2 and a phase of 5e3 keeps many digits.
        self.assertLess(wl.tolerance("levin-freq", 14, 2, 5e3), 1e-5)

    def _cli(self, abs_err: str, value_re: str = "0.5", code: int = 0):
        op = wl.CliOp("sweep-w", (), "ex51", 0.5, (100.0,))
        refs = {wl.cli_problem(op, 100.0): 0.5 + 0.25j}
        text = (oq.benchcli.CSV_HEADER + "\n"
                f"ex51,levin-physical,algebraic,0.5,0,8,100.0,{value_re},0.25,{abs_err},0,0,1\n")
        return wl.check(None, refs, op, (code, text))

    def test_nan_row_fails(self):
        c = self._cli("nan")
        self.assertEqual(c.failed, "non-finite abs_err")
        self.assertFalse(c.wrong)

    def test_clean_row_passes(self):
        c = self._cli("0.0")
        self.assertIsNone(c.failed)
        self.assertEqual(c.rows, 1)

    def test_nonzero_exit_fails(self):
        self.assertEqual(self._cli("0.0", code=2).failed, "exit code 2")

    def test_wrong_row_is_flagged(self):
        self.assertTrue(self._cli("0.0", value_re="-0.5").wrong)


class LoopTest(unittest.TestCase):
    def test_traced_loop_covers_a_whole_pass(self):
        first = wl.describe("points-physical", 4)
        outcomes, plain, traced, mismatches = run.timed_loop(
            oq, first, wl.materialize(oq, first), run.calib.Calibrator(), len(first.ops), tracing.Tracer())
        self.assertEqual(sorted(traced.ops), list(range(len(first.ops))))
        self.assertEqual(len(plain.ops), len(first.ops))
        self.assertEqual(mismatches, 0)

    def test_loop_runs_the_pool_once_across_passes(self):
        first = wl.describe("points-physical", 4)
        pool = len(first.ops) + 7
        outcomes, plain, _, _ = run.timed_loop(
            oq, first, wl.materialize(oq, first), run.calib.Calibrator(), pool)
        self.assertEqual(len(plain.ops), pool)
        self.assertEqual(list(plain.ops[len(first.ops):]), list(wl.describe("points-physical", 4, 2).order[:7]))
        outcomes.finish({})
        self.assertEqual((outcomes.attempted, outcomes.failed), (pool, 0))

    def test_pool_is_fixed_by_workload_and_seconds(self):
        for name in wl.WORKLOADS:
            pass_len = len(wl.describe(name, 1).ops)
            self.assertEqual(run.pool_size(name, 25, True) % pass_len, 0)
            self.assertEqual(run.pool_size(name, 25, False) % pass_len, 0)
            self.assertEqual(run.pool_size(name, 0.1, False), pass_len)
        self.assertGreater(run.pool_size("points-physical", 25, False), run.pool_size("points-physical", 10, False))

    def test_checked_sample_is_fixed_by_seed(self):
        first = wl.describe("points-hermite", 4)
        pool = 3 * len(first.ops)

        def kept(desc_seed):
            outcomes = run.Outcomes(wl.describe("points-hermite", desc_seed), pool)
            for k in range(pool):
                desc = wl.describe("points-hermite", desc_seed, 1 + k // len(first.ops))
                outcomes.add(k, desc, desc.order[k % len(first.ops)], 1.0 + 0j)
            return outcomes.problems()

        chosen = kept(4)
        self.assertEqual(len(chosen), len(first.ops) + run.CHECK_LATER["points-hermite"])
        self.assertEqual(chosen, kept(4))
        self.assertNotEqual(chosen, kept(5))

    def test_sweep_checks_a_sample_of_the_first_pass(self):
        first = wl.describe("sweep-cli", 4)
        chosen = run.Outcomes(first, 2 * len(first.ops))._sampled
        self.assertEqual(len([k for k in chosen if k < len(first.ops)]), run.CHECK_FIRST["sweep-cli"])
        self.assertEqual(len([k for k in chosen if k >= len(first.ops)]), run.CHECK_LATER["sweep-cli"])
        self.assertEqual(chosen, run.Outcomes(first, 2 * len(first.ops))._sampled)


class MissingProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_src(self):
        workdir = HERE / "out" / "selftest-missing-src"
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "perfbench").mkdir(parents=True)
        try:
            for path in HERE.glob("*.py"):
                shutil.copy(path, workdir / "perfbench" / path.name)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=workdir, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
