"""Run one oscquad benchmark workload and print its metrics.

From the root of a checkout of the repository:

    python3 perfbench/run.py --workload points-physical --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  One run:

1. sets up ``SETUP_REPS`` times (fresh import of oscquad, a warm-up pass on
   inputs of their own, the inputs of the first timed pass) and reports the
   median as ``setup_s``;
2. with ``--trace 0``, runs the run's pool of operations once in a closed
   loop (one client, the next operation starts when the previous returns)
   and reports the end-to-end metrics.  The pool is a fixed amount of work:
   ``pool_size`` operations, a number set by the workload and ``--seconds``
   (what a reference machine does in that time), never by the speed of the
   machine at hand.  It is the first operations of passes 1, 2, ..., each
   pass drawing fresh inputs from the seed, so no input repeats in a run.
   With ``--trace 1`` it runs every operation twice in a row, traced and
   then untraced, and reports the per-layer metrics, writing the spans to
   ``perfbench/out/``;
3. computes an independent reference (not timed) for every problem instance
   of ``CHECK_FIRST`` operations drawn from the first timed pass and
   ``CHECK_LATER`` drawn from the rest of the pool.

Every operation is checked for failures, and its value against a reference
if it has one, so ``attempted`` and ``failed`` depend on the seed and
``--seconds`` only.  Human-readable lines start with ``#``; the last line of
standard output is one JSON object.  The exit code is 0 when the run
completed, whatever the check found, and 2 when the program cannot be found
or imported.
"""

from __future__ import annotations

import os
import sys

# Fixed environment, set before NumPy is first imported: one BLAS thread
# (the workloads are single-threaded closed loops) and no sweep workers.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("OSCQUAD_JOBS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402,F401  (imported by oscquad; loaded before set-up is timed)

import calib  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
WARMUP_PASS = 0  # the timed passes are numbered from 1
# Operations whose values are checked against a reference, drawn from the
# stream default_rng([seed, workload, CHECK_STREAM]): CHECK_FIRST of the first
# pass (None: all of it) and CHECK_LATER of the rest of the pool.  A
# reference costs about 0.1 s and a sweep-cli operation needs 2.5 of them.
CHECK_FIRST = {"points-physical": None, "points-hermite": None, "sweep-cli": 48}
CHECK_LATER = {"points-physical": 32, "points-hermite": 32, "sweep-cli": 16}
CHECK_STREAM = 1_000_000
# Untraced operations per second of each workload on the 2-core x86_64
# machine the benchmark was written on, when its calibration kernel takes
# about 1.5 ms.  That machine's kernel time moved between 0.85 and 1.75 ms,
# so a pool of --seconds at these rates, rounded to whole passes, took it
# 0.7-1.15 times --seconds on the point workloads and 0.85-1.65 times on
# sweep-cli (two passes for 25 s).  A traced run costs TRACE_COST untraced
# ones per operation.
NOMINAL_OPS_PER_S = {"points-physical": 205.0, "points-hermite": 56.0, "sweep-cli": 5.8}
TRACE_COST = 2.5


def pool_size(workload: str, seconds: float, trace: bool) -> int:
    """Number of operations in a run: a whole number of passes, at least one,
    so that every place of the design has the same number of samples."""
    pass_len = len(wl.describe(workload, 0, WARMUP_PASS).ops)
    n = seconds * NOMINAL_OPS_PER_S[workload] / (TRACE_COST if trace else 1.0)
    return pass_len * max(1, round(n / pass_len))


class Timings:
    """Design index, start and wall time of every timed operation, in compact
    arrays so that the benchmark's own memory hardly grows with the run."""

    def __init__(self):
        self.ops = array("l")
        self.starts = array("d")
        self.walls = array("d")

    def add(self, idx: int, start: float, wall: float) -> None:
        self.ops.append(idx)
        self.starts.append(start)
        self.walls.append(wall)

    def summary(self, cal: calib.Calibrator) -> dict:
        """Raw and calibrated wall times with their weights.

        Each sample is weighted by one over the number of samples at its
        place in the design (its index in ``ops``).  A pool holds whole
        passes, so the weights are all equal.
        """
        ops = np.array(self.ops)
        walls = np.array(self.walls)
        scaled = walls * cal.scale(np.array(self.starts) + 0.5 * walls)
        return {"walls": walls, "scaled": scaled, "weights": 1.0 / np.bincount(ops)[ops]}


class Outcomes:
    """Checks the outcome of every operation of the pool.

    An operation is known by its position in the pool.  The outcomes to be
    checked against a reference are kept: ``CHECK_FIRST`` of the first pass
    and ``CHECK_LATER`` of the rest of the pool.  The others are checked
    for failures at once and dropped, so memory does not grow with the pool.
    """

    def __init__(self, first, pool: int):
        pass_len = len(first.ops)
        rng = np.random.default_rng([first.seed, wl.WORKLOADS.index(first.workload), CHECK_STREAM])
        k = min(CHECK_FIRST[first.workload] or pass_len, pass_len)
        self._sampled = {int(i) for i in rng.choice(pass_len, size=k, replace=False)}
        later = pool - pass_len
        k = min(CHECK_LATER[first.workload], later)
        self._sampled |= {pass_len + int(i) for i in rng.choice(later, size=k, replace=False)}
        self._kept = []
        self.attempted = self.failed = self.rows = 0
        self.wrong = False
        self.reasons = {}
        self.digits = []

    def add(self, position: int, desc, idx: int, outcome) -> None:
        item = (desc, idx, outcome)
        if position in self._sampled:
            self._kept.append(item)
        else:
            self._check(item, {})

    def problems(self) -> list:
        """Problem instances of the kept outcomes, which need references."""
        return [p for desc, idx, _ in self._kept for p in wl.op_problems(desc, desc.ops[idx])]

    def finish(self, refs: dict) -> None:
        """Check the kept outcomes against ``refs``."""
        for item in self._kept:
            self._check(item, refs)
        self._kept = []

    def _check(self, item, refs: dict) -> None:
        desc, idx, outcome = item
        c = wl.check(desc, refs, desc.ops[idx], outcome)
        self.attempted += 1
        self.rows += c.rows
        self.wrong = self.wrong or c.wrong
        self.digits.extend(c.digits)
        if c.failed:
            self.failed += 1
            self.reasons[c.failed] = self.reasons.get(c.failed, 0) + 1


class SetupError(Exception):
    """The program under test cannot be found or imported."""


def _fresh_import():
    """Import oscquad from this checkout, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "oscquad" or m.startswith("oscquad.")]:
        del sys.modules[name]
    oq = importlib.import_module("oscquad")
    importlib.import_module("oscquad.benchcli")
    if Path(oq.__file__).resolve().parent != SRC / "oscquad":
        raise SetupError(f"imported oscquad from {oq.__file__}, not from {SRC}")
    return oq


def _run_guarded(oq, specs, op):
    try:
        return wl.run_op(oq, specs, op)
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


def setup(workload: str, seed: int, cal: calib.Calibrator):
    """Set up SETUP_REPS times; returns the last set-up (oscquad, the first
    timed pass and its specs) and the calibrated times."""
    times = []
    for _ in range(SETUP_REPS):
        cal.sample()
        t0 = time.perf_counter()
        oq = _fresh_import()
        warm = wl.describe(workload, seed, WARMUP_PASS)
        warm_specs = wl.materialize(oq, warm)
        for op in wl.warmup_ops(warm):
            _run_guarded(oq, warm_specs, op)
        first = wl.describe(workload, seed, 1)
        specs = wl.materialize(oq, first)
        t1 = time.perf_counter()
        cal.sample()
        times.append((t1 - t0) * float(np.mean(cal.scale([t0, t1]))))
    return oq, first, specs, times


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def timed_loop(oq, first, specs, cal: calib.Calibrator, pool: int, tracer=None):
    """Closed loop over the ``pool`` operations.

    Position k of the pool is operation ``k % L`` (L operations per pass) in
    the ``order`` of pass ``1 + k // L``.  Returns the ``Outcomes`` and
    ``Timings`` of the untraced operations, and with a tracer the
    ``Timings`` of the traced copies and the number of operations whose
    traced and untraced outcomes differ.  The inputs of a pass are generated
    and built between two operations, outside their timing.  With a tracer,
    each operation runs traced and then untraced.
    """
    outcomes, plain, traced, mismatches = Outcomes(first, pool), Timings(), Timings(), 0
    pass_len = len(first.ops)
    desc = first
    cal.sample()
    for k in range(pool):
        if 1 + k // pass_len != desc.pass_index:
            desc = wl.describe(first.workload, first.seed, 1 + k // pass_len)
            specs = wl.materialize(oq, desc)
        idx = desc.order[k % pass_len]
        op = desc.ops[idx]
        if tracer is not None:
            tracer.install()
            tracer.begin(len(traced.ops))
            t0 = time.perf_counter()
            traced_outcome = _run_guarded(oq, specs, op)
            t1 = time.perf_counter()
            tracer.end()
            tracer.restore()
            traced.add(idx, t0, t1 - t0)
        t0 = time.perf_counter()
        outcome = _run_guarded(oq, specs, op)
        t1 = time.perf_counter()
        plain.add(idx, t0, t1 - t0)
        if tracer is not None:
            mismatches += wl.comparable(traced_outcome) != wl.comparable(outcome)
        outcomes.add(k, desc, idx, outcome)
        cal.maybe_sample(time.perf_counter())
    cal.sample()
    return outcomes, plain, traced, mismatches


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile ``q`` (0..1) of ``values`` where each carries ``weights``."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    cum = np.cumsum(np.asarray(weights, dtype=float)[order])
    cum /= cum[-1]
    return float(v[min(np.searchsorted(cum, q), v.size - 1)])


def end_to_end(times: dict, outcomes: Outcomes, setup_times, peak_rss_mb: float) -> dict:
    scaled, weights, digits = times["scaled"], times["weights"], outcomes.digits
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p50": (weighted_quantile(scaled, weights, 0.50) * 1e3, "ms"),
        "latency_ms_p95": (weighted_quantile(scaled, weights, 0.95) * 1e3, "ms"),
        # One pass over the design: operations over the time they take.
        "ops_per_s": (float(np.sum(weights) / np.sum(weights * scaled)), "1/s"),
        "ok_frac": (1.0 - outcomes.failed / outcomes.attempted, "frac"),
        "digits_p50": (float(np.median(digits)) if digits else 0.0, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _print(line: str) -> None:
    print(f"# {line}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oscquad" / "__init__.py").is_file():
        print(f"error: no oscquad package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cal = calib.Calibrator()
    env = _environment()
    try:
        oq, first, specs, setup_times = setup(args.workload, args.seed, cal)
    except (ImportError, SetupError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    _print(f"oscquad benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _print("env: " + json.dumps(env, sort_keys=True))
    _print(f"pass: {len(first.ops)} operations on {len(first.problems)} problem instances")

    tracer = tracing.Tracer() if args.trace else None
    pool = pool_size(args.workload, args.seconds, bool(args.trace))
    t0 = time.perf_counter()
    outcomes, plain, traced, mismatches = timed_loop(oq, first, specs, cal, pool, tracer)
    loop_s = time.perf_counter() - t0
    # Read before the references are computed: the oracle's arrays would set it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _print(f"timed loop: {len(plain.ops) + len(traced.ops)} operations in {loop_s:.1f} s "
           f"({loop_s / args.seconds:.2f} times --seconds), a pool of {pool}; "
           f"calibration kernel median {cal.median_s() * 1e3:.3f} ms (nominal {calib.NOMINAL_S * 1e3:g} ms)")

    t0 = time.perf_counter()
    refs, kinds = wl.references(oq, outcomes.problems())
    outcomes.finish(refs)
    counts = {k: kinds.count(k) for k in sorted(set(kinds))}
    _print(f"references: {time.perf_counter() - t0:.1f} s, by kind {counts}; "
           f"{len(outcomes.digits)} values checked against them")

    times = plain.summary(cal)
    if tracer is None:
        metrics = end_to_end(times, outcomes, setup_times, peak_rss_mb)
        walls, weights = times["walls"], times["weights"]
        p95 = metrics["latency_ms_p95"][0] * 1e-3
        _print(f"raw wall times: latency_ms_p50 {weighted_quantile(walls, weights, 0.5) * 1e3:.4g}, "
               f"latency_ms_p95 {weighted_quantile(walls, weights, 0.95) * 1e3:.4g}; "
               f"{len(walls)} samples, {len(first.ops)} places in the design, "
               f"{int(np.sum(times['scaled'] > p95))} beyond latency_ms_p95")
        digits = outcomes.digits
        _print(f"failed_frac = {outcomes.failed / outcomes.attempted:.6g} frac (not declared: can be 0)")
        _print(f"digits_min = {min(digits) if digits else float('nan'):.6g} digits "
               f"(not declared: set by one of {len(digits)} checked values)")
    else:
        # The specs of the first pass are built once more under tracing, as set-up work.
        tracer.install()
        tracer.begin(None, phase="setup")
        wl.materialize(oq, first)
        tracer.end()
        tracer.restore()
        traced_times = traced.summary(cal)
        overhead = (weighted_quantile(traced_times["scaled"], traced_times["weights"], 0.5)
                    / weighted_quantile(times["scaled"], times["weights"], 0.5) - 1.0)
        op_ns = int(np.sum(traced_times["walls"]) * 1e9)
        scale = float(np.sum(traced_times["scaled"]) / np.sum(traced_times["walls"]))
        metrics = tracer.metrics(len(traced.ops), op_ns, outcomes.rows, overhead, scale)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                            "metrics": {k: v for k, (v, _) in metrics.items()}})
        _print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)} ({tracer.dropped} dropped)")
        _print(f"traced and untraced outcomes differ in {mismatches} of {len(traced.ops)} operations")

    for name, (value, unit) in metrics.items():
        _print(f"{name} = {value:.6g} {unit}")
    if outcomes.reasons:
        _print("failures: " + json.dumps(outcomes.reasons, sort_keys=True))
    correct = not outcomes.wrong and mismatches == 0
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
