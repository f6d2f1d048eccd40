"""Seeded inputs, operations, references and checks for the three workloads.

Inputs are described by plain data (``describe``) so that they can be
generated and compared without importing oscquad; ``materialize`` turns a
description into the program's own objects.  Every random choice comes from
a ``numpy.random.default_rng`` stream keyed by the seed: the same seed gives
the same inputs.

Categorical choices (problem, method, n, s, command, list length) follow a
fixed crossed design, so every seed has the same mix of operations.  The
continuous parameters (alpha, log w, a) are drawn stratified within each group
of the design: each of the k draws falls in its own 1/k slice of the range
(``_stratified``, or ``_systematic`` where counts beyond a threshold matter).
Different seeds therefore give different inputs with the same mix, which keeps
the spread of the run-level medians across seeds small.

A run goes through the design several times.  Each pass draws fresh
continuous values (and, in sweep-cli, fresh lists) from its own stream
``default_rng([seed, workload, pass])``, so no input repeats within a run and
a cache that outlives one operation sees only the reuse a user's stream of
distinct problems would give it.  Pass 0 is the warm-up; the timed passes are
numbered from 1.

``Description.ops`` lists the operations of one pass in design order;
``Description.order`` is the seeded order in which the timed loop runs them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

WORKLOADS = ("points-physical", "points-hermite", "sweep-cli")
BUILTINS = ("ex51", "ex52", "ex53a", "ex53b")
LOG_BUILTINS = ("ex52", "ex53b")

# Operations that share one problem instance (and so one reference) on the
# frequency side.
POINT_OPS_PER_INSTANCE = 2
CLI_COMMANDS = ("sweep-w", "sweep-n", "compare")
CLI_REPLICATES = 2

ALPHA_RANGE = (0.05, 0.95)  # |alpha|, with either sign
LOG10_W_POINTS = (1.0, 8.0)
LOG10_W_CLI = (1.0, 6.0)

# The CLI's reference convention: brute-force oracle up to the phase cap
# (oscquad.baselines.ORACLE_PHASE_CAP), the high-order frequency-space Levin
# rule above it.
ORACLE_PHASE_CAP = 2.0e4
REF_N, REF_S = 32, 2

# oscquad.Method names used in PointOp and their values, as CSV rows print them.
METHOD_VALUES = {"LEVIN_PHYSICAL": "levin-physical", "LEVIN_FREQ": "levin-freq", "FILON": "filon"}

# Digits are -log10(relative error), capped where double precision ends.
DIGITS_CAP = 16.0

# A finite value is wrong when its relative error against the reference
# exceeds the tolerance of its cell: method, n, s and the decade of the phase
# |w| g(a) (``phase_band``).  The tolerances are measured by tolerances.py,
# which writes TOLERANCE_FILE: the worst relative error seen in the cell, times
# 10**TOLERANCE_MARGIN_DIGITS, at most LOOSE_TOL.  A cell whose worst error
# times 10 is above LOOSE_TOL is unconverged and is checked for finiteness
# only; a cell that was not measured gets LOOSE_TOL, which keeps the
# magnitude and phase of the integral.  Accuracy itself is tracked by the digits metrics.
TOLERANCE_FILE = Path(__file__).resolve().parent / "tolerances.json"
TOLERANCE_MARGIN_DIGITS = 2.0
LOOSE_TOL = 0.5
PHASE_BANDS = (1, 5)  # floor(log10 |w| g(a)), clipped to this range


@dataclass(frozen=True)
class Problem:
    """One integral instance: a built-in id or a custom polynomial problem."""

    label: str
    alpha: float
    w: float
    log_kind: bool = False
    a: float = 1.0
    f_poly: tuple = ()
    g_poly: tuple = ()


@dataclass(frozen=True)
class PointOp:
    """One ``compute(spec, method, n, s)`` call on ``problems[problem]``."""

    problem: int
    method: str
    n: int
    s: int


@dataclass(frozen=True)
class CliOp:
    """One in-process CLI invocation; its rows are checked against ``problems``."""

    command: str
    argv: tuple
    problem: str
    alpha: float
    ws: tuple


@dataclass(frozen=True)
class Description:
    workload: str
    seed: int
    pass_index: int
    problems: tuple
    ops: tuple
    order: tuple


# ---------------------------------------------------------------- sampling


def _stratified(rng, k: int, lo: float, hi: float) -> np.ndarray:
    u = (rng.permutation(k) + rng.random(k)) / k
    return lo + (hi - lo) * u


def _systematic(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """k values, one in each 1/k slice of [lo, hi) at a common random offset,
    in random order: each value is uniform on [lo, hi), and how many fall
    beyond any threshold is fixed to within one."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random()) / k


def _alphas(rng, k: int) -> np.ndarray:
    mags = _stratified(rng, k, *ALPHA_RANGE)
    signs = np.where(rng.permutation(k) % 2 == 0, 1.0, -1.0)
    return signs * mags


def _ws(rng, k: int, log10_range) -> np.ndarray:
    return 10.0 ** _stratified(rng, k, *log10_range)


def _custom_problem(rng, alpha: float, w: float, log_kind: bool, a: float) -> Problem:
    # Quadratic g with g(0) = 0 and g' > 0 on [0, a]; f a quadratic polynomial.
    f_poly = (1.0 + 0.5 * rng.random(), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    g_poly = (0.0, rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
    label = "custom-log" if log_kind else "custom-alg"
    return Problem(label, alpha, w, log_kind, a, f_poly, g_poly)


def _describe_physical(rng) -> tuple:
    # Each built-in gets one instance per pair of distinct n (every n four
    # times); each custom kind gets five instances (every n twice), so 20% of
    # the operations are custom polynomial problems and half are log kind.
    ns = (8, 12, 16, 24, 32)
    all_pairs = [(x, y) for i, x in enumerate(ns) for y in ns[i + 1:]]
    ring_pairs = [(ns[i], ns[(i + 1) % len(ns)]) for i in range(len(ns))]
    groups = [(label, all_pairs) for label in BUILTINS]
    groups += [("custom-alg", ring_pairs), ("custom-log", ring_pairs)]
    problems, ops = [], []
    for label, pairs in groups:
        k = len(pairs)
        alphas = _alphas(rng, k)
        ws = _ws(rng, k, LOG10_W_POINTS)
        a_values = _stratified(rng, k, 0.5, 2.0)
        for j, pair in enumerate(pairs):
            alpha, w = float(alphas[j]), float(ws[j])
            if label.startswith("custom"):
                p = _custom_problem(rng, alpha, w, label == "custom-log", float(a_values[j]))
            else:
                p = Problem(label, alpha, w, label in LOG_BUILTINS)
            ops.extend(PointOp(len(problems), "LEVIN_PHYSICAL", n, 0) for n in pair)
            problems.append(p)
    return problems, ops


def _describe_hermite(rng) -> tuple:
    # Frequency-space Levin: every (n, s) with n in 6..14 and s in {1, 2} on
    # each built-in.  Filon: every (n, s) with n in {4, 6, 8} and s in
    # {0, 1, 2}, twice, on ex51 and ex52.  Two operations share an instance.
    freq = [(n, s) for n in range(6, 15) for s in (1, 2)]
    filon = [(n, s) for n in (4, 6, 8) for s in (0, 1, 2)] * 2
    groups = [(label, "LEVIN_FREQ", freq) for label in BUILTINS]
    groups += [(label, "FILON", filon) for label in ("ex51", "ex52")]
    problems, ops = [], []
    for label, method, cfgs in groups:
        cfgs = [cfgs[i] for i in rng.permutation(len(cfgs))]
        k = len(cfgs) // POINT_OPS_PER_INSTANCE
        alphas = _alphas(rng, k)
        ws = _ws(rng, k, LOG10_W_POINTS)
        for j in range(k):
            for n, s in cfgs[POINT_OPS_PER_INSTANCE * j: POINT_OPS_PER_INSTANCE * (j + 1)]:
                ops.append(PointOp(len(problems), method, n, s))
            problems.append(Problem(label, float(alphas[j]), float(ws[j]), label in LOG_BUILTINS))
    return problems, ops


def _fmt_list(values) -> str:
    return ",".join(repr(v) for v in values)


def _describe_cli(rng) -> tuple:
    # CLI_REPLICATES copies of the crossed design (command, problem, slot).
    # The slot sets the list length (3..6) of a sweep, or the n of a
    # comparison.  Sweep lists are stratified within themselves.  The single
    # frequencies of sweep-n and compare are drawn systematically over all
    # problems with the same g(a), so each seed has the same number of them
    # above the oracle's phase cap (where the reference costs several times
    # more); without that, the median latency jumps between seeds.
    slots = (0, 1, 2, 3)
    groups = [(c, label) for _ in range(CLI_REPLICATES) for c in CLI_COMMANDS for label in BUILTINS]
    alphas = iter(_alphas(rng, len(groups) * len(slots)))
    single = {}
    for labels in (("ex51", "ex52"), ("ex53a", "ex53b")):
        k = sum(len(slots) for c, label in groups if c != "sweep-w" and label in labels)
        values = iter(10.0 ** _systematic(rng, k, *LOG10_W_CLI))
        single.update({label: values for label in labels})
    ops, problems = [], {}
    for command, label in groups:
        for slot in slots:
            alpha = float(next(alphas))
            common = ["--problem", label, "--alpha", repr(alpha), "--s", "0"]
            size = 3 + slot
            if command == "sweep-w":
                ws = tuple(float(w) for w in _ws(rng, size, LOG10_W_CLI))
                n = int(rng.choice((8, 12, 16)))
                argv = ["sweep-w", *common, "--n", str(n), "--w", _fmt_list(ws)]
            elif command == "sweep-n":
                ws = (float(next(single[label])),)
                ns = sorted(int(x) for x in rng.choice((6, 8, 10, 12, 14, 16), size=size, replace=False))
                argv = ["sweep-n", *common, "--w", repr(ws[0]), "--n", _fmt_list(ns)]
            else:
                ws = (float(next(single[label])),)
                argv = ["compare", *common, "--w", repr(ws[0]), "--n", str((8, 10, 12, 16)[slot])]
            for w in ws:
                problems[(label, alpha, w)] = Problem(label, alpha, w, label in LOG_BUILTINS)
            ops.append(CliOp(command, tuple(argv), label, alpha, ws))
    return list(problems.values()), ops


def describe(workload: str, seed: int, pass_index: int = 1) -> Description:
    """Inputs of pass ``pass_index`` of ``workload`` for ``seed``, as plain data."""
    generators = {"points-physical": _describe_physical, "points-hermite": _describe_hermite,
                  "sweep-cli": _describe_cli}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    problems, ops = generators[workload](rng)
    order = tuple(int(i) for i in rng.permutation(len(ops)))
    return Description(workload, seed, pass_index, tuple(problems), tuple(ops), order)


# ------------------------------------------------------- program objects


def build_spec(oq, p: Problem):
    if not p.label.startswith("custom"):
        return oq.builtin_problem(p.label, p.alpha, p.w)
    kind = oq.SingKind.ALGEBRAIC_LOG if p.log_kind else oq.SingKind.ALGEBRAIC
    return oq.build_problem(
        oq.Amplitude.from_poly(list(p.f_poly)),
        oq.Oscillator.from_poly(list(p.g_poly)),
        a=p.a,
        alpha=p.alpha,
        kind=kind,
        w=p.w,
    )


def materialize(oq, desc: Description) -> list:
    """Program-side inputs: one spec per problem for the point workloads.

    The CLI workload passes only argument lists; its specs are built inside
    each invocation.
    """
    if desc.workload == "sweep-cli":
        return []
    return [build_spec(oq, p) for p in desc.problems]


def warmup_ops(desc: Description) -> list:
    """The warm-up pass: one operation of each class (method or command, and
    kind), the cheapest of its class by design (smallest n and s; or fewest
    frequencies above the oracle's phase cap, then shortest list, then lowest
    top frequency), so the warm-up costs about the same for every seed."""
    best = {}
    for op in desc.ops:
        if isinstance(op, CliOp):
            g = g_end(Problem(op.problem, op.alpha, 1.0))
            above = sum(w * g > ORACLE_PHASE_CAP for w in op.ws)
            key, cost = (op.command, op.problem in LOG_BUILTINS), (above, len(op.ws), max(op.ws))
        else:
            key, cost = (op.method, desc.problems[op.problem].log_kind), (op.n, op.s)
        if key not in best or cost < best[key][0]:
            best[key] = (cost, op)
    return [op for _, op in best.values()]


def run_op(oq, specs, op):
    """Execute one operation; returns what ``check`` needs.

    Point operations return the complex value; CLI operations return
    ``(exit_code, stdout_text)``.  Exceptions propagate to the caller.
    """
    if isinstance(op, CliOp):
        out, err = io.StringIO(), io.StringIO()
        code = oq.benchcli.run_command(list(op.argv), stdout=out, stderr=err)
        return code, out.getvalue()
    return oq.compute(specs[op.problem], oq.Method[op.method], op.n, op.s).value


# ------------------------------------------------------------- references


def op_problems(desc: Description, op) -> list:
    """The problem instances whose values ``op`` returns."""
    if isinstance(op, CliOp):
        return [cli_problem(op, w) for w in op.ws]
    return [desc.problems[op.problem]]


def cli_problem(op: CliOp, w: float) -> Problem:
    return Problem(op.problem, op.alpha, w, op.problem in LOG_BUILTINS)


def reference(oq, spec):
    """Independent reference value and its kind, by the CLI's convention.

    When the oracle itself returns a non-finite value (its known defect near
    alpha = -1), the high-order Levin value is used instead and the kind says
    so.
    """
    if abs(spec.w) * spec.g_end() <= oq.baselines.ORACLE_PHASE_CAP:
        value = complex(oq.reference_oracle(spec))
        if cmath.isfinite(value):
            return value, "oracle"
        kind = "levin-after-oracle-nan"
    else:
        kind = "levin"
    return oq.compute(spec, oq.Method.LEVIN_FREQ, REF_N, REF_S).value, kind


def references(oq, problems) -> tuple:
    """``(values, kinds)``: a dict from each problem to its reference value,
    and the list of reference kinds."""
    values, kinds = {}, []
    for p in problems:
        if p not in values:
            values[p], kind = reference(oq, build_spec(oq, p))
            kinds.append(kind)
    return values, kinds


# ------------------------------------------------------------------ checks


def digits(value: complex, ref: complex) -> float:
    err = abs(value - ref)
    scale = abs(ref)
    rel = err / scale if scale > 0 else err
    if rel <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(rel)


def g_end(p: Problem) -> float:
    """g(a) of the normalised oscillator (g(0) = 0)."""
    if p.label.startswith("custom"):
        return sum(c * p.a**k for k, c in enumerate(p.g_poly))
    return 2.0 if p.label in ("ex53a", "ex53b") else 1.0


def phase_band(phase: float) -> int:
    lo, hi = PHASE_BANDS
    return int(min(max(math.floor(math.log10(phase)), lo), hi))


def cell(method: str, n: int, s: int, phase: float) -> str:
    """Tolerance cell of a value; ``method`` is a ``Method`` value such as
    ``levin-physical``."""
    return f"{method} n={n} s={s} band={phase_band(phase)}"


@lru_cache(maxsize=None)
def _tolerance_table() -> dict:
    if not TOLERANCE_FILE.is_file():
        return {}
    with open(TOLERANCE_FILE, encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    return {key: math.inf if entry["tol"] is None else entry["tol"] for key, entry in cells.items()}


def tolerance(method: str, n: int, s: int, phase: float) -> float:
    """Largest relative error a value of this configuration may have."""
    return _tolerance_table().get(cell(method, n, s, phase), LOOSE_TOL)


@dataclass
class Check:
    """Outcome of checking one operation.

    ``failed`` holds the reason the operation failed (None when it passed).
    ``wrong`` marks a finite value outside its tolerance: a silently wrong
    answer, which makes the whole run incorrect.  ``digits`` holds one entry
    per value that had a reference.
    """

    digits: list
    rows: int
    failed: str | None = None
    wrong: bool = False


def _check_value(value: complex, ref, tol: float, digs: list):
    if not cmath.isfinite(value):
        return "non-finite value", False
    if ref is None:  # no reference computed for this value: finiteness only
        return None, False
    if not cmath.isfinite(ref):
        return "non-finite reference", False
    d = digits(value, ref)
    digs.append(d)
    if 10.0 ** -d > tol:
        return f"relative error above {tol:.3g}", True
    return None, False


def check(desc: Description, refs: dict, op, outcome) -> Check:
    """Check one operation's outcome (from ``run_op``) against the references.

    ``outcome`` is an exception instance when the operation raised.  A value
    whose problem is not in ``refs`` is checked for finiteness only.
    """
    if isinstance(outcome, BaseException):
        return Check([], 0, f"raised {type(outcome).__name__}")
    if not isinstance(op, CliOp):
        p = desc.problems[op.problem]
        tol = tolerance(METHOD_VALUES[op.method], op.n, op.s, abs(p.w) * g_end(p))
        digs = []
        failed, wrong = _check_value(complex(outcome), refs.get(p), tol, digs)
        return Check(digs, 1, failed, wrong)
    code, text = outcome
    if code != 0:
        return Check([], 0, f"exit code {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return Check([], 0, "no CSV rows")
    digs, first_fail, wrong = [], None, False
    for row in rows:
        w = float(row["w"])
        if row["problem"] != op.problem or w not in op.ws:
            failed, bad = "row does not match the invocation", True
        else:
            p = cli_problem(op, w)
            value = complex(float(row["value_re"]), float(row["value_im"]))
            tol = tolerance(row["method"], int(row["n"]), int(row["s"]), w * g_end(p))
            failed, bad = _check_value(value, refs.get(p), tol, digs)
            if failed is None and not math.isfinite(float(row["abs_err"])):
                failed = "non-finite abs_err"
        first_fail = first_fail or failed
        wrong = wrong or bad
    return Check(digs, len(rows), first_fail, wrong)


def comparable(outcome):
    """Outcome with timing fields removed, for traced/untraced comparison.

    Floats are compared through ``repr`` so that equal NaNs compare equal and
    any difference in the last bit shows.
    """
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome).__name__, str(outcome))
    if isinstance(outcome, tuple):
        code, text = outcome
        lines = [line.rsplit(",", 1)[0] for line in text.splitlines()]
        return code, tuple(lines)
    return repr(complex(outcome))
