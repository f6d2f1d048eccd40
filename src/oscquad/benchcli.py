"""Benchmark command line: evaluate, sweep, and compare quadrature methods.

Subcommands
-----------
eval
    One integral, one method; prints a JSON object with the value and
    solver diagnostics.
sweep-w
    One method list over a comma-separated w list; CSV output.
sweep-n
    One method list over a comma-separated n list; CSV output.
compare
    Levin vs the composite baseline (where applicable) vs the oracle at a
    single configuration; CSV output with errors against the reference.

The three CSV commands run one row loop over ``(w, n, method)``.  The CSV
columns are the fields of :class:`RunRecord`, in order.  Each invocation
builds its problem once per distinct frequency and shares it between the
reference and the rows.

Reference values for error columns come from one of three tiers, chosen by
the phase range |w| g(a) and reported as ``ref_kind``:

``nsd``
    Numerical steepest descent (:func:`oscquad.baselines.reference_nsd`),
    for |w| g(a) above ``NSD_CROSSOVER`` when the problem is in its scope
    (polynomial g of degree <= 2, an amplitude with a complex-argument
    evaluator, no singularity near the paths).  Its cost does not grow
    with w.
``oracle``
    The brute-force oracle, for |w| g(a) up to its cap
    (``ORACLE_PHASE_CAP``) where NSD is not used.
``levin-n32-s2``
    The highest-order Levin result (n = 32, s = 2) above the cap, when NSD
    refuses.

Where NSD refuses, the next tier takes over, so the reference tier never
changes an exit code.  ``oracle`` rows reuse the oracle value computed for
the reference, with the time that call took.

Exit codes: 0 success, 2 bad arguments, 3 capability refusal, 4 accuracy
failure, 5 I/O failure.  A plain-text ``key=value`` config file can seed
any long option; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import get_type_hints

from ._kept import kept
from .baselines import ORACLE_PHASE_CAP, cmfp_applies, reference_nsd, reference_oracle
from .errors import AccuracyError, CapabilityError, ParameterError
from .problem import (
    Amplitude,
    Oscillator,
    ProblemSpec,
    SingKind,
    build_problem,
    builtin_problem,
    delta_alpha,
)
from .quadrature import Method, QuadratureResult, compute

__all__ = ["RunRecord", "write_csv", "run_command", "main", "CSV_HEADER"]

_REF_N = 32
_REF_S = 2
# |w| g(a) above which the error columns use the NSD reference.  Measured
# against 40-digit values of the built-ins (alpha = +-0.5, +-0.9): where NSD
# accepts a problem above 100 it is within 2e-15 relative, while the oracle
# is off by up to 1.6e-13 at |w| g(a) = 70-150 and grows with w.  Accuracy
# sets the value, not cost: at |w| g(a) = 70-150 a first oracle call costs
# 0.27-0.55 ms and an algebraic-kind NSD call with a new alpha 0.14-0.32 ms
# (ex51 and ex53a, best of 7 calls, three runs on a shared 2-core x86_64
# machine whose speed varied by up to 2 times between runs).  At alpha =
# +-0.5, +-0.9 NSD refuses ex52 and ex53a below about 60, and ex53b below
# about 170.
NSD_CROSSOVER = 100.0


@dataclass(frozen=True)
class RunRecord:
    """One benchmark measurement; its fields, in order, are the CSV columns."""

    problem: str
    method: str
    kind: str
    alpha: float
    s: int
    n: int
    w: float
    value_re: float
    value_im: float
    abs_err: float
    rel_err: float
    scaled_err: float
    time_ns: int


CSV_HEADER = ",".join(f.name for f in fields(RunRecord))
# A record's fields in column order, as a shallow tuple.
_columns = attrgetter(*CSV_HEADER.split(","))
_COLUMN_TYPES = tuple(get_type_hints(RunRecord).values())


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(records, sink) -> None:
    """Write records as CSV in input order, streaming row by row.

    Floats are rendered in shortest round-trip decimal form.
    """
    sink.write(CSV_HEADER + "\n")
    for r in records:
        sink.write(",".join(map(_fmt, _columns(r))) + "\n")


def parse_csv(text: str) -> list:
    """Inverse of write_csv, for round-trip checks."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError("missing or unexpected CSV header")
    return [RunRecord(*(t(v) for t, v in zip(_COLUMN_TYPES, ln.split(",")))) for ln in lines[1:]]


def _resolve_method(name: str, s: int) -> Method:
    key = name.strip().lower()
    if key == "levin":
        return Method.LEVIN_PHYSICAL if s == 0 else Method.LEVIN_FREQ
    table = {
        "levin-physical": Method.LEVIN_PHYSICAL,
        "levin-freq": Method.LEVIN_FREQ,
        "filon": Method.FILON,
        "cmfp": Method.CMFP,
        "oracle": Method.ORACLE,
    }
    if key not in table:
        raise ParameterError(
            f"unknown method {name!r}; choose from levin, levin-physical, "
            "levin-freq, filon, cmfp, oracle"
        )
    return table[key]


def _parse_list(text: str, type, what: str) -> list:
    # A comma-separated option value; empty items are skipped, and a list
    # with none left is refused.
    try:
        items = [type(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {text!r}: {exc}") from exc
    if not items:
        raise ParameterError(f"{what} list is empty")
    return items


def _build_spec(args, w: float) -> ProblemSpec:
    if args.problem:
        return builtin_problem(args.problem, args.alpha, w)
    if args.f_poly and args.g_poly:
        amp = Amplitude.from_poly(_parse_list(args.f_poly, complex, "coefficient"))
        osc = Oscillator.from_poly(_parse_list(args.g_poly, float, "coefficient"))
        return build_problem(amp, osc, a=args.a, alpha=args.alpha, kind=SingKind(args.kind), w=w)
    raise ParameterError("specify --problem ID or both --f-poly and --g-poly")


class _RefCache:
    # Per-invocation memo, by frequency, of the problem, the reference
    # value and the oracle.
    def __init__(self, args):
        self._args = args
        self._specs = {}
        self._values = {}
        self._oracle = {}

    def spec(self, w: float) -> ProblemSpec:
        """The problem of the invocation at frequency w."""
        if w not in self._specs:
            self._specs[w] = _build_spec(self._args, w)
        return self._specs[w]

    def oracle(self, w: float):
        """``(value, time_ns)`` of the oracle at frequency w."""
        if w not in self._oracle:
            spec = self.spec(w)
            t0 = time.perf_counter_ns()
            value = reference_oracle(spec)
            self._oracle[w] = (value, max(1, time.perf_counter_ns() - t0))
        return self._oracle[w]

    def get(self, w: float):
        """``(value, ref_kind)`` of the reference at frequency w."""
        if w not in self._values:
            self._values[w] = self._reference(w)
        return self._values[w]

    def _reference(self, w: float):
        # The three tiers of the module docstring, in order.
        spec = self.spec(w)
        phase = abs(spec.w) * spec.g_end()
        if phase > NSD_CROSSOVER:
            try:
                return reference_nsd(spec), "nsd"
            except (CapabilityError, AccuracyError):
                pass  # outside NSD's scope: the next tier decides
        if phase <= ORACLE_PHASE_CAP:
            return self.oracle(w)[0], "oracle"
        return compute(spec, Method.LEVIN_FREQ, _REF_N, _REF_S).value, f"levin-n{_REF_N}-s{_REF_S}"


def _run_one(args, cache: _RefCache, w: float, n: int, method_name: str) -> RunRecord:
    ref_value, _ = cache.get(w)
    spec = cache.spec(w)
    method = _resolve_method(method_name, args.s)
    if method is Method.ORACLE:
        # The oracle is deterministic: the row reuses the cached call, and
        # QuadratureResult still refuses a non-finite value.
        value, elapsed = cache.oracle(w)
        result = QuadratureResult(value=value, method=Method.ORACLE, s=0, n=0)
    else:
        t0 = time.perf_counter_ns()
        result = compute(spec, method, n, args.s)
        elapsed = max(1, time.perf_counter_ns() - t0)
    abs_err = abs(result.value - ref_value)
    rel_err = abs_err / abs(ref_value) if ref_value != 0 else abs_err
    order = args.s + 1.0 + min(1.0 + args.alpha, 1.0)
    scaled = abs_err * abs(w) ** order / delta_alpha(args.alpha, abs(w))
    return RunRecord(
        args.problem or "custom", result.method.value, spec.kind.value, args.alpha,
        result.s, result.n, w, result.value.real, result.value.imag,
        abs_err, rel_err, scaled, elapsed,
    )


def _cmd_eval(args, out, err) -> int:
    spec = _build_spec(args, args.w)
    method = _resolve_method(args.method, args.s)
    result = compute(spec, method, args.n, args.s)
    payload = {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "diagnostics": {**result.diagnostics, "method": result.method.value, "n": result.n, "s": result.s},
    }
    out.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_rows(args, out, err) -> int:
    # sweep-w, sweep-n and compare: one CSV row per (w, n, method), computed
    # as it is written.
    cache = _RefCache(args)
    ws = _parse_list(args.w, float, "w") if args.command == "sweep-w" else [args.w]
    ns = _parse_list(args.n, int, "n") if args.command == "sweep-n" else [args.n]
    if args.command == "compare":
        # Levin, CMFP where g is linear, and the oracle under its cap.
        spec = cache.spec(args.w)
        err.write(f"# ref_kind={cache.get(args.w)[1]}\n")
        methods = ["levin"]
        if cmfp_applies(spec):
            methods.append("cmfp")
        if abs(spec.w) * spec.g_end() <= ORACLE_PHASE_CAP:
            methods.append("oracle")
    else:
        methods = _parse_list(args.method, str, "method")
    records = (_run_one(args, cache, w, n, m) for w in ws for n in ns for m in methods)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, out)
    return 0


_COMMON_OPTIONS = (
    ("--problem", dict(help="built-in problem id (ex51, ex52, ex53a, ex53b, ex54)")),
    ("--f-poly", dict(help="amplitude polynomial coefficients, ascending, comma-separated")),
    ("--g-poly", dict(help="oscillator polynomial coefficients (real), ascending, comma-separated")),
    ("--kind", dict(choices=[k.value for k in SingKind], default="algebraic",
                    help="singularity kind for polynomial problems")),
    ("--a", dict(type=float, default=1.0, help="interval end for polynomial problems")),
    ("--alpha", dict(type=float, required=True, help="singularity exponent, 0<|alpha|<1")),
    ("--s", dict(type=int, default=0, help="asymptotic-order parameter")),
    ("--config", dict(help="key=value file seeding any long option")),
    ("--output", dict(help="write CSV to this path instead of stdout")),
)
_W = ("--w", dict(type=float, required=True))
_N = ("--n", dict(type=int, required=True))
_METHOD = ("--method", dict(default="levin"))
# (name, help, handler, options after the common ones)
_SUBCOMMANDS = (
    ("eval", "evaluate one integral", _cmd_eval, (_W, _N, _METHOD)),
    ("sweep-w", "sweep over frequencies", _cmd_rows,
     (("--w", dict(required=True, help="comma-separated frequency list")), _N, _METHOD)),
    ("sweep-n", "sweep over node counts", _cmd_rows,
     (("--n", dict(required=True, help="comma-separated node-count list")), _W, _METHOD)),
    ("compare", "compare methods against the reference", _cmd_rows, (_W, _N)),
)


@kept
def _make_parser() -> tuple:
    # The parser and its subparsers by command name, built once per process:
    # parsing does not change them, and building them costs more than
    # parsing an invocation.
    parser = argparse.ArgumentParser(
        prog="oscquad-bench",
        description="Benchmark CLI for singular oscillatory quadrature.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, handler, options in _SUBCOMMANDS:
        sub = commands[name] = subs.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON_OPTIONS + options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=handler)
    return parser, commands


def _parse(argv: list) -> argparse.Namespace:
    # parser.parse_args(argv) in one pass: the subparser that argv[0] names
    # parses the rest, as the parser would hand it on, and arguments it does
    # not know are refused by the parser, in its words.  Anything else (no
    # argv, -h, an unknown command) goes to the parser itself.
    parser, commands = _make_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _inject_config(argv: list) -> list:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None or not argv:
        return argv
    injected = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"config line {line!r} is not key=value")
            key, value = line.split("=", 1)
            injected.extend([f"--{key.strip()}", value.strip()])
    return [argv[0]] + injected + argv[1:]


def run_command(argv=None, stdout=None, stderr=None) -> int:
    """Run one CLI invocation; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(_inject_config(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return 5
    except ParameterError as exc:
        err.write(f"error: {exc}\n")
        return 2
    try:
        return args.func(args, out, err)
    except CapabilityError as exc:
        err.write(f"capability error: {exc}\n")
        return 3
    except AccuracyError as exc:
        err.write(f"accuracy error: {exc}\n")
        return 4
    except ParameterError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        err.write(f"I/O error: {exc}\n")
        return 5


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
