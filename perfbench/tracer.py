"""Per-layer tracing by wrapping each module's boundary functions.

Nothing in ``src/`` knows about this file.  ``Tracer.install`` replaces every
binding of a traced function inside the ``oscquad`` package (the defining
module, every module that imported it by name, and the package namespace) with
a wrapper, and replaces the traced methods on their classes.  ``restore`` puts
the original objects back.  The wrappers only time and count: they call the
original with the same arguments and return its result unchanged, so traced
values equal untraced ones bit for bit.

A span is recorded for every wrapped call: (id, parent id, operation id,
name, start, end, self time).  Self time is the span's duration minus the
time covered by its child spans, including the wrappers' own bookkeeping
after each child returns, so a layer is not charged for tracing its callees.
Aggregates are kept for every call; raw spans are kept in memory up to
``MAX_SPANS`` and written out by ``write``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Layer name (used in metric names) -> (module, traced functions).  A dotted
# entry is a method on a class of that module.
TARGETS = {
    "quadrature": ("oscquad.quadrature", ("compute", "quad_alg", "quad_log")),
    "problem": ("oscquad.problem", (
        "build_problem", "builtin_problem", "make_f1_f2", "f1_derivatives", "integrand",
        "delta_alpha", "Amplitude.series_at", "Oscillator.series_at", "Oscillator.deriv1",
    )),
    "series": ("oscquad._series", ("ps_mul", "ps_div", "ps_pow", "ps_log", "poly_taylor")),
    "cheb": ("oscquad.cheb", (
        "radau_grid", "lobatto_grid", "barycentric_weights", "barycentric_diff",
        "barycentric_eval", "radau_reference_nodes", "radau_reference_diff",
        "radau_origin_weights_closed",
    )),
    "levin": ("oscquad.levin", ("assemble_L", "tsvd_solve", "solve_alg", "solve_log", "picard_iterate")),
    "filon": ("oscquad.filon", (
        "moments_mu", "moments_nu", "build_moment_table", "build_hermite_data",
        "hermite_solve", "quad_filon", "solve_freq", "quad_freq",
    )),
    "numkernel": ("oscquad.numkernel", (
        "gamma_real", "neg_iw_pow", "upper_gamma_complex", "hyp2f2_equal",
        "kernel_h_alg", "kernel_h_log",
    )),
    "baselines": ("oscquad.baselines", (
        "gauss_legendre", "exponential_moments", "cmf_composite", "cmfp",
        "default_cmfp_params", "graded_integral", "reference_oracle",
    )),
    "benchcli": ("oscquad.benchcli", ("run_command", "_RefCache.get", "_run_one", "write_csv")),
}
LAYERS = tuple(TARGETS)

# Inclusive time of these groups counts only outermost calls.
GROUPS = {
    "problem.build": ("problem.build_problem", "problem.builtin_problem"),
    "filon.moments": ("filon.moments_mu", "filon.moments_nu", "filon.build_moment_table"),
}
GRID_FUNCTIONS = ("cheb.radau_grid", "cheb.lobatto_grid")
REF_CACHE = "benchcli._RefCache.get"

MAX_SPANS = 50_000


def _matrix_key(matrix) -> bytes:
    data = np.ascontiguousarray(matrix)
    return hashlib.blake2b(data.tobytes() + str(data.shape).encode(), digest_size=16).digest()


class Tracer:
    """Wrappers, spans and aggregates for one traced run."""

    def __init__(self):
        self._plan = []
        self._installed = False
        self.active = False
        self.spans = []
        self.dropped = 0
        self._next_id = 0
        self._op = None
        self._stack = []
        self.phase = "ops"
        self.calls = defaultdict(int)          # (phase, name) -> calls
        self.incl_ns = defaultdict(int)        # (phase, name) -> inclusive ns
        self.self_ns = defaultdict(int)        # (phase, layer) -> self ns
        self.group_ns = defaultdict(int)       # (phase, group) -> outermost inclusive ns
        self.group_calls = defaultdict(int)    # (phase, group) -> outermost calls
        self._group_depth = defaultdict(int)
        self.counts = defaultdict(float)       # named counters of the "ops" phase
        self._grids = set()                    # distinct grids built by traced operations
        self._operators = set()                # distinct matrices factorised by them

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function at every binding in the loaded package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def restore(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        self._installed = False

    def _make_plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        plan = []
        modules = [m for name, m in sys.modules.items() if name == "oscquad" or name.startswith("oscquad.")]
        for layer, (modname, names) in TARGETS.items():
            module = sys.modules[modname]
            for name in names:
                qualname = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[attr]
                    plan.append((owner, attr, original, self._wrap(original, layer, qualname)))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(original, layer, qualname)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        return plan

    def _wrap(self, fn, layer: str, qualname: str):
        group = next((g for g, members in GROUPS.items() if qualname in members), None)
        hook = self._hooks().get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [qualname, 0, tracer._next_id]
            tracer._next_id += 1
            outer = group is not None and tracer._group_depth[group] == 0
            if group is not None:
                tracer._group_depth[group] += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if group is not None:
                    tracer._group_depth[group] -= 1
                tracer._record(layer, qualname, group, outer, frame, parent, t0, t1)
                if hook is not None:
                    hook(args, result, parent[0], t1 - t0)
                parent[1] += perf_counter_ns() - t0

        return wrapper

    def _record(self, layer, qualname, group, outer, frame, parent, t0, t1) -> None:
        phase = self.phase
        dur = t1 - t0
        self.calls[(phase, qualname)] += 1
        self.incl_ns[(phase, qualname)] += dur
        self.self_ns[(phase, layer)] += dur - frame[1]
        if outer:
            self.group_ns[(phase, group)] += dur
            self.group_calls[(phase, group)] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[2], parent[2], self._op, qualname, t0, t1, dur - frame[1]))
        else:
            self.dropped += 1

    # ------------------------------------------------------------ hooks

    def _hooks(self) -> dict:
        return {
            "cheb.radau_grid": functools.partial(self._grid, "radau"),
            "cheb.lobatto_grid": functools.partial(self._grid, "lobatto"),
            "levin.tsvd_solve": self._tsvd,
            "numkernel.upper_gamma_complex": self._kernel,
            "numkernel.hyp2f2_equal": self._kernel,
            "quadrature.compute": self._reference_compute,
            "baselines.reference_oracle": self._reference_oracle,
        }

    def _grid(self, family, args, result, parent, dur) -> None:
        if self.phase == "ops":
            self._grids.add((family, *args))

    def _tsvd(self, args, result, parent, dur) -> None:
        if self.phase == "ops":
            self._operators.add(_matrix_key(args[0]))

    def _kernel(self, args, result, parent, dur) -> None:
        if self.phase != "ops" or result is None:
            return
        diag = result[1]
        self.counts["kernel_diags"] += 1
        self.counts["kernel_terms"] += diag.terms_used
        self.counts["kernel_rotated"] += diag.strategy.name == "ROTATED_PATH"

    def _reference_compute(self, args, result, parent, dur) -> None:
        if self.phase == "ops" and parent == REF_CACHE:
            self.counts["cli_refs"] += 1
            self.counts["cli_levin_ref_ns"] += dur

    def _reference_oracle(self, args, result, parent, dur) -> None:
        if self.phase == "ops" and parent == REF_CACHE:
            self.counts["cli_refs"] += 1

    # -------------------------------------------------------- operations

    def begin(self, op_id, phase: str = "ops") -> None:
        """Start tracing one operation (or, with phase "setup", set-up work)."""
        self.phase = phase
        self._op = op_id
        self._stack = [["op", 0, self._next_id]]
        self._next_id += 1
        self.active = True

    def end(self) -> None:
        self.active = False

    # ----------------------------------------------------------- metrics

    def metrics(self, n_ops: int, op_ns: int, rows: int, overhead_frac: float, time_scale: float) -> dict:
        """Per-layer metrics over ``n_ops`` traced operations taking ``op_ns``.

        Times are multiplied by ``time_scale`` (the calibration factor of the
        run).  A ratio whose base is zero (the layer was never entered) reads 0.
        """

        def per_op(x):
            return x / n_ops if n_ops else 0.0

        def ratio(x, base):
            return x / base if base else 0.0

        def calls(name):
            return self.calls[("ops", name)]

        ms = 1e-6 * time_scale
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = (per_op(self.self_ns[("ops", layer)] * ms), "ms")
            out[f"{layer}.self_frac"] = (ratio(self.self_ns[("ops", layer)], op_ns), "frac")
        builds = sum(calls(name) for name in GRID_FUNCTIONS)
        tsvd = calls("levin.tsvd_solve")
        out["cheb.grid_builds_per_op"] = (per_op(builds), "count")
        out["cheb.distinct_grid_frac"] = (ratio(len(self._grids), builds), "frac")
        out["levin.assemble_L.calls_per_op"] = (per_op(calls("levin.assemble_L")), "count")
        out["levin.tsvd_solve.calls_per_op"] = (per_op(tsvd), "count")
        out["levin.tsvd_solve.ms_per_op"] = (per_op(self.incl_ns[("ops", "levin.tsvd_solve")] * ms), "ms")
        out["levin.distinct_operator_frac"] = (ratio(len(self._operators), tsvd), "frac")
        out["series.ps_mul.calls_per_op"] = (per_op(calls("series.ps_mul")), "count")
        out["filon.solve_freq.calls_per_op"] = (per_op(calls("filon.solve_freq")), "count")
        out["filon.hermite_solve.calls_per_op"] = (per_op(calls("filon.hermite_solve")), "count")
        out["filon.moments.ms_per_op"] = (per_op(self.group_ns[("ops", "filon.moments")] * ms), "ms")
        out["problem.make_f1_f2.calls_per_op"] = (per_op(calls("problem.make_f1_f2")), "count")
        series_at = calls("problem.Amplitude.series_at") + calls("problem.Oscillator.series_at")
        out["problem.series_at.calls_per_op"] = (per_op(series_at), "count")
        build_ns = sum(self.group_ns[(p, "problem.build")] for p in ("ops", "setup"))
        build_calls = sum(self.group_calls[(p, "problem.build")] for p in ("ops", "setup"))
        out["problem.build_ms_per_spec"] = (ratio(build_ns * ms, build_calls), "ms")
        kernel_calls = sum(calls(f"numkernel.{name}") for name in TARGETS["numkernel"][1])
        out["numkernel.calls_per_op"] = (per_op(kernel_calls), "count")
        out["numkernel.rotated_path_frac"] = (ratio(self.counts["kernel_rotated"], self.counts["kernel_diags"]), "frac")
        out["numkernel.terms_per_call"] = (ratio(self.counts["kernel_terms"], self.counts["kernel_diags"]), "count")
        out["baselines.reference_oracle.calls_per_op"] = (per_op(calls("baselines.reference_oracle")), "count")
        out["benchcli.levin_ref_ms_per_op"] = (per_op(self.counts["cli_levin_ref_ns"] * ms), "ms")
        out["benchcli.refs_per_row"] = (ratio(self.counts["cli_refs"], rows), "count")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        out["trace.ops"] = (n_ops, "count")
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line and then one JSON object per recorded span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped_spans": self.dropped}) + "\n")
            for sid, parent, op, name, t0, t1, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1, "self_ns": self_ns}) + "\n")
