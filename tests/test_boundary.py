"""The bracket at the upper endpoint that both Levin routes share."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oscquad.boundary
import oscquad.filon
import oscquad.levin
from oscquad import Method, compute
from oscquad.baselines import reference_nsd
from oscquad.boundary import levin_value, upper_end_value
from oscquad.cheb import lobatto_grid, radau_grid
from oscquad.filon import solve_freq
from oscquad.levin import solve_alg, solve_log, tsvd_solve
from oscquad.numkernel import hyp2f2_equal, kernel_k_alg
from oscquad.problem import (
    Amplitude,
    Oscillator,
    ProblemSpec,
    SingKind,
    build_problem,
    builtin_problem,
    make_f1_f2,
)

from mapped import mapped_onto_unit

BUILTINS = ("ex51", "ex52", "ex53a", "ex53b")
LEVIN_CALLS = ((Method.LEVIN_PHYSICAL, 16, 0), (Method.LEVIN_FREQ, 12, 1), (Method.LEVIN_FREQ, 9, 2))


# The assembly of levin_value, kept as the reference: q(a) reads g(a) and
# g'(a) anew, and the logarithmic kind reads q(a) off the second solve's
# end data, whose amplitude holds the log g(a) part of the weight, and adds
# c0 iw int_0^g t^alpha log(t/g) e^{iwt} dt by its 2F2 closed form.
def _reference_upper_end_value(spec, c0, q1_end, rhs_end, dq1_end, dq1_size):
    g_a, gp_a = spec.oscillator.series_at(spec.a, 2)
    linear = (1.0 + spec.alpha) * gp_a * q1_end
    phi_size = (abs(rhs_end) + g_a * dq1_size + abs(linear)) / (abs(spec.w) * gp_a)
    if phi_size >= abs(c0) + g_a * abs(q1_end):
        return c0 + g_a * q1_end
    return (rhs_end - g_a * dq1_end - linear) / (1j * spec.w * gp_a)


def _reference_value(spec, end, first_c0):
    # ``end`` is the end data (c0, q1(a), q1'(a), dq1_size, rhs(a)) of the
    # solve whose q(a) is read; ``first_c0`` is the first solve's c0, None
    # for the algebraic kind.
    c0, q1_end, dq1_end, dq1_size, rhs_end = end
    g_a = spec.g_end()
    alpha = spec.alpha
    w = spec.w
    q_end = _reference_upper_end_value(spec, c0, q1_end, rhs_end, dq1_end, dq1_size)
    value = q_end * g_a**alpha * np.exp(1j * w * g_a)
    if c0 != 0:
        value += c0 * kernel_k_alg(alpha, w, g_a)
    if first_c0 is not None and first_c0 != 0:
        f22, _ = hyp2f2_equal(1.0 + alpha, 1j * w * g_a)
        value += first_c0 * (1j * w) * -(g_a ** (1.0 + alpha) / (1.0 + alpha) ** 2 * f22)
    return complex(value * spec.phase_shift)


def _recorded_levin_calls(monkeypatch):
    # Every bracket of a Levin call of either route, as (spec, end data,
    # first solve's c0, value): levin._quad_levin hands boundary.levin_value
    # the one solve's end data whose q(a) is read, and the first solve's c0
    # for the logarithmic kind.
    seen = []
    real = oscquad.levin.levin_value

    def recording(spec, g_a, end, first_c0=None):
        assert g_a == spec.g_end()
        value = real(spec, g_a, end, first_c0)
        seen.append((spec, end, first_c0, value))
        return value

    monkeypatch.setattr(oscquad.levin, "levin_value", recording)
    return seen


class TestUpperEndValue:
    @staticmethod
    def forms(w, n):
        # q(a) by upper_end_value, by the plain sum c0 + g(a) q1(a), and by
        # the collocated ODE at x = a.
        spec = builtin_problem("ex53a", 0.5, w)
        c0, q1, _ = solve_alg(spec, n)
        row = radau_grid(n).diff[-1]
        g, gp = spec.g_end(), float(spec.oscillator.deriv1(spec.a))
        rhs_end = complex(make_f1_f2(spec)[0].value(spec.a))
        # The right-hand side at x = a that a Levin call reads is f1(a).
        _, data, _, _, (_, _, at_end) = oscquad.levin._physical_operator(spec, 1.0, n)
        assert complex(data[0][at_end]) == rhs_end
        end = (c0, complex(q1[-1]), complex(row @ q1), float(np.abs(row) @ np.abs(q1)), rhs_end)
        picked = upper_end_value(spec, end, *spec.oscillator.series_at(spec.a, 2))
        plain = c0 + g * q1[-1]
        ode = (rhs_end - g * (row @ q1) - 1.5 * gp * q1[-1]) / (1j * spec.w * gp)
        return picked, plain, ode

    def test_forms_agree(self):
        # On the collocated ODE both forms are the same number.
        _, plain, ode = self.forms(300.0, 16)
        assert abs(ode - plain) <= 1e-12 * abs(plain)

    def test_sum_at_small_w(self):
        # Differentiating q1 costs ~n^2 |q1| eps / w; at w = 10 the sum wins.
        picked, plain, _ = self.forms(10.0, 24)
        assert picked == plain

    def test_ode_at_large_w(self):
        # c0 and g(a) q1(a) nearly cancel at w = 1e5; the ODE form is used.
        picked, plain, ode = self.forms(1e5, 16)
        assert picked == ode != plain
        assert abs(ode - plain) <= 1e-9 * abs(plain)


class TestLevinValue:
    @pytest.mark.parametrize("pid", BUILTINS)
    def test_bit_identical_to_separate_brackets(self, monkeypatch, pid):
        # Small and large w take both forms of q(a); both routes and both
        # kinds give the value of the reference assembly bit for bit.
        seen = _recorded_levin_calls(monkeypatch)
        for alpha, w in ((0.5, 8.0), (-0.4, 300.0), (0.7, 1e5)):
            spec = builtin_problem(pid, alpha, w)
            for method, n, s in LEVIN_CALLS:
                result = compute(spec, method, n, s)
                (called_spec, end, first_c0, value), = seen
                seen.clear()
                assert called_spec is spec
                assert len(end) == 5
                assert (first_c0 is None) == (pid in ("ex51", "ex53a"))
                want = _reference_value(spec, end, first_c0)
                assert np.array([value]).tobytes() == np.array([want]).tobytes(), (method, alpha, w)
                assert result.value == value

    @pytest.mark.parametrize("method, n, s", LEVIN_CALLS)
    @pytest.mark.parametrize("pid", BUILTINS)
    def test_one_call_per_compute(self, monkeypatch, pid, method, n, s):
        seen = _recorded_levin_calls(monkeypatch)
        compute(builtin_problem(pid, 0.5, 200.0), method, n, s)
        assert len(seen) == 1

    @pytest.mark.parametrize("method, n, s", LEVIN_CALLS)
    @pytest.mark.parametrize("pid", BUILTINS)
    def test_solves_and_end_values_per_call(self, monkeypatch, pid, method, n, s):
        # One solve against the factor and one q(a) for the algebraic kind;
        # the logarithmic kind adds one coupled solve, f21 - q1 g', and
        # reads its q(a) in place of the first's.  The solves are counted on
        # whichever factor (LU or truncated SVD) levin._factorise gives.
        counts = {"solve": 0, "upper_end_value": 0}

        def counting(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(oscquad.levin, "_solve", counting("solve", oscquad.levin._solve))
        monkeypatch.setattr(oscquad.boundary, "upper_end_value",
                            counting("upper_end_value", oscquad.boundary.upper_end_value))
        compute(builtin_problem(pid, 0.5, 200.0), method, n, s)
        solves = 1 if pid in ("ex51", "ex53a") else 2
        assert counts == {"solve": solves, "upper_end_value": 1}

    def test_oscillator_read_once_at_upper_end(self, monkeypatch):
        # The two solves of a physical ex53b call share one g(a), g'(a):
        # g(a) by g_end, as the moments and the references read it, and
        # g'(a) by deriv1; no series of g is formed at x = a.
        spec = builtin_problem("ex53b", 0.5, 200.0)
        at_end = []

        def counting(name, real):
            def wrapper(self, *args):
                if name == "g_end" or (np.ndim(args[0]) == 0 and args[0] == spec.a):
                    at_end.append(name)
                return real(self, *args)
            return wrapper

        for cls, name in ((Oscillator, "series_at"), (Oscillator, "deriv1"), (ProblemSpec, "g_end")):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        compute(spec, Method.LEVIN_PHYSICAL, 16, 0)
        assert at_end == ["g_end", "deriv1"]


def _a_half(kind, w):
    # f = 1 + 0.2 x, g = x + 2 x^2 on [0, 1/2]: a != 1, and g(a) = 1 while
    # the problem mapped onto [0, 1] has g(1) = 2.
    return build_problem(Amplitude.from_poly([1.0, 0.2]), Oscillator.from_poly([0.0, 1.0, 2.0]),
                         a=0.5, alpha=0.5, kind=kind, w=w)


PIECES_SPECS = {
    "ex51": lambda w: builtin_problem("ex51", 0.5, w),
    "ex52": lambda w: builtin_problem("ex52", 0.5, w),
    # g(1) = 2, so f21's log g(a) term is not zero.
    "ex53b": lambda w: builtin_problem("ex53b", 0.5, w),
    "alg-a-half": lambda w: _a_half(SingKind.ALGEBRAIC, w),
    "log-a-half": lambda w: _a_half(SingKind.ALGEBRAIC_LOG, w),
}


def _public_solves(spec, method, n, s):
    # The solves of a Levin call on ``spec`` by the public pieces, each as
    # (c0, q1, diagnostics), and the route's tuple for ``spec`` with the
    # call's amplitudes.  The public solvers take a problem on [0, 1], so
    # they are given ``spec`` mapped onto it (tests/mapped.py), on which
    # the route gives the same bits.  The call's f21 takes c = g(a) of
    # ``spec``, and solve_log takes g(1) of the problem it is given, which
    # for the mapped problem is g(a)/a: solve_log serves a problem on
    # [0, 1].  Elsewhere in the logarithmic kind, and on the frequency
    # route, which has no public piece for it, the two solves are
    # tsvd_solve's on the route's matrix, row scale and g' data.
    unit = mapped_onto_unit(spec)
    if method is Method.LEVIN_PHYSICAL:
        route = oscquad.levin._physical_operator(spec, spec.g_end(), n)
    else:
        route = oscquad.filon._freq_operator(spec, spec.g_end(), n, s)
    if unit.kind is SingKind.ALGEBRAIC:
        return [solve_alg(unit, n) if method is Method.LEVIN_PHYSICAL else solve_freq(unit, n, s)], route
    if method is Method.LEVIN_PHYSICAL and spec.a == 1.0:
        return list(solve_log(unit, n)), route
    L, (f1, f21), scale, gprime, _ = route
    rhs = (lambda values: values) if scale is None else (lambda values: values / scale)
    x, first = tsvd_solve(L, rhs(f1))
    y, second = tsvd_solve(L, rhs(f21 - _q1_gprime(gprime, x[1:])))
    return [(complex(x[0]), x[1:], first), (complex(y[0]), y[1:], second)], route


def _q1_gprime(gprime, q1):
    # The node data of q1 g' from a route's g' data: a matrix applied to
    # q1, or on the physical route g' at the nodes times q1 extended to the
    # origin by the origin weights.
    rows, origin = gprime
    if origin is None:
        return rows.dot(q1)
    return np.concatenate(([np.dot(origin, q1)], q1)) * rows


def _f1_end(unit, method, n, s):
    # f1(1) of ``unit`` apart from the route's node data: make_f1_f2's f1
    # at t = 1, on the frequency route its value in the series at the
    # Lobatto nodes.
    f1 = make_f1_f2(unit)[0]
    if method is Method.LEVIN_PHYSICAL:
        return complex(f1.value(1.0))
    return complex(f1.series_at(lobatto_grid(n - 1).nodes, s + 1)[-1, 0])


def _end_data(spec, method, n, s, sols, route):
    # The end data at x = a of the solve whose q(a) is read, and the first
    # solve's c0 for the logarithmic kind: c0 times a and q1'(1) divided by
    # a, and the right-hand side at t = 1 read off the node data at the last
    # node, whose f1 is f1(1) computed apart.
    _, data, _, gprime, (q1_row, slope, _) = route
    end_node = -1 if method is Method.LEVIN_PHYSICAL else -(s + 1)
    assert complex(data[0][end_node]) == _f1_end(mapped_onto_unit(spec), method, n, s)
    c0, q1, _ = sols[-1]
    values = data[0] if len(sols) == 1 else data[1] - _q1_gprime(gprime, sols[0][1])
    first_c0 = None if len(sols) == 1 else sols[0][0]
    dq1, dq1_size = complex(slope @ q1), float(np.abs(slope) @ np.abs(q1))
    a = spec.a
    if a != 1.0:
        c0, dq1, dq1_size = c0 * a, dq1 / a, dq1_size / a
        first_c0 = None if first_c0 is None else first_c0 * a
    q1_end = q1[-1] if method is Method.LEVIN_PHYSICAL else q1_row @ q1
    return (c0, complex(q1_end), dq1, dq1_size, complex(values[end_node])), first_c0


class TestComputeFromPublicPieces:
    """A Levin call equals, bit for bit, its solves by the public pieces,
    their end data and levin_value, g(a) = 2 (ex53b) included."""

    @pytest.mark.parametrize("w, factor_kind", [(1.0, "tsvd"), (200.0, "lu")])
    @pytest.mark.parametrize("method, n, s", [(Method.LEVIN_PHYSICAL, 24, 0), (Method.LEVIN_FREQ, 14, 2)])
    @pytest.mark.parametrize("name", PIECES_SPECS)
    def test_value_and_diagnostics(self, name, method, n, s, w, factor_kind):
        spec = PIECES_SPECS[name](w)
        sols, route = _public_solves(spec, method, n, s)
        value = levin_value(spec, spec.g_end(), *_end_data(spec, method, n, s, sols, route))
        result = compute(spec, method, n, s)
        assert np.array([result.value]).tobytes() == np.array([value]).tobytes()
        diag = result.diagnostics
        assert diag["factor"] == factor_kind
        for _, _, solve_diag in sols:
            assert {k: diag[k] for k in ("factor", "cond", "tsvd_truncated")} == \
                {k: solve_diag[k] for k in ("factor", "cond", "tsvd_truncated")}
        residuals = [diag[k] for k in ("residual_norm", "residual_norm_second") if k in diag]
        assert residuals == [solve_diag["residual_norm"] for _, _, solve_diag in sols]


class _CountedRow(np.ndarray):
    # An end row that counts the NumPy operations that read it.
    reads = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedRow.reads += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _CountedRow) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestEndRowsReadOnce:
    @pytest.mark.parametrize("method, n, s", LEVIN_CALLS)
    def test_log_kind_reads_them_as_the_algebraic_kind(self, monkeypatch, method, n, s):
        # The logarithmic kind reads q(a) off its second solve alone, so the
        # end rows, which take q1 to q1(1) and q1'(1), read that solve's q1
        # only, as an algebraic-kind call reads its one solve's.  ex53a and
        # ex53b share g, so their operators.  The physical route's slope row
        # is the last row of its grid's differentiation matrix.
        grid_of, table_of = oscquad.levin.radau_grid, oscquad.filon._freq_table

        def counted_grid(n):
            grid = grid_of(n)
            return replace(grid, diff=grid.diff.view(_CountedRow))

        def counted_table(osc, a, npts, s):
            layout, *rest = table_of(osc, a, npts, s)
            return (replace(layout, end_rows=tuple(row.view(_CountedRow) for row in layout.end_rows)), *rest)

        monkeypatch.setattr(oscquad.levin, "radau_grid", counted_grid)
        monkeypatch.setattr(oscquad.filon, "_freq_table", counted_table)
        reads = {}
        for pid in ("ex53a", "ex53b"):
            _CountedRow.reads = 0
            compute(builtin_problem(pid, 0.5, 200.0), method, n, s)
            reads[pid] = _CountedRow.reads
        assert reads["ex53b"] == reads["ex53a"] > 0


class TestLogKindAtLargeW:
    # ex53b's f x^alpha log x vanishes at x = a = 1, so the integral is
    # O(1/w^2) while each solve's end terms are O(1/w): they cancel in the
    # second solve's end data, whose amplitude vanishes at x = 1 too, before
    # q(a) is rounded.
    @pytest.mark.parametrize("method, n, s", [(Method.LEVIN_PHYSICAL, 24, 0), (Method.LEVIN_FREQ, 14, 2),
                                              (Method.LEVIN_FREQ, 32, 2)])
    def test_within_1e10_of_nsd(self, method, n, s):
        for alpha in (0.5, 0.9, 0.99):
            for w in (1e8, 1e14):
                spec = builtin_problem("ex53b", alpha, w)
                ref = reference_nsd(spec)
                value = compute(spec, method, n, s).value
                assert abs(value - ref) <= 1e-10 * abs(ref), (alpha, w)


_SMALL_ALPHA = json.loads((Path(__file__).parent / "data" / "small_alpha_exact.json").read_text())["entries"]


class TestLogKindAtSmallAlpha:
    # The log kind's end value holds no c0/alpha pair, whose two terms of
    # size |c0/alpha| cancel to O(c0): both routes stay at round-off as
    # alpha -> 0 (the pair lost about eps/|alpha|, 2e-7 at alpha = 1e-9).
    # At w <= 1e2, LEVIN_FREQ (14, 2) stays near its own truncation error,
    # 3e-11 on ex53b at any alpha, and is printed only.
    @pytest.mark.parametrize("entry", _SMALL_ALPHA,
                             ids=[f"{e['problem']}-{e['alpha']}-{e['w']:.0e}" for e in _SMALL_ALPHA])
    def test_small_alpha_table(self, entry):
        spec = builtin_problem(entry["problem"], entry["alpha"], entry["w"])
        exact = complex(float(entry["re"]), float(entry["im"]))
        physical, freq = (abs(compute(spec, method, n, s).value - exact) / abs(exact)
                          for method, n, s in ((Method.LEVIN_PHYSICAL, 24, 0), (Method.LEVIN_FREQ, 14, 2)))
        print(f"small alpha: {entry['problem']} alpha={entry['alpha']} w={entry['w']:.0e}: "
              f"LEVIN_PHYSICAL n=24 {physical:.1e}, LEVIN_FREQ (14, 2) {freq:.1e}")
        assert physical <= 2e-14
        if entry["w"] >= 1e4:
            assert freq <= 1e-14
