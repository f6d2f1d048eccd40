"""The numerical steepest-descent reference: exact tables, oracle agreement,
refusals, and properties that need no reference value."""

import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gamma, roots_genlaguerre

import oscquad.baselines
from oscquad import Method, compute
from oscquad.baselines import (
    _NSD_GAUSS_TOL,
    _NSD_ORDER,
    _NSD_PRODUCT_TOL,
    _NSD_TILT,
    _laguerre_log_weights,
    _laguerre_rule,
    reference_nsd,
    reference_oracle,
)
from oscquad.benchcli import NSD_CROSSOVER
from oscquad.errors import AccuracyError, CapabilityError
from oscquad.problem import (
    BUILTIN_IDS,
    Amplitude,
    Oscillator,
    SingKind,
    _horner,
    build_problem,
    builtin_problem,
)

DATA = Path(__file__).parent / "data"


def _entries(name):
    return json.loads((DATA / name).read_text())["entries"]


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


@pytest.mark.parametrize("table", ["criterion3_exact.json", "quadratic_exact.json"])
def test_matches_exact_tables(table):
    # 28 values of ex51/ex52 and 16 of ex53a/b, each to 32 digits.
    worst = 0.0
    for e in _entries(table):
        spec = builtin_problem(e["problem"], e["alpha"], e["w"])
        rel = _rel(reference_nsd(spec), complex(float(e["re"]), float(e["im"])))
        worst = max(worst, rel)
        assert rel <= 1e-15, (e["problem"], e["alpha"], e["w"], rel)
    print(f"nsd vs {table}: worst relative error {worst:.1e}")


@functools.lru_cache(maxsize=None)
def _generator():
    # tests/data/make_exact.py, which writes every exact table.
    spec = importlib.util.spec_from_file_location("make_exact", DATA / "make_exact.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@functools.lru_cache(maxsize=None)
def _crossover_exact():
    # The 40-digit values of oracle_crossover_exact.json, by (problem,
    # alpha, w).
    return {(e["problem"], e["alpha"], e["w"]): complex(float(e["re"]), float(e["im"]))
            for e in _entries("oracle_crossover_exact.json")}


def _exact(pid, alpha, w):
    # The 40-digit value of a built-in on the grid of
    # test_agrees_with_oracle_above_crossover.
    return _crossover_exact()[(pid, alpha, w)]


def test_tables_match_generator_grids():
    # No mpmath evaluation: every committed table is one of the generator's,
    # with the generator's grid, so a grid edited without regenerating its
    # table fails here.
    gen = _generator()
    assert sorted(DATA.glob("*_exact.json")) == sorted(gen.path(name) for name in gen.TABLES)
    for name, table in gen.TABLES.items():
        committed = json.loads(gen.path(name).read_text())
        keys = [{k: v for k, v in e.items() if k not in ("re", "im")} for e in committed["entries"]]
        assert keys == table.grid, name
        assert "tests/data/make_exact.py" in committed["description"], name


def test_quadratic_table_guard():
    # One entry of the quadratic table recomputed in 40-digit arithmetic on
    # the cross-check path angle.
    gen = _generator()
    entry = next(e for e in _entries("quadratic_exact.json")
                 if (e["problem"], e["alpha"], e["log10_w"]) == ("ex53b", -0.5, 3.0))
    value = gen.exact_value("ex53b", -0.5, entry["w"], gen.CHECK_ANGLE)
    with gen.mp.workdps(gen.DPS):
        table = gen.mp.mpc(entry["re"], entry["im"])
        assert float(abs(value - table) / abs(table)) <= 1e-20


def test_cubic_table_guard():
    # Two entries of the cubic-g table, whose paths Newton's method follows,
    # recomputed in 40-digit arithmetic on the cross-check path angle.
    pytest.importorskip("mpmath")
    gen = _generator()
    for log_kind, alpha, w in ((False, -0.5, 1e3), (True, 0.9, 1e4)):
        entry = next(e for e in _entries("cubic_exact.json")
                     if (e["log_kind"], e["alpha"], e["w"]) == (log_kind, alpha, w))
        value = gen.poly_value(entry["f"], entry["g"], entry["a"], alpha, w, log_kind, gen.CHECK_ANGLE)
        with gen.mp.workdps(gen.DPS):
            table = gen.mp.mpc(entry["re"], entry["im"])
            assert float(abs(value - table) / abs(table)) <= 1e-20, (log_kind, alpha, w)


@pytest.mark.parametrize("table, pid, alpha, log10_w", [
    ("criterion3_exact.json", "ex52", -0.5, 3.0), ("quadratic_exact.json", "ex53b", 0.5, 2.0),
])
def test_near_minus_one_generator_reproduces_tables(table, pid, alpha, log10_w):
    # The generator, whose endpoint term is in closed form, on its primary
    # angle against a committed value that the plain steepest-descent
    # integral wrote (the tables' entries are unchanged since).
    gen = _generator()
    entry = next(e for e in _entries(table) if (e["problem"], e["alpha"], e["log10_w"]) == (pid, alpha, log10_w))
    value = gen.exact_value(pid, alpha, entry["w"])
    with gen.mp.workdps(gen.DPS):
        other = gen.mp.mpc(entry["re"], entry["im"])
        assert float(abs(value - other) / abs(other)) <= 1e-20


@pytest.mark.parametrize("entry", [
    pytest.param(e, id=f"{e['problem']}-{e['alpha']}-{e['w']:.0e}") for e in _entries("alpha_near_one_exact.json")])
def test_alpha_near_one_table(entry):
    # NSD: ex53a to 1e-15 and ex53b to 1e-14 near alpha = 1.  The Levin
    # routes, LEVIN_PHYSICAL n = 32 and LEVIN_FREQ (14, 2), to 1e-14: at
    # w = 1e8 ex53b's value is O(1/w^2), formed from solves whose end terms
    # are O(1/w).  LEVIN_PHYSICAL n = 24 is printed beside them.
    spec = builtin_problem(entry["problem"], entry["alpha"], entry["w"])
    exact = complex(float(entry["re"]), float(entry["im"]))
    nsd = _rel(reference_nsd(spec), exact)
    physical = [_rel(compute(spec, Method.LEVIN_PHYSICAL, n, 0).value, exact) for n in (24, 32)]
    freq = _rel(compute(spec, Method.LEVIN_FREQ, 14, 2).value, exact)
    print(f"alpha near 1: {entry['problem']} alpha={entry['alpha']} w={entry['w']:.0e}: nsd {nsd:.1e}, "
          f"LEVIN_PHYSICAL n=24 {physical[0]:.1e}, n=32 {physical[1]:.1e}, LEVIN_FREQ (14, 2) {freq:.1e}")
    assert nsd <= (1e-15 if entry["problem"] == "ex53a" else 1e-14)
    assert max(physical[1], freq) <= 1e-14


@pytest.mark.parametrize("pid", [p for p in BUILTIN_IDS if p != "ex54"])
@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.5, 0.9])
def test_agrees_with_oracle_above_crossover(pid, alpha):
    # From the crossover to |w| g(a) = 300 NSD either refuses or agrees with
    # the oracle to 1e-13; at 300 every built-in is in its scope.  Where the
    # two differ by more, the 40-digit value shows that the oracle is off
    # (its floor rises with w: up to 6.3e-14 at 300, on ex51 at alpha = 0.9)
    # and that NSD is within 2e-15.
    g_end = 2.0 if pid.startswith("ex53") else 1.0
    accepted = []
    for phase in (NSD_CROSSOVER * 1.01, 150.0, 200.0, 250.0, 300.0):
        spec = builtin_problem(pid, alpha, phase / g_end)
        try:
            value = reference_nsd(spec)
        except CapabilityError:
            continue
        accepted.append(phase)
        oracle = reference_oracle(spec)
        gap = _rel(value, oracle)
        if gap > 1e-13:
            exact = _exact(pid, alpha, phase / g_end)
            print(f"nsd vs oracle: {pid} alpha={alpha} |w|g(a)={phase:g}: gap {gap:.1e}, "
                  f"oracle off by {_rel(oracle, exact):.1e}")
            assert _rel(value, exact) <= 2e-15
            assert _rel(oracle, exact) >= 0.5 * gap
    assert 300.0 in accepted
    if pid != "ex53b":
        assert len(accepted) == 5


def _pole_amplitude(pole):
    # f = 1 / (x - pole), with its Taylor series 1/(x - pole) = sum_k
    # (-1)^k h^k / (x0 - pole)^{k+1} for the Levin comparison.
    def complex_value(z):
        return 1.0 / (np.asarray(z, dtype=complex) - pole)

    def series(xs, m):
        k = np.arange(m)
        return (-1.0) ** k / (xs[:, None] - pole) ** (k + 1)

    return Amplitude(value=lambda x: complex_value(np.asarray(x, dtype=float)), series_fn=series,
                     complex_value=complex_value, singular_points=(pole,))


class TestRefusals:
    def test_pole_inside_swept_region(self):
        # A pole above the middle of [0, 1], under both rays from 0.
        spec = build_problem(_pole_amplitude(0.5 + 0.5j), Oscillator.from_poly([0.0, 1.0]),
                             1.0, 0.5, SingKind.ALGEBRAIC, 1e3)
        with pytest.raises(CapabilityError, match="swept region"):
            reference_nsd(spec)
        # The same pole below the axis is outside the region of w > 0
        # (Levin's own error here is 8e-14).
        spec = build_problem(_pole_amplitude(0.5 - 0.5j), Oscillator.from_poly([0.0, 1.0]),
                             1.0, 0.5, SingKind.ALGEBRAIC, 1e3)
        assert _rel(reference_nsd(spec), compute(spec, Method.LEVIN_FREQ, 32, 2).value) <= 1e-12

    def test_pole_near_the_nodes(self):
        # ex52's pole at x = i sits at p = w on the tilted ray's side: too
        # close to the nodes at w = 50, far enough at w = 100.
        with pytest.raises(CapabilityError, match="too close"):
            reference_nsd(builtin_problem("ex52", 0.5, 50.0))
        reference_nsd(builtin_problem("ex52", 0.5, 100.0))

    def test_path_branch_point_near_the_nodes(self):
        # g = x^2 + x: the path from 0 branches at p = i w / 4.
        with pytest.raises(CapabilityError, match="too close"):
            reference_nsd(builtin_problem("ex53a", 0.5, 10.0))

    def test_out_of_scope(self):
        cubic = build_problem(Amplitude.from_poly([1.0]), Oscillator.from_poly([0.0, 1.0, 0.0, 1.0]),
                              1.0, 0.5, SingKind.ALGEBRAIC, 1e3)
        with pytest.raises(CapabilityError, match="degree"):
            reference_nsd(cubic)
        fd = build_problem(Amplitude.with_fd(lambda x: np.cos(x) + 0j), Oscillator.from_poly([0.0, 1.0]),
                           1.0, 0.5, SingKind.ALGEBRAIC, 1e3)
        with pytest.raises(CapabilityError, match="complex-argument"):
            reference_nsd(fd)

    @pytest.mark.parametrize("kind", list(SingKind))
    def test_degree_ignores_trailing_zeros(self, kind):
        def spec(g):
            return build_problem(Amplitude.from_poly([1.0, 0.5j]), Oscillator.from_poly(g),
                                 1.0, 0.5, kind, 1e3)

        padded = reference_nsd(spec([0.0, 1.0, 0.3, 0.0]))
        trimmed = reference_nsd(spec([0.0, 1.0, 0.3]))
        assert np.array_equal(np.array([padded]).view(np.uint64), np.array([trimmed]).view(np.uint64))
        with pytest.raises(CapabilityError, match="degree"):
            reference_nsd(spec([0.0, 1.0, 0.0, 1e-3]))


def _array_path_slope(t, g1, g2):
    root = np.sqrt(g1 * g1 + 4.0 * g2 * t)
    return 2.0 / (g1 + root), root


def _array_rule_error(t, w, turn, alpha, product=False):
    with np.errstate(over="ignore", invalid="ignore"):
        z = -1j * w * np.asarray(t, dtype=complex) / turn
    z = z[np.isfinite(z)]
    if z.size == 0:
        return 0.0
    nu = 4.0 * _NSD_ORDER + 2.0 * alpha + 2.0
    exponent = -np.maximum(z.real, 0.0) - 2.0 * np.sqrt(nu) * np.sqrt(-z).real
    return float(np.exp(exponent.max() / (2.0 if product else 1.0)))


def _array_tilt(spec, coeffs, slopes, g_a):
    # The scope gate of reference_nsd on NumPy arrays: the reference of
    # baselines._nsd_tilt, with its signature.
    log_kind = spec.kind is SingKind.ALGEBRAIC_LOG
    coeffs = np.asarray(coeffs, dtype=float)
    g2 = float(coeffs[2]) if coeffs.size >= 3 else 0.0
    w, alpha = spec.w, spec.alpha
    sign = 1.0 if w > 0 else -1.0
    sing = np.asarray(spec.amplitude.singular_points, dtype=complex)
    u = _horner(coeffs, sing)
    branch = []
    for g1 in slopes:
        t_branch = -g1 * g1 / (4.0 * g2) if g2 else np.inf
        branch.append([t_branch] if np.isfinite(t_branch) else [])
    t_end = np.concatenate([u - g_a, branch[1], [-g_a]])
    if _array_rule_error(t_end, w, 1.0, 0.0) > _NSD_GAUSS_TOL:
        raise CapabilityError("a singularity lies too close to the nodes of the path from a")
    t_zero = np.concatenate([u, branch[0]])
    tol_zero = _NSD_PRODUCT_TOL if log_kind else _NSD_GAUSS_TOL
    on_branch = np.abs(u * _array_path_slope(u, slopes[0], g2)[0] - sing) <= 1e-9 * (1.0 + np.abs(sing))
    height = sign * u.imag
    for tilt in (0.0, _NSD_TILT):
        left = tilt * height
        inside = (height >= 0) & (np.minimum(left, g_a) <= u.real) & (u.real <= np.maximum(left, g_a))
        turn = 1.0 - 1j * sign * tilt
        if not np.any(inside & on_branch) and _array_rule_error(t_zero, w, turn, alpha, log_kind) <= tol_zero:
            return tilt
    raise CapabilityError(
        "a singularity of the amplitude or of the path from 0 lies in the swept "
        "region or too close to the rule's nodes"
    )


def _nsd_outcome(spec):
    # The value's bits, or the class and message of the refusal.
    try:
        return np.array([reference_nsd(spec)]).view(np.uint64).tolist()
    except (CapabilityError, AccuracyError) as exc:
        return type(exc), str(exc)


def _random_gate_problems(count, seed=35):
    # A pole 1/(x - p), p in [-1, 3] x [-2, 2]i, under a linear or quadratic
    # increasing g on [0, a], a in [0.3, 3], with |w| g(a) from 1 to 1e7.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.uniform(0.3, 3.0)
        g1 = rng.uniform(0.5, 2.0)
        g2 = rng.uniform(-0.45 * g1 / a, 1.0) if rng.random() < 0.5 else 0.0
        g = [rng.uniform(-1.0, 1.0), g1, g2]
        pole = complex(rng.uniform(-1.0, 3.0), rng.uniform(-2.0, 2.0))
        alpha = float(rng.choice([-0.999, -0.9, -0.5, -0.05, 0.05, 0.37, 0.5, 0.9, 0.999]))
        kind = list(SingKind)[rng.integers(2)]
        w = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 7.0) / (g1 * a + g2 * a * a)
        yield build_problem(_pole_amplitude(pole), Oscillator.from_poly(g), a, alpha, kind, w)


class TestScalarGate:
    """reference_nsd's scope gate in Python scalars against the array gate
    it replaced: the same value bits, or the same refusal class and message,
    on every case."""

    def _compare(self, monkeypatch, specs):
        outcomes = []
        for spec in specs:
            scalar = _nsd_outcome(spec)
            with monkeypatch.context() as patch:
                patch.setattr(oscquad.baselines, "_nsd_tilt", _array_tilt)
                array = _nsd_outcome(spec)
            assert scalar == array, (spec.alpha, spec.w, spec.a, spec.oscillator.poly)
            outcomes.append(scalar)
        return outcomes

    def test_builtins(self, monkeypatch):
        ws = np.logspace(-1.0, 9.0, 41)
        alphas = [-0.999, 0.999, -0.9, 0.9, -0.5, 0.5, -0.05, 0.05, 0.37]
        specs = [builtin_problem(pid, alpha, w) for pid in BUILTIN_IDS for alpha in alphas for w in ws]
        outcomes = self._compare(monkeypatch, specs)
        refusals = {out for out in outcomes if isinstance(out, tuple)}
        # Both gate refusals occur, and most cases are accepted.
        assert {message for _, message in refusals} >= {
            "a singularity lies too close to the nodes of the path from a",
            "a singularity of the amplitude or of the path from 0 lies in the swept "
            "region or too close to the rule's nodes",
        }
        assert sum(isinstance(out, list) for out in outcomes) > len(outcomes) / 2

    def test_random_pole_problems(self, monkeypatch):
        tilts = []
        real_tilt = oscquad.baselines._nsd_tilt

        def recording(*args):
            tilts.append(real_tilt(*args))
            return tilts[-1]

        monkeypatch.setattr(oscquad.baselines, "_nsd_tilt", recording)
        outcomes = self._compare(monkeypatch, list(_random_gate_problems(600)))
        # Both rays from 0, and refusals, occur among the cases.
        assert set(tilts) == {0.0, _NSD_TILT}
        assert any(isinstance(out, tuple) for out in outcomes)


class TestLaguerreRules:
    ALPHAS = [0.0, *np.round(np.linspace(-0.999, 0.999, 40), 6).tolist()]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_rule_is_scipy_rule(self, alpha):
        nodes, weights = _laguerre_rule(alpha)
        ref_nodes, ref_weights = roots_genlaguerre(_NSD_ORDER, alpha)
        assert np.array_equal(nodes.view(np.uint64), ref_nodes.view(np.uint64))
        assert np.array_equal(weights.view(np.uint64), ref_weights.view(np.uint64))

    @pytest.mark.parametrize("alpha", [0.0, 0.05, -0.05, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999])
    def test_log_weights_reproduce_log_moments(self, alpha):
        # int p^(alpha+k) log(p) e^-p dp = Gamma(alpha+k+1) psi(alpha+k+1),
        # exact for the product rule up to k = m - 1; the recurrence is
        # within 1.6e-14 of it on this grid.
        nodes, _ = _laguerre_rule(alpha)
        log_weights = _laguerre_log_weights(alpha)
        for k in range(_NSD_ORDER):
            powers = nodes**k
            exact = gamma(alpha + k + 1) * digamma(alpha + k + 1)
            assert abs(log_weights @ powers - exact) <= 5e-14 * (np.abs(log_weights) @ powers), k


# Random complex quadratic f and increasing quadratic g on [0, a]: g'(0) in
# [1, 2] and g'(a) >= g'(0) / 2 keep the path branch points away from the
# nodes at |w| g(a) >= 1e3.
@st.composite
def _problems(draw):
    a = draw(st.floats(0.5, 1.5))
    g1 = draw(st.floats(1.0, 2.0))
    g2 = draw(st.floats(-g1 / (4.0 * a), 1.0))
    g0 = draw(st.floats(-1.0, 1.0))
    f = [complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for _ in range(3)]
    f[0] += 2.0  # keeps |f| away from 0 on [0, a]
    alpha = draw(st.sampled_from([-0.9, -0.5, -0.1, 0.3, 0.7, 0.9]))
    kind = draw(st.sampled_from(list(SingKind)))
    g_end = g1 * a + g2 * a * a
    phase = 10.0 ** draw(st.floats(3.0, 6.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return f, [g0, g1, g2], a, alpha, kind, sign * phase / g_end


def _build(f, g, a, alpha, kind, w):
    return build_problem(Amplitude.from_poly(f), Oscillator.from_poly(g), a, alpha, kind, w)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_problems())
def test_property_agrees_with_levin(problem):
    # The bound is Levin's: on f = 2, g = x, a = 0.5, alpha = -0.9, w = 2000
    # LEVIN_FREQ(24, 2) is 1.3e-11 off the closed form and NSD 2.2e-16, and
    # gaps of up to 1.3e-10 occur at alpha = -0.9.
    spec = _build(*problem)
    levin = compute(spec, Method.LEVIN_FREQ, 24, 2).value
    assert _rel(reference_nsd(spec), levin) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_problems())
def test_property_conjugation(problem):
    # Q(conj f, -w) = conj Q(f, w): x^alpha [log x] is real on (0, a).
    f, g, a, alpha, kind, w = problem
    value = reference_nsd(_build(f, g, a, alpha, kind, w))
    mirrored = reference_nsd(_build(np.conj(f), g, a, alpha, kind, -w))
    assert _rel(mirrored, np.conj(value)) <= 1e-14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_problems(), st.floats(100.0, 300.0))
def test_property_agrees_with_oracle(problem, phase):
    f, g, a, alpha, kind, w = problem
    g_end = g[1] * a + g[2] * a * a
    spec = _build(f, g, a, alpha, kind, np.sign(w) * phase / g_end)
    try:
        value = reference_nsd(spec)
    except CapabilityError:
        return  # a branch point too close to the nodes at this phase
    assert _rel(value, reference_oracle(spec)) <= 1e-12
