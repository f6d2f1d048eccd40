"""The contract of the one memo, oscquad._kept.kept, over every kept table,
and the guard that keeps it the only memo in the package."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import oscquad
import oscquad.baselines
import oscquad.benchcli
import oscquad.cheb
import oscquad.filon
import oscquad.levin
import oscquad.numkernel
import oscquad.problem
from oscquad import Method, builtin_problem, compute
from oscquad._kept import KEPT_SIZE
from oscquad.problem import Amplitude, Oscillator

def _osc(i):
    # A new object each call; equal i give equal coefficients, so one key.
    return Oscillator.from_poly([0.0, 1.0, 0.01 * i])


def _linear(i):
    # As _osc, for the tables of g = beta x alone.
    return Oscillator.from_poly([0.0, 1.0 + 0.01 * i])


# Each kept table and its i-th key's arguments, distinct for distinct i.
KEPT_TABLES = {
    "radau_grid": (oscquad.cheb._radau_grid, lambda i: (i + 2,)),
    "lobatto_grid": (oscquad.cheb._lobatto_grid, lambda i: (i + 2,)),
    "layout": (oscquad.filon._layout, lambda i: (i + 3, 0)),
    "cheb_series_table": (oscquad.filon._cheb_series_table, lambda i: (np.array([0.0, 0.5, 1.0]), 3, i + 1)),
    "freq_table": (oscquad.filon._freq_table, lambda i: (_osc(i), 3, 0)),
    "hermite_matrix": (oscquad.filon._hermite_matrix, lambda i: (_linear(i), 1.0, 3, 0)),
    "ratio_series": (oscquad.problem._ratio_series, lambda i: (_osc(i), np.array([0.0, 0.5]), 2, 1.0)),
    "amplitude_series": (oscquad.problem._amplitude_series,
                         lambda i: (Amplitude.from_poly([1.0, 0.01 * i]), np.array([0.0, 0.5]), 2)),
    "end_k_alg": (oscquad.numkernel._end_k_alg, lambda i: (0.5, 10.0 + i, 1.0)),
    "end_k_log": (oscquad.numkernel._end_k_log, lambda i: (0.5, 10.0 + i, 1.0)),
    "mu_1": (oscquad.filon._mu_1, lambda i: (0.5, 10.0 + i, 1.0)),
    "physical_table": (oscquad.levin._physical_table, lambda i: (_osc(i), 4)),
    "normalization": (oscquad.problem._normalization, lambda i: (Oscillator.from_poly([1.0, 1.0, 0.01 * i]), 1.0)),
    "legendre_rule": (oscquad.baselines._legendre_rule, lambda i: (i + 1,)),
    "moment_rule": (oscquad.baselines._moment_rule, lambda i: (i + 1,)),
    "laguerre_rule": (oscquad.baselines._laguerre_rule, lambda i: (-0.9 + 0.02 * i,)),
    "laguerre_log_weights": (oscquad.baselines._laguerre_log_weights, lambda i: (-0.9 + 0.02 * i,)),
    "cheb_interp_setup": (oscquad.baselines._cheb_interp_setup, lambda i: (i + 1,)),
}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def _bits(value):
    # An oscillator is its coefficient bytes, the key the memos know it by;
    # a complex number is its repr, so a zero's sign shows.
    if isinstance(value, Oscillator):
        return value._key
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return tuple((field.name, _bits(getattr(value, field.name))) for field in dataclasses.fields(value))
    return value


@pytest.mark.parametrize("name", list(KEPT_TABLES))
class TestKeptContract:
    def test_hit_returns_same_object(self, name):
        memo, args = KEPT_TABLES[name]
        assert memo(*args(0)) is memo(*args(0))

    def test_bounded_and_keeps_last_key(self, name):
        memo, args = KEPT_TABLES[name]
        memo.cache.clear()
        outs = [memo(*args(i)) for i in range(KEPT_SIZE + 10)]
        assert len({id(out) for out in outs}) == len(outs)
        assert len(memo.cache) == KEPT_SIZE
        assert memo(*args(KEPT_SIZE + 9)) is outs[-1]
        assert memo(*args(0)) is not outs[0]

    def test_arrays_refuse_writes(self, name):
        # A kernel's value is one complex number, which no caller can alter.
        memo, args = KEPT_TABLES[name]
        value = memo(*args(1))
        arrays = list(_arrays(value))
        assert arrays or isinstance(value, complex)
        for x in arrays:
            with pytest.raises(ValueError):
                x.flat[0] = 1.0
            with pytest.raises(ValueError):
                x.flags.writeable = True

    def test_cold_and_warm_give_same_bits(self, name):
        memo, args = KEPT_TABLES[name]
        memo.cache.clear()
        cold = memo(*args(2))
        warm = memo(*args(2))
        assert warm is cold
        assert _bits(warm) == _bits(memo.__wrapped__(*args(2)))


def test_every_memo_is_under_contract():
    # The memos of the package: every table of KEPT_TABLES, and the CLI's
    # parser, whose one key holds no array.
    found = set()
    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        found |= {id(obj) for obj in vars(module).values() if hasattr(obj, "cache") and hasattr(obj, "__wrapped__")}
    want = {id(memo) for memo, _ in KEPT_TABLES.values()} | {id(oscquad.benchcli._make_parser)}
    assert found == want


def _private_memo_or_freeze(tree):
    # Lines that use functools.lru_cache or functools.cache, or set an
    # array's writeable flag.
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if {alias.name for alias in node.names} & {"lru_cache", "cache"}:
                yield node.lineno
        elif isinstance(node, ast.Attribute):
            if node.attr in ("lru_cache", "cache") and isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
            elif node.attr == "writeable" and isinstance(node.ctx, ast.Store):
                yield node.lineno
            elif node.attr == "setflags":
                yield node.lineno


def _outside_functions(node):
    # node and its descendants outside the bodies of functions, lambdas and
    # classes.
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _outside_functions(child)


def _kept_off_module_level(tree):
    # Lines that name kept anywhere but in the decorators of a module-level
    # function or in a module-level statement outside any function: a memo
    # made there would be made per call (or per class) and kept nothing
    # between calls.
    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = stmt.decorator_list
        else:
            roots = [] if isinstance(stmt, ast.ClassDef) else [stmt]
        for root in roots:
            allowed |= {id(node) for node in _outside_functions(root)}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "kept" and id(node) not in allowed:
            yield node.lineno


def test_no_memo_outside_kept():
    src = Path(oscquad.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        if path.name != "_kept.py":
            tree = ast.parse(path.read_text())
            lines = [*_private_memo_or_freeze(tree), *_kept_off_module_level(tree)]
            if lines:
                found[path.name] = lines
    assert found == {}, f"memo or freeze outside oscquad._kept, or kept off module level: {found}"


def test_kept_off_module_level_is_found():
    # The scan finds kept applied per call, in a function, a method or a
    # lambda, and passes it as a decorator or a call at module level.
    tree = ast.parse(
        "from ._kept import kept\n"
        "@kept\n"
        "def table(n):\n"
        "    return n\n"
        "rule = kept(table)\n"
        "def per_call(f):\n"
        "    return kept(f.series_at)\n"
        "class Tables:\n"
        "    @kept\n"
        "    def method(self):\n"
        "        pass\n"
        "lazy = lambda f: _kept.kept(f)\n"
    )
    assert sorted(_kept_off_module_level(tree)) == [7, 9, 12]


def _memo_reads(monkeypatch) -> list:
    # Every binding of every memo in the package replaced by one that
    # records the memo's name on each call; the list of those names.
    reads = []

    def reading(memo):
        def wrapper(*args):
            reads.append(f"{memo.__module__}.{memo.__name__}")
            return memo(*args)

        return wrapper

    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        for name, obj in list(vars(module).items()):
            if hasattr(obj, "cache") and hasattr(obj, "__wrapped__"):
                monkeypatch.setattr(module, name, reading(obj))
    return reads


def _routes(*cases):
    # Each (method, ...) case on each built-in its method takes: FILON
    # takes g = x (ex51, ex52) and not the quadratic g of ex53a and ex53b.
    return [(*case, pid) for case in cases for pid in ("ex51", "ex52", "ex53a", "ex53b")
            if case[0] is not Method.FILON or pid in ("ex51", "ex52")]


@pytest.mark.parametrize("method, n, s, tables, pid", _routes(
    (Method.LEVIN_PHYSICAL, 12, 0, ["oscquad.cheb._radau_grid", "oscquad.levin._physical_table"]),
    (Method.LEVIN_FREQ, 10, 2, ["oscquad.filon._freq_table"]),
    (Method.FILON, 6, 1, ["oscquad.filon._hermite_matrix"]),
))
def test_warm_call_reads_one_table_per_route(monkeypatch, pid, method, n, s, tables):
    # A call after one at the same (g, n, s) reads its route's kept tables
    # once each, and besides them: the frequency-space routes f's series
    # (s > 0) and the x/g series where g is not the identity (ex53a and
    # ex53b); the Levin rules K, and FILON mu_1; and for the log kind (ex52
    # and ex53b) K_log.
    spec = builtin_problem(pid, 0.5, 200.0)
    compute(spec, method, n, s)
    reads = _memo_reads(monkeypatch)
    compute(spec, method, n, s)
    if s:
        tables = tables + ["oscquad.problem._amplitude_series"]
        if pid in ("ex53a", "ex53b"):
            tables = tables + ["oscquad.problem._ratio_series"]
    tables = tables + ["oscquad.filon._mu_1" if method is Method.FILON else "oscquad.numkernel.kernel_k_alg"]
    if pid in ("ex52", "ex53b"):
        tables = tables + ["oscquad.numkernel.kernel_k_log"]
    assert sorted(reads) == sorted(tables)


def _series_counted(amplitude: Amplitude) -> list:
    # The calls of ``amplitude``'s series_fn, recorded from now on; its key
    # stays, which a dataclasses.replace would drop.
    calls = []
    series_fn = amplitude.series_fn

    def counting(xs, m):
        calls.append(m)
        return series_fn(xs, m)

    object.__setattr__(amplitude, "series_fn", counting)
    return calls


@pytest.mark.parametrize("method, n, s, pid", [(Method.LEVIN_FREQ, 10, 2, pid) for pid in ("ex52", "ex53a", "ex53b")]
                         + [(Method.FILON, 6, 1, "ex52")])
def test_warm_call_forms_no_amplitude_series(pid, method, n, s):
    # The built-in 1/(1 + x^2) has one key, so a warm call on a new
    # instance of it at the same nodes forms no series of f; the value is
    # the cold one, bit for bit.
    oscquad.problem._amplitude_series.cache.clear()
    cold = compute(builtin_problem(pid, 0.5, 200.0), method, n, s)
    spec = builtin_problem(pid, 0.5, 200.0)
    calls = _series_counted(spec.amplitude)
    warm = compute(spec, method, n, s)
    assert calls == []
    assert (repr(warm.value), repr(warm.diagnostics)) == (repr(cold.value), repr(cold.diagnostics))


class TestAmplitudeKeys:
    XS = np.array([0.0, 0.25, 1.0])

    def test_equal_coefficients_share_an_entry(self):
        table = oscquad.problem._amplitude_series
        first = table(Amplitude.from_poly([1.0, 0.5j, 2.0]), self.XS, 3)
        assert table(Amplitude.from_poly(np.array([1.0, 0.5j, 2.0])), self.XS, 3) is first

    def test_one_ulp_apart_have_separate_entries(self):
        table = oscquad.problem._amplitude_series
        table.cache.clear()
        near = Amplitude.from_poly([1.0, np.nextafter(0.5, 1.0)])
        outs = [table(f, self.XS, 2) for f in (Amplitude.from_poly([1.0, 0.5]), near)]
        assert outs[0] is not outs[1] and len(table.cache) == 2
        assert outs[1][0, 1] == np.nextafter(0.5, 1.0)

    def test_from_poly_keeps_its_own_coefficients(self):
        coeffs = np.array([1.0, 2.0], dtype=complex)
        f = Amplitude.from_poly(coeffs)
        coeffs[1] = 3.0
        assert f._key == np.array([1.0, 2.0], dtype=complex).tobytes()
        assert f.value(1.0) == 3.0

    def test_oscillator_from_poly_keeps_its_own_coefficients(self):
        # The caller's array changing after the call changes neither g nor
        # its key, so a kept table of g stays that of g.
        coeffs = np.array([0.0, 1.0, 0.5])
        g = Oscillator.from_poly(coeffs)
        spec = oscquad.build_problem(Amplitude.from_poly([1.0]), g, 1.0, 0.5, oscquad.SingKind.ALGEBRAIC, 100.0)
        warm = compute(spec, Method.LEVIN_FREQ, 10, 1)
        coeffs[2] = 0.25
        assert g.value(1.0) == 1.5 and g._key == np.array([0.0, 1.0, 0.5]).tobytes()
        oscquad.filon._freq_table.cache.clear()
        assert repr(compute(spec, Method.LEVIN_FREQ, 10, 1).value) == repr(warm.value)

    def test_oscillator_built_directly_keeps_its_own_coefficients(self):
        # Oscillator(value, series_fn, poly=arr) holds a read-only copy of
        # arr: after arr changes, poly, the key and a warm LEVIN_FREQ value
        # are those of the coefficients at construction, and the value is
        # the cold one.  value and series_fn compute the g of those.
        arr = np.array([0.0, 1.0, 0.5])
        coeffs = arr.copy()
        g = Oscillator(lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                       lambda xs, m: oscquad.problem.poly_taylor(coeffs, xs, m), poly=arr)
        spec = oscquad.build_problem(Amplitude.from_poly([1.0]), g, 1.0, 0.5, oscquad.SingKind.ALGEBRAIC, 100.0)
        for memo, _ in KEPT_TABLES.values():
            memo.cache.clear()
        cold = compute(spec, Method.LEVIN_FREQ, 10, 1)
        arr[2] = 0.25
        assert g.poly.tolist() == [0.0, 1.0, 0.5] and g._key == coeffs.tobytes()
        with pytest.raises(ValueError):
            g.poly[2] = 0.25
        assert repr(compute(spec, Method.LEVIN_FREQ, 10, 1).value) == repr(cold.value)

    def test_builtin_keys(self):
        assert builtin_problem("ex52", 0.5, 1.0).amplitude._key == builtin_problem("ex53a", -0.3, 9.0).amplitude._key
        keys = {builtin_problem("ex51", alpha, w).amplitude._key for alpha, w in ((0.5, 1.0), (0.5, 2.0), (0.4, 1.0))}
        assert len(keys) == 3 and None not in keys
        assert builtin_problem("ex54", 0.5, 1.0).amplitude._key == builtin_problem("ex51", 0.5, 1.0).amplitude._key

    @pytest.mark.parametrize("make", [
        lambda: Amplitude(lambda x: np.ones_like(np.asarray(x, dtype=complex)),
                          lambda xs, m: np.eye(1, m, dtype=complex).repeat(xs.size, axis=0)),
        lambda: Amplitude.with_fd(lambda x: np.exp(np.asarray(x, dtype=float))),
        lambda: oscquad.problem._unit_interval(oscquad.build_problem(
            Amplitude.from_poly([1.0, 2.0]), Oscillator.from_poly([0.0, 1.0]), 2.0, 0.5,
            oscquad.SingKind.ALGEBRAIC, 10.0)).amplitude,
    ], ids=["callable", "with_fd", "unit_interval"])
    def test_unkeyed_amplitudes_are_never_kept(self, make):
        table = oscquad.problem._amplitude_series
        f = make()
        assert f._key is None
        size = len(table.cache)
        first = table(f, self.XS, 2)
        assert table(f, self.XS, 2) is not first
        assert len(table.cache) == size
        assert np.array_equal(first, f.series_at(self.XS, 2))
