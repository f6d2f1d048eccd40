"""Quadrature for highly oscillatory integrals with endpoint singularities.

oscquad computes integrals of the form

    int_0^a f(x) x^alpha [log x] e^{i w g(x)} dx,   0 < |alpha| < 1,

for strictly monotone oscillators g, by Levin-type collocation with the
singular structure separated analytically, plus a Filon-type rule and a
composite baseline for linear oscillators g = beta x, and a brute-force
verification oracle.

Typical use::

    from oscquad import builtin_problem, quad_alg

    spec = builtin_problem("ex51", alpha=0.5, w=1000.0)
    result = quad_alg(spec, n=12, s=0)
    print(result.value)

The ``oscquad-bench`` console script exposes the same functionality as a
benchmark CLI.

``import oscquad`` compiles and runs the Levin core (the physical-space
route and what it stands on) and :mod:`oscquad.quadrature`.  The Filon
and frequency-space module :mod:`oscquad.filon` and the baselines module
:mod:`oscquad.baselines` are in ``sys.modules`` and on the package from
the start, but their code is compiled and run on first attribute access:
the first LEVIN_FREQ or FILON call or frequency-space piece loads
:mod:`oscquad.filon`, and the first reference, CMFP or oracle call loads
:mod:`oscquad.baselines`.  The names this package re-exports from them
resolve through the module ``__getattr__``, so they too load their module
on first use, and an error in either module surfaces there.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    # oscquad.<name>, entered in sys.modules and bound on the package, whose
    # code is compiled and run on its first attribute access.
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Bound before the modules below import them by name.
filon = _lazy_submodule("filon")
baselines = _lazy_submodule("baselines")

from ._result import Method, QuadratureResult
from .cheb import ChebGrid, barycentric_eval, lobatto_grid, radau_grid
from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateSystemError,
    InvalidOscillatorError,
    OscquadError,
    ParameterError,
)
from .levin import (
    assemble_L,
    picard_iterate,
    solve_alg,
    solve_log,
    tsvd_solve,
)
from .numkernel import (
    KernelDiag,
    Strategy,
    gamma_real,
    hyp2f2_equal,
    kernel_h_alg,
    kernel_h_log,
    upper_gamma_complex,
)
from .problem import (
    Amplitude,
    Oscillator,
    ProblemSpec,
    SingKind,
    build_problem,
    builtin_problem,
    delta_alpha,
    f1_derivatives,
    integrand,
    make_f1_f2,
)
from .quadrature import compute, quad_alg, quad_log

__version__ = "0.1.0"

# The names re-exported from the lazy modules, each with its module.
_LAZY_NAMES = {
    **dict.fromkeys(("cmf_composite", "cmfp", "default_cmfp_params", "gauss_legendre", "graded_integral",
                     "reference_nsd", "reference_oracle"), "baselines"),
    **dict.fromkeys(("build_hermite_data", "build_moment_table", "hermite_solve", "moments_mu", "moments_nu",
                     "quad_filon", "quad_freq", "solve_freq"), "filon"),
}

__all__ = [
    "Method",
    "QuadratureResult",
    "cmf_composite",
    "cmfp",
    "default_cmfp_params",
    "gauss_legendre",
    "graded_integral",
    "reference_nsd",
    "reference_oracle",
    "ChebGrid",
    "barycentric_eval",
    "lobatto_grid",
    "radau_grid",
    "AccuracyError",
    "CapabilityError",
    "DegenerateSystemError",
    "InvalidOscillatorError",
    "OscquadError",
    "ParameterError",
    "build_hermite_data",
    "build_moment_table",
    "hermite_solve",
    "moments_mu",
    "moments_nu",
    "quad_filon",
    "quad_freq",
    "solve_freq",
    "assemble_L",
    "picard_iterate",
    "solve_alg",
    "solve_log",
    "tsvd_solve",
    "KernelDiag",
    "Strategy",
    "gamma_real",
    "hyp2f2_equal",
    "kernel_h_alg",
    "kernel_h_log",
    "upper_gamma_complex",
    "Amplitude",
    "Oscillator",
    "ProblemSpec",
    "SingKind",
    "build_problem",
    "builtin_problem",
    "delta_alpha",
    "f1_derivatives",
    "integrand",
    "make_f1_f2",
    "compute",
    "quad_alg",
    "quad_log",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: only names the package does not bind reach here.
    if name in _LAZY_NAMES:
        return getattr(globals()[_LAZY_NAMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
