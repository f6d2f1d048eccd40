"""Quadrature for highly oscillatory integrals with endpoint singularities.

oscquad computes integrals of the form

    int_0^a f(x) x^alpha [log x] e^{i w g(x)} dx,   0 < |alpha| < 1,

for strictly monotone oscillators g, by Levin-type collocation with the
singular structure separated analytically, plus equivalent Filon-type
rules, composite baselines, and a brute-force verification oracle.

Typical use::

    from oscquad import builtin_problem, quad_alg

    spec = builtin_problem("ex51", alpha=0.5, w=1000.0)
    result = quad_alg(spec, n=12, s=0)
    print(result.value)

The ``oscquad-bench`` console script exposes the same functionality as a
benchmark CLI.
"""

from ._result import Method, QuadratureResult
from .baselines import (
    CMFPParams,
    cmf_composite,
    cmfp,
    default_cmfp_params,
    gauss_legendre,
    graded_integral,
    reference_nsd,
    reference_oracle,
)
from .cheb import ChebGrid, barycentric_eval, lobatto_grid, radau_grid
from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateSystemError,
    InvalidOscillatorError,
    OscquadError,
    ParameterError,
)
from .filon import (
    HermiteData,
    build_hermite_data,
    build_moment_table,
    hermite_solve,
    moments_mu,
    moments_nu,
    quad_filon,
    quad_freq,
    solve_freq,
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

__all__ = [
    "Method",
    "QuadratureResult",
    "CMFPParams",
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
    "HermiteData",
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
