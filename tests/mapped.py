"""A problem on [0, a] mapped onto [0, 1] by x = a t, for tests that hold
a route or a public solver on [0, a] against the same on [0, 1].

The Levin routes read f and g of a problem on [0, a] at x = a t; the
problem built here reads them so too, so a route on it gives the bits of
that route on the problem as given: f(a t) with Taylor coefficient j
times a^j, g(a t)/a with coefficient j times a^(j-1), slope g'(a t), and
for g = beta x the same beta.  The mapped amplitude and oscillator have
no key, so nothing of them is kept.
"""

from dataclasses import replace

import numpy as np

from oscquad.problem import Amplitude, Oscillator


class _Scaled(Oscillator):
    # g(a t)/a, whose slope is g'(a t), read by g's own deriv1.
    def deriv1(self, t):
        g, a = self._of
        return g.deriv1(a * np.asarray(t, dtype=float))


def mapped_onto_unit(spec):
    """``spec`` on [0, 1] by x = a t: amplitude f(a t), oscillator g(a t)/a,
    frequency w a; ``spec`` itself where a = 1."""
    a, f, g = spec.a, spec.amplitude, spec.oscillator
    if a == 1.0:
        return spec
    amplitude = Amplitude(lambda t: f.value(a * t), lambda ts, m: f.series_at(a * ts, m) * a ** np.arange(m))
    osc = _Scaled(lambda t: g.value(a * t) / a, lambda ts, m: g.series_at(a * ts, m) * a ** (np.arange(m) - 1.0))
    object.__setattr__(osc, "_of", (g, a))
    object.__setattr__(osc, "_beta", g._beta)
    return replace(spec, amplitude=amplitude, oscillator=osc, a=1.0, w=spec.w * a)
