"""The one memo for every table oscquad keeps between calls.

Collocation grids, the g-only parts of the frequency-space operators, an
amplitude's series at a route's nodes, the end kernels at (alpha, w,
g(a)) and quadrature rules depend on their arguments alone, so they are
built once and reused for every call with those arguments: the tables of
g and of the grid for every w and alpha, the end kernels for every rule
and node count at one (alpha, w, g(a)).  :func:`kept` is the one rule for
how such a table is keyed, bounded and frozen:

- an argument is keyed as itself, a NumPy array by its dtype, shape and
  bytes, and an argument with a ``_key`` attribute (an
  :class:`oscquad.problem.Oscillator` or
  :class:`oscquad.problem.Amplitude`) by that key; a key of None means
  the value is built on every call and not kept;
- each memo keeps the values of the last ``KEPT_SIZE`` keys used;
- every array of a value, inside tuples and dataclass fields too, is
  returned read-only: as a view of a frozen copy, which cannot be made
  writeable again, so no caller can alter a kept table.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict

import numpy as np

KEPT_SIZE = 64
# Argument types keyed as themselves without a call of _arg_key: none has a
# ``_key`` attribute, and None, which means "not kept", is not among them.
_SCALARS = frozenset((int, float, complex, bool, str, np.float64, np.int64))


def freeze(value):
    """``value`` with every array, in tuples and dataclass fields too,
    replaced by a read-only view of a frozen copy."""
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flags.writeable = False
        return out.view()
    if isinstance(value, tuple):
        return tuple(map(freeze, value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = (f.name for f in dataclasses.fields(value) if f.init)
        return dataclasses.replace(value, **{name: freeze(getattr(value, name)) for name in fields})
    return value


def _arg_key(arg):
    if isinstance(arg, np.ndarray):
        # The dtype object, whose hash is cheap; dtype.str costs 0.4 us.
        return arg.dtype, arg.shape, arg.tobytes()
    return getattr(arg, "_key", arg)


def kept(build):
    """``build`` memoised by the rule of this module; ``.cache`` is the
    ordered dictionary of kept values, the last key used at its end."""
    cache = OrderedDict()

    @functools.wraps(build)
    def memo(*args):
        # A tuple of plain scalars is its own key, the tuple _arg_key would
        # give.
        key = args if _SCALARS.issuperset(map(type, args)) else tuple(map(_arg_key, args))
        out = cache.get(key)
        if out is not None:
            cache.move_to_end(key)
            return out
        if None in key:
            return freeze(build(*args))
        out = cache[key] = freeze(build(*args))
        if len(cache) > KEPT_SIZE:
            cache.popitem(last=False)
        return out

    memo.cache = cache
    return memo
