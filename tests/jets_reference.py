"""Nested forward-mode reference of warpframe.jets.

This is the jet class as it was before jets became flat truncated-Taylor
arrays: a Jet holds a value and one partial per chart direction, and
higher derivatives come from nesting, so a jet of order L over n
coordinates is a tree of (n+1)^L arrays that forms d_i d_j and d_j d_i
separately. It is kept as the reference the flat jets are tested against
(tests/test_jets.py): values and first partials must agree bit for bit,
higher partials to roundoff. The text below is its original docstring.

Forward-mode jets: values bundled with directional derivatives.

A ``Jet`` holds a value and one partial derivative per chart direction.
Values and partials may be numpy arrays (so a single jet evaluates a whole
grid of nodes at once) or further ``Jet`` instances: nesting one level gives
exact first derivatives of quantities that are themselves first derivatives,
nesting twice gives exact third derivatives, and so on. Everything here is
plain product/chain-rule arithmetic; there is no expression graph.

Jets of arrays also index, take block writes (``zeros`` gives a target) and
contract (``einsum``, ``linear``), so tensor code written for arrays runs on
them unchanged.

Only analytic primitives are provided. Branching decisions (signs, pivots)
must be taken on ``value(x)``, which strips all jet levels.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("val", "parts")

    # Keep numpy from absorbing Jet operands into object arrays.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    def __init__(self, val, parts):
        self.val = val
        self.parts = tuple(parts)

    def __repr__(self):
        return f"Jet({self.val!r}, parts={len(self.parts)})"

    # -- component access (array-valued jets) ------------------------------

    def __getitem__(self, key):
        return Jet(self.val[key], [p[key] for p in self.parts])

    def __setitem__(self, key, other):
        """Block write; a plain number or array is a constant (zero parts)."""
        if isinstance(other, Jet):
            self.val[key] = other.val
            for p, q in zip(self.parts, other.parts):
                p[key] = q
        else:
            self.val[key] = other
            for p in self.parts:
                p[key] = 0.0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val,
                       [a + b for a, b in zip(self.parts, other.parts)])
        return Jet(self.val + other, self.parts)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, [-p for p in self.parts])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val,
                       [a * other.val + self.val * b
                        for a, b in zip(self.parts, other.parts)])
        return Jet(self.val * other, [p * other for p in self.parts])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self.val / other.val
            return Jet(q, [(a - q * b) / other.val
                           for a, b in zip(self.parts, other.parts)])
        return Jet(self.val / other, [p / other for p in self.parts])

    def __rtruediv__(self, other):
        # other is a constant
        q = other / self.val
        return Jet(q, [-q * p / self.val for p in self.parts])


def value(x):
    """Strip all jet levels, returning the underlying scalar/array."""
    while isinstance(x, Jet):
        x = x.val
    return x


def part(x, k):
    """The k-th partial of x (zero when x is constant)."""
    if isinstance(x, Jet):
        return x.parts[k]
    return 0.0


# Tensor operations on array-valued jets (parts shaped like the value).

def zeros(shape, like):
    """Zero array of the given shape, as a jet with the structure of
    `like` when that is a jet; a target for block writes."""
    if isinstance(like, Jet):
        return Jet(zeros(shape, like.val), [zeros(shape, p) for p in like.parts])
    return np.zeros(shape)


def linear(fn, x):
    """fn(x) for a linear map fn (a transpose, a copy, a reshape), applied
    to the value and to every partial of a jet."""
    if isinstance(x, Jet):
        return Jet(linear(fn, x.val), [linear(fn, p) for p in x.parts])
    return fn(x)


def einsum(subscripts, *operands):
    """np.einsum over jets and arrays. The product is multilinear, so each
    partial is the sum over the jet operands of the product with that
    operand replaced by its partial."""
    if not any(isinstance(x, Jet) for x in operands):
        return np.einsum(subscripts, *operands)
    vals = [x.val if isinstance(x, Jet) else x for x in operands]
    nparts = next(len(x.parts) for x in operands if isinstance(x, Jet))
    parts = []
    for k in range(nparts):
        acc = 0.0
        for i, x in enumerate(operands):
            if isinstance(x, Jet):
                acc = acc + einsum(subscripts,
                                   *vals[:i], x.parts[k], *vals[i + 1:])
        parts.append(acc)
    return Jet(einsum(subscripts, *vals), parts)


# Elementary functions. Each recurses so nested jets work unchanged.

def sqrt(x):
    if isinstance(x, Jet):
        s = sqrt(x.val)
        return Jet(s, [p / (2.0 * s) for p in x.parts])
    return np.sqrt(x)


def sin(x):
    if isinstance(x, Jet):
        c = cos(x.val)
        return Jet(sin(x.val), [c * p for p in x.parts])
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s = sin(x.val)
        return Jet(cos(x.val), [-s * p for p in x.parts])
    return np.cos(x)


def sinh(x):
    if isinstance(x, Jet):
        c = cosh(x.val)
        return Jet(sinh(x.val), [c * p for p in x.parts])
    return np.sinh(x)


def cosh(x):
    if isinstance(x, Jet):
        s = sinh(x.val)
        return Jet(cosh(x.val), [s * p for p in x.parts])
    return np.cosh(x)


def exp(x):
    if isinstance(x, Jet):
        e = exp(x.val)
        return Jet(e, [e * p for p in x.parts])
    return np.exp(x)


def _zero(levels, n):
    if levels == 0:
        return 0.0
    return Jet(_zero(levels - 1, n), [_zero(levels - 1, n)] * n)


def _const(c, levels, n):
    if levels == 0:
        return c
    return Jet(_const(c, levels - 1, n), [_zero(levels - 1, n)] * n)


def seed(coords, levels):
    """Promote chart coordinates to jets carrying `levels` derivative levels.

    coords: sequence of n coordinate values (scalars or arrays).
    Returns n numbers; feed them through analytic code and read derivatives
    back with ``value``/``part``.
    """
    coords = list(coords)
    n = len(coords)
    if levels == 0:
        return coords
    inner = seed(coords, levels - 1)
    out = []
    for k in range(n):
        parts = [_const(1.0 if j == k else 0.0, levels - 1, n)
                 for j in range(n)]
        out.append(Jet(inner[k], parts))
    return out
