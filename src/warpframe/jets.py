"""Truncated Taylor jets: a value with all its partial derivatives up to a
fixed order, in one array.

A ``Jet`` of order L in n chart coordinates holds one array ``d`` of shape
(K, *shape), K = C(n+L, L). Row ``d[r]`` is the partial derivative
d^alpha f of the r-th multi-index alpha with |alpha| <= L. Rows are ordered
by degree, and within a degree lexicographically in the sorted coordinate
tuple of alpha: the value, then d/dx_0 ... d/dx_{n-1}, then d0 d0, d0 d1,
..., and so on. Values may be arrays, so one jet evaluates a whole grid of
nodes at once. This is the truncated Taylor arithmetic of Griewank and
Walther (Evaluating Derivatives, SIAM 2008, ch. 13), with each row scaled
as a partial derivative rather than a Taylor coefficient.

``val`` is the jet of order L-1 (a prefix view of d; the plain array d[0]
at L = 1) and ``parts[k]`` the jet of order L-1 of df/dx_k, an index
gather of rows of d, so reading it adds no rounding; ``grad`` stacks the
parts on a new first value axis in one gather. ``seed`` promotes
chart coordinates to jets; ``value`` and ``part`` read results back.

Products follow the Leibniz rule, quotients the recurrence it gives, and
the elementary functions their Taylor series
f(a0 + delta) = sum_j f^(j)(a0)/j! delta^j, with index and binomial tables
built once per (n, L). Rows of degree 0 and 1 are formed with the
expressions of first-order forward mode (a_k*b0 + a0*b_k,
(a_k - q0*b_k)/b0, p/(2.0*s), 0.0 + einsum + einsum), and the rows of
degree 2 of products, of quotients of a constant by a jet and of
elementary functions with the expressions that the first-order rule gives
when applied to itself, the lower coordinate index outermost. So values
and first partials round as in nested forward mode
(tests/jets_reference.py), and so do the second partials of code without
einsum or a quotient of two jets wherever the nested jets' mixed partials
agree; the oracle's induced fields depend on nothing else. Rows of degree
2 of einsum and of a quotient of two jets, and every row of degree 3 and
more, take the binomial Leibniz sums (the quotient's recurrence over
them), which differ from nested forward mode at roundoff.

Jets of arrays also index, take block writes (``zeros`` gives a target) and
contract (``einsum``, ``linear``), so tensor code written for arrays runs on
them unchanged. Indexing takes basic indices and adjacent advanced ones.

Only analytic primitives are provided. Branching decisions (signs, pivots)
must be taken on ``value(x)``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Index tables, one set per (n, L)


def _index(rows):
    """Rows as a slice when they are consecutive (a view), else an index
    array (a gather)."""
    rows = list(rows)
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows)


def _partitions(items):
    """Every partition of the list items into blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [[head] + blocks[i]] + blocks[i + 1:]
        yield [[head]] + blocks


def _multinomial(alpha, betas):
    """Coefficient of the term betas (multi-indices as count tuples that
    sum to alpha) in the general Leibniz rule."""
    out = 1
    for k, ak in enumerate(alpha):
        rest = ak
        for b in betas:
            out *= math.comb(rest, b[k])
            rest -= b[k]
    return out


class _Tables:
    """Row layout, Leibniz and chain-rule tables of the jets of order L in
    n coordinates."""

    def __init__(self, n, L):
        self.n, self.L = n, L
        # Multi-indices as sorted coordinate tuples, by degree.
        alphas = [a for d in range(L + 1)
                  for a in itertools.combinations_with_replacement(range(n), d)]
        self.K = len(alphas)
        self._alphas = alphas
        self._counts = [tuple(a.count(k) for k in range(n)) for a in alphas]
        self._row = {c: r for r, c in enumerate(self._counts)}
        self.start = [math.comb(n + d - 1, d - 1) if d else 0
                      for d in range(L + 2)]
        self.lower = _tables(n, L - 1) if L > 1 else None
        self.first = slice(1, 1 + n)
        below = self.start[L]
        # parts[k]: the rows of alpha + e_k for the rows alpha of order L-1.
        self.shift = [_index(self._row[self._plus(c, k)]
                             for c in self._counts[:below])
                      for k in range(n)]
        # grad: the rows of every parts[k], (below, n), for one gather.
        self.grad = np.array([[self._row[self._plus(c, k)] for k in range(n)]
                              for c in self._counts[:below]])
        if L >= 2:
            pairs = alphas[1 + n:self.start[3]]
            self.deg2 = slice(1 + n, self.start[3])
            self.outer = _index(1 + a[0] for a in pairs)
            self.inner = _index(1 + a[1] for a in pairs)

    @staticmethod
    def _plus(c, k):
        return c[:k] + (c[k] + 1,) + c[k + 1:]

    def rows(self, lo):
        """Rows of degree lo and more."""
        return range(self.start[min(lo, self.L + 1)], self.K)

    @functools.cache
    def leibniz(self, row, m=2, proper=False):
        """Terms of row `row` in the Leibniz rule for a product of m
        factors: (rows (T, m), coefficients (T,)), one term per way to
        split its multi-index. proper keeps only the terms whose first
        factor is of lower degree than the row (the quotient
        recurrence)."""
        alpha = self._counts[row]
        below = list(itertools.product(*(range(a + 1) for a in alpha)))
        splits = itertools.product(*([below] * (m - 1)))
        rows, coef = [], []
        for head in splits:
            rest = tuple(a - sum(b[k] for b in head)
                         for k, a in enumerate(alpha))
            if min(rest) < 0 or (proper and head[0] == alpha):
                continue
            betas = head + (rest,)
            rows.append([self._row[b] for b in betas])
            coef.append(float(_multinomial(alpha, betas)))
        return np.array(rows), np.array(coef)

    @functools.cache
    def chain(self, row):
        """Terms of row `row` in the chain rule for f(x) (Faa di Bruno):
        (j, rows, count) stands for count * f^(j)(x0) times the product of
        the rows of x, one term per j rows that split the multi-index."""
        alpha = self._alphas[row]
        terms = collections.Counter()
        for blocks in _partitions(list(alpha)):
            rows = sorted(self._row[tuple(b.count(k) for k in range(self.n))]
                          for b in blocks)
            terms[len(blocks), tuple(rows)] += 1
        return [(j, rows, float(c)) for (j, rows), c in sorted(terms.items())]


@functools.cache
def _tables(n, L):
    """The one table set of order L in n coordinates: jets combine only
    when they share it."""
    return _Tables(n, L)


# ---------------------------------------------------------------------------
# Shape helpers


def _up(d, nd):
    """d (K, *s) with len(s) <= nd, as a view (K, 1, ..., 1, *s) with nd
    axes after the first."""
    extra = nd + 1 - d.ndim
    return d[(slice(None),) + (None,) * extra] if extra > 0 else d


def _check(a, b):
    if a.t is not b.t:
        raise ValueError(
            f"jets of order {a.t.L} in {a.t.n} coordinates and order "
            f"{b.t.L} in {b.t.n} do not combine")


def _pair(a, b):
    """The row arrays of jets a and b, aligned for broadcasting, and an
    empty row array of their broadcast shape."""
    _check(a, b)
    a, b = a.d, b.d
    if a.shape != b.shape:
        nd = max(a.ndim, b.ndim) - 1
        a, b = _up(a, nd), _up(b, nd)
    return a, b, _empty(a, b)


def _empty(a, b):
    """Empty row array of the broadcast shape of the row arrays a, b, where
    b has no more axes than a (a size-1 axis takes the other's size)."""
    shape = a.shape
    if b.shape != shape:
        tail = (1,) * (len(shape) - len(b.shape)) + b.shape
        shape = shape[:1] + tuple(x if y == 1 else y
                                  for x, y in zip(shape[1:], tail[1:]))
    return np.empty(shape, dtype=np.result_type(a.dtype, b.dtype))


def _const(d, other):
    """d and the constant other (a number or an array), aligned for
    broadcasting."""
    return _up(d, np.ndim(other)), np.asarray(other)


def _key(key):
    return (slice(None),) + (key if isinstance(key, tuple) else (key,))


def _sum_terms(factors, rows, coef):
    """sum_t coef[t] * prod_j factors[j][rows[t, j]]."""
    acc = factors[0][rows[:, 0]]
    for j in range(1, len(factors)):
        acc = acc * factors[j][rows[:, j]]
    if (coef != 1.0).any():
        acc = acc * coef.reshape((-1,) + (1,) * (acc.ndim - 1))
    return acc.sum(axis=0)


# ---------------------------------------------------------------------------
# Jets


class Jet:
    """A truncated Taylor jet: the rows d (K, *shape) of its partial
    derivatives and the tables t of its order (see the module docstring)."""

    __slots__ = ("d", "t")

    # Keep numpy from absorbing Jet operands into object arrays.
    __array_ufunc__ = None
    __array_priority__ = 1000.0

    def __init__(self, val, parts):
        """The first-order jet with value val and partials parts."""
        rows = [np.asarray(x) for x in [val, *parts]]
        self.t = _tables(len(rows) - 1, 1)
        self.d = np.empty((len(rows),) + np.broadcast_shapes(
            *(x.shape for x in rows)), np.result_type(*rows))
        for r, x in enumerate(rows):
            self.d[r] = x

    @classmethod
    def _of(cls, d, t):
        out = object.__new__(cls)
        out.d, out.t = d, t
        return out

    @property
    def val(self):
        t = self.t
        if t.L == 1:
            return self.d[0]
        return Jet._of(self.d[:t.start[t.L]], t.lower)

    @property
    def parts(self):
        return tuple(self._part(k) for k in range(self.t.n))

    def _part(self, k):
        t = self.t
        if t.L == 1:
            return self.d[1 + k]
        return Jet._of(self.d[t.shift[k]], t.lower)

    @property
    def grad(self):
        """parts stacked on a new first value axis: the jet of order L-1 of
        shape (n, *shape), one gather of the rows of d (a view of them for
        L = 1, where it is a plain array)."""
        t = self.t
        if t.L == 1:
            return self.d[t.first]
        return Jet._of(self.d[t.grad], t.lower)

    # -- component access (array-valued jets) ------------------------------

    def __getitem__(self, key):
        return Jet._of(self.d[_key(key)], self.t)

    def __setitem__(self, key, other):
        """Block write; a plain number or array is a constant (zero parts)."""
        if isinstance(other, Jet):
            _check(self, other)
            self.d[_key(key)] = _up(other.d, np.ndim(self.d[0][key]))
        else:
            self.d[0][key] = other
            self.d[(slice(1, None),) + _key(key)[1:]] = 0.0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, out = _pair(self, other)
            return Jet._of(np.add(a, b, out=out), self.t)
        d, c = _const(self.d, other)
        out = _empty(d, c[None])
        out[1:] = d[1:]
        np.add(d[0], c, out=out[0, ...])
        return Jet._of(out, self.t)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(-self.d, self.t)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, out = _pair(self, other)
            return Jet._of(np.subtract(a, b, out=out), self.t)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t = self.t
        if not isinstance(other, Jet):
            d, c = _const(self.d, other)
            return Jet._of(d * c, t)
        a, b, out = _pair(self, other)
        a0, b0, fst = a[0], b[0], t.first
        np.multiply(a0, b0, out=out[0, ...])
        o = out[fst]
        np.multiply(a[fst], b0, out=o)
        o += a0 * b[fst]
        if t.L >= 2:
            # (a_ik b0 + a_i b_k) + (a_k b_i + a0 b_ik)
            i, k, s = t.outer, t.inner, t.deg2
            o = out[s]
            np.multiply(a[s], b0, out=o)
            cross = a[i] * b[k]
            o += cross
            if t.n > 1:       # else a_k b_i is the product just formed
                cross = a[k] * b[i]
            cross += a0 * b[s]
            o += cross
        for r in t.rows(3):
            out[r] = _sum_terms((a, b), *t.leibniz(r))
        return Jet._of(out, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self.t
        if not isinstance(other, Jet):
            d, c = _const(self.d, other)
            return Jet._of(d / c, t)
        a, b, q = _pair(self, other)
        b0, fst = b[0], t.first
        q0 = np.divide(a[0], b0, out=q[0, ...])
        o = q[fst]
        np.subtract(a[fst], q0 * b[fst], out=o)
        o /= b0
        for r in t.rows(2):
            q[r] = (a[r] - _sum_terms((q, b), *t.leibniz(r, proper=True))) / b0
        return Jet._of(q, t)

    def __rtruediv__(self, other):
        # other is a constant: q = other / x
        t = self.t
        x, c = _const(self.d, other)
        x0, fst = x[0], t.first
        q = _empty(x, c[None])
        q0 = np.divide(c, x0, out=q[0, ...])
        o = q[fst]
        np.multiply(-q0, x[fst], out=o)
        o /= x0
        if t.L >= 2:
            # ((-q_k x_i + -q0 x_ik) - q_i x_k) / x0
            i, k, s = t.outer, t.inner, t.deg2
            o = q[s]
            np.multiply(-q[k], x[i], out=o)
            o += -q0 * x[s]
            o -= q[i] * x[k]
            o /= x0
        for r in t.rows(3):
            q[r] = -_sum_terms((q, x), *t.leibniz(r, proper=True)) / x0
        return Jet._of(q, t)


def value(x):
    """The value of x: row 0 of a jet, x itself otherwise."""
    if isinstance(x, Jet):
        return x.d[0]
    return x


def part(x, k):
    """The k-th partial of x (zero when x is constant)."""
    if isinstance(x, Jet):
        return x._part(k)
    return 0.0


def seed(coords, levels):
    """Promote chart coordinates to jets of order `levels`.

    coords: sequence of n coordinate values (scalars or arrays).
    Returns n jets (the coordinates themselves for levels = 0); feed them
    through analytic code and read derivatives back with ``value``/``part``.
    """
    coords = list(coords)
    if levels == 0:
        return coords
    t = _tables(len(coords), levels)
    out = []
    for k, x in enumerate(coords):
        d = np.zeros((t.K,) + np.shape(x))
        d[0] = x
        d[1 + k] = 1.0
        out.append(Jet._of(d, t))
    return out


# Tensor operations on array-valued jets.

def zeros(shape, like):
    """Zero array of the given shape, as a jet of the order of `like` when
    that is a jet; a target for block writes."""
    if isinstance(like, Jet):
        return Jet._of(np.zeros((like.t.K,) + tuple(shape)), like.t)
    return np.zeros(shape)


def linear(fn, x):
    """fn(x) for a linear map fn (a transpose, a copy, a reshape), applied
    to every row of a jet. When fn returns views (moveaxis, transpose,
    indexing) the result is a view of x, so block writes reach x."""
    if not isinstance(x, Jet):
        return fn(x)
    d = x.d
    first = fn(d[0])
    if np.may_share_memory(first, d):
        # A view of row 0: every row has its layout, one row stride on.
        view = np.lib.stride_tricks.as_strided(
            first, (len(d),) + first.shape, (d.strides[0],) + first.strides)
        return Jet._of(view, x.t)
    return Jet._of(np.stack([first, *(fn(r) for r in d[1:])]), x.t)


def einsum(subscripts, *operands):
    """np.einsum over jets and arrays. The product is multilinear, so each
    partial is a Leibniz sum over the jet operands, each term one einsum
    with those operands replaced by their partials."""
    jet_at = tuple(i for i, x in enumerate(operands) if isinstance(x, Jet))
    if not jet_at:
        return np.einsum(subscripts, *operands)
    t = operands[jet_at[0]].t
    for i in jet_at[1:]:
        _check(operands[jet_at[0]], operands[i])
    vals = [x.d[0] if isinstance(x, Jet) else x for x in operands]
    val = np.einsum(subscripts, *vals)
    out = np.empty((t.K,) + val.shape, dtype=val.dtype)
    out[0] = val
    m = len(jet_at)

    def term(rows):
        ops = list(vals)
        for i, r in zip(jet_at, rows):
            ops[i] = operands[i].d[r]
        return np.einsum(subscripts, *ops)

    # First partials: 0.0 + einsum + einsum ..., one term per jet operand;
    # higher ones: the Leibniz sum.
    for k in range(1, 1 + t.n):
        o = out[k, ...]
        np.add(0.0, term([k if i == 0 else 0 for i in range(m)]), out=o)
        for j in range(1, m):
            o += term([k if i == j else 0 for i in range(m)])
    for r in t.rows(2):
        o = out[r, ...]
        for j, (rows, c) in enumerate(zip(*t.leibniz(r, m))):
            e = term(rows)
            if c != 1.0:
                e = c * e
            if j:
                o += e
            else:
                o[...] = e
    return Jet._of(out, t)


# Elementary functions, on jets through their Taylor series.

def _series(x, derivs, first=None, second=None):
    """f(x) for a jet x from derivs(j) = f^(j)(x0), j = 0..L.

    The rows of degree 1 and 2 are f1*x_k and (f2*x_k)*x_i + f1*x_ik,
    unless first(d) and second(d, out) give them from the rows d of x and
    the rows of f(x) of lower degree; the rows of degree 3 and more are
    the chain-rule sums of the Taylor series in delta = x - x0."""
    t, d = x.t, x.d
    derivs = functools.cache(derivs)
    out = np.empty_like(d)
    out[0] = derivs(0)
    fst = t.first
    if first:
        out[fst] = first(d)
    else:
        np.multiply(derivs(1), d[fst], out=out[fst])
    if t.L >= 2:
        i, k, s = t.outer, t.inner, t.deg2
        if second:
            out[s] = second(d, out)
        else:
            o = out[s]
            np.multiply(derivs(2), d[k], out=o)
            o *= d[i]
            o += derivs(1) * d[s]
    for r in t.rows(3):
        o = out[r, ...]
        for pos, (j, rows, count) in enumerate(t.chain(r)):
            term = derivs(j) * d[rows[0]]
            for q in rows[1:]:
                term *= d[q]
            if count != 1.0:
                term *= count
            if pos:
                o += term
            else:
                o[...] = term
    return Jet._of(out, t)


def _periodic(*cycle):
    """derivs(j) for derivatives that repeat with period len(cycle): the
    entry (sign, v) of cycle is f^(j) = sign * v for j equal to its
    position modulo the period."""
    def derivs(j):
        sign, v = cycle[j % len(cycle)]
        return v if sign > 0 else -v
    return derivs


def sqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    t, x0 = x.t, x.d[0]
    s = np.sqrt(x0)

    def derivs(j):
        # f^(j) = (1/2)(1/2 - 1)...(1/2 - j + 1) x0^(1/2 - j)
        return s if j == 0 else math.prod(0.5 - m for m in range(j)) * s / x0 ** j

    def second(d, out):
        i, k, sl = t.outer, t.inner, t.deg2
        return (d[sl] - out[i] * (out[k] * 2.0)) / (s * 2.0)

    return _series(x, derivs, lambda d: d[t.first] / (2.0 * s), second)


def sin(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    s, c = np.sin(x.d[0]), np.cos(x.d[0])
    return _series(x, _periodic((1, s), (1, c), (-1, s), (-1, c)))


def cos(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    s, c = np.sin(x.d[0]), np.cos(x.d[0])
    return _series(x, _periodic((1, c), (-1, s), (-1, c), (1, s)))


def sinh(x):
    if not isinstance(x, Jet):
        return np.sinh(x)
    sh, ch = np.sinh(x.d[0]), np.cosh(x.d[0])
    return _series(x, _periodic((1, sh), (1, ch)))


def cosh(x):
    if not isinstance(x, Jet):
        return np.cosh(x)
    sh, ch = np.sinh(x.d[0]), np.cosh(x.d[0])
    return _series(x, _periodic((1, ch), (1, sh)))


def exp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    return _series(x, _periodic((1, np.exp(x.d[0]))))
