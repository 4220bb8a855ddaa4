"""Ambient geometry of warped products over semi-Euclidean space forms.

The ambient spaces in play:

* the flat space E^{N+1} with diagonal metric signs (one per coordinate),
* the quadric space form M^N(c) = {p : g0(p,p) = c} inside it,
* the warped products  eps*I x_a M^N(c)  and  eps*I x_a E^{N+1}  with metric
  eps*dt^2 + a(t)^2 * (fiber metric).

This module holds the one copy of the warped metric and its Levi-Civita
connection (warped_dot, warped_lower, warped_nabla) that both sides of the
theorem use: the oracle induces its hypothesis data with them, and
verify_immersion checks the reconstructed immersion's conclusions with
them. They act on t-first vectors (..., N+2, *ext), arrays or jets, over a
whole grid at once. curvature_coefficients gives the two coefficients of
the quadric-fiber curvature tensor. Grid machinery lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError


# ---------------------------------------------------------------------------
# Signature bookkeeping


@dataclass(frozen=True)
class SignatureSpec:
    """Discrete constants of one problem instance.

    n: dimension of the submanifold M, m: rank of the normal bundle E,
    N = n + m - 1 the fiber dimension, p/q the metric indices of M and E,
    lam the space-form index, epsilon the sign of dt^2, c the fiber
    curvature, signs the array (eps_0, ..., eps_{N+1}) shared by the
    adapted ambient frame and the frame of TM + E.
    """

    n: int
    m: int
    N: int
    p: int
    q: int
    lam: int
    epsilon: int
    c: int
    signs: tuple[int, ...]

    @classmethod
    def from_counts(cls, n, m, epsilon, c, tangent_signs, bundle_signs):
        """Build a spec from the frame signs, deriving N, p, q and lam."""
        tangent_signs = tuple(int(s) for s in tangent_signs)
        bundle_signs = tuple(int(s) for s in bundle_signs)
        N = n + m - 1
        signs = (int(c),) + tangent_signs + bundle_signs
        p = sum(1 for s in tangent_signs if s < 0)
        q = sum(1 for s in bundle_signs if s < 0)
        lam = sum(1 for s in signs[: N + 1] if s < 0) - (abs(c - 1) // 2)
        return cls(n=n, m=m, N=N, p=p, q=q, lam=lam,
                   epsilon=int(epsilon), c=int(c), signs=signs)

    @property
    def size(self):
        """Order of the frame matrices, N + 2."""
        return self.N + 2

    @property
    def G(self):
        return np.diag(np.asarray(self.signs, dtype=float))

    @property
    def fiber_signs(self):
        """Metric signs of E^{N+1} (coordinates 0..N)."""
        return np.asarray(self.signs[: self.N + 1], dtype=float)

    @property
    def tangent_signs(self):
        return np.asarray(self.signs[1 : self.n + 1], dtype=float)

    @property
    def bundle_signs(self):
        return np.asarray(self.signs[self.n + 1 : self.N + 2], dtype=float)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "N": self.N, "p": self.p,
                "q": self.q, "lambda": self.lam, "epsilon": self.epsilon,
                "c": self.c, "signs": list(self.signs)}

    @classmethod
    def from_dict(cls, d):
        return cls(n=d["n"], m=d["m"], N=d["N"], p=d["p"], q=d["q"],
                   lam=d["lambda"], epsilon=d["epsilon"], c=d["c"],
                   signs=tuple(int(s) for s in d["signs"]))


def validate_signature(spec: SignatureSpec) -> list[str]:
    """Check every sign-count invariant; return the list of violations.

    The reported lambda is validated against the sign counts rather than
    recomputed: a mismatch is reported, never silently repaired.
    """
    out = []
    if spec.n < 1:
        out.append(f"n must be >= 1, got {spec.n}")
    if spec.m < 1:
        out.append(f"m must be >= 1, got {spec.m}")
    if spec.N != spec.n + spec.m - 1:
        out.append(f"N != n+m-1 ({spec.N} != {spec.n + spec.m - 1})")
    if spec.epsilon not in (-1, 1):
        out.append(f"epsilon must be +-1, got {spec.epsilon}")
    if spec.c not in (-1, 1):
        out.append(f"c must be +-1, got {spec.c}")
    if len(spec.signs) != spec.N + 2:
        out.append(f"signs must have length N+2={spec.N + 2}, "
                   f"got {len(spec.signs)}")
        return out
    if any(s not in (-1, 1) for s in spec.signs):
        out.append("signs entries must be +-1")
        return out
    if spec.signs[0] != spec.c:
        out.append(f"eps_0 != c ({spec.signs[0]} != {spec.c})")
    if spec.signs[spec.N + 1] != spec.epsilon:
        out.append(f"eps_{{N+1}} != epsilon "
                   f"({spec.signs[spec.N + 1]} != {spec.epsilon})")
    p_count = sum(1 for s in spec.signs[1 : spec.n + 1] if s < 0)
    if p_count != spec.p:
        out.append(f"tangent signs carry {p_count} minuses, declared p={spec.p}")
    q_count = sum(1 for s in spec.signs[spec.n + 1 : spec.N + 2] if s < 0)
    if q_count != spec.q:
        out.append(f"bundle signs carry {q_count} minuses, declared q={spec.q}")
    flat_count = sum(1 for s in spec.signs[: spec.N + 1] if s < 0)
    want = spec.lam + abs(spec.c - 1) // 2
    if flat_count != want:
        out.append(f"signs eps_0..eps_N carry {flat_count} minuses, "
                   f"lambda+|c-1|/2 = {want}")
    return out


# ---------------------------------------------------------------------------
# Warping functions


# (f, f', f'') of each closed form amplitude * f(rate * (t - shift)), as
# (sign, function) pairs: the j-th derivative of a is
# sign * amplitude * rate^j * function(u). The functions take floats,
# arrays and jets.
_CLOSED_FORMS = {
    "cosh": ((1.0, jets.cosh), (1.0, jets.sinh), (1.0, jets.cosh)),
    "cos": ((1.0, jets.cos), (-1.0, jets.sin), (-1.0, jets.cos)),
    "exp": ((1.0, jets.exp),) * 3,
}
_ANALYTIC_KINDS = ("constant",) + tuple(_CLOSED_FORMS)


@dataclass(frozen=True)
class WarpingFunction:
    """Scale factor a : I -> R_+ with two derivatives.

    kind 'constant'|'cosh'|'cos'|'exp' evaluate closed forms
    amplitude * f(rate * (t - shift)); kind 'tabulated' interpolates a sample
    table with local quadratics (second-order accurate, one-sided at the
    table ends).
    """

    kind: str
    amplitude: float = 1.0
    rate: float = 1.0
    shift: float = 0.0
    domain: tuple[float, float] = (-np.inf, np.inf)
    table_t: tuple[float, ...] = ()
    table_a: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _ANALYTIC_KINDS + ("tabulated",):
            raise ValueError(f"unknown warping kind {self.kind!r}")
        if self.kind == "tabulated":
            if len(self.table_t) < 3 or len(self.table_t) != len(self.table_a):
                raise ValueError("tabulated warping needs >= 3 (t, a) samples")
            if any(a <= 0 for a in self.table_a):
                raise ValueError("tabulated warping values must be positive")

    @property
    def is_constant(self):
        return self.kind == "constant"

    def _check_domain(self, t):
        lo, hi = self.domain
        t = np.asarray(t, dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(f"t outside warping domain [{lo}, {hi}]")

    def _u(self, t):
        return self.rate * (t - self.shift)

    def derivative(self, t, j):
        """d^j a/dt^j at t for j = 0, 1, 2; t a float, an ndarray or a Jet
        (j < 2 for a Jet), so derivative bookkeeping flows through."""
        if self.kind == "tabulated":
            return self._tab_poly(t)[j]
        if self.kind == "constant":
            return ((self.amplitude + 0.0 * t, 0.0 * t)[j] if j < 2
                    else np.zeros_like(t))
        sign, f = _CLOSED_FORMS[self.kind][j]
        scale = (1.0, self.rate, self.rate * self.rate)[j]
        return sign * self.amplitude * scale * f(self._u(t))

    def _tab_poly(self, t):
        # Local quadratic through the three nearest samples, in Newton form:
        # (a, a', a'') from one segment lookup. Polynomial arithmetic, so
        # jet arguments flow through unchanged.
        ts = np.asarray(self.table_t)
        avals = np.asarray(self.table_a)
        idx = np.clip(np.searchsorted(ts, jets.value(t)), 1, len(ts) - 2)
        t0, t1, t2 = ts[idx - 1], ts[idx], ts[idx + 1]
        a0, a1, a2 = avals[idx - 1], avals[idx], avals[idx + 1]
        d01 = (a1 - a0) / (t1 - t0)
        d12 = (a2 - a1) / (t2 - t1)
        dd = (d12 - d01) / (t2 - t0)
        return (a0 + d01 * (t - t0) + dd * ((t - t0) * (t - t1)),
                d01 + dd * ((t - t0) + (t - t1)), 2.0 * dd)

    def eval(self, t):
        """Return (a, a', a'') at t, vectorized over t."""
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        a, a1, a2 = (np.broadcast_to(np.asarray(
            self.derivative(t, j), dtype=float), t.shape).copy()
            for j in range(3))
        if np.any(a <= 0):
            raise DomainError("warping function must stay positive on I")
        return a, a1, a2

    def to_dict(self):
        # Unbounded domain ends serialize as null (strict-JSON friendly).
        lo, hi = self.domain
        d = {"kind": self.kind, "amplitude": self.amplitude,
             "rate": self.rate, "shift": self.shift,
             "domain": [None if np.isinf(lo) else lo,
                        None if np.isinf(hi) else hi]}
        if self.kind == "tabulated":
            d["table_t"] = list(self.table_t)
            d["table_a"] = list(self.table_a)
        return d

    @classmethod
    def from_dict(cls, d):
        lo, hi = d.get("domain", (None, None))
        return cls(kind=d["kind"], amplitude=d.get("amplitude", 1.0),
                   rate=d.get("rate", 1.0), shift=d.get("shift", 0.0),
                   domain=(-np.inf if lo is None else float(lo),
                           np.inf if hi is None else float(hi)),
                   table_t=tuple(d.get("table_t", ())),
                   table_a=tuple(d.get("table_a", ())))


# ---------------------------------------------------------------------------
# Metric and Levi-Civita connection of eps*I x_a M^N(c)
#
# A tangent vector is an array, or a jets.Jet of arrays, shaped
# (..., N+2, *ext): index 0 of the component axis is the d/dt coefficient,
# 1..N+1 the fiber coordinates in E^{N+1}; ext is the shape of the warp
# values (the grid axes, last) and leading axes broadcast.


def _split(nd, *us):
    """(t component (..., *ext), fiber part (N+1, ..., *ext)) of each of
    the vectors us with nd grid axes, as views; missing leading axes are
    inserted first, as broadcasting would."""
    ndim = max(np.ndim(jets.value(u)) for u in us)
    out = []
    for u in us:
        u = jets.linear(lambda v: np.moveaxis(
            v[(None,) * (ndim - v.ndim)], -1 - nd, 0), u)
        out.append((u[0], u[1:]))
    return out


def _join(t, fib, nd):
    """Vectors (..., N+2, *ext) from a t component (..., *ext) and a fiber
    part (N+1, ..., *ext); the fiber part is a jet whenever t is."""
    shape = np.broadcast_shapes(np.shape(jets.value(t)),
                                np.shape(jets.value(fib))[1:])
    cut = len(shape) - nd
    size = np.shape(jets.value(fib))[0] + 1
    out = jets.zeros(shape[:cut] + (size,) + shape[cut:], like=fib)
    view = jets.linear(lambda v: np.moveaxis(v, -1 - nd, 0), out)
    view[0] = t
    view[1:] = fib
    return out


def warped_dot(spec: SignatureSpec, a2, u, v):
    """Warped metric eps u_0 v_0 + a^2 g0(u_fib, v_fib); a2 holds a(t)^2
    (*ext)."""
    nd = np.ndim(jets.value(a2))
    (u0, uf), (v0, vf) = _split(nd, u, v)
    return spec.epsilon * (u0 * v0) + a2 * jets.einsum(
        "g,g...,g...->...", spec.fiber_signs, uf, vf)


def warped_lower(spec: SignatureSpec, a2, u):
    """Covector (eps u_0, a^2 g0 u_fib) of u, laid out like u: its
    contraction with v over the component axis is warped_dot(u, v)."""
    nd = np.ndim(jets.value(a2))
    (u0, uf), = _split(nd, u)
    fs = spec.fiber_signs.reshape((-1,) + (1,) * (np.ndim(jets.value(uf)) - 1))
    return _join(spec.epsilon * u0, a2 * (fs * uf), nd)


def warped_nabla(spec: SignatureSpec, a, a1, V, Y, dY):
    """Levi-Civita derivative nabla_V Y of eps*I x_a E^{N+1}, with a, a'
    (*ext) the warp values at the base points.

    dY is the flat derivative of the field Y along V. The Christoffel
    terms of the warped metric are (a'/a)(V_0 Y_fib + Y_0 V_fib) on the
    fiber and -eps a a' g0(V_fib, Y_fib) on the t component. On fields
    tangent to the quadric M^N(c) this is the connection of
    eps*I x_a M^N(c) plus the normal part of the flat fiber derivative,
    which every pairing with a quadric-tangent vector drops.
    """
    nd = np.ndim(jets.value(a))
    (V0, Vf), (Y0, Yf), (dY0, dYf) = _split(nd, V, Y, dY)
    r = a1 / a
    fib = dYf + ((r * V0) * Yf + Y0 * (r * Vf))
    t = dY0 - spec.epsilon * (a * a1) * jets.einsum(
        "g,g...,g...->...", spec.fiber_signs, Vf, Yf)
    return _join(t, fib, nd)


# ---------------------------------------------------------------------------
# Curvature coefficients


def curvature_coefficients(spec: SignatureSpec, w: WarpingFunction, t):
    """(k1, k2) of the quadric-fiber warped product, vectorized over t.

    k1 = eps (a'/a)^2 - c/a^2,  k2 = a''/a - (a'/a)^2 + eps*c/a^2.
    k2 vanishes identically for the constant-curvature representations
    (eps, a, c) = (-1, cosh, 1) and (1, cos, 1).
    """
    a, a1, a2 = w.eval(t)
    k1 = spec.epsilon * (a1 / a) ** 2 - spec.c / a ** 2
    k2 = a2 / a - (a1 / a) ** 2 + spec.epsilon * spec.c / a ** 2
    return k1, k2
