"""Ambient geometry of warped products over semi-Euclidean space forms.

The ambient spaces in play:

* the flat space E^{N+1} with diagonal metric signs (one per coordinate),
* the quadric space form M^N(c) = {p : g0(p,p) = c} inside it,
* the warped products  eps*I x_a M^N(c)  and  eps*I x_a E^{N+1}  with metric
  eps*dt^2 + a(t)^2 * (fiber metric).

Everything in this module is an exact pointwise evaluation: the metric, the
warped covariant-derivative rules, and the two closed-form curvature tensors
(flat fiber and quadric fiber). Grid machinery lives elsewhere.
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


_ANALYTIC_KINDS = ("constant", "cosh", "cos", "exp")


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

    # Generic evaluation: t may be a float, an ndarray, or a Jet. Used by the
    # forward pipeline so derivative bookkeeping flows through automatically.
    def value_generic(self, t):
        if self.kind == "constant":
            return self.amplitude + 0.0 * t
        u = self._u(t)
        if self.kind == "cosh":
            return self.amplitude * jets.cosh(u)
        if self.kind == "cos":
            return self.amplitude * jets.cos(u)
        if self.kind == "exp":
            return self.amplitude * jets.exp(u)
        return self._tab_poly(t)[0]

    def deriv1_generic(self, t):
        if self.kind == "constant":
            return 0.0 * t
        u = self._u(t)
        r = self.rate
        if self.kind == "cosh":
            return self.amplitude * r * jets.sinh(u)
        if self.kind == "cos":
            return -self.amplitude * r * jets.sin(u)
        if self.kind == "exp":
            return self.amplitude * r * jets.exp(u)
        return self._tab_poly(t)[1]

    def _tab_segments(self, t):
        ts = np.asarray(self.table_t)
        idx = np.searchsorted(ts, jets.value(t))
        idx = np.clip(idx, 1, len(ts) - 2)
        return idx

    def _tab_poly(self, t):
        # Local quadratic through the three nearest samples, in Newton form:
        # (a, a', a''/2) from one segment lookup. Polynomial arithmetic, so
        # jet arguments flow through unchanged.
        ts = np.asarray(self.table_t)
        avals = np.asarray(self.table_a)
        idx = self._tab_segments(t)
        t0, t1, t2 = ts[idx - 1], ts[idx], ts[idx + 1]
        a0, a1, a2 = avals[idx - 1], avals[idx], avals[idx + 1]
        d01 = (a1 - a0) / (t1 - t0)
        d12 = (a2 - a1) / (t2 - t1)
        dd = (d12 - d01) / (t2 - t0)
        return (a0 + d01 * (t - t0) + dd * ((t - t0) * (t - t1)),
                d01 + dd * ((t - t0) + (t - t1)), dd)

    def eval(self, t):
        """Return (a, a', a'') at t, vectorized over t."""
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "tabulated":
            val, der, dd = self._tab_poly(t)
            if np.any(val <= 0):
                raise DomainError(
                    "tabulated warping interpolant went nonpositive")
            return val, der, 2.0 * dd * np.ones_like(t)
        a = jets.value(self.value_generic(t))
        a1 = jets.value(self.deriv1_generic(t))
        u = self._u(t)
        r2 = self.rate * self.rate
        if self.kind == "constant":
            a2 = np.zeros_like(t)
        elif self.kind == "cosh":
            a2 = self.amplitude * r2 * np.cosh(u)
        elif self.kind == "cos":
            a2 = -self.amplitude * r2 * np.cos(u)
        else:
            a2 = self.amplitude * r2 * np.exp(u)
        a = np.broadcast_to(np.asarray(a, dtype=float), t.shape).copy()
        if np.any(a <= 0):
            raise DomainError("warping function must stay positive on I")
        return (a,
                np.broadcast_to(np.asarray(a1, dtype=float), t.shape).copy(),
                np.broadcast_to(np.asarray(a2, dtype=float), t.shape).copy())

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
# Tangent vectors of the warped product


@dataclass
class AmbientVector:
    """Tangent vector at a point (t, p) of eps*I x_a E^{N+1}.

    fiber holds the N+1 coordinates in the flat factor; t_component the
    coefficient of d/dt. The base point is carried along so that inner
    products can refuse mismatched arguments.
    """

    t_component: float
    fiber: np.ndarray
    point_t: float
    point_p: np.ndarray

    def __post_init__(self):
        self.fiber = np.asarray(self.fiber, dtype=float)
        self.point_p = np.asarray(self.point_p, dtype=float)

    @classmethod
    def dt(cls, point_t, point_p):
        p = np.asarray(point_p, dtype=float)
        return cls(1.0, np.zeros_like(p), float(point_t), p)

    @classmethod
    def fiber_vector(cls, v, point_t, point_p):
        return cls(0.0, np.asarray(v, dtype=float), float(point_t),
                   np.asarray(point_p, dtype=float))


def _same_point(u: AmbientVector, v: AmbientVector, tol=1e-9):
    return (abs(u.point_t - v.point_t) <= tol
            and np.max(np.abs(u.point_p - v.point_p)) <= tol)


def g0_inner(spec: SignatureSpec, x, y):
    """Flat fiber metric g0 on E^{N+1} coordinate vectors."""
    return float(np.dot(spec.fiber_signs * np.asarray(x), np.asarray(y)))


def space_form_membership(spec: SignatureSpec, p) -> float:
    """Residual |g0(p, p) - c| of the quadric equation."""
    p = np.asarray(p, dtype=float)
    return abs(g0_inner(spec, p, p) - spec.c)


def quadric_project(spec: SignatureSpec, p, w):
    """Project the fiber vector w onto the tangent space of the quadric at p.

    Uses (I - c p p^t G0): removes the g0-component along the position p.
    """
    w = np.asarray(w, dtype=float)
    return w - spec.c * g0_inner(spec, w, p) * np.asarray(p, dtype=float)


def ambient_inner(spec: SignatureSpec, w: WarpingFunction, point,
                  u: AmbientVector, v: AmbientVector,
                  check_tangency=True, tol=1e-8) -> float:
    """Warped metric eps*u_t*v_t + a(t)^2 g0(u_fib, v_fib) at the point."""
    t, p = float(point[0]), np.asarray(point[1], dtype=float)
    if not _same_point(u, v) or abs(u.point_t - t) > 1e-9 \
            or np.max(np.abs(u.point_p - p)) > 1e-9:
        raise ValueError("ambient_inner: vectors based at different points")
    if check_tangency and space_form_membership(spec, p) <= tol:
        for vec in (u, v):
            if abs(g0_inner(spec, vec.fiber, p)) > tol * (1 + np.max(np.abs(vec.fiber))):
                raise ValueError("fiber component not tangent to the quadric")
    a, _, _ = w.eval(t)
    return (spec.epsilon * u.t_component * v.t_component
            + float(a) ** 2 * g0_inner(spec, u.fiber, v.fiber))


def warped_connection(spec: SignatureSpec, w: WarpingFunction, point,
                      V: AmbientVector, W: AmbientVector,
                      dW: AmbientVector | None = None) -> AmbientVector:
    """Covariant derivative of W along V in eps*I x_a M^N(c).

    Rules used: nabla_dt dt = 0, nabla_V dt = (a'/a) V for fiber V, and for
    fiber lifts V, W:  nabla_V W = P(D_V W) - (eps a'/a) <V,W> dt,  where
    D_V W is the flat directional derivative (zero unless dW supplies field
    variation) and P projects onto the quadric tangent space.

    dW, when given, holds the flat derivative of the W field along V
    (t-component derivative and fiber component derivatives).
    """
    t, p = float(point[0]), np.asarray(point[1], dtype=float)
    a, a1, _ = w.eval(t)
    a, a1 = float(a), float(a1)
    out_t = 0.0
    out_fib = np.zeros_like(p)

    # Split arguments into dt and fiber parts; the rules are bilinear.
    vt, vf = V.t_component, V.fiber
    wt, wf = W.t_component, W.fiber

    # nabla_V (wt * dt): (a'/a) wt * V_fiber  (+ field variation of wt).
    out_fib = out_fib + (a1 / a) * wt * vf
    # nabla_(vt dt) (fiber part of W): (a'/a) vt * wf.
    out_fib = out_fib + (a1 / a) * vt * wf
    # Fiber-fiber: projected flat derivative minus the warp term.
    inner_ff = a * a * g0_inner(spec, vf, wf)
    out_t = out_t - spec.epsilon * (a1 / a) * inner_ff
    if dW is not None:
        out_t = out_t + dW.t_component
        out_fib = out_fib + quadric_project(spec, p, dW.fiber)
    return AmbientVector(out_t, out_fib, t, p)


# ---------------------------------------------------------------------------
# Closed-form curvature tensors


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


def _curvature_quadruple(spec, w, point, X, Y, Z, W_, k1, k2, check_tangency):
    ip = lambda u, v: ambient_inner(spec, w, point, u, v,
                                    check_tangency=check_tangency)
    t, p = float(point[0]), np.asarray(point[1], dtype=float)
    dt = AmbientVector.dt(t, p)
    first = ip(X, Z) * ip(Y, W_) - ip(Y, Z) * ip(X, W_)
    xt, yt, zt, wt = (ip(v, dt) for v in (X, Y, Z, W_))
    second = (ip(X, Z) * yt * wt - ip(Y, Z) * xt * wt
              - ip(X, W_) * yt * zt + ip(Y, W_) * xt * zt)
    return k1 * first + k2 * second


def curvature_bar(spec: SignatureSpec, w: WarpingFunction, point,
                  X, Y, Z, W_) -> float:
    """Curvature quadruple <R(X,Y)Z, W> of eps*I x_a M^N(c)."""
    t = float(point[0])
    k1, k2 = curvature_coefficients(spec, w, t)
    return float(_curvature_quadruple(spec, w, point, X, Y, Z, W_,
                                      float(k1), float(k2),
                                      check_tangency=True))


def curvature_tilde(spec: SignatureSpec, w: WarpingFunction, point,
                    X, Y, Z, W_, first_coeff="as_printed") -> float:
    """Curvature quadruple of the flat-fiber warped product eps*I x_a E^{N+1}.

    first_coeff selects the leading coefficient: "as_printed" uses
    eps*(a')^2/a, "squared" uses eps*(a')^2/a^2. The squared variant is the
    one consistent with the quadric-fiber tensor through the Gauss equation
    of the umbilical inclusion; both are kept so the acceptance suite can
    demonstrate which one closes the algebra.
    """
    if first_coeff not in ("as_printed", "squared"):
        raise ValueError("first_coeff must be 'as_printed' or 'squared'")
    t = float(point[0])
    a, a1, a2 = (float(v) for v in w.eval(t))
    k1 = spec.epsilon * a1 ** 2 / (a if first_coeff == "as_printed" else a * a)
    k2 = a2 / a - (a1 / a) ** 2
    return float(_curvature_quadruple(spec, w, point, X, Y, Z, W_, k1, k2,
                                      check_tangency=False))


def quadric_inclusion_gauss_residual(spec: SignatureSpec, w: WarpingFunction,
                                     point, X, Y, Z, W_,
                                     first_coeff="as_printed") -> float:
    """Gap in the Gauss equation reducing the flat-fiber curvature to the
    quadric-fiber one through the totally umbilical inclusion.

    The inclusion of the quadric into flat space has second fundamental
    form -(c/a) <X_0, Y_0> eta with eta the scaled position direction,
    <eta, eta> = c, and X_0 the fiber part of X. The residual

        R_quadric(X,Y,Z,W) - [R_flat(X,Y,Z,W)
            - <alpha(X,Z), alpha(Y,W)> + <alpha(X,W), alpha(Y,Z)>]

    vanishes exactly when the flat-fiber tensor is evaluated with the
    "squared" leading coefficient; the acceptance suite records this.
    """
    t, p = float(point[0]), np.asarray(point[1], dtype=float)
    a, _, _ = (float(v) for v in w.eval(t))
    dt = AmbientVector.dt(t, p)

    def ip(u, v):
        return ambient_inner(spec, w, point, u, v, check_tangency=False)

    def afac(u, v):
        # coefficient of eta in alpha(u, v)
        return -(spec.c / a) * (ip(u, v) - spec.epsilon * ip(u, dt) * ip(v, dt))

    lhs = curvature_bar(spec, w, point, X, Y, Z, W_)
    flat = curvature_tilde(spec, w, point, X, Y, Z, W_,
                           first_coeff=first_coeff)
    corr = spec.c * (afac(X, Z) * afac(Y, W_) - afac(X, W_) * afac(Y, Z))
    return abs(lhs - (flat - corr))
