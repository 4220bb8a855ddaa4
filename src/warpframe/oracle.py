"""Forward pipeline: explicit immersions -> discrete hypothesis data.

Given a map x -> (t(x), p(x)) into eps*I x_a M^N(c) written with analytic
primitives, this module induces everything the verifier consumes: an
orthonormal adapted frame, connection coefficients, the second fundamental
form, the (T, xi) split and the height function. Derivatives are exact:
the map is evaluated on truncated Taylor jets (jets.Jet: every partial
derivative up to order 2, or 3 with derivative fields, in one array), so
frame fields obtained through Gram-Schmidt still differentiate to machine
precision. The finite difference engine feeds the same stages with
stencil derivatives of the sampled map and frames.

The stages are tensor code in the style of frame_solver._assemble: an
ambient vector is one (N+2, *ext) array or jets.Jet with index 0 its t
component, a frame is (n+m, N+2, *ext), and the connection coefficients
come out component-major, grid axes last. The warped metric and connection
are ambient.warped_dot, warped_lower and warped_nabla, the kernel that
verify_immersion applies to the reconstructed immersion.

The normal frame is completed from candidate directions (the fiber
coordinate directions made quadric-tangent, then d/dt). Their metric
products with the filled frame vectors E_j come in closed form from the
frames' own components: a^2 fs_pos (E_j[1+pos] - c p_pos g0(p, E_j)) for
a fiber direction, eps E_j[0] for d/dt. Every candidate's squared norm
after rejection, <w, w> - sum_j eps_j <w, E_j>^2, is then one array pass
on plain values. That is exact algebra because E is G-orthonormal; it does
not assume g0(p, p) = c, so maps that meet the quadric only to within
induce_data's tolerance get the same norms. The candidate is picked on
those values (see _stage1 and _pick); only the accepted one is built as a
jet, by the explicit rejection (_reject), so the frame is the one that
trying the candidates one at a time builds.

The canonical example library lives here too; each named family doubles as a
serializable fixture (datasets carry a generator tag so they can be re-made
on refined grids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .ambient import (SignatureSpec, WarpingFunction, validate_signature,
                      warped_dot, warped_lower, warped_nabla)
from .bundle_data import ChartGrid, GeometricData, _parsed, _worst_node
from .errors import DegenerateDataError, SchemaError
from .frame_solver import _grid_first, _pattern
from .immersion import ImmersionField, adapted_frames
from .jets import Jet, seed, sqrt, value
from .stencils import grad1


# ---------------------------------------------------------------------------
# Stages on component-major tensors. An ambient vector is one (N+2, *ext)
# array or jet with index 0 its t component; a frame is (n+m, N+2, *ext).

# Smallest |squared norm| a frame vector may have at any node.
_TOL = 1e-8
# Half-width, relative to the size of its terms, of the band around _TOL
# in which a candidate's gathered squared norm is left to the explicit
# rejection (see _pick).
_BAND = 1e-10


def _reject(spec, a2, w, E, count):
    """w minus its components along the frame vectors E[:count], one at a
    time (modified Gram-Schmidt)."""
    for j in range(count):
        w = w - (spec.signs[1 + j] * warped_dot(spec, a2, w, E[j])) * E[j]
    return w


def _candidate(spec, p, pos):
    """Normal-completion candidate `pos` made quadric-tangent at the fiber
    position p (N+1, *ext): the fiber coordinate direction pos for
    pos <= N, the vertical direction for pos = N+1."""
    ext = np.shape(value(p))[1:]
    w = jets.zeros((spec.N + 2,) + ext, like=p)
    if pos > spec.N:
        w[0] = 1.0
    else:
        onehot = _pattern(np.eye(spec.N + 1)[pos], len(ext))
        w[1:] = onehot - (spec.c * spec.fiber_signs[pos]) * p[pos] * p
    return w


def _candidate_norms(spec, a2, p):
    """<w, w> (N+2, *ext) of every normal-completion candidate w, from the
    values a2 and p (N+1, *ext): a^2 (fs_pos + p_pos^2 (g0(p, p) - 2c))
    for the fiber directions (fs_pos^2 = c^2 = 1), eps for the vertical
    one."""
    nd = np.ndim(a2)
    fs = spec.fiber_signs
    g0pp = np.einsum("g,g...,g...->...", fs, p, p)
    W = np.empty((spec.N + 2,) + np.shape(a2))
    W[:-1] = a2 * (_pattern(fs, nd) + p * p * (g0pp - 2.0 * spec.c))
    W[-1] = spec.epsilon
    return W


def _candidate_products(spec, a2, p, E, pi, pos):
    """<w, E_j> (k, *ext) of the normal-completion candidate w = `pos` with
    the frame vectors E (k, N+2, *ext), given pi = g0(p, E_j fiber) (k,
    *ext): a^2 fs_pos (E_j[1+pos] - c p_pos pi_j) for a fiber direction,
    eps E_j[0] for the vertical one. All arrays are values."""
    if pos > spec.N:
        return spec.epsilon * E[:, 0]
    return (a2 * spec.fiber_signs[pos]) * (E[:, 1 + pos]
                                           - spec.c * p[pos] * pi)


def _pick(spec, a2, p, E, slot, Q, S, free):
    """The normal-completion candidate for frame slot `slot`: the first of
    `free`, in index order, whose squared norm has the slot's declared sign
    beyond _TOL at every node. A candidate skipped for the wrong sign stays
    available to later slots.

    Q (N+2, *ext) holds every candidate's squared norm after rejection
    from E[:slot], gathered in closed form, and S the sum of the absolute
    terms it was formed from. Where need Q lies within _BAND S of _TOL at
    some node and is clear nowhere, the gathered value settles nothing: the
    candidate's explicit rejection (_reject) decides, as it decides
    everywhere in the nested-list reference. All arrays are values.
    """
    need = spec.signs[1 + slot]
    fails = []  # (first failing node, Q there) per rejected candidate
    for pos in free:
        q, band = need * Q[pos], _BAND * S[pos]
        if not ((q - band > _TOL).all() or (q + band <= _TOL).any()):
            w = _reject(spec, a2, _candidate(spec, p, pos), E, slot)
            q = need * warped_dot(spec, a2, w, w)
        ok = q > _TOL
        if ok.all():
            return pos
        bad = _worst_node(~ok, ok.ndim)
        fails.append((bad, need * float(q[bad])))
    bad, q = max(fails)
    raise DegenerateDataError(
        f"normal frame slot {slot + 1}: no candidate has the declared sign "
        f"{need} at every node; the last to fail has squared norm {q:.3e} "
        f"at node {bad}")


def _stage1(spec, warping, P, V):
    """Adapted orthonormal frame and vertical split at every node.

    P (N+2, *ext): the map's values (t, p); V (n, N+2, *ext): its
    coordinate tangents. Both are arrays or jets of arrays; every branch is
    taken on values. Returns the frame E (n+m, N+2, *ext), the rows F
    (n, n, *ext) of e_i = sum_k F[i, k] V_k, T (n, *ext), xi (m, *ext) and
    the warp values a.

    The normal frame is completed from the candidates w_pos: the fiber
    coordinate directions e_pos - c fs_pos p_pos p (pos <= N), then d/dt
    (pos = N+1). A candidate's squared norm after rejection from the filled
    frame vectors E_j is Q_pos = <w, w> - sum_j eps_j <w, E_j>^2, and its
    products with E_j have the closed form

        <w_pos, E_j> = a^2 fs_pos (E_j[1+pos] - c p_pos pi_j),
        <d/dt, E_j> = eps E_j[0],
        <w_pos, w_pos> = a^2 (fs_pos - 2c p_pos^2 + p_pos^2 g0(p, p)),

    with pi_j = g0(p, E_j fiber) taken once per frame vector. This is
    algebra of the metric and the candidates alone: it is exact because E
    is G-orthonormal, and it does not assume g0(p, p) = c or that E is
    tangent to the quadric, so it holds for maps that meet the quadric
    only to within induce_data's tolerance. Every free candidate's Q takes
    one array pass on values per batch of new frame vectors (the tangent
    frame, then each filled normal slot). The winner's jet is rejected
    explicitly (_reject, modified Gram-Schmidt with warped_dot), as the
    trial loop built it, so the picks and every bit of the frame match
    trying the candidates one at a time. warped_dot is called only by the
    Gram-Schmidt of the n + m frame vectors: (n+m)(n+m+1)/2 times, however
    many candidates the pick passes over.
    """
    n, m = spec.n, spec.m
    sgn = spec.signs
    ext = np.shape(value(P))[1:]
    nd = len(ext)
    a = warping.derivative(P[0], 0)
    a2 = a * a
    E = jets.zeros((n + m, spec.N + 2) + ext, like=V)
    F = jets.zeros((n, n) + ext, like=V)
    eye = _pattern(np.eye(n), nd)
    for i in range(n):
        w, cf = V[i], eye[i]
        for j in range(i):
            proj = sgn[1 + j] * warped_dot(spec, a2, w, E[j])
            w = w - proj * E[j]
            cf = cf - proj * F[j]
        Q = warped_dot(spec, a2, w, w)
        need = sgn[1 + i]
        ok = need * value(Q) > _TOL
        if not ok.all():
            bad = _worst_node(~ok, ok.ndim)
            raise DegenerateDataError(
                f"tangent frame slot {i + 1} has squared norm "
                f"{float(value(Q)[bad]):.3e} at node {bad}, declared sign "
                f"{need}")
        inv = 1.0 / sqrt(need * Q)
        E[i] = inv * w
        F[i] = inv * cf

    # Normal completion: Q and S gathered on values, the pick (_pick), then
    # the winner alone built at the jet level.
    p, pv, a2v, Ev = P[1:], value(P)[1:], value(a2), value(E)
    pi = np.empty((n + m,) + ext)
    Q = _candidate_norms(spec, a2v, pv)
    S = np.abs(Q)
    free = list(range(spec.N + 2))
    filled = 0
    for slot in range(n, n + m):
        # Take the frame vectors filled since the last slot (the tangent
        # frame, then one normal) into pi, Q and S.
        pi[filled:slot] = np.einsum("g,g...,jg...->j...", spec.fiber_signs,
                                    pv, Ev[filled:slot, 1:])
        signs = np.asarray(sgn[1 + filled:1 + slot], dtype=float)
        for cand in free:
            D2 = _candidate_products(spec, a2v, pv, Ev[filled:slot],
                                     pi[filled:slot], cand) ** 2
            Q[cand] -= np.einsum("j,j...->...", signs, D2)
            S[cand] += D2.sum(axis=0)
        filled = slot
        pos = _pick(spec, a2v, pv, Ev, slot, Q, S, free)
        free.remove(pos)
        w = _reject(spec, a2, _candidate(spec, p, pos), E, slot)
        need = sgn[1 + slot]
        E[slot] = (1.0 / sqrt(need * warped_dot(spec, a2, w, w))) * w

    eps_slot = spec.epsilon * np.asarray(sgn[1:], dtype=float)
    Tx = _pattern(eps_slot, nd) * E[:, 0]
    return {"a": a, "E": E, "F": F, "T": Tx[:n], "xi": Tx[n:]}


def _stage2(spec, warping, t, V, E, F, dE):
    """omega_tangent (n, n, n, *ext), omega_bundle (m, m, n, *ext) and alpha
    (m, n, n, *ext) from stage-1 quantities t, V, E, F taken one derivative
    order below stage 1; dE[k] is dE/dx_k at that order."""
    n, m = spec.n, spec.m
    sgn = np.asarray(spec.signs, dtype=float)
    nd = np.ndim(value(t))
    a = warping.derivative(t, 0)
    a1 = warping.derivative(t, 1)

    # nab[j, k]: ambient covariant derivative of e_j along x_k.
    dEk = jets.zeros((n + m, n) + np.shape(value(E))[1:], like=E)
    for k in range(n):
        dEk[:, k] = dE[k]
    nab = warped_nabla(spec, a, a1, V[None], E[:, None], dEk)

    # coef[i, j, k] = eps_i <e_i, nab[j, k]>: omega, and alpha(d/dx_k, e_j),
    # against the frame lowered by the metric and signed.
    low = _pattern(sgn[1:], nd + 1) * warped_lower(spec, a * a, E)
    coef = jets.einsum("iA...,jkA...->ijk...", low, nab)

    def skew(w, s):
        """0.5 (w_ij - s_i s_j w_ji): exactly skew in the metric signs s."""
        ee = _pattern((s[:, None] * s)[..., None], nd)
        return 0.5 * (w - ee * jets.einsum("jik...->ijk...", w))

    alpha = jets.einsum("ik...,ujk...->uij...", F, coef[n:, :n])
    return {"omega_tangent": skew(coef[:n, :n], sgn[1:n + 1]),
            "omega_bundle": skew(coef[n:, n:], sgn[n + 1:]),
            "alpha": 0.5 * (alpha + jets.einsum("uij...->uji...", alpha))}


# ---------------------------------------------------------------------------
# Engines: the map's values and tangents, and both stages


def _stack(items, like):
    """(len(items), *shape of like) array or jet with the structure of
    like, from components that are numbers, arrays or jets."""
    out = jets.zeros((len(items),) + np.shape(value(like)), like=like)
    for i, x in enumerate(items):
        out[i] = x
    return out


def _map_jets(grid, map_fn, levels):
    """Values P (N+2, *ext) and coordinate tangents V (n, N+2, *ext) of the
    map, as jets of order levels - 1 (arrays for 1)."""
    X = seed(list(grid.coordinates()), levels)
    t, p = map_fn(X)
    Y = _stack([t, *p], X[0])
    return Y.val, Y.grad


# Nodes the fd engine samples beyond every face of the chart. np.gradient's
# one-sided edges leave an O(h^2) error whose constant jumps at the outer
# face; each centered difference taken across that jump (the tangents V,
# then the frames) turns it into an O(h) error one node further in. Two
# nodes of halo keep both off the chart, whose fields then carry a smooth
# O(h^2) error on every node.
_HALO = 2


def _map_fd(grid, map_fn):
    """Values P and second-order finite-difference tangents V of the map on
    the grid widened by _HALO nodes beyond every face."""
    wide = ChartGrid(
        tuple(e + 2 * _HALO for e in grid.extents), grid.spacing,
        tuple(o - _HALO * h for o, h in zip(grid.origin, grid.spacing)),
        tuple(b + _HALO for b in grid.base_node))
    t, p = map_fn(list(wide.coordinates()))
    P = np.stack([np.broadcast_to(np.asarray(c, dtype=float), wide.extents)
                  for c in (t, *p)])
    return P, np.stack([grad1(P, k - grid.n, h)
                        for k, h in enumerate(grid.spacing)])


def _stages(spec, warping, grid, P, V):
    """Both stages. On jets stage 2 runs one order below stage 1 and
    differentiates the frames exactly; on arrays it differentiates them by
    finite differences."""
    s1 = _stage1(spec, warping, P, V)
    E, F = s1["E"], s1["F"]
    if isinstance(E, Jet):
        return s1, _stage2(spec, warping, P.val[0], V.val, E.val, F.val,
                           E.parts)
    dE = [grad1(E, k - grid.n, h) for k, h in enumerate(grid.spacing)]
    return s1, _stage2(spec, warping, P[0], V, E, F, dE)


# ---------------------------------------------------------------------------
# Explicit immersions and data induction


@dataclass
class ExplicitImmersion:
    """Analytic immersion of a chart into eps*I x_a M^N(c).

    map_fn takes the list of n chart coordinates (arrays or jets) and
    returns (t, [p_0 ... p_N]) built from analytic primitives, so the same
    callable serves values, tangents, and higher derivative extraction.

    _cache hands stage-1 values from induce_data to exact_frame_field: the
    map's values P, the adapted frame E and the warp values a, as plain
    arrays (see induce_data). exact_frame_field takes them out on its
    next call. It takes no part in repr or equality, and
    dataclasses.replace starts a new one.
    """

    spec: SignatureSpec
    warping: WarpingFunction
    grid: ChartGrid
    map_fn: Callable
    name: str | None = None
    params: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def sample(self):
        t, p = self.map_fn(list(self.grid.coordinates()))
        ext = self.grid.extents
        t = np.broadcast_to(np.asarray(t, dtype=float), ext).copy()
        p = np.stack([np.broadcast_to(np.asarray(c, dtype=float), ext)
                      for c in p], axis=-1)
        return t, p

    def generator_tag(self):
        if self.name is None:
            return None
        return {"name": self.name, "params": dict(self.params)}


def induce_data(imm: ExplicitImmersion, frame_seed=None,
                derivatives: str = "jet",
                attach_derivatives: bool = True) -> GeometricData:
    """Induce the full hypothesis bundle from an explicit immersion.

    derivatives: 'jet' uses exact forward-mode jets throughout; 'fd' uses
    second-order finite differences of the sampled map and frame fields
    (no derivative fields are attached in that mode), on the grid widened
    by _HALO nodes beyond every face, and crops every field to the chart:
    the map must be defined there too. The dataset is checked as
    load_data checks a document's.

    With derivatives='jet' and no frame_seed, stage 1 gives the values of
    P, E and a that exact_frame_field packs, bit for bit: the value rows of
    jets round as plain arrays do. A successful induction then leaves
    copies of those value rows in imm._cache, so the next
    exact_frame_field(imm) need not map the chart and run stage 1 again.
    A frame seed mixes the tangents and the fd engine differentiates the
    frames by stencils; both change E, so they leave nothing there.
    """
    spec, warping, grid = imm.spec, imm.warping, imm.grid
    problems = validate_signature(spec)
    if problems:
        raise DegenerateDataError("invalid signature: " + "; ".join(problems))
    n, nd = spec.n, grid.n
    # The image must lie on the declared quadric at every node.
    _, p_samples = imm.sample()
    member = np.einsum("g,...g,...g->...", spec.fiber_signs,
                       p_samples, p_samples) - spec.c
    if np.abs(member).max() > 1e-8:
        bad = _worst_node(np.abs(member), member.ndim)
        raise DegenerateDataError(
            f"immersion leaves the quadric of the declared signature: "
            f"|g0(p,p) - c| = {float(np.abs(member).max()):.3e} at node {bad}")
    if derivatives == "jet":
        P, V = _map_jets(grid, imm.map_fn, 3 if attach_derivatives else 2)
    elif derivatives == "fd":
        P, V = _map_fd(grid, imm.map_fn)
        attach_derivatives = False
    else:
        raise ValueError("derivatives must be 'jet' or 'fd'")
    Mseed = None
    if frame_seed is not None:
        Mseed = np.asarray(frame_seed, dtype=float)
        if Mseed.shape != (n, n) or abs(np.linalg.det(Mseed)) < 1e-12:
            raise DegenerateDataError(
                "frame seed must be an invertible n x n matrix")
        V = jets.einsum("kl,l...->k...", Mseed, V)
    # The induced metric needs no separate inertia check: _stage1 raises
    # unless every tangent slot's squared norm has its declared sign, and
    # validate_signature ties those signs to p (Sylvester's law).
    s1, s2 = _stages(spec, warping, grid, P, V)

    F = s1["F"]
    if Mseed is not None:
        F = jets.einsum("ik...,kl->il...", F, Mseed)
    comps = dict(frame=F, omega_tangent=s2["omega_tangent"],
                 omega_bundle=s2["omega_bundle"], alpha=s2["alpha"],
                 T_comp=s1["T"], xi_comp=s1["xi"])
    if derivatives == "fd":
        chart = (Ellipsis,) + (slice(_HALO, -_HALO),) * nd
        comps = {name: x[chart] for name, x in comps.items()}
        P = P[chart]
    derivs = None
    if attach_derivatives:
        derivs = {name: np.stack([_grid_first(value(x.parts[k]), nd)
                                  for k in range(n)])
                  for name, x in comps.items()}
    fields = {name: _grid_first(value(x), nd) for name, x in comps.items()}
    fields["pi"] = value(P)[0]
    tag = imm.generator_tag()
    if tag is not None:
        # The induction mode too, so that a refinement re-induces alike.
        tag["params"]["derivatives"] = derivatives
    data = GeometricData(spec, warping, grid, derivs=derivs, generator=tag,
                         **fields)
    data.validate()
    if derivatives == "jet" and Mseed is None:
        # Copies, so _cache holds no derivative rows of the jets.
        imm._cache["stage1"] = tuple(np.array(value(x)) for x in
                                     (P, s1["E"], s1["a"]))
    return data


# ---------------------------------------------------------------------------
# Reference fields and base frames straight from the oracle


def reference_field(imm: ExplicitImmersion,
                    B: np.ndarray | None = None) -> ImmersionField:
    """ImmersionField of the generating immersion (positions and exact
    adapted frames), for round-trip comparisons. B is exact_frame_field(imm)
    where the caller has it already."""
    t, p = imm.sample()
    if B is None:
        B = exact_frame_field(imm)
    frames = adapted_frames(imm.spec, imm.warping.eval(t)[0], B)
    return ImmersionField(spec=imm.spec, warping=imm.warping, grid=imm.grid,
                          spatial=p, t=t, frames=frames)


def _frame_matrices(spec, grid, P, E, a):
    """Frame matrices B (*ext, M, M) from the stage-1 values: the map's
    values P (N+2, *ext), the adapted frame E (n+m, N+2, *ext) and the warp
    values a.

    Column 0 comes from the scaled position direction, columns 1..N+1 from
    the induced adapted frame; row N+1 automatically holds the vertical
    components T_beta.
    """
    nd, Np1 = grid.n, spec.N + 1
    fs = spec.fiber_signs
    B = np.zeros((spec.size, spec.size) + tuple(grid.extents))
    # column 0: position direction p/(c a) expressed in the scaled basis
    B[:Np1, 0] = _pattern(fs, nd) * P[1:]
    B[:Np1, 1:] = ((a / spec.c) * _pattern(fs[:, None], nd)
                   * np.swapaxes(E[:, 1:], 0, 1))
    B[Np1, 1:] = spec.epsilon * E[:, 0]
    return _grid_first(B, nd)


def exact_frame_field(imm: ExplicitImmersion) -> np.ndarray:
    """Frame matrices B(x) of the generating immersion at every node,
    (*ext, M, M) (see _frame_matrices).

    B is packed from the stage-1 values that induce_data left in
    imm._cache, when it did, and they are taken out; otherwise the map is
    evaluated on first-order jets and stage 1 runs on plain arrays, since
    only the frame values are read.
    """
    values = imm._cache.pop("stage1", None)
    if values is None:
        P, V = _map_jets(imm.grid, imm.map_fn, 1)
        s1 = _stage1(imm.spec, imm.warping, P, V)
        values = P, s1["E"], s1["a"]
    return _frame_matrices(imm.spec, imm.grid, *values)


def exact_base_frame(imm: ExplicitImmersion) -> np.ndarray:
    """B0 at the grid base node, built from the induced frames."""
    return exact_frame_field(imm)[imm.grid.base_node]


# ---------------------------------------------------------------------------
# Canonical example library


def _grid_from_params(params, n, extent, spacing):
    ext = tuple(params.get("grid_extents", (extent,) * n))
    sp = tuple(params.get("grid_spacing", (spacing,) * n))
    origin = tuple(params.get(
        "grid_origin", tuple(-h * (e - 1) / 2 for e, h in zip(ext, sp))))
    base = tuple(params.get("grid_base", tuple(e // 2 for e in ext)))
    return ChartGrid(ext, sp, origin, base)


def _default_warping(params, default_kind="cosh"):
    wp = params.get("warping")
    if isinstance(wp, WarpingFunction):
        return wp
    if isinstance(wp, dict):
        return WarpingFunction.from_dict(wp)
    if wp is None:
        wp = default_kind
    if wp == "cos":
        return WarpingFunction("cos", domain=(-1.45, 1.45))
    return WarpingFunction(wp)


def _graph_chart(fiber_signs, c):
    """Chart of the quadric {g0(p,p)=c}: coordinate slot 0 is solved for."""
    def chart(x):
        Q = 0.0
        for s, xi in zip(fiber_signs[1:], x):
            Q = Q + s * (xi * xi)
        w = sqrt(1.0 - c * Q)
        return [w] + list(x)
    return chart


def _slice_builder(name, fiber_tail_signs, epsilon, default_warp):
    def build(params):
        params = dict(params or {})
        c = int(params.get("c", 1))
        t0 = float(params.get("t0", 0.3))
        n = len(fiber_tail_signs)
        warping = _default_warping(params, default_warp)
        spec = SignatureSpec.from_counts(
            n, 1, epsilon, c, fiber_tail_signs, (epsilon,))
        grid = _grid_from_params(params, n, extent=17, spacing=0.04)
        chart = _graph_chart((c,) + fiber_tail_signs, c)

        def map_fn(x):
            return t0 + 0.0 * x[0], chart(x)

        return ExplicitImmersion(spec, warping, grid, map_fn, name=name,
                                 params={"c": c, "t0": t0, **_grid_tag(grid)})
    return build


def _grid_tag(grid):
    return {"grid_extents": list(grid.extents),
            "grid_spacing": list(grid.spacing),
            "grid_origin": list(grid.origin),
            "grid_base": list(grid.base_node)}


def _build_slice(params):
    params = dict(params or {})
    n = int(params.get("n", 2))
    eps = int(params.get("epsilon", 1))
    return _slice_builder("slice", (1,) * n, eps,
                          params.get("warping", "cosh") or "cosh")(params)


def _build_desitter_slice(params):
    params = dict(params or {})
    n = int(params.get("n", 2))
    params.setdefault("warping", "cosh")
    params.setdefault("t0", 0.25)
    params["c"] = 1
    return _slice_builder("desitter_slice", (1,) * n, -1, "cosh")(params)


def _build_lorentz_cylinder(params):
    params = dict(params or {})
    params["c"] = 1
    params.setdefault("t0", 0.3)
    # fiber index 1: chart signs (+, -) on a 2-dimensional slice
    return _slice_builder("lorentz_cylinder", (1, -1), 1, "cosh")(params)


def _build_vertical_geodesic(params):
    params = dict(params or {})
    N = int(params.get("N", 1))
    t0 = float(params.get("t0", 0.0))
    eps = int(params.get("epsilon", 1))
    if eps != 1:
        raise DegenerateDataError(
            "vertical geodesic: the normal directions are fiber-tangent and "
            "spacelike, so epsilon=-1 violates the adopted sign ordering")
    warping = _default_warping(params, "cosh")
    spec = SignatureSpec.from_counts(1, N, 1, 1, (1,), (1,) * N)
    grid = _grid_from_params(params, 1, extent=33, spacing=0.03)

    def map_fn(x):
        s = x[0]
        p = [1.0 + 0.0 * s] + [0.0 * s for _ in range(N)]
        return t0 + s, p

    return ExplicitImmersion(spec, warping, grid, map_fn,
                             name="vertical_geodesic",
                             params={"N": N, "t0": t0, **_grid_tag(grid)})


def _build_great_subsphere(params):
    params = dict(params or {})
    n = int(params.get("n", 2))
    N = int(params.get("N", 3))
    r = float(params.get("radius", 1.0))
    t0 = float(params.get("t0", 0.0))
    eps = int(params.get("epsilon", 1))
    if not (0.0 < r <= 1.0):
        raise ValueError("radius must be in (0, 1]")
    if N < n + 1:
        raise ValueError("N must be at least n + 1")
    warping = _default_warping(params, "constant")
    if not warping.is_constant or warping.amplitude != 1.0:
        raise ValueError("the warping must be constant with amplitude 1")
    m = N + 1 - n
    spec = SignatureSpec.from_counts(n, m, eps, 1, (1,) * n,
                                     (1,) * (m - 1) + (eps,))
    grid = _grid_from_params(params, n, extent=13, spacing=0.05)
    sub_chart = _graph_chart((1,) * (n + 1), 1)
    h = np.sqrt(1.0 - r * r)

    def map_fn(x):
        u = sub_chart(x)
        p = [r * c for c in u] + [h + 0.0 * x[0]]
        p += [0.0 * x[0] for _ in range(N + 1 - len(p))]
        return t0 + 0.0 * x[0], p

    return ExplicitImmersion(spec, warping, grid, map_fn,
                             name="great_subsphere",
                             params={"n": n, "N": N, "radius": r, "t0": t0,
                                     **_grid_tag(grid)})


def _build_helix(params):
    params = dict(params or {})
    beta = float(params.get("beta", 0.6))
    om = params.get("omega")
    z0 = float(params.get("z0", 0.0))
    t0 = float(params.get("t0", 0.0))
    warping = _default_warping(params, "cosh")
    rho = np.sqrt(1.0 - z0 * z0)
    a0 = float(warping.eval(t0)[0])
    if om is None:
        rem = 1.0 - beta * beta
        if rem <= 0:
            raise ValueError("beta too large for unit speed at the base")
        om = np.sqrt(rem) / (a0 * rho)
    om = float(om)
    speed2 = beta * beta + (a0 * rho * om) ** 2
    if abs(speed2 - 1.0) > 1e-10:
        raise ValueError(
            f"parameters are not unit speed at the base node "
            f"(eps*beta^2 + a(t0)^2 rho^2 omega^2 = {speed2:.6f})")
    spec = SignatureSpec.from_counts(1, 2, 1, 1, (1,), (1, 1))
    grid = _grid_from_params(params, 1, extent=65, spacing=0.03125)
    from .jets import cos, sin

    def map_fn(x):
        s = x[0]
        ang = om * s
        return t0 + beta * s, [rho * cos(ang), rho * sin(ang), z0 + 0.0 * s]

    return ExplicitImmersion(spec, warping, grid, map_fn, name="helix",
                             params={"beta": beta, "omega": om, "z0": z0,
                                     "t0": t0, **_grid_tag(grid)})


_FAMILIES = {
    "slice": _build_slice,
    "vertical_geodesic": _build_vertical_geodesic,
    "great_subsphere": _build_great_subsphere,
    "helix": _build_helix,
    "desitter_slice": _build_desitter_slice,
    "lorentz_cylinder": _build_lorentz_cylinder,
}


def example_names():
    return sorted(_FAMILIES)


def make_example(name: str, params: dict | None = None) -> ExplicitImmersion:
    """The immersion of a named family. A parameter of the wrong type or
    out of range is a SchemaError naming the example."""
    if name not in _FAMILIES:
        raise KeyError(f"unknown example {name!r}; known: {example_names()}")
    return _parsed(f"example {name}", _FAMILIES[name], params)


def canonical_example(name: str, params: dict | None = None):
    """(ExplicitImmersion, GeometricData) for a named analytic family."""
    params = dict(params or {})
    attach = params.pop("attach_derivatives", True)
    derivatives = params.pop("derivatives", "jet")
    if derivatives not in ("jet", "fd"):
        raise SchemaError(f"example {name}: derivatives must be 'jet' or "
                          f"'fd', not {derivatives!r}")
    imm = make_example(name, params)
    data = induce_data(imm, derivatives=derivatives,
                       attach_derivatives=attach)
    return imm, data
