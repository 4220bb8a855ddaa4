"""Nested-list reference of the stages in warpframe.oracle.

This is the oracle as it was before its stages moved to component-major
tensors: every ambient vector is a (t_comp, fiber_list) pair, every frame a
list of such pairs, and every connection coefficient one entry of nested
lists, each entry a float, an array or a jet. `induce_fields` and
`exact_frame_field` pack the results the way induce_data and
exact_frame_field did. They are kept as the reference the tensor stages are
compared against, field by field.
"""

import numpy as np

from warpframe.bundle_data import ChartGrid
from warpframe.errors import DegenerateDataError
from warpframe.jets import Jet, part, seed, sqrt, value
from warpframe.stencils import grad1


# ---------------------------------------------------------------------------
# Generic ambient-vector algebra (components are floats, arrays, or jets)


def _g0dot(fsigns, x, y):
    acc = fsigns[0] * (x[0] * y[0])
    for g, a, b in zip(fsigns[1:], x[1:], y[1:]):
        acc = acc + g * (a * b)
    return acc


def _wdot(spec, a, u, v):
    """Warped metric: u, v are (t_comp, fiber_list) pairs."""
    return spec.epsilon * (u[0] * v[0]) + (a * a) * _g0dot(
        spec.signs, u[1], v[1])


def _axpy(c, u, v):
    """v + c*u componentwise on (t, fibs) pairs."""
    return (v[0] + c * u[0], [b + c * a for a, b in zip(u[1], v[1])])


def _scale(c, u):
    return (c * u[0], [c * a for a in u[1]])


def _quadric_project(spec, p, u):
    """Remove the g0-component of the fiber part along the position p."""
    coef = spec.c * _g0dot(spec.signs, u[1], p)
    return (u[0], [a - coef * b for a, b in zip(u[1], p)])


# ---------------------------------------------------------------------------
# Stage 1: frames, T, xi (needs the map 1-jet)


def _stage1(spec, warping, t, p, V, tol=1e-8):
    """Adapted orthonormal frame and vertical split at every node.

    t, p: base point (p is a list of N+1 components); V: list of n
    coordinate tangents as (t_comp, fiber_list) pairs. All entries may be
    jets; branching happens on stripped values only.
    """
    n, m = spec.n, spec.m
    a = warping.derivative(t, 0)
    signs = spec.signs

    ehat = []
    coeffs = []  # rows of F: e_i = sum_k F[i][k] V_k
    for i in range(n):
        w = V[i]
        cf = [1.0 if k == i else 0.0 for k in range(n)]
        for j, (u, su) in enumerate(zip(ehat, signs[1:])):
            proj = su * _wdot(spec, a, w, u)
            w = _axpy(-proj, u, w)
            cf = [ck - proj * cj for ck, cj in zip(cf, coeffs[j])]
        Q = _wdot(spec, a, w, w)
        qv = np.asarray(value(Q))
        need = signs[1 + i]
        if not np.all(need * qv > tol):
            raise DegenerateDataError(
                f"tangent frame slot {i + 1}: norm sign does not match "
                f"declared sign {need} everywhere (min {float((need*qv).min()):.3e})")
        inv = 1.0 / sqrt(need * Q)
        ehat.append(_scale(inv, w))
        coeffs.append([c * inv for c in cf])

    # Normal completion: fiber coordinate directions in index order, then
    # the vertical direction; each candidate is first made quadric-tangent.
    # A candidate skipped for the wrong sign stays available to later slots.
    Np1 = spec.N + 1
    cands = []
    for g in range(Np1):
        cands.append((0.0, [1.0 if j == g else 0.0 for j in range(Np1)]))
    cands.append((1.0, [0.0] * Np1))
    used = [False] * len(cands)
    for u_slot in range(m):
        need = signs[1 + n + u_slot]
        accepted = None
        for pos, cand in enumerate(cands):
            if used[pos]:
                continue
            w = _quadric_project(spec, p, cand)
            for v, sv in zip(ehat, signs[1:]):
                proj = sv * _wdot(spec, a, w, v)
                w = _axpy(-proj, v, w)
            Q = _wdot(spec, a, w, w)
            qv = np.asarray(value(Q))
            if np.all(need * qv > tol):
                accepted = _scale(1.0 / sqrt(need * Q), w)
                used[pos] = True
                break
        if accepted is None:
            raise DegenerateDataError(
                f"could not complete the normal frame at slot {n + 1 + u_slot} "
                f"with sign {need}")
        ehat.append(accepted)

    dt_vec = (1.0, [0.0] * Np1)
    T_comp = [signs[1 + i] * spec.epsilon * ehat[i][0] for i in range(n)]
    xi_comp = [signs[1 + n + u] * spec.epsilon * ehat[n + u][0]
               for u in range(m)]
    return {"a": a, "t": t, "p": p, "V": V, "ehat": ehat, "F": coeffs,
            "T": T_comp, "xi": xi_comp, "dt": dt_vec}


# ---------------------------------------------------------------------------
# Stage 2: connection coefficients and the second fundamental form


def _stage2(spec, warping, s1, drop, deriv):
    """omega/alpha fields from stage-1 frames.

    drop(q) aligns a stage-1 quantity with the derivative level, deriv(q, k)
    is d/dx_k of a stage-1 quantity at that level. For the jet engine these
    are `.val` and `.parts[k]`; for the finite-difference engine they are
    the identity and a gradient stencil.
    """
    n, m = spec.n, spec.m
    signs = spec.signs

    def dropv(u):
        return (drop(u[0]), [drop(c) for c in u[1]])

    def derivv(u, k):
        return (deriv(u[0], k), [deriv(c, k) for c in u[1]])

    t = drop(s1["t"])
    a = warping.derivative(t, 0)
    a1 = warping.derivative(t, 1)
    Vd = [dropv(v) for v in s1["V"]]
    Ed = [dropv(e) for e in s1["ehat"]]

    def tilde_nabla(k, j):
        """Ambient covariant derivative of the frame field e_j along x_k."""
        dE = derivv(s1["ehat"][j], k)
        Vk, Ej = Vd[k], Ed[j]
        rat = a1 / a
        fib = [dE[1][g] + rat * (Vk[0] * Ej[1][g] + Ej[0] * Vk[1][g])
               for g in range(spec.N + 1)]
        tc = dE[0] - spec.epsilon * (a * a1) * _g0dot(
            spec.signs, Vk[1], Ej[1])
        return (tc, fib)

    # nabla[k][j]: derivative of frame vector e_{j+1} along coordinate k.
    nabla = [[tilde_nabla(k, j) for j in range(n + m)] for k in range(n)]

    omega_t = [[[signs[1 + i] * _wdot(spec, a, Ed[i], nabla[k][j])
                 for k in range(n)] for j in range(n)] for i in range(n)]
    omega_b = [[[signs[1 + n + u] * _wdot(spec, a, Ed[n + u], nabla[k][n + v])
                 for k in range(n)] for v in range(m)] for u in range(m)]
    # alpha(d/dx_k, e_j) coefficients along e_u, then pulled onto frame pairs.
    alpha_k = [[[signs[1 + n + u] * _wdot(spec, a, Ed[n + u], nabla[k][j])
                 for u in range(m)] for j in range(n)] for k in range(n)]
    Fd = [[drop(c) for c in row] for row in s1["F"]]
    alpha = [[[None] * n for _ in range(n)] for _ in range(m)]
    for u in range(m):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    acc = acc + Fd[i][k] * alpha_k[k][j][u]
                alpha[u][i][j] = acc
    # Exact symmetrization / skew-enforcement (linear, jet-safe).
    for u in range(m):
        for i in range(n):
            for j in range(i + 1, n):
                s = 0.5 * (alpha[u][i][j] + alpha[u][j][i])
                alpha[u][i][j] = s
                alpha[u][j][i] = s
    for i in range(n):
        for j in range(i, n):
            ee = signs[1 + i] * signs[1 + j]
            for k in range(n):
                s = 0.5 * (omega_t[i][j][k] - ee * omega_t[j][i][k])
                omega_t[i][j][k] = s
                omega_t[j][i][k] = -ee * s
    for u in range(m):
        for v in range(u, m):
            ee = signs[1 + n + u] * signs[1 + n + v]
            for k in range(n):
                s = 0.5 * (omega_b[u][v][k] - ee * omega_b[v][u][k])
                omega_b[u][v][k] = s
                omega_b[v][u][k] = -ee * s
    return {"omega_tangent": omega_t, "omega_bundle": omega_b, "alpha": alpha}


# ---------------------------------------------------------------------------
# Engines


def _to_array(extents, nested, shape):
    """Nested lists of node arrays -> one (*extents, *shape) array."""
    out = np.empty(tuple(extents) + tuple(shape))

    def fill(idx, src, depth):
        if depth == len(shape):
            out[(Ellipsis,) + idx] = np.broadcast_to(
                np.asarray(value(src), dtype=float), tuple(extents))
            return
        for i in range(shape[depth]):
            fill(idx + (i,), src[i], depth + 1)

    fill((), nested, 0)
    return out


def _apply_frame_seed(V, frame_seed):
    if frame_seed is None:
        return V
    M = np.asarray(frame_seed, dtype=float)
    n = len(V)
    if M.shape != (n, n) or abs(np.linalg.det(M)) < 1e-12:
        raise DegenerateDataError("frame seed must be an invertible n x n matrix")
    mixed = []
    for k in range(n):
        acc = _scale(M[k][0], V[0])
        for l in range(1, n):
            acc = _axpy(M[k][l], V[l], acc)
        mixed.append(acc)
    return mixed, M


def _jet_engine(spec, warping, grid, map_fn, frame_seed, want_dfields):
    depth = 3 if want_dfields else 2
    n = spec.n
    X = seed(list(grid.coordinates()), depth)
    t_j, p_j = map_fn(X)
    t_in = t_j.val if isinstance(t_j, Jet) else t_j
    p_in = [(c.val if isinstance(c, Jet) else c) for c in p_j]
    V = []
    for k in range(n):
        V.append((part(t_j, k), [part(c, k) for c in p_j]))
    Mseed = None
    if frame_seed is not None:
        V, Mseed = _apply_frame_seed(V, frame_seed)
    s1 = _stage1(spec, warping, t_in, p_in, V)

    def drop(q):
        return q.val if isinstance(q, Jet) else q

    def deriv(q, k):
        return q.parts[k] if isinstance(q, Jet) else 0.0

    s2 = _stage2(spec, warping, s1, drop, deriv)
    return s1, s2, Mseed


def _fd_engine(spec, warping, chart, map_fn, frame_seed, halo=2):
    """Both stages on finite differences over the chart widened by `halo`
    nodes beyond every face; the fields induce_fields packs are cropped
    back to the chart."""
    n = spec.n
    grid = ChartGrid(
        tuple(e + 2 * halo for e in chart.extents), chart.spacing,
        tuple(o - halo * h for o, h in zip(chart.origin, chart.spacing)),
        tuple(b + halo for b in chart.base_node))
    coords = grid.coordinates()
    t_arr, p_arrs = map_fn(list(coords))
    t_arr = np.broadcast_to(np.asarray(t_arr, dtype=float), grid.extents).copy()
    p_arrs = [np.broadcast_to(np.asarray(c, dtype=float), grid.extents).copy()
              for c in p_arrs]
    V = []
    for k in range(n):
        V.append((grad1(t_arr, k, grid.spacing[k]),
                  [grad1(c, k, grid.spacing[k]) for c in p_arrs]))
    Mseed = None
    if frame_seed is not None:
        V, Mseed = _apply_frame_seed(V, frame_seed)
    s1 = _stage1(spec, warping, t_arr, p_arrs, V)

    def drop(q):
        return q

    def deriv(q, k):
        return grad1(np.broadcast_to(np.asarray(q, dtype=float),
                                     grid.extents), k, grid.spacing[k])

    s2 = _stage2(spec, warping, s1, drop, deriv)

    def crop(q):
        return np.broadcast_to(np.asarray(q, dtype=float),
                               grid.extents)[(slice(halo, -halo),) * n]

    s1 = {k: _map_nested(s1[k], crop) for k in ("t", "F", "T", "xi")}
    s2 = {k: _map_nested(s2[k], crop)
          for k in ("omega_tangent", "omega_bundle", "alpha")}
    return s1, s2, Mseed


def _map_nested(nested, fn):
    if isinstance(nested, list):
        return [_map_nested(x, fn) for x in nested]
    return fn(nested)


# ---------------------------------------------------------------------------
# Packing, as induce_data and exact_frame_field did it


def induce_fields(imm, frame_seed=None, derivatives="jet",
                  attach_derivatives=True):
    """The fields induce_data stores, as (fields, derivs); derivs is None
    in the finite-difference mode or without derivative fields."""
    spec, warping, grid = imm.spec, imm.warping, imm.grid
    n, m = spec.n, spec.m
    ext = tuple(grid.extents)
    if derivatives == "jet":
        s1, s2, Mseed = _jet_engine(spec, warping, grid, imm.map_fn,
                                    frame_seed, attach_derivatives)
    else:
        s1, s2, Mseed = _fd_engine(spec, warping, grid, imm.map_fn,
                                   frame_seed)
        attach_derivatives = False
    F = _to_array(ext, s1["F"], (n, n))
    if Mseed is not None:
        F = np.einsum("...ik,kl->...il", F, Mseed)
    fields = dict(
        frame=F,
        omega_tangent=_to_array(ext, s2["omega_tangent"], (n, n, n)),
        omega_bundle=_to_array(ext, s2["omega_bundle"], (m, m, n)),
        alpha=_to_array(ext, s2["alpha"], (m, n, n)),
        T_comp=_to_array(ext, s1["T"], (n,)),
        xi_comp=_to_array(ext, s1["xi"], (m,)),
        pi=_to_array(ext, s1["t"], ()),
    )
    derivs = None
    if attach_derivatives:
        def dstack(nested, shape):
            return np.stack(
                [_to_array(ext, _map_nested(nested, lambda q: part(q, k)),
                           shape) for k in range(n)], axis=0)

        dF = dstack(s1["F"], (n, n))
        if Mseed is not None:
            dF = np.einsum("d...ik,kl->d...il", dF, Mseed)
        derivs = {
            "frame": dF,
            "T_comp": dstack(s1["T"], (n,)),
            "xi_comp": dstack(s1["xi"], (m,)),
            "omega_tangent": dstack(s2["omega_tangent"], (n, n, n)),
            "omega_bundle": dstack(s2["omega_bundle"], (m, m, n)),
            "alpha": dstack(s2["alpha"], (m, n, n)),
        }
    return fields, derivs


def exact_frame_field(imm):
    """Frame matrices B(x) of the generating immersion at every node."""
    spec, warping, grid = imm.spec, imm.warping, imm.grid
    s1, _, _ = _jet_engine(spec, warping, grid, imm.map_fn, None, False)
    ext = tuple(grid.extents)
    Np1 = spec.N + 1
    a = np.asarray(value(s1["a"]), dtype=float)
    a = np.broadcast_to(a, ext)
    p = [np.broadcast_to(np.asarray(value(c), dtype=float), ext)
         for c in s1["p"]]
    B = np.empty(ext + (spec.size, spec.size))
    fs = spec.fiber_signs
    # column 0: position direction p/(c a) expressed in the scaled basis
    for b in range(Np1):
        B[..., b, 0] = fs[b] * p[b]
    B[..., Np1, 0] = 0.0
    for g in range(Np1):
        e = s1["ehat"][g]
        et = np.broadcast_to(np.asarray(value(e[0]), dtype=float), ext)
        for b in range(Np1):
            efb = np.broadcast_to(np.asarray(value(e[1][b]), dtype=float), ext)
            B[..., b, 1 + g] = (a / spec.c) * fs[b] * efb
        B[..., Np1, 1 + g] = spec.epsilon * et
    return B
