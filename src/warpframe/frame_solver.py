"""Connection-form assembly and frame-field integration.

The (N+2) x (N+2) matrices of 1-forms:

* Omega: the full metric connection matrix, including the index-0 row and
  column built from the S tensor;
* X: the warp-term matrix (eps a'/a) (T_beta omega_alpha
  - eps_alpha eps_beta T_alpha omega_beta);
* Upsilon = Omega - X, the matrix integrated by the frame field.

One tensor routine assembles them: on arrays for the forms themselves, on
jets of arrays for their exact coordinate derivatives. It works
component-major (component axes first, grid axes last), so every broadcast
runs its inner loop over the grid. Upsilon is the one form that more than
one stage reads (flatness, the sweep, the path probe), so it is the one
form kept: assemble_all returns it from GeometricData._cache when it is
all a call asks for (the data never changes after load), and any other
call assembles afresh, returns fresh Omega, X and W and keeps Upsilon.
Every array is read-only and a grid-major view (*ext, M, M, n) of
component-major memory; the verifier moves the axes back and reads the
component-major blocks without a copy.

integrate_frame propagates B along axis-ordered lattice paths with
per-step midpoint-sampled matrix exponentials (a second-order Lie-group
scheme). The step generators depend on Upsilon only, never on B, so every
propagator of an axis is computed before the sweep in one call of the
batched exponential `expm`: a Taylor polynomial of the lowest degree (4,
6, 9, 12 or 16) whose truncation bound theta_m covers the largest step in
the stack, evaluated by Paterson-Stockmeyer from matrix products alone (no
linear solve), with scaling and squaring above theta16. The sweep then
only multiplies, a block of 16 steps at a time, re-projects onto the
pseudo-orthogonal group the block ends that have drifted off it (one
batched check finds them), and records its largest pre-projection defect;
the group and row defects over the whole field are computed when first
read.
The path-independence probe steps with the same kernel. The row constraint
B_{N+1, beta} = T_beta is never enforced, only measured: it must emerge from
the equations themselves.

Every per-matrix maximum (the group and row defects, the 1-norms of expm,
the frame conclusions of immersion.verify_immersion) is taken by _abs_max
as column maxima over a flat (nodes, entries) view. A numpy reduction over
the small trailing axes of a grid-major stack runs its inner loop over a
few entries once per node; a pass per entry runs it over all the nodes.
For the same reason G = diag(+-1) is applied by negating rows and
subtracted on the diagonal alone, never broadcast over every matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bundle_data import GeometricData, _worst_node
from . import jets
from .errors import (IntegrationBlowup, InvariantViolation, NonConvergence,
                     SchemaError)


# ---------------------------------------------------------------------------
# Assembly

_ASSEMBLY_FIELDS = ("inv_frame", "T_comp", "xi_comp", "alpha",
                    "omega_tangent", "omega_bundle")
_FORMS = ("Omega", "X", "Upsilon", "W")


def _grid_last(x, nd):
    """(*ext, *comp) -> contiguous (*comp, *ext), for nd grid axes."""
    return jets.linear(lambda v: np.ascontiguousarray(
        np.moveaxis(v, range(nd), range(-nd, 0))), x)


def _grid_first(x, nd):
    """(*comp, *ext) -> (*ext, *comp), a view: the inverse of _grid_last."""
    return jets.linear(lambda v: np.moveaxis(v, range(-nd, 0), range(nd)), x)


def _pattern(v, nd):
    """Per-component constants (the same signs at every node), broadcast
    over nd trailing grid axes."""
    return v.reshape(v.shape + (1,) * nd)


def _assemble(spec, C, T, xi, alpha, omega_t, omega_b, a, a1):
    """Omega, X (M, M, n, *ext) and W (M, n, *ext) from the per-node tensors
    C (n, n, *ext) [k, i], T (n, *ext), xi (m, *ext), alpha (m, n, n, *ext),
    omega_t (n, n, n, *ext), omega_b (m, m, n, *ext) and the warp values
    a, a' (*ext). Component axes come first, so every broadcast runs its
    inner loop over the grid. The inputs are arrays, or jets.Jet of arrays
    carrying their coordinate derivatives (the outputs are then jets too).
    """
    n, m, M = spec.n, spec.m, spec.size
    eps, c = spec.epsilon, spec.c
    ext = np.shape(jets.value(a))
    nd = len(ext)
    sgn = np.asarray(spec.signs, dtype=float)

    tan, bun = slice(1, n + 1), slice(n + 1, n + m + 1)
    fib = slice(1, n + m + 1)

    sT = _pattern(sgn[tan], nd) * T
    delta = jets.einsum("ki...,i...->k...", C, sT)            # delta(d/dx_k)
    Ta = jets.zeros((M,) + ext, like=C)
    Ta[tan] = sT
    Ta[bun] = _pattern(sgn[bun], nd) * xi
    W = jets.zeros((M, n) + ext, like=C)
    W[tan] = jets.einsum("ki...->ik...", C)

    # omega_{i0}(d/dx_k) = -eps_i <e_i, S d/dx_k> = -(S d/dx_k)^i
    inv_ac = 1.0 / (a * c)
    edelta = (eps * delta)[:, None]
    s_tan = -inv_ac * (C - edelta * T[None])                   # [k, i]
    s_bun = inv_ac * (edelta * xi[None])                       # [k, u]
    Om = jets.zeros((M, M, n) + ext, like=C)
    Om[tan, 0] = -jets.einsum("ki...->ik...", s_tan)
    Om[bun, 0] = -jets.einsum("ku...->uk...", s_bun)
    Om[0, fib] = _pattern((-sgn[0] * sgn[fib])[:, None], nd) * Om[fib, 0]
    Om[tan, tan] = omega_t
    Om[bun, bun] = omega_b
    acc = jets.einsum("kj...,uji...->uik...", C, alpha)
    Om[bun, tan] = acc
    Om[tan, bun] = (_pattern((-sgn[tan, None] * sgn[bun])[..., None], nd)
                    * jets.einsum("uik...->iuk...", acc))

    fac = eps * a1 / a
    ee = _pattern((sgn[:, None] * sgn)[..., None], nd)
    X = fac * (Ta[None, :, None] * W[:, None]
               - ee * Ta[:, None, None] * W[None])
    return Om, X, W


def assemble_all(data: GeometricData, *names) -> dict:
    """The forms `names` among Omega, X, Upsilon (*ext, M, M, n) and W
    (*ext, M, n) at every node; all four if no name is given.

    A call that asks for Upsilon alone gets the one held in data._cache,
    once assembled. Any other call assembles afresh and returns fresh
    Omega, X and W; Upsilon is formed and kept on the first assembly, so
    it is the same array on every later call. All are read-only grid-major
    views of component-major memory (_grid_last of one is a view again).
    """
    names = names or _FORMS
    forms = {"Upsilon": data._cache.get("Upsilon")}
    if forms["Upsilon"] is None or names != ("Upsilon",):
        nd = data.grid.n
        a, a1, _ = data.warp_values()
        Om, X, W = _assemble(data.spec, *(
            _grid_last(getattr(data, name), nd) for name in _ASSEMBLY_FIELDS),
            a, a1)
        fresh = {"Omega": Om, "X": X, "W": W}
        if forms["Upsilon"] is None:
            fresh["Upsilon"] = Om - X
        for k, v in fresh.items():
            v.setflags(write=False)
            forms[k] = _grid_first(v, nd)
        data._cache["Upsilon"] = forms["Upsilon"]
    return {k: forms[k] for k in names}


def inv_frame_derivatives(data: GeometricData) -> list:
    """d(inv_frame)/dx_k = -C dF/dx_k C from the dataset's analytic frame
    derivatives, one (*ext, n, n) array per k. Computed once per dataset."""
    if "d_inv_frame" not in data._cache:
        C = data.inv_frame
        dC = [-(C @ dF @ C) for dF in data.derivs["frame"]]
        for v in dC:
            v.setflags(write=False)
        data._cache["d_inv_frame"] = dC
    return data._cache["d_inv_frame"]


def assembled_derivatives(data: GeometricData) -> list:
    """Exact coordinate derivatives dUpsilon/dx_k, one component-major
    (M, M, n, *ext) array per k, on a dataset with analytic derivative
    fields: the parts of the jet Omega - X. The assembly is re-run on jets,
    which is the exact chain rule through the S tensor and the warp
    factors.
    """
    spec = data.spec
    n = spec.n
    dv = dict(data.derivs, inv_frame=inv_frame_derivatives(data))
    # pi as a jet: d(pi)/dx_k = eps <T, d/dx_k> exactly.
    tk = data.coord_T()
    pij = jets.Jet(data.pi, [spec.epsilon * tk[..., k] for k in range(n)])
    Om, X, _ = _assemble(spec, *(
        _grid_last(jets.Jet(getattr(data, name), dv[name]), n)
        for name in _ASSEMBLY_FIELDS),
        data.warping.derivative(pij, 0), data.warping.derivative(pij, 1))
    dU = Om.grad
    dU -= X.grad
    return list(dU)


# ---------------------------------------------------------------------------
# Step kernel and group projection

# Taylor degrees m of expm, their Paterson-Stockmeyer block sizes s (s
# divides m) and theta_m: the largest double x with
# sum_{k>m} x^(k-1)/k! <= u = 2^-53. At |A|_1 <= theta_m the terms the
# degree-m Taylor polynomial T_m drops sum to at most u |A|_1 in 1-norm.
_TAYLOR = ((4, 2, 3.3973611886348117e-4),
           (6, 3, 9.075933550803477e-3),
           (9, 3, 9.030937398676522e-2),
           (12, 3, 0.3060849974913816),
           (16, 4, 0.814752697196971))
# Beyond 2^52 theta16 (about 4e15) the rounding of K alone changes exp(K) by
# O(1): no digit of the result is significant.
_MAX_SQUARINGS = 52


def _abs_max(x, k):
    """The largest |entry| over the k trailing axes of x, at each index of
    its leading axes (a scalar when x has no others). It equals
    ``np.abs(x).max(axis=tuple(range(-k, 0)))`` bit for bit, NaN included.

    The entries of one matrix are the columns of a flat (nodes, entries)
    view, and the maximum is taken column by column: one np.maximum pass
    over the nodes per entry. A reduction over the small trailing axes
    runs numpy's inner loop over a few entries once per node, and costs
    several times as much on a grid-major stack (*ext, M, M)."""
    a = np.abs(x)
    lead = a.shape[:a.ndim - k]
    a = a.reshape(-1, math.prod(a.shape[len(lead):]))
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out.reshape(lead)[()]


def _one_norms(A):
    """The 1-norm (largest column sum of |a_ij|) of each matrix of a stack
    (L, M, M): M - 1 row additions and the column maxima of _abs_max. It
    equals ``np.abs(A).sum(axis=-2).max(axis=-1)`` bit for bit (numpy
    sums a non-contiguous axis row by row, in the same order), where that
    small-axis reduction costs about three times as much."""
    absA = np.abs(A)
    col = absA[:, 0].copy()
    for i in range(1, A.shape[1]):
        col += absA[:, i]
    return _abs_max(col, 1)


def _taylor(A, m, s):
    """T_m(A) - I = A + A^2/2! + ... + A^m/m! for a stack A (L, M, M), by
    Paterson-Stockmeyer: the powers A^2 .. A^s, then Horner in A^s over
    the blocks sum_{i<s} A^i/(js + i)!, j = m/s - 1 .. 0 (block 0 without
    its I). The top block 1/m! I needs no product, so the whole costs
    s - 1 + m/s - 1 products.
    """
    P = [None, A]
    for _ in range(s - 1):
        P.append(P[-1] @ A)
    L, M = A.shape[0], A.shape[-1]
    c = 1.0 / np.cumprod(np.arange(1.0, m + 1.0))       # c[k - 1] = 1/k!
    R = np.multiply(P[s], c[m - 1])
    tmp, nxt = np.empty_like(R), np.empty_like(R)
    for j in range(m // s - 1, -1, -1):
        if j < m // s - 1:
            np.matmul(P[s], R, out=nxt)
            R, nxt = nxt, R
        for i in range(s - 1, 0, -1):
            R += np.multiply(P[i], c[j * s + i - 1], out=tmp)
        if j:
            R.reshape(L, M * M)[:, ::M + 1] += c[j * s - 1]
    return R


def expm(K):
    """Matrix exponential of one matrix or a stack (..., M, M).

    Scaling and squaring with a truncated Taylor series T_m, vectorized
    over the stack. T_m(A) - I is evaluated by Paterson-Stockmeyer
    (_taylor) from matrix products and scaled sums alone; the identity is
    added last, so no term is summed against it and the small steps of a
    sweep keep e^A - I to relative accuracy. One degree m serves the whole stack, so it stays one batch:

        m    theta_m    products
        4    3.40e-4    2
        6    9.08e-3    3
        9    9.03e-2    4
       12    0.306      5
       16    0.815      6

    theta_m is the largest 1-norm at which the dropped terms sum to at most
    u |A|_1, u = 2^-53 (the bound in _TAYLOR). When every matrix has
    |K|_1 <= theta16, m is the lowest degree whose theta_m bounds the
    largest 1-norm in the stack, and K is not scaled. Otherwise m = 16, and
    each matrix gets its own scaling exponent s (the smallest with
    |K/2^s|_1 <= theta16) and is squared s times. A G-skew generator lands
    on the group {Z : Z^t G Z = G} to that truncation bound. Matrices with
    non-finite entries or a 1-norm beyond about 4e15 (no significant digit
    left) are evaluated as the zero matrix and come out NaN, so a blown-up
    step stays non-finite.
    """
    K = np.asarray(K, dtype=float)
    M = K.shape[-1]
    A = K.reshape((-1, M, M))
    norm = _one_norms(A)
    m, ps, theta = _TAYLOR[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.ceil(np.log2(norm / theta))
    bad = ~(s <= _MAX_SQUARINGS)
    s = np.where(bad | (s < 0), 0, s).astype(int)
    if bad.any() or s.any():    # ldexp(x, 0) == x: skip the copy
        A = np.ldexp(np.where(bad[:, None, None], 0.0, A), -s[:, None, None])
    else:
        top = norm.max(initial=0.0)
        for m, ps, theta in _TAYLOR:
            if top <= theta:
                break
    R = _taylor(A, m, ps)
    R.reshape(-1, M * M)[:, ::M + 1] += 1.0
    for k in range(int(s.max(initial=0))):
        idx = np.flatnonzero(s > k)
        R[idx] = R[idx] @ R[idx]
    R[bad] = np.nan
    return R.reshape(K.shape)


def _gram(Z, g):
    """Z^t G Z of a matrix or a stack Z (..., M, k), for G = diag g with
    entries +-1. G Z is Z with the rows of negative sign negated, which is
    exactly g[:, None] * Z without broadcasting g over every matrix."""
    gZ = np.array(Z, dtype=float)
    for i in np.flatnonzero(g < 0):
        np.negative(gZ[..., i, :], out=gZ[..., i, :])
    return np.swapaxes(Z, -1, -2) @ gZ


def _diagonal_defect(S, h):
    """Per-matrix max |S - diag h| of a matrix or a stack S (..., k, k):
    h is subtracted on the diagonal alone, one pass over the stack per
    entry."""
    d = S.copy()
    for i, hi in enumerate(h):
        d[..., i, i] -= hi
    return _abs_max(d, 2)


def _group_defect(Z, g):
    """Per-matrix max |Z^t G Z - G| of a matrix or a stack, and Z^t G Z
    (G = diag g, entries +-1)."""
    ztgz = _gram(Z, g)
    return _diagonal_defect(ztgz, g), ztgz


# Group defect at which pseudo_orthonormalize stops, and its iteration limit.
_PROJ_TOL = 1e-12
_PROJ_ITER = 50


def pseudo_orthonormalize(Z, G):
    """Project Z (or a stack of Z) onto {Z : Z^t G Z = G}.

    Newton-type iteration Z <- Z (3I - G Z^t G Z) / 2; members of the group
    are exactly its fixed points and convergence is quadratic from
    near-membership. Non-finite inputs and far inputs (initial defect
    >= 0.5) raise NonConvergence, and so do inputs that _PROJ_ITER steps
    leave off the group by more than _PROJ_TOL.
    """
    Z = np.array(Z, dtype=float)
    single = (Z.ndim == 2)
    if single:
        Z = Z[None]
    finite = np.isfinite(Z).all(axis=(-1, -2))
    if not finite.all():
        bad = _worst_node(~finite, finite.ndim)
        raise NonConvergence(
            "pseudo_orthonormalize: non-finite input"
            + ("" if single else f" (matrix {bad} of the stack)"))
    g = np.diag(np.asarray(G, dtype=float)).copy()
    M = Z.shape[-1]
    eye = np.eye(M)
    d0, ztgz = _group_defect(Z, g)
    if not np.all(d0 < 0.5):
        raise NonConvergence(
            f"pseudo_orthonormalize: initial defect {float(d0.max()):.3f} "
            ">= 0.5, too far from the group")
    d = d0
    for _ in range(_PROJ_ITER):
        active = d > _PROJ_TOL
        if not np.any(active):
            break
        GM = g[:, None] * ztgz[active]
        Z[active] = Z[active] @ (1.5 * eye - 0.5 * GM)
        d, ztgz = _group_defect(Z, g)
    if np.any(d > _PROJ_TOL):
        raise NonConvergence(
            f"pseudo_orthonormalize: defect {float(d.max()):.3e} after "
            f"{_PROJ_ITER} iterations")
    return Z[0] if single else Z


# ---------------------------------------------------------------------------
# Base frames


def build_base_frame(data: GeometricData) -> np.ndarray:
    """B0 at the grid base node: the vertical-component row completed to a
    G-orthonormal (N+2) x (N+2) matrix.

    The last row is pinned to (T_0, ..., T_{N+1}); the remaining rows come
    from sign-aware Gram-Schmidt over the canonical basis vectors taken in
    index order. Deterministic.
    """
    spec = data.spec
    node = tuple(data.grid.base_node)
    M = spec.size
    sgn = np.asarray(spec.signs, dtype=float)
    Ta = data.delta_all()[node].astype(float)
    q = float(np.dot(sgn * Ta, Ta))
    if abs(q - spec.epsilon) > 1e-8:
        raise InvariantViolation(
            f"vertical components at node {node} have G-norm {q:.6f}, "
            f"expected {spec.epsilon} (structure equation A fails)")
    last = Ta / np.sqrt(spec.epsilon * q)

    rows = np.zeros((M, M))
    rows[M - 1] = last
    filled = [M - 1]
    for slot in range(M - 1):
        need = sgn[slot]
        got = False
        for cand in range(M):
            w = np.zeros(M)
            w[cand] = 1.0
            for r in filled:
                w = w - sgn[r] * np.dot(sgn * rows[r], w) * rows[r]
            qq = float(np.dot(sgn * w, w))
            if need * qq > 1e-8:
                rows[slot] = w / np.sqrt(need * qq)
                filled.append(slot)
                got = True
                break
        if not got:
            raise InvariantViolation(
                f"cannot complete a base frame with sign {int(need)} "
                f"in slot {slot}")
    assert _group_defect(rows, sgn)[0] < 1e-10
    return rows


# ---------------------------------------------------------------------------
# Integration


@dataclass
class FrameField:
    """Integrated frame field with drift diagnostics.

    The sweep records its pre-projection defect and step count in `sweep`.
    The group and row defects over every frame are computed from B on the
    first read of `diagnostics` and kept: a caller that never reads them
    (roundtrip) does not pay for two passes over the whole field.
    """

    B: np.ndarray
    signs: np.ndarray          # diag G
    rows: np.ndarray           # T_beta at every node: the last row of B
    sweep: dict = field(default_factory=dict)

    @cached_property
    def diagnostics(self) -> dict:
        group_defect, _ = _group_defect(self.B, self.signs)
        row_defect = _abs_max(self.B[..., -1, :] - self.rows, 1)
        return {
            "max_group_defect": float(group_defect.max()),
            "worst_group_node": _worst_node(group_defect, group_defect.ndim),
            "max_preprojection_defect": self.sweep["max_preprojection_defect"],
            "max_row_defect": float(row_defect.max()),
            "steps": self.sweep["steps"],
            "renorm": True,
            "renorm_interval": _RENORM_INTERVAL,
        }


# Re-projection interval of the sweep. The drift it corrects stays below the
# projection tolerance (1e-12) on every fixture and benchmark grid, so no
# block end is re-projected there at all.
_RENORM_INTERVAL = 16


def _chain(B0, P, block, G=None):
    """Running products B0 P[0], B0 P[0] P[1], ... of a stack of step
    propagators P (L, *front, M, M), for a front of B0 (*front, M, M).

    The steps are cut into blocks of `block`. The prefix products inside
    every block are formed with `block` batched matmuls across all blocks;
    a serial walk then takes the frame from block start to block start,
    one matmul per block, and one batched matmul fills every frame from its
    block start. With the metric G every full block end (steps `block`,
    2 `block`, ... from B0) is re-projected onto the group only when it is
    off the group by more than _PROJ_TOL (the largest defect over the
    front): below that tolerance pseudo_orthonormalize returns its input
    unchanged, so this is exactly a re-projection at every block end. One
    batched check over the walked block ends finds the first that needs
    it; the walk is projected there and resumes, checking ever longer runs
    of ends. A block end that is non-finite stops the walk without being
    re-projected; the frames after it stay NaN.

    Returns the L frames and the largest group defect at a full block end,
    taken before any re-projection (0.0 without G or a full block).
    """
    L = P.shape[0]
    nb = -(-L // block)
    if nb * block > L:
        eye = np.broadcast_to(np.eye(P.shape[-1]), (nb * block - L,)
                              + P.shape[1:])
        P = np.concatenate([P, eye])
    Q = P.reshape((nb, block) + P.shape[1:]).copy()
    for i in range(1, block):
        Q[:, i] = Q[:, i - 1] @ Q[:, i]
    # S[c] is the frame at the start of block c, S[c + 1] its end.
    S = np.empty((nb + 1,) + Q.shape[2:])
    S[0] = B0
    full = L // block if G is not None else 0
    defects, projected = [], []
    stop, c0, run = nb, 0, nb
    while c0 < nb:
        lo, c0 = c0, min(nb, c0 + run)
        for c in range(lo, c0):
            np.matmul(S[c], Q[c, -1], out=S[c + 1])
        ends = S[lo + 1:min(c0, full) + 1]      # ends of blocks lo, lo + 1, ...
        if len(ends) == 0:
            continue
        finite = np.isfinite(ends.reshape(len(ends), -1)).all(axis=1)
        k = len(ends) if finite.all() else int(np.argmin(finite))
        d = _group_defect(ends[:k], np.diag(G))[0]
        d = d.max(axis=tuple(range(1, d.ndim)))
        off = ~(d <= _PROJ_TOL)
        if off.any():
            k = int(np.argmax(off))
            S[lo + k + 1] = pseudo_orthonormalize(S[lo + k + 1], G)
            projected.append(lo + k)
            c0, run = lo + k + 1, 1
        elif k < len(ends):
            stop, c0 = lo + k + 1, nb
        else:
            run *= 2
        defects.append(d[:k + 1])
    out = np.full(Q.shape, np.nan) if stop < nb else np.empty(Q.shape)
    np.matmul(S[:stop, None], Q[:stop], out=out[:stop])
    for c in projected:
        out[c, -1] = S[c + 1]
    worst = float(np.concatenate([[0.0], *defects]).max())
    return out.reshape((nb * block,) + out.shape[2:])[:L], worst


def _first_nonfinite(frames):
    """Index of the first step whose frame has a non-finite entry, or None:
    one whole-array check, and the per-step scan only when it fails."""
    if np.isfinite(frames).all():
        return None
    bad = ~np.isfinite(frames.reshape(frames.shape[0], -1)).all(axis=1)
    return int(np.argmax(bad))


# Largest group and row defect of an accepted base frame B0.
_B0_TOL = 1e-8


def integrate_frame(data: GeometricData, B0: np.ndarray,
                    upsilon: np.ndarray | None = None) -> FrameField:
    """Propagate B across the grid from the base node.

    Per step along axis k, B_next = B exp(h * mean of Upsilon_k at the two
    nodes): a midpoint-sampled exponential scheme of order two that stays on
    the group to the order of the step. Sweep order: axis 0 along the spine
    through the base node, then each further axis fans out from the filled
    region; all runs along one axis advance in lock step (vectorized over
    the filled region).

    The generators depend on Upsilon only, so the propagators of both
    directions of an axis come from one call of the batched `expm` before
    the axis is swept. Each direction is then chained in blocks of
    _RENORM_INTERVAL steps. A block end (steps 16, 32, ... from the base
    node) is re-projected onto the group only when it is off the group by
    more than 1e-12: exactly the behaviour of re-projecting every block
    end, because below that tolerance the projection is the identity. On
    a grid whose ends all stay on the group, pseudo_orthonormalize is not
    called at all. One finiteness scan per direction raises
    IntegrationBlowup naming the first non-finite (axis, index); no
    re-projection is fed a non-finite frame. The returned FrameField
    computes its group and row defects when its diagnostics are first read.

    B0 is the (M, M) frame matrix at the base node. A B0 of another shape
    raises SchemaError; one off the group, with a last row other than the
    vertical components T_beta, or with non-finite entries raises
    InvariantViolation.

    upsilon overrides the assembled form matrices (propagator testing and
    reuse of precomputed assemblies).
    """
    spec, grid = data.spec, data.grid
    n, M = spec.n, spec.size
    node0 = tuple(grid.base_node)
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (M, M):
        raise SchemaError(f"B0 has shape {B0.shape}, expected ({M}, {M})")
    g = np.diag(spec.G)
    gd = float(_group_defect(B0, g)[0])
    rd = float(np.abs(B0[-1] - data.delta_all()[node0]).max())
    if not (gd <= _B0_TOL and rd <= _B0_TOL):
        raise InvariantViolation(
            f"B0 violates its invariants: group defect {gd:.3e}, "
            f"row defect {rd:.3e} (tolerance {_B0_TOL:.1e})")

    Ups = (upsilon if upsilon is not None
           else assemble_all(data, "Upsilon")["Upsilon"])
    B = np.full(tuple(grid.extents) + (M, M), np.nan)
    B[node0] = B0
    worst_pre = 0.0

    for axis in range(n):
        lead = (slice(None),) * axis
        suffix = tuple(grid.base_node[j] for j in range(axis + 1, n))
        h = grid.spacing[axis]
        bidx = grid.base_node[axis]
        # Upsilon_axis along the axis, over the filled front: (ext, *front).
        U = np.moveaxis(Ups[lead + (slice(None),) + suffix + (Ellipsis, axis)],
                        axis, 0)
        E = 0.5 * h * (U[:-1] + U[1:])        # generator of edge i -> i+1
        P = expm(np.concatenate([E[bidx:], -E[:bidx][::-1]]))
        start = B[lead + (bidx,) + suffix]
        passes = ((1, P[:len(E) - bidx], slice(bidx + 1, None)),
                  (-1, P[len(E) - bidx:], slice(bidx - 1, None, -1)))
        for direction, Pd, span in passes:
            if len(Pd) == 0:
                continue
            frames, worst = _chain(start, Pd, _RENORM_INTERVAL, spec.G)
            bad = _first_nonfinite(frames)
            if bad is not None:
                j = bidx + direction * (bad + 1)
                raise IntegrationBlowup(
                    f"non-finite frame while stepping axis {axis} to index "
                    f"{j}", node=(axis, j))
            worst_pre = max(worst_pre, worst)
            B[lead + (span,) + suffix] = np.moveaxis(frames, 0, axis)
    return FrameField(B=B, signs=g, rows=data.delta_all(), sweep={
        "max_preprojection_defect": worst_pre,
        "steps": grid.num_nodes - 1})


def _integrate_path(data, Ups, B0, order):
    """Single-path integration from the base node to the far corner,
    consuming axes in the given order, with the sweep's step kernel."""
    grid = data.grid
    cur = tuple(grid.base_node)
    K, nodes = [], []
    for axis in order:
        h, last = grid.spacing[axis], grid.extents[axis] - 1
        U = Ups[cur[:axis] + (slice(cur[axis], None),) + cur[axis + 1:]
                + (Ellipsis, axis)]
        K.append(0.5 * h * (U[:-1] + U[1:]))     # generator of edge i -> i+1
        nodes += [cur[:axis] + (i,) + cur[axis + 1:]
                  for i in range(cur[axis] + 1, last + 1)]
        cur = cur[:axis] + (last,) + cur[axis + 1:]
    B = np.asarray(B0, dtype=float)
    if not nodes:
        return B
    # The sweep's blocking, without G: the probe is never re-projected.
    frames, _ = _chain(B, expm(np.concatenate(K)), _RENORM_INTERVAL)
    bad = _first_nonfinite(frames)
    if bad is not None:
        raise IntegrationBlowup("non-finite frame on lattice path",
                                node=nodes[bad])
    return frames[-1]


def path_independence_defect(data: GeometricData, B0: np.ndarray,
                             upsilon: np.ndarray | None = None) -> float:
    """Max-entry difference between the frames transported along the two
    extremal monotone lattice paths (axis order 0..n-1 versus reversed)
    from the base node B0 to the far corner."""
    Ups = (upsilon if upsilon is not None
           else assemble_all(data, "Upsilon")["Upsilon"])
    n = data.spec.n
    Ba = _integrate_path(data, Ups, B0, list(range(n)))
    Bb = _integrate_path(data, Ups, B0, list(reversed(range(n))))
    return float(np.abs(Ba - Bb).max())
