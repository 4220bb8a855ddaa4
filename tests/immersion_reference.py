"""Stacked least-squares reference of warpframe.immersion.congruence_align.

This is the congruence fit as it was before it moved to d x d moments: the
unconstrained fit is one `lstsq` over the stacked point rows (and, for a
rank-deficient cloud, the frame rows appended to them), and every
Gauss-Newton round solves a (rows*d) x dim(so) Jacobian with `lstsq` and
steps with scipy's matrix exponential. Least squares on the rows keeps the
conditioning of the data, where the normal equations square it, so it is
kept as the reference the moment fit is compared against.
"""

import numpy as np
from scipy.linalg import expm

from warpframe.errors import AlignmentDegenerate, NonConvergence
from warpframe.frame_solver import pseudo_orthonormalize
from warpframe.immersion import ImmersionField, Isometry


def _group_basis(G0):
    """Basis of the pseudo-orthogonal Lie algebra for the diagonal metric G0."""
    d = len(G0)
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            H = np.zeros((d, d))
            H[a, b] = 1.0
            H[b, a] = -G0[a] * G0[b]
            basis.append(H)
    return basis


def congruence_align(f: ImmersionField, g: ImmersionField,
                     max_rounds: int = 50, tol: float = 1e-14):
    """Fit tau = id_I x O minimizing the summed squared spatial mismatch.

    Solves the unconstrained least-squares problem for O, projects onto the
    pseudo-orthogonal group, then polishes with Gauss-Newton steps along the
    group. Rank-deficient point clouds fall back to matching the adapted
    frames (which determine the isometry uniquely); with no frames available
    such clouds raise AlignmentDegenerate.

    Returns (Isometry, defect) with defect the post-alignment sup over nodes
    and components (spatial and vertical).
    """
    if f.grid.extents != g.grid.extents or f.spec != g.spec:
        raise ValueError("congruence_align needs fields over one grid and spec")
    spec = f.spec
    d = spec.N + 1
    G0 = spec.fiber_signs
    P = f.spatial.reshape(-1, d)
    Q = g.spatial.reshape(-1, d)
    used_frames = False

    gram = P.T @ P
    rank = np.linalg.matrix_rank(gram, tol=1e-9 * max(1.0, float(np.trace(gram))))
    if rank < d:
        if f.frames is None or g.frames is None:
            raise AlignmentDegenerate(
                f"point cloud spans only {rank} of {d} dimensions and no "
                "frames are available to resolve the ambiguity")
        used_frames = True
        P = np.concatenate([P, f.frames[..., :, :d].reshape(-1, d)])
        Q = np.concatenate([Q, g.frames[..., :, :d].reshape(-1, d)])

    # Unconstrained least squares, then projection onto the group.
    Ot, *_ = np.linalg.lstsq(P, Q, rcond=None)
    O = Ot.T
    try:
        O = pseudo_orthonormalize(O, np.diag(G0))
    except NonConvergence:
        O = np.eye(d)

    # Gauss-Newton polish along the group.
    basis = _group_basis(G0)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        R = Q - P @ O.T
        J = np.stack([(P @ H.T @ O.T).ravel() for H in basis], axis=1)
        theta, *_ = np.linalg.lstsq(J, R.ravel(), rcond=None)
        if not np.all(np.isfinite(theta)):
            break
        H = sum(t * Hb for t, Hb in zip(theta, basis))
        O = O @ expm(H)
        if np.abs(theta).max() < tol:
            break
    t_shift = 0.0
    if f.warping.is_constant and g.warping.is_constant:
        t_shift = float(np.mean(g.t - f.t))
    tau = Isometry(O=O, t_shift=t_shift, rounds=rounds,
                   used_frames=used_frames)
    moved = tau.apply(f)
    defect = max(float(np.abs(moved.spatial - g.spatial).max()),
                 float(np.abs(moved.t - g.t).max()))
    return tau, defect
