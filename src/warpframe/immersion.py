"""Immersion extraction and verification of the reconstruction conclusions.

From a frame field B the immersion into eps*I x_a M^N(c) is read off as
f_gamma = eps_gamma * B_{gamma 0} (spatial), f_{N+1} = pi, and the adapted
frames are E~_gamma = sum_alpha eps_alpha B_{alpha gamma} Ebar_alpha in the
scaled ambient basis (adapted_frames; ImmersionField.frame_matrices inverts
it). verify_immersion then measures, entirely numerically, every conclusion
the reconstruction is supposed to deliver: isometry, the vertical-direction
split, the height projection, the second-fundamental-form match, and the
normal-connection match. The last two differentiate the map and its normals
on the grid and apply the warped metric and connection of the ambient
module (warped_dot, warped_nabla), the same kernel from which the oracle
induces the hypothesis data. congruence_align fits an ambient isometry
between two reconstructions from the d x d moments of their point clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import SignatureSpec, WarpingFunction, warped_dot, warped_nabla
from .bundle_data import ChartGrid, GeometricData
from .errors import AlignmentDegenerate, NonConvergence
from .frame_solver import (FrameField, _grid_last, _pattern, expm,
                           pseudo_orthonormalize)
from .stencils import grad1, grad2_pure, interior_mask
from .verifier import ResidualReport, check_source


@dataclass
class ImmersionField:
    """Reconstructed map plus adapted frames on the chart grid.

    spatial: (*extents, N+1) coordinates in the flat fiber factor;
    t: (*extents) height; frames: optional (*extents, N+2, N+2) with
    frames[..., gamma, :] the ambient components of E~_gamma (fiber
    coordinates first, vertical component last). The bundle map takes
    e_gamma to E~_gamma, so `frames` doubles as its matrix.
    """

    spec: SignatureSpec
    warping: WarpingFunction
    grid: ChartGrid
    spatial: np.ndarray
    t: np.ndarray
    frames: np.ndarray | None = None

    def quadric_defect(self):
        """max over nodes of |g0(f, f) - c|."""
        fs = self.spec.fiber_signs
        q = np.einsum("g,...g,...g->...", fs, self.spatial, self.spatial)
        return float(np.abs(q - self.spec.c).max())

    def frame_matrices(self, columns=slice(None)):
        """Recover B, or its columns B[..., :, columns], from the stored
        frames (exact inversion of the scaled basis change): column gamma
        of B is read from E~_gamma alone."""
        if self.frames is None:
            raise ValueError("immersion field has no frames")
        spec = self.spec
        a = self.warping.eval(self.t)[0]
        Np1 = spec.N + 1
        frames = self.frames[..., columns, :]
        *ext, cols, M = frames.shape
        B = np.empty((*ext, M, cols))
        fs = spec.fiber_signs
        B[..., :Np1, :] = (spec.c * a)[..., None, None] * (
            fs[:, None] * np.swapaxes(frames[..., :, :Np1], -1, -2))
        B[..., Np1, :] = spec.epsilon * frames[..., :, Np1]
        return B


def adapted_frames(spec, a, B):
    """Adapted frames (*ext, N+2, N+2) of frame matrices B at warp values a;
    ImmersionField.frame_matrices is the inverse."""
    Np1 = spec.N + 1
    frames = np.empty(B.shape)
    frames[..., :, :Np1] = (spec.fiber_signs * np.swapaxes(
        B[..., :Np1, :], -1, -2)) / (spec.c * a)[..., None, None]
    frames[..., :, Np1] = spec.epsilon * B[..., Np1, :]
    return frames


def extract_immersion(ff: FrameField, data: GeometricData) -> ImmersionField:
    """Immersion and adapted frames from a frame field over the data grid."""
    B = ff.B
    spec = data.spec
    if B.shape != tuple(data.grid.extents) + (spec.size, spec.size):
        raise ValueError("frame field has wrong shape for this grid")
    frames = adapted_frames(spec, data.warp_values()[0], B)
    return ImmersionField(spec=spec, warping=data.warping, grid=data.grid,
                          spatial=spec.fiber_signs * B[..., :spec.N + 1, 0],
                          t=data.pi.copy(), frames=frames)


def verify_immersion(imm: ImmersionField, data: GeometricData,
                     tol: float | None = None) -> ResidualReport:
    """Residuals of the five reconstruction conclusions.

    isometry and the vertical split are measured through the frame identity
    (separating integrator drift from discretization error). isometry is
    the G-Gram matrix of the n tangent columns of B minus the tangent
    signs: those columns are rebuilt from the tangent frames alone
    (ImmersionField.frame_matrices of them), never all of B. The second
    fundamental form and the normal connection are re-derived from finite
    differences of the immersion itself as an independent cross-check,
    with the warped connection ambient.warped_nabla that the oracle uses.
    """
    spec, grid = imm.spec, data.grid
    n, nd, Np1 = spec.n, grid.n, spec.N + 1
    tol = check_source(data, True, tol)["tolerance"]["value"]
    a, a1, _ = data.warp_values()
    a2 = a * a
    report = ResidualReport()

    # (1) isometry: tangent block of B^t G B - G.
    Bt = imm.frame_matrices(slice(1, n + 1))
    g = np.asarray(spec.signs, dtype=float)
    gram = np.swapaxes(Bt, -1, -2) @ (g[:, None] * Bt)
    tangent = gram - np.diag(spec.tangent_signs)
    report.add("isometry", np.abs(tangent).max(axis=(-1, -2)), tol)

    # (2) vertical split: dt - Phi(T) - Phi(xi) in ambient components.
    normals = imm.frames[..., n + 1:, :]
    phiT = np.einsum("...i,...ic->...c", data.T_comp,
                     imm.frames[..., 1:n + 1, :])
    phiXi = np.einsum("...u,...uc->...c", data.xi_comp, normals)
    split = phiT + phiXi
    split[..., Np1] -= 1.0
    report.add("dt_split", np.abs(split).max(axis=-1), tol)

    # (3) height projection (f's vertical coordinate is pi by construction).
    report.add("projection", np.abs(imm.t - data.pi), tol)

    # The map f = (t, spatial) (N+2, *ext) and the normals (m, N+2, *ext)
    # as t-first ambient vectors, and f's coordinate tangents V[k], shared
    # by (4) and (5). eps_u <nabla, E_u> is the normal part of nabla.
    f = _grid_last(np.concatenate([imm.t[..., None], imm.spatial], axis=-1),
                   nd)
    Nu = _grid_last(np.roll(normals, 1, axis=-1), nd)
    eb = _pattern(spec.bundle_signs, nd)
    V = [grad1(f, k - nd, grid.spacing[k]) for k in range(n)]

    # (4) second fundamental form from second differences of f.
    if min(grid.extents) >= 5:
        C = _grid_last(data.inv_frame, nd)
        alpha = _grid_last(data.alpha, nd)
        worst = np.zeros(grid.extents)
        for k in range(n):
            for l in range(k, n):
                if k == l:
                    H = grad2_pure(f, k - nd, grid.spacing[k])
                else:
                    H = grad1(V[l], k - nd, grid.spacing[k])
                nab = warped_nabla(spec, a, a1, V[k], V[l], H)
                got = eb * warped_dot(spec, a2, nab, Nu)
                want = np.einsum("i...,j...,uij...->u...", C[k], C[l], alpha)
                worst = np.maximum(worst, np.abs(got - want).max(axis=0))
        report.add("alpha_match",
                   np.where(interior_mask(grid.extents, 2), worst, 0.0), tol)
    else:
        report.add("alpha_match", None, tol,
                   note="grid too small for second-derivative stencils; skipped")

    # (5) normal connection: Phi nabla^E  vs  projected ambient derivative.
    omega_b = _grid_last(data.omega_bundle, nd)
    worst = np.zeros(grid.extents)
    for k in range(n):
        nab = warped_nabla(spec, a, a1, V[k], Nu,
                           grad1(Nu, k - nd, grid.spacing[k]))
        got = eb[:, None] * warped_dot(spec, a2, nab[None], Nu[:, None])
        worst = np.maximum(worst,
                           np.abs(got - omega_b[:, :, k]).max(axis=(0, 1)))
    report.add("normal_connection",
               np.where(interior_mask(grid.extents, 1), worst, 0.0), tol)
    return report


# ---------------------------------------------------------------------------
# Congruence alignment


@dataclass
class Isometry:
    """Ambient isometry id_I x O (plus a vertical shift when the warping is
    constant)."""

    O: np.ndarray
    t_shift: float = 0.0
    rounds: int = 0
    used_frames: bool = False


def _group_basis(G0):
    """Basis (dim so, d, d) of the pseudo-orthogonal Lie algebra for the
    diagonal metric G0."""
    d = len(G0)
    basis = []
    for a in range(d):
        for b in range(a + 1, d):
            H = np.zeros((d, d))
            H[a, b] = 1.0
            H[b, a] = -G0[a] * G0[b]
            basis.append(H)
    return np.array(basis)


# Round limit of the Gauss-Newton polish, and the step max |theta| below
# which it has converged.
_ALIGN_ROUNDS = 50
_ALIGN_TOL = 1e-14


def congruence_align(f: ImmersionField, g: ImmersionField):
    """Fit tau = id_I x O minimizing the summed squared spatial mismatch.

    Solves the unconstrained least-squares problem for O, projects onto the
    pseudo-orthogonal group, then polishes with Gauss-Newton steps along the
    group. Rank-deficient point clouds fall back to matching the adapted
    frames as well (which determine the isometry uniquely); with no frames
    available such clouds raise AlignmentDegenerate.

    Every step reads only the d x d moments S = P^t P and P^t Q of the
    matched rows P (of f) and Q (of g): with the algebra basis H_i, the
    Gauss-Newton normal equations are J^t J_ij = tr(O H_i S H_j^t O^t) and
    J^t r_i = tr(O H_i (P^t Q - S O^t)).

    Returns (Isometry, defect) with defect the post-alignment sup over nodes
    and components (spatial and vertical) of the points of f moved by tau:
    O applied to the spatial part, t shifted. Raises NonConvergence when the
    polish reaches its round limit or takes a non-finite step.
    """
    if f.grid.extents != g.grid.extents or f.spec != g.spec:
        raise ValueError("congruence_align needs fields over one grid and spec")
    spec = f.spec
    d = spec.N + 1
    G0 = spec.fiber_signs
    P = f.spatial.reshape(-1, d)
    S = P.T @ P
    PQ = P.T @ g.spatial.reshape(-1, d)
    used_frames = False

    rank = np.linalg.matrix_rank(S, tol=1e-9 * max(1.0, float(np.trace(S))))
    if rank < d:
        if f.frames is None or g.frames is None:
            raise AlignmentDegenerate(
                f"point cloud spans only {rank} of {d} dimensions and no "
                "frames are available to resolve the ambiguity")
        used_frames = True
        Pf = f.frames[..., :, :d].reshape(-1, d)
        S = S + Pf.T @ Pf
        PQ = PQ + Pf.T @ g.frames[..., :, :d].reshape(-1, d)

    # Unconstrained least squares, then projection onto the group.
    O = np.linalg.lstsq(S, PQ, rcond=None)[0].T
    try:
        O = pseudo_orthonormalize(O, np.diag(G0))
    except NonConvergence:
        O = np.eye(d)

    # Gauss-Newton polish along the group.
    basis = _group_basis(G0)
    for rounds in range(1, _ALIGN_ROUNDS + 1):
        A = O @ basis                                   # O H_i
        JtJ = np.einsum("iab,bc,jac->ij", A, S, A)
        Jtr = np.einsum("iab,ba->i", A, PQ - S @ O.T)
        theta = np.linalg.lstsq(JtJ, Jtr, rcond=None)[0]
        step = float(np.abs(theta).max())
        if not np.isfinite(step):
            break
        O = O @ expm(np.einsum("i,iab->ab", theta, basis))
        if step < _ALIGN_TOL:
            break
    if not step < _ALIGN_TOL:
        raise NonConvergence(
            f"congruence_align: Gauss-Newton fit not converged after "
            f"{rounds} rounds (last |theta| {step:.3e})")
    t_shift = 0.0
    if f.warping.is_constant and g.warping.is_constant:
        t_shift = float(np.mean(g.t - f.t))
    tau = Isometry(O=O, t_shift=t_shift, rounds=rounds,
                   used_frames=used_frames)
    spatial = np.einsum("ab,...b->...a", O, f.spatial)
    defect = max(float(np.abs(spatial - g.spatial).max()),
                 float(np.abs(f.t + t_shift - g.t).max()))
    return tau, defect
