"""Grid-major reference of the residual kernels in warpframe.verifier.

This is the verifier as it was before its kernels moved to component-major
arrays: every field is indexed (*ext, ...) and every expression broadcasts
over the trailing component axes. It reads only the public grid-major API
(dataset fields, assemble_all, assembled_derivatives) and is kept as the
reference the component-major kernels are compared against, node by node.
It keeps its own derivative source: per field, analytic when the dataset
holds that field's derivatives, finite differences otherwise, and finite
differences of the memoized assembly where the package uses jets.
The 2-form families (D), (F) and flatness form their full residual
matrices, every entry of every block (gauss_matrices, ricci_matrices,
flatness_matrices), so the tests can check the premise of the package's
kernels, which compute the entries a < b alone.
"""

import numpy as np

from warpframe.ambient import curvature_coefficients
from warpframe.frame_solver import assemble_all, assembled_derivatives
from warpframe.stencils import grad1


class DerivativeSource:
    """Field derivatives: analytic when the dataset holds them (and
    force_fd is off), finite differences otherwise."""

    def __init__(self, data, force_fd=False):
        self.data = data
        self.force_fd = force_fd

    @property
    def analytic(self):
        return (not self.force_fd) and bool(self.data.derivs)

    def field(self, name, axis):
        """d/dx_axis of a named field (frame, omega_tangent, ...)."""
        if self.analytic and name in self.data.derivs:
            return self.data.derivs[name][axis]
        arr = getattr(self.data, name)
        return grad1(arr, axis, self.data.grid.spacing[axis])


def _upsilon_derivatives(data, force_fd):
    """dUpsilon/dx_k for every k, grid-major: the jet assembly's
    (component-major, its axes moved) on analytic data, finite differences
    of the held Upsilon otherwise."""
    nd = data.grid.n
    if not DerivativeSource(data, force_fd).analytic:
        Up = assemble_all(data, "Upsilon")["Upsilon"]
        return [grad1(Up, k, data.grid.spacing[k]) for k in range(nd)]
    return [np.moveaxis(d, range(-nd, 0), range(nd))
            for d in assembled_derivatives(data)]


def _coordinate_pairs(n):
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def _curvature_block(block, dblock, n):
    """(d omega + omega ^ omega) for a connection block stored as
    (*ext, r, r, n); dblock[k] is its k-derivative. Returns a dict keyed by
    coordinate pairs with (*ext, r, r) values."""
    out = {}
    for k, l in _coordinate_pairs(n):
        d_form = dblock[k][..., l] - dblock[l][..., k]
        wedge = block[..., k] @ block[..., l] - block[..., l] @ block[..., k]
        out[(k, l)] = d_form + wedge
    return out


# ---------------------------------------------------------------------------
# (A)-(F)


def structure_residual_fields(data, force_fd=False):
    """Per-node residual magnitude fields of the six structure equations.

    Keys "A".."F", each on every node.
    """
    spec, grid = data.spec, data.grid
    n, m = spec.n, spec.m
    ds = DerivativeSource(data, force_fd)
    fields = {}
    et, eb = spec.tangent_signs, spec.bundle_signs
    a, a1, _ = data.warp_values()
    rat = a1 / a
    C = data.inv_frame
    tk = data.coord_T()                      # <T, d/dx_k>
    ipe = et * C                             # <d/dx_k, e_j> = eps_j C_kj
    _, k2 = curvature_coefficients(spec, data.warping, data.pi)

    # (A) algebraic vertical-norm identity.
    tt = np.einsum("i,...i,...i->...", et, data.T_comp, data.T_comp)
    xx = np.einsum("u,...u,...u->...", eb, data.xi_comp, data.xi_comp)
    fields["A"] = np.abs(tt + xx - spec.epsilon)

    # (B) derivative of T.
    axk = np.einsum("...ki,...uij->...kju", C, data.alpha)  # alpha(dk, e_j)^u
    Axi = np.einsum("j,u,...u,...kju->...kj", et, eb, data.xi_comp, axk)
    resB = np.zeros(grid.extents + (n, n))
    for k in range(n):
        dT = ds.field("T_comp", k)
        cov = dT + np.einsum("...ji,...i->...j", data.omega_tangent[..., k],
                             data.T_comp)
        rhs = rat[..., None] * (C[..., k, :] - spec.epsilon
                                * tk[..., k, None] * data.T_comp)
        resB[..., k, :] = cov - rhs - Axi[..., k, :]
    fields["B"] = np.abs(resB).max(axis=(-1, -2))

    # (C) derivative of xi.  alpha(T, d/dx_k)^u = sum_{i,j} T^i C_kj alpha^u_{ij}
    aT = np.einsum("...i,...kj,...uij->...ku", data.T_comp, C, data.alpha)
    resC = np.zeros(grid.extents + (n, m))
    for k in range(n):
        dxi = ds.field("xi_comp", k)
        cov = dxi + np.einsum("...vu,...u->...v", data.omega_bundle[..., k],
                              data.xi_comp)
        rhs = (-spec.epsilon * rat * tk[..., k])[..., None] * data.xi_comp
        resC[..., k, :] = cov - rhs + aT[..., k, :]
    fields["C"] = np.abs(resC).max(axis=(-1, -2))

    # (D) Gauss. Tangent curvature from the omega_{ij} block.
    fields["D"] = _worst(gauss_matrices(data, force_fd), grid.extents)

    # (E) Codazzi via the covariant derivative of alpha on frame arguments.
    dal = [ds.field("alpha", k) for k in range(n)]
    Dal = []
    for k in range(n):
        DA = (dal[k]
              + np.einsum("...uv,...vij->...uij", data.omega_bundle[..., k],
                          data.alpha)
              - np.einsum("...li,...ulj->...uij", data.omega_tangent[..., k],
                          data.alpha)
              - np.einsum("...lj,...uil->...uij", data.omega_tangent[..., k],
                          data.alpha))
        Dal.append(DA)
    coef = k2
    worstE = np.zeros(grid.extents)
    for k, l in _coordinate_pairs(n):
        lhs = (np.einsum("...i,...uij->...ju", C[..., k, :], Dal[l])
               - np.einsum("...i,...uij->...ju", C[..., l, :], Dal[k]))
        lhs = eb * lhs
        xie = eb * data.xi_comp
        rhs = coef[..., None, None] * xie[..., None, :] * (
            tk[..., k, None, None] * ipe[..., l, :, None]
            - tk[..., l, None, None] * ipe[..., k, :, None])
        worstE = np.maximum(worstE, np.abs(lhs - rhs).max(axis=(-1, -2)))
    fields["E"] = worstE

    # (F) Ricci via the omega_{uv} block curvature.
    fields["F"] = _worst(ricci_matrices(data, force_fd), grid.extents)
    return fields


def _worst(matrices, extents):
    """Per-node largest |entry| over the residual matrices of every plane;
    0 where there is no plane."""
    worst = np.zeros(extents)
    for r in matrices.values():
        worst = np.maximum(worst, np.abs(r).max(axis=(-1, -2)))
    return worst


def gauss_matrices(data, force_fd=False):
    """The full (D) residual matrices, one (*ext, n, n) array per
    coordinate pair (k, l), indexed [j, i]: R(dk, dl, e_j, e_i) minus its
    value in the ambient space."""
    spec = data.spec
    n = spec.n
    ds = DerivativeSource(data, force_fd)
    et, eb = spec.tangent_signs, spec.bundle_signs
    C = data.inv_frame
    tk = data.coord_T()                      # <T, d/dx_k>
    ipe = et * C                             # <d/dx_k, e_j> = eps_j C_kj
    k1, k2 = curvature_coefficients(spec, data.warping, data.pi)
    axk = np.einsum("...ki,...uij->...kju", C, data.alpha)  # alpha(dk, e_j)^u
    dOt = [ds.field("omega_tangent", k) for k in range(n)]
    curv = _curvature_block(data.omega_tangent, dOt, n)
    te = et * data.T_comp                     # <e_j, T>
    out = {}
    for (k, l), R2 in curv.items():
        # R(dk, dl, e_j, e_i) = eps_i * R2[..., i, j]; index order (..., j, i)
        lhs = np.einsum("i,...ij->...ji", et, R2)
        first = (ipe[..., k, :, None] * ipe[..., l, None, :]
                 - ipe[..., l, :, None] * ipe[..., k, None, :])
        second = (ipe[..., k, :, None] * (tk[..., l, None, None] * te[..., None, :])
                  - ipe[..., l, :, None] * (tk[..., k, None, None] * te[..., None, :])
                  - ipe[..., k, None, :] * (tk[..., l, None, None] * te[..., :, None])
                  + ipe[..., l, None, :] * (tk[..., k, None, None] * te[..., :, None]))
        aterm = (np.einsum("u,...ju,...iu->...ji", eb, axk[..., k, :, :],
                           axk[..., l, :, :])
                 - np.einsum("u,...iu,...ju->...ji", eb, axk[..., k, :, :],
                             axk[..., l, :, :]))
        rhs = k1[..., None, None] * first + k2[..., None, None] * second - aterm
        out[(k, l)] = lhs - rhs
    return out


def ricci_matrices(data, force_fd=False):
    """The full (F) residual matrices, one (*ext, m, m) array per
    coordinate pair (k, l): [u, v] is the component along e_u of
    R^E(dk, dl) e_v minus its value from alpha."""
    spec = data.spec
    ds = DerivativeSource(data, force_fd)
    C = data.inv_frame
    dOb = [ds.field("omega_bundle", k) for k in range(spec.n)]
    curvb = _curvature_block(data.omega_bundle, dOb, spec.n)
    Aev = np.einsum("j,v,...ki,...vij->...kvj", spec.tangent_signs,
                    spec.bundle_signs, C, data.alpha)
    out = {}
    for (k, l), R2 in curvb.items():
        rhs = (np.einsum("...vj,...i,...uji->...uv", Aev[..., l, :, :],
                         C[..., k, :], data.alpha)
               - np.einsum("...vj,...i,...uji->...uv", Aev[..., k, :, :],
                           C[..., l, :], data.alpha))
        out[(k, l)] = R2 - rhs
    return out


# ---------------------------------------------------------------------------
# aux identities


def aux_identity_fields(data, force_fd=False):
    spec, grid = data.spec, data.grid
    n = spec.n
    fields = {}
    forms = assemble_all(data)
    Om, W = forms["Omega"], forms["W"]

    # aux4: dW = -Omega ^ W on every coordinate 2-plane.
    dW = _coframe_derivatives(data, force_fd)
    worst = np.zeros(grid.extents)
    for k, l in _coordinate_pairs(n):
        dform = dW[k][..., l] - dW[l][..., k]
        wedge = (np.einsum("...ag,...g->...a", Om[..., k], W[..., l])
                 - np.einsum("...ag,...g->...a", Om[..., l], W[..., k]))
        worst = np.maximum(worst, np.abs(dform + wedge).max(axis=-1))
    fields["aux4"] = worst
    return fields


def _coframe_derivatives(data, force_fd):
    """d/dx_k of W (the coframe column, coordinate components):
    list over k of (*ext, N+2, n)."""
    spec = data.spec
    n = spec.n
    ds = DerivativeSource(data, force_fd)
    out = []
    for k in range(n):
        dW = np.zeros(data.grid.extents + (spec.size, n))
        if ds.analytic:
            dF = ds.field("frame", k)
            C = data.inv_frame
            dC = -np.einsum("...ab,...bc,...cd->...ad", C, dF, C)
            dW[..., 1:n + 1, :] = np.swapaxes(dC, -1, -2)
        else:
            Wnum = np.zeros(data.grid.extents + (spec.size, n))
            Wnum[..., 1:n + 1, :] = np.swapaxes(data.inv_frame, -1, -2)
            dW = grad1(Wnum, k, data.grid.spacing[k])
        out.append(dW)
    return out


# ---------------------------------------------------------------------------
# flatness


def flatness_matrices(data, force_fd=False):
    """The full (*ext, N+2, N+2) matrices of d Upsilon + Upsilon ^ Upsilon,
    one per coordinate pair (k, l)."""
    Up = assemble_all(data)["Upsilon"]
    dUp = _upsilon_derivatives(data, force_fd)
    return {(k, l): (dUp[k][..., l] - dUp[l][..., k]
                     + Up[..., k] @ Up[..., l] - Up[..., l] @ Up[..., k])
            for k, l in _coordinate_pairs(data.grid.n)}


def flatness_fields(data, force_fd=False):
    return {"flatness": _worst(flatness_matrices(data, force_fd),
                               data.grid.extents)}
