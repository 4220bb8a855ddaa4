"""Independent Gauss/Codazzi/Ricci verifier for submanifolds of a space form.

Written from the textbook statements for a constant-curvature ambient (no
warped terms anywhere), loop-based on purpose: it shares no code with the
package verifier beyond numpy, and serves as the second route for the
classical-reduction check on constant-warping, vertical-free data.
"""

import numpy as np


def _dcoeff(field, axis, h):
    return np.gradient(field, h, axis=axis, edge_order=2)


def classical_residual_fields(data):
    """Per-node residual fields {"D", "E", "F"}, on every node, for an
    ambient of constant curvature c. Requires constant warping and T = 0 on the dataset."""
    spec = data.spec
    assert data.warping.is_constant and data.warping.amplitude == 1.0
    assert np.abs(data.T_comp).max() == 0.0
    n, m, c = spec.n, spec.m, spec.c
    ext = data.grid.extents
    h = data.grid.spacing
    et = spec.tangent_signs
    eb = spec.bundle_signs
    C = np.linalg.inv(data.frame)
    ot, ob, al = data.omega_tangent, data.omega_bundle, data.alpha

    d_ot = [_dcoeff(ot, k, h[k]) for k in range(n)]
    d_ob = [_dcoeff(ob, k, h[k]) for k in range(n)]
    d_al = [_dcoeff(al, k, h[k]) for k in range(n)]

    resD = np.zeros(ext)
    resE = np.zeros(ext)
    resF = np.zeros(ext)
    for k in range(n):
        for l in range(k + 1, n):
            # tangent curvature 2-form on the (k, l) plane
            Rt = d_ot[k][..., l] - d_ot[l][..., k]
            Rt = Rt + np.einsum("...ab,...bc->...ac", ot[..., k], ot[..., l])
            Rt = Rt - np.einsum("...ab,...bc->...ac", ot[..., l], ot[..., k])
            for j in range(n):
                for i in range(n):
                    lhs = et[i] * Rt[..., i, j]
                    # <R(dk,dl)e_j, e_i> for curvature c:
                    # c (<dl, e_j><dk, e_i> - <dk, e_j><dl, e_i>)
                    rhs = c * (et[j] * C[..., l, j] * et[i] * C[..., k, i]
                               - et[j] * C[..., k, j] * et[i] * C[..., l, i])
                    for u in range(m):
                        akj = sum(C[..., k, q] * al[..., u, q, j]
                                  for q in range(n))
                        ali = sum(C[..., l, q] * al[..., u, q, i]
                                  for q in range(n))
                        aki = sum(C[..., k, q] * al[..., u, q, i]
                                  for q in range(n))
                        alj = sum(C[..., l, q] * al[..., u, q, j]
                                  for q in range(n))
                        rhs = rhs - eb[u] * (akj * ali - aki * alj)
                    resD = np.maximum(resD, np.abs(lhs - rhs))

            # Codazzi: antisymmetrized covariant derivative of alpha is zero
            def cov_alpha(kk):
                DA = d_al[kk].copy()
                DA += np.einsum("...uv,...vij->...uij", ob[..., kk], al)
                DA -= np.einsum("...qi,...uqj->...uij", ot[..., kk], al)
                DA -= np.einsum("...qj,...uiq->...uij", ot[..., kk], al)
                return DA

            DAk, DAl = cov_alpha(k), cov_alpha(l)
            for j in range(n):
                for u in range(m):
                    lhs = eb[u] * (
                        sum(C[..., k, q] * DAl[..., u, q, j] for q in range(n))
                        - sum(C[..., l, q] * DAk[..., u, q, j]
                              for q in range(n)))
                    resE = np.maximum(resE, np.abs(lhs))

            # Ricci: normal curvature equals the shape-operator commutator
            Rb = d_ob[k][..., l] - d_ob[l][..., k]
            Rb = Rb + np.einsum("...ab,...bc->...ac", ob[..., k], ob[..., l])
            Rb = Rb - np.einsum("...ab,...bc->...ac", ob[..., l], ob[..., k])
            for v in range(m):
                # A_{e_v} d/dx_l in frame components
                Avl = np.zeros(ext + (n,))
                Avk = np.zeros(ext + (n,))
                for j in range(n):
                    Avl[..., j] = et[j] * eb[v] * sum(
                        C[..., l, q] * al[..., v, q, j] for q in range(n))
                    Avk[..., j] = et[j] * eb[v] * sum(
                        C[..., k, q] * al[..., v, q, j] for q in range(n))
                for u in range(m):
                    rhs = (np.einsum("...j,...q,...jq->...", Avl,
                                     C[..., k, :], al[..., u, :, :])
                           - np.einsum("...j,...q,...jq->...", Avk,
                                       C[..., l, :], al[..., u, :, :]))
                    resF = np.maximum(resF, np.abs(Rb[..., u, v] - rhs))
    return {"D": resD, "E": resE, "F": resF}
