"""Closed-form curvature tensors and pointwise derived objects, for tests.

These were part of warpframe.ambient and warpframe.bundle_data, though no
command reads them: the curvature quadruples of the quadric-fiber and
flat-fiber warped products, the gap in the Gauss equation of the umbilical
inclusion between them, and the shape operator A_eta and S tensor of a
dataset at one node. The acceptance suite and the ambient, bundle-data,
oracle and known-geometry tests check the package against them.
"""

import numpy as np

from warpframe.ambient import (SignatureSpec, WarpingFunction, _split,
                               curvature_coefficients, warped_dot)


def _curvature_quadruple(spec, a2, X, Y, Z, W_, k1, k2):
    """k1 (<X,Z><Y,W> - <Y,Z><X,W>) + k2 (<X,Z> y w - <Y,Z> x w
    - <X,W> y z + <Y,W> x z), with x = <X, dt> and so on."""
    def ip(u, v):
        return warped_dot(spec, a2, u, v)

    first = ip(X, Z) * ip(Y, W_) - ip(Y, Z) * ip(X, W_)
    # <v, dt> = eps v_0, read off the t component.
    nd = np.ndim(a2)
    xt, yt, zt, wt = (spec.epsilon * v0
                      for v0, _ in _split(nd, X, Y, Z, W_))
    second = (ip(X, Z) * yt * wt - ip(Y, Z) * xt * wt
              - ip(X, W_) * yt * zt + ip(Y, W_) * xt * zt)
    return k1 * first + k2 * second


def curvature_bar(spec: SignatureSpec, w: WarpingFunction, t,
                  X, Y, Z, W_):
    """Curvature quadruple <R(X,Y)Z, W> of eps*I x_a M^N(c) at height t,
    for vectors tangent to the quadric."""
    k1, k2 = curvature_coefficients(spec, w, t)
    a = w.eval(t)[0]
    return _curvature_quadruple(spec, a * a, X, Y, Z, W_, k1, k2)


def curvature_tilde(spec: SignatureSpec, w: WarpingFunction, t,
                    X, Y, Z, W_, first_coeff="as_printed"):
    """Curvature quadruple of the flat-fiber warped product eps*I x_a E^{N+1}.

    first_coeff selects the leading coefficient: "as_printed" uses
    eps*(a')^2/a, "squared" uses eps*(a')^2/a^2. The squared variant is the
    one consistent with the quadric-fiber tensor through the Gauss equation
    of the umbilical inclusion; both are kept so the acceptance suite can
    demonstrate which one closes the algebra.
    """
    if first_coeff not in ("as_printed", "squared"):
        raise ValueError("first_coeff must be 'as_printed' or 'squared'")
    a, a1, a2 = w.eval(t)
    k1 = spec.epsilon * a1 ** 2 / (a if first_coeff == "as_printed" else a * a)
    k2 = a2 / a - (a1 / a) ** 2
    return _curvature_quadruple(spec, a * a, X, Y, Z, W_, k1, k2)


def quadric_inclusion_gauss_residual(spec: SignatureSpec, w: WarpingFunction,
                                     t, X, Y, Z, W_,
                                     first_coeff="as_printed"):
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
    a = w.eval(t)[0]
    a2 = a * a
    nd = np.ndim(a2)

    def afac(u, v):
        # coefficient of eta in alpha(u, v); eps <u, dt><v, dt> = eps u0 v0
        (u0, _), (v0, _) = _split(nd, u, v)
        return -(spec.c / a) * (warped_dot(spec, a2, u, v)
                                - spec.epsilon * u0 * v0)

    lhs = curvature_bar(spec, w, t, X, Y, Z, W_)
    flat = curvature_tilde(spec, w, t, X, Y, Z, W_, first_coeff=first_coeff)
    corr = spec.c * (afac(X, Z) * afac(Y, W_) - afac(X, W_) * afac(Y, Z))
    return np.abs(lhs - (flat - corr))


def shape_operator(data, node, eta):
    """Matrix of A_eta at a node of the dataset, in its frame: column j
    holds the components of A_eta(e_j)."""
    eta = np.asarray(eta, dtype=float)
    spec = data.spec
    al = data.alpha[tuple(node)]
    inner = np.einsum("u,u,uij->ij", spec.bundle_signs, eta, al)
    return spec.tangent_signs[:, None] * inner


def s_tensor(data, node, X):
    """S applied to the tangent vector X (frame components) at a node of
    the dataset: its tangent and bundle components."""
    node = tuple(node)
    spec = data.spec
    X = np.asarray(X, dtype=float)
    a = float(data.warp_values()[0][node])
    T = data.T_comp[node]
    xi = data.xi_comp[node]
    dX = float(np.dot(spec.tangent_signs * X, T))
    fac = -1.0 / (a * spec.c)
    tangent = fac * (X - spec.epsilon * dX * T)
    bundle = fac * (-spec.epsilon * dX * xi)
    return tangent, bundle
