"""Closed-form geometric values as external oracles.

These quantities are classical facts about the fixture geometries, written
down independently of both the forward pipeline and the residual
implementations, so agreement pins the conventions of the whole chain:

* a slice {t0} x S^N of eps I x_a S^N carries the round metric scaled by
  a(t0), hence sectional curvature 1/a(t0)^2;
* a distance sphere S^n(r) in the unit S^N has sectional curvature 1/r^2
  and mean-curvature magnitude sqrt(1 - r^2)/r per normal direction;
* the vertical split of a slice is T = 0, |xi| = 1, and its shape operator
  in the vertical direction is -(a'/a) times the identity.
"""

import numpy as np
import pytest

from geometry_reference import shape_operator
from warpframe import canonical_example
from warpframe.stencils import grad1


def sectional_curvature(data, node, i=0, j=1):
    """K(e_i, e_j) from the stored connection block, via the curvature
    2-form contracted back onto the frame plane."""
    spec = data.spec
    n = spec.n
    et = spec.tangent_signs
    h = data.grid.spacing
    # curvature 2-form on the (0, 1) coordinate plane
    dO = [grad1(data.omega_tangent, k, h[k]) for k in range(n)]
    R2 = dO[0][..., 1] - dO[1][..., 0] \
        + np.einsum("...ab,...bc->...ac", data.omega_tangent[..., 0],
                    data.omega_tangent[..., 1]) \
        - np.einsum("...ab,...bc->...ac", data.omega_tangent[..., 1],
                    data.omega_tangent[..., 0])
    # R(e_i, e_j, e_j, e_i): pull the coordinate 2-plane back to the frame
    # plane through the frame coefficients.
    F = data.frame[node]
    area = F[i, 0] * F[j, 1] - F[i, 1] * F[j, 0]
    Rijji = et[i] * R2[node][i, j] * area
    denom = et[i] * et[j]
    return float(Rijji / denom)


def test_slice_sectional_curvature_matches_scaled_round_metric():
    t0 = 0.3
    _, data = canonical_example("slice", {"n": 2, "t0": t0})
    a0 = float(np.cosh(t0))
    node = (8, 8)
    K = sectional_curvature(data, node)
    assert K == pytest.approx(1.0 / a0 ** 2, rel=1e-3)


def test_desitter_slice_sectional_curvature():
    t0 = 0.25
    _, data = canonical_example("desitter_slice", {"n": 2, "t0": t0})
    a0 = float(np.cosh(t0))
    K = sectional_curvature(data, (8, 8))
    assert K == pytest.approx(1.0 / a0 ** 2, rel=1e-3)


def test_distance_sphere_curvature_and_mean_curvature():
    r = 0.8
    _, data = canonical_example("great_subsphere",
                                {"n": 2, "N": 3, "radius": r,
                                 "grid_extents": [25, 25],
                                 "grid_spacing": [0.02, 0.02]})
    node = (12, 12)
    K = sectional_curvature(data, node)
    assert K == pytest.approx(1.0 / r ** 2, rel=1e-3)
    # umbilic bending: |alpha(e, e)| = sqrt(1 - r^2)/r for unit tangent e
    al = data.alpha[node]
    eb = data.spec.bundle_signs
    norm2 = float(np.einsum("u,u,u->", eb, al[:, 0, 0], al[:, 0, 0]))
    assert np.sqrt(abs(norm2)) == pytest.approx(np.sqrt(1 - r * r) / r,
                                                abs=1e-10)


def test_lorentz_cylinder_sectional_curvature():
    # the unit-curvature Lorentzian quadric, scaled by a(t0)
    t0 = 0.3
    _, data = canonical_example("lorentz_cylinder", {"t0": t0})
    a0 = float(np.cosh(t0))
    K = sectional_curvature(data, (8, 8))
    assert K == pytest.approx(1.0 / a0 ** 2, rel=1e-3)


def test_slice_vertical_shape_operator_closed_form():
    t0 = 0.45
    _, data = canonical_example("slice", {"n": 2, "t0": t0})
    want = -np.tanh(t0)  # -(a'/a) for the cosh scale factor
    node = (3, 12)
    A = shape_operator(data, node, data.xi_comp[node])
    np.testing.assert_allclose(A, want * np.eye(2), atol=1e-10)
