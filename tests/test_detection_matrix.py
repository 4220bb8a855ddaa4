"""Which residual catches which corrupted field.

Every structure-equation family should fire when the field it constrains is
perturbed, independently of the others. This pins the wiring between data
fields and residuals (a misrouted index would show up as a silent pass)."""

import numpy as np
import pytest

from warpframe import (GeometricData, aux_identity_residuals,
                       canonical_example, flatness_residual,
                       structure_residuals)


def _mutate(data, **changes):
    fields = dict(frame=data.frame, omega_tangent=data.omega_tangent,
                  omega_bundle=data.omega_bundle, alpha=data.alpha,
                  T_comp=data.T_comp, xi_comp=data.xi_comp, pi=data.pi)
    fields.update(changes)
    return GeometricData(data.spec, data.warping, data.grid, **fields)


def _sups(data):
    rep = structure_residuals(data, force_fd=True)
    rep.merge(aux_identity_residuals(data, force_fd=True))
    rep.merge(flatness_residual(data, force_fd=True))
    return {k: e.sup for k, e in rep.entries.items()}


@pytest.fixture(scope="module")
def codim2():
    from test_oracle import tilted_surface_codim2
    from warpframe import induce_data
    return induce_data(tilted_surface_codim2(), attach_derivatives=False)


@pytest.fixture(scope="module")
def baseline(codim2):
    return _sups(codim2)


def _fires(base, pert, key, factor=50.0):
    return pert[key] > factor * max(base[key], 1e-14)


def test_T_perturbation_fires_A_and_B(codim2, baseline):
    T = codim2.T_comp.copy()
    T[..., 0] += 0.05
    sups = _sups(_mutate(codim2, T_comp=T))
    assert _fires(baseline, sups, "A")
    assert _fires(baseline, sups, "B")


def test_xi_perturbation_fires_A_and_C(codim2, baseline):
    xi = codim2.xi_comp.copy()
    xi[..., 1] += 0.05
    sups = _sups(_mutate(codim2, xi_comp=xi))
    assert _fires(baseline, sups, "A")
    assert _fires(baseline, sups, "C")


def test_alpha_perturbation_fires_codazzi(codim2, baseline):
    al = codim2.alpha.copy()
    al[..., 0, 0, 1] += 0.05
    al[..., 0, 1, 0] += 0.05
    sups = _sups(_mutate(codim2, alpha=al))
    assert _fires(baseline, sups, "E")
    # the alpha products enter the Gauss right side too, but on top of the
    # FD floor of the curvature term, so the response is milder there
    assert sups["D"] > 2.0 * baseline["D"]


def test_tangent_connection_perturbation_fires_gauss_and_torsion(codim2,
                                                                 baseline):
    spec = codim2.spec
    ot = codim2.omega_tangent.copy()
    xs = codim2.grid.coordinates()
    # the bump must vary transversally to its form slot, otherwise the
    # perturbation is curvature-neutral and only the first-order
    # equations react
    bump = 0.05 * np.sin(3.0 * xs[1])
    ot[..., 0, 1, 0] += bump
    ot[..., 1, 0, 0] -= spec.signs[1] * spec.signs[2] * bump
    sups = _sups(_mutate(codim2, omega_tangent=ot))
    assert _fires(baseline, sups, "D")
    assert _fires(baseline, sups, "aux4")
    assert _fires(baseline, sups, "flatness")


def test_frame_perturbation_fails_torsion_not_structure(codim2, baseline):
    # A frame entry bent along the chart leaves the coframe with torsion:
    # dW = -Omega ^ W fails while every structure equation still passes, so
    # aux4 is evidence that (A)-(F) do not give. (The bent frame also
    # breaks flatness, through d Omega.)
    frame = codim2.frame.copy()
    xs = codim2.grid.coordinates()
    frame[..., 0, 1] += 1e-2 * np.sin(3.0 * xs[1])
    sups = _sups(_mutate(codim2, frame=frame))
    tol = codim2.grid.fd_tolerance
    assert sups["aux4"] > tol
    assert all(sups[key] <= tol for key in "ABCDEF")


def test_bundle_connection_perturbation_fires_ricci(codim2, baseline):
    spec = codim2.spec
    ob = codim2.omega_bundle.copy()
    xs = codim2.grid.coordinates()
    bump = 0.05 * np.cos(2.0 * xs[0])
    ob[..., 0, 1, 1] += bump
    ob[..., 1, 0, 1] -= spec.bundle_signs[0] * spec.bundle_signs[1] * bump
    sups = _sups(_mutate(codim2, omega_bundle=ob))
    assert _fires(baseline, sups, "F")
    assert _fires(baseline, sups, "C")


def test_height_perturbation_fires_scale_coupled_equations(codim2, baseline):
    sups = _sups(_mutate(codim2, pi=codim2.pi + 0.1))
    assert _fires(baseline, sups, "B")


def test_unperturbed_data_is_quiet(codim2, baseline):
    h = codim2.grid.max_spacing
    assert all(v <= 10 * h * h for v in baseline.values())
