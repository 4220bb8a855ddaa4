import numpy as np
import pytest

import verifier_reference as grid_major
from classical_oracle import classical_residual_fields
from test_frame_solver import SIGNATURE_CASES, signature_case
from warpframe import (GeometricData, aux_identity_residuals, canonical_example,
                       flatness_residual, structure_residual_fields,
                       structure_residuals)
from warpframe.bundle_data import FIELD_NAMES
from warpframe.verifier import (ResidualReport, aux_identity_fields,
                                check_source, flatness_fields)


def perturb_alpha(data, u, i, j, amount=0.1):
    al = data.alpha.copy()
    al[..., u, i, j] += amount
    if i != j:
        al[..., u, j, i] += amount
    out = GeometricData(data.spec, data.warping, data.grid, frame=data.frame,
                        omega_tangent=data.omega_tangent,
                        omega_bundle=data.omega_bundle, alpha=al,
                        T_comp=data.T_comp, xi_comp=data.xi_comp, pi=data.pi)
    out.validate()
    return out


class TestStructureResiduals:
    def test_slice_analytic_roundoff(self, slice17):
        _, data = slice17
        rep = structure_residuals(data)
        assert rep.passed
        assert max(e.sup for e in rep.entries.values()) <= 1e-10

    def test_report_shape(self, slice17):
        _, data = slice17
        rep = structure_residuals(data)
        assert sorted(rep.entries) == list("ABCDEF")
        e = rep["D"]
        assert e.sup >= e.rms >= 0.0
        assert len(e.worst_node) == 2

    def test_classical_reduction_entrywise(self):
        # a = 1, T = 0 data must agree with a from-scratch space-form
        # verifier on every node.
        _, data = canonical_example("great_subsphere",
                                    {"n": 2, "N": 3, "radius": 0.8})
        mine = structure_residual_fields(data, force_fd=True)
        ref = classical_residual_fields(data)
        for key in ("D", "E", "F"):
            assert np.abs(mine[key] - ref[key]).max() <= 1e-12

    def test_perturbed_alpha_breaks_codazzi(self, slice17):
        _, data = slice17
        bad = perturb_alpha(data, 0, 0, 0)
        rep = structure_residuals(bad)
        assert rep["E"].sup > 1e-3
        assert not rep.passed

    def test_ricci_trivial_for_hypersurfaces(self):
        for name in ("desitter_slice", "lorentz_cylinder"):
            _, data = canonical_example(name, {})
            rep = structure_residuals(data, force_fd=True)
            assert rep["F"].sup <= 1e-12

    def test_gauss_antisymmetry_of_curvature_block(self, slice17):
        # _curvature_pairs yields the entries a < b of d omega + omega ^
        # omega; the full matrix, formed here entry by entry, holds them
        # bit for bit, its lower triangle repeats them with the sign of
        # -eps_a eps_b and its diagonal is zero. Both derivative sources.
        from warpframe.frame_solver import _grid_last
        from warpframe.stencils import grad1
        from warpframe.verifier import _curvature_pairs
        _, data = slice17
        n, h = data.spec.n, data.grid.spacing
        et = data.spec.tangent_signs
        ia, ib = np.triu_indices(n, 1)
        # component-major: (i, j, k, *ext)
        ot = _grid_last(data.omega_tangent, n)
        jets = [_grid_last(d, n) for d in data.derivs["omega_tangent"]]
        fd = [grad1(ot, k - n, h[k]) for k in range(n)]
        for parts, dOt in ((jets, jets), (None, fd)):
            pairs = dict(_curvature_pairs(ot, parts, h))
            assert sorted(pairs) == [(0, 1)]
            R01 = pairs[(0, 1)]
            full = (dOt[0][:, :, 1] - dOt[1][:, :, 0]
                    + (np.einsum("ih...,hj...->ij...", ot[:, :, 0],
                                 ot[:, :, 1])
                       - np.einsum("ih...,hj...->ij...", ot[:, :, 1],
                                   ot[:, :, 0])))
            assert R01.shape == (len(ia),) + data.grid.extents
            np.testing.assert_array_equal(R01, full[ia, ib])
            np.testing.assert_array_equal(
                full[ib, ia], -(et[ia] * et[ib])[:, None, None] * R01)
            assert not full[np.arange(n), np.arange(n)].any()

    def test_convergence_order_two(self):
        sups = {}
        for ext in (17, 33):
            _, d = canonical_example("slice", {
                "n": 2, "grid_extents": [ext, ext],
                "grid_spacing": [0.64 / (ext - 1)] * 2})
            rep = structure_residuals(d, force_fd=True)
            sups[ext] = rep["D"].sup
        assert 3.0 < sups[17] / sups[33] < 4.8


class TestAuxIdentities:
    def test_slice_analytic(self, slice17):
        _, data = slice17
        rep = aux_identity_residuals(data)
        assert rep.passed
        assert max(e.sup for e in rep.entries.values()) <= 1e-10

    def test_keys(self, slice17):
        _, data = slice17
        rep = aux_identity_residuals(data)
        assert sorted(rep.entries) == ["aux4"]

    def test_vertical_norm_identity_scaling(self, slice17):
        # scaling xi by 2 on T = 0 data moves A to |4 eps - eps| = 3
        _, data = slice17
        scaled = GeometricData(
            data.spec, data.warping, data.grid, frame=data.frame,
            omega_tangent=data.omega_tangent, omega_bundle=data.omega_bundle,
            alpha=data.alpha, T_comp=data.T_comp,
            xi_comp=2.0 * data.xi_comp, pi=data.pi)
        rep = structure_residuals(scaled, tol=10.0)
        assert rep["A"].sup == pytest.approx(3.0, abs=1e-12)

    def test_helix_fd_convergence(self):
        sups = {}
        for ext in (65, 129):
            _, d = canonical_example("helix", {
                "grid_extents": [ext], "grid_spacing": [2.0 / (ext - 1)]})
            rep = structure_residuals(d, force_fd=True)
            sups[ext] = max(rep["B"].sup, rep["C"].sup)
        assert 3.4 <= sups[65] / sups[129] <= 4.6


class TestFlatness:
    def test_slice_analytic(self, slice17):
        _, data = slice17
        rep = flatness_residual(data)
        assert rep.passed
        assert rep["flatness"].sup <= 1e-10

    def test_one_dimensional_chart_noted(self, helix65):
        _, data = helix65
        rep = flatness_residual(data)
        assert rep.passed
        assert "2-plane" in rep["flatness"].note

    def test_fd_convergence_window(self):
        sups = {}
        for ext in (33, 65):
            _, d = canonical_example("slice", {
                "n": 2, "grid_extents": [ext, ext],
                "grid_spacing": [0.64 / (ext - 1)] * 2})
            sups[ext] = flatness_residual(d, force_fd=True)["flatness"].sup
        assert 3.4 <= sups[33] / sups[65] <= 4.6

    def test_perturbed_bundle_connection_detected(self, slice17):
        # 1 percent perturbation of omega_bundle: residual far above baseline
        _, data = canonical_example("lorentz_cylinder", {})
        base = flatness_residual(data, force_fd=True)["flatness"].sup
        ob = data.omega_bundle.copy()
        rng = np.random.default_rng(5)
        # m = 1 forces the block to vanish; use the tangent block instead,
        # scaled relative to its own size
        ot = data.omega_tangent.copy()
        ot *= 1.0 + 0.01 * rng.standard_normal(ot.shape)
        ot = 0.5 * (ot - np.einsum(
            "i,j,...jik->...ijk", data.spec.tangent_signs,
            data.spec.tangent_signs, ot))
        bad = GeometricData(data.spec, data.warping, data.grid,
                            frame=data.frame, omega_tangent=ot,
                            omega_bundle=ob, alpha=data.alpha,
                            T_comp=data.T_comp, xi_comp=data.xi_comp,
                            pi=data.pi)
        bad.validate()
        pert = flatness_residual(bad, force_fd=True)["flatness"].sup
        assert pert > 10.0 * base


def with_fields(data, **fields):
    """data with some fields replaced; derivative fields are kept as they
    are, so on analytic data the replaced fields no longer match them."""
    kw = {name: getattr(data, name) for name in FIELD_NAMES}
    kw.update(fields)
    return GeometricData(data.spec, data.warping, data.grid,
                         derivs=data.derivs, **kw)


def bumped(data, name, entries, amount=1e-2):
    """data with a smooth bump of height amount, centred on the grid, added
    to the entries of field name, each with its sign: [(index, sign)]."""
    ext = data.grid.extents
    x = np.indices(ext, dtype=float)
    mid = (np.array(ext, dtype=float) - 1.0) / 2.0
    r2 = sum((x[k] - mid[k]) ** 2 for k in range(len(ext)))
    bump = amount * np.exp(-r2 / (2.0 * (ext[0] / 4.0) ** 2))
    arr = getattr(data, name).copy()
    for index, sign in entries:
        arr[(Ellipsis,) + index] += sign * bump
    return with_fields(data, **{name: arr})


class TestOneNodeBump:
    """The 2-form kernels read the entries a < b of each block only; a
    defect at one node must still peak at that node."""

    CASES = ("slice_n2", "slice_n3")

    @pytest.mark.parametrize("row", [2, 3])
    @pytest.mark.parametrize("key", CASES)
    def test_bump_is_worst_node(self, key, row):
        # On analytic data the derivative fields keep their values, so a
        # one-node alpha bump moves flatness at that node only. On these
        # T = 0 slices flatness sees an alpha bump in second order (it
        # lights B and D in first), hence 1e-2 on an off-diagonal entry.
        _, data = signature_case(key)
        node = (row,) + tuple(e // 2 for e in data.grid.extents[1:])
        al = data.alpha.copy()
        al[node + (0, 0, 1)] += 1e-2
        al[node + (0, 1, 0)] += 1e-2
        rep = flatness_residual(with_fields(data, alpha=al))
        assert rep["flatness"].sup > 1e-6
        assert rep["flatness"].worst_node == node


class TestReportPlumbing:
    def test_json_round_trip(self, slice17):
        from warpframe.verifier import ResidualReport
        _, data = slice17
        rep = structure_residuals(data)
        doc = rep.to_dict()
        again = ResidualReport.from_dict(doc)
        assert again.to_dict() == doc

    def test_merge_and_failing(self, slice17):
        _, data = slice17
        rep = structure_residuals(data)
        rep.merge(aux_identity_residuals(data))
        assert rep.passed and rep.failing() == []
        rep.add("synthetic", np.array([1.0]), 0.5)
        assert rep.failing() == ["synthetic"]


class TestGridMajorReference:
    """The component-major kernels against the grid-major implementation
    they replaced (tests/verifier_reference.py), node by node."""

    FAMILIES = (
        (structure_residual_fields, grid_major.structure_residual_fields),
        (aux_identity_fields, grid_major.aux_identity_fields),
        (flatness_fields, grid_major.flatness_fields),
    )

    # Every signature case, plus one with T != 0 on a warping whose k2 is
    # not zero (a = exp, eps = -1), where the T terms of (D) and (E) count.
    CASES = [(key, None) for key in SIGNATURE_CASES] + [
        ("tilted_desitter", "exp")]

    @pytest.mark.parametrize("force_fd", [False, True], ids=["jets", "fd"])
    @pytest.mark.parametrize("key, warping", CASES,
                             ids=[f"{k}-{w}" if w else k for k, w in CASES])
    def test_fields_match(self, key, warping, force_fd):
        _, data = signature_case(key, warping=warping)
        tol = check_source(data, force_fd)["tolerance"]["value"]
        for new_fn, ref_fn in self.FAMILIES:
            new, ref = new_fn(data, force_fd), ref_fn(data, force_fd)
            assert sorted(new) == sorted(ref)
            for name in ref:
                if new[name] is None:
                    # a check the 1-dimensional chart skips: the reference,
                    # which loops over no 2-plane, reads 0 at every node
                    assert data.spec.n < 2, name
                    assert not ref[name].any(), name
                    continue
                assert new[name].shape == ref[name].shape, name
                sup = float(ref[name].max())
                gap = float(np.abs(new[name] - ref[name]).max())
                assert gap <= 1e-13 + 1e-12 * sup, (name, gap, sup)
                mine, theirs = ResidualReport(), ResidualReport()
                mine.add(name, new[name], tol)
                theirs.add(name, ref[name], tol)
                assert mine[name].passed == theirs[name].passed, name
                if sup > 1e-13:
                    assert mine[name].worst_node == theirs[name].worst_node, (
                        name, sup)


    # Bumps of about 1e-2 in one field at a time light flatness well above
    # roundoff, where a slip in the kernel could not hide under the
    # absolute floor above. Each bump keeps alpha symmetric and omega skew.
    BUMPS = {
        "alpha": ("alpha", [((0, 0, 1), 1.0), ((0, 1, 0), 1.0)]),
        "omega_tangent": ("omega_tangent", [((0, 1, 0), 1.0),
                                            ((1, 0, 0), None)]),
        "T_comp": ("T_comp", [((0,), 1.0)]),
    }

    @classmethod
    def with_bump(cls, data, bump):
        """data with the bump BUMPS[bump] added."""
        name, entries = cls.BUMPS[bump]
        et = data.spec.tangent_signs
        # omega_ij = -eps_i eps_j omega_ji
        return bumped(data, name, [
            (index, -et[0] * et[1] if sign is None else sign)
            for index, sign in entries])

    @pytest.mark.parametrize("force_fd", [False, True], ids=["jets", "fd"])
    @pytest.mark.parametrize("bump", sorted(BUMPS))
    @pytest.mark.parametrize("key", ["lorentz_cylinder", "slice_n3"])
    def test_flatness_pieces_on_perturbed_data(self, key, bump, force_fd):
        _, data = signature_case(key)
        bad = self.with_bump(data, bump)
        new = flatness_fields(bad, force_fd)["flatness"]
        ref = grid_major.flatness_fields(bad, force_fd)["flatness"]
        scale = float(ref.max())
        assert scale > 1e-3
        gap = float(np.abs(new - ref).max())
        assert gap <= 1e-12 * scale, (gap, scale)

    # The premise of the kernels, which read the entries a < b alone: every
    # full residual matrix of the reference is G-antisymmetric entry by
    # entry, res[b, a] = -s_a s_b res[a, b], with a zero diagonal; for (D),
    # indexed by lowered frame slots, every s is 1. The reference forms
    # each entry in its own arithmetic, so the premise holds there to the
    # bound of test_fields_match (the largest gap is 2.2e-16), not bit for
    # bit.
    MATRICES = {
        "D": (grid_major.gauss_matrices, lambda spec: np.ones(spec.n)),
        "F": (grid_major.ricci_matrices, lambda spec: spec.bundle_signs),
        "flatness": (grid_major.flatness_matrices,
                     lambda spec: np.asarray(spec.signs, dtype=float)),
    }

    @pytest.mark.parametrize("force_fd", [False, True], ids=["jets", "fd"])
    @pytest.mark.parametrize("bump", [None] + sorted(BUMPS))
    @pytest.mark.parametrize("key", SIGNATURE_CASES)
    def test_residual_matrices_are_antisymmetric(self, key, bump, force_fd):
        _, data = signature_case(key)
        if data.spec.n < 2:
            # a curve has no coordinate 2-plane, hence no residual matrix
            assert not any(matrices(data, force_fd)
                           for matrices, _ in self.MATRICES.values())
            return
        if bump is not None:
            data = self.with_bump(data, bump)
        for family, (matrices, signs) in self.MATRICES.items():
            s = signs(data.spec)
            for plane, res in matrices(data, force_fd).items():
                bound = 1e-13 + 1e-12 * float(np.abs(res).max())
                gap = np.abs(np.swapaxes(res, -1, -2)
                             + np.multiply.outer(s, s) * res).max()
                diag = np.abs(np.diagonal(res, axis1=-2, axis2=-1)).max()
                assert gap <= bound, (family, plane, gap)
                assert diag <= bound, (family, plane, diag)


@pytest.mark.parametrize("key", SIGNATURE_CASES)
def test_signature_case_verifies(key):
    # Every entry sits at roundoff on jets and within 10 h^2 on FD. On
    # graph_surface, the one case with omega_bundle != 0, a sign error in
    # the omega_bundle term of (C) or (E) reads O(1) here.
    _, data = signature_case(key)
    for force_fd in (False, True):
        rep = structure_residuals(data, force_fd=force_fd)
        rep.merge(aux_identity_residuals(data, force_fd=force_fd))
        rep.merge(flatness_residual(data, force_fd=force_fd))
        assert rep.passed, (force_fd, rep.failing())
        if not force_fd:
            assert max(e.sup for e in rep.entries.values()) <= 1e-13

class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_fails_and_is_named(self, bad):
        field = np.array([[0.0, 5e-9, 0.0],
                          [2e-9, bad, 3e-9],
                          [0.0, bad, 0.0]])
        rep = ResidualReport()
        rep.add("r", field, 1e-8)
        e = rep["r"]
        assert not e.passed and not rep.passed
        assert e.worst_node == (1, 1)
        assert "2 of 9 nodes non-finite" in e.note
        assert np.isfinite(e.sup) and np.isfinite(e.rms)
        assert e.sup == 5e-9
