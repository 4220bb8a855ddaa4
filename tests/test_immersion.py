from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import immersion_reference
from test_frame_solver import SIGNATURE_CASES, signature_case
from warpframe import (ChartGrid, SignatureSpec, WarpingFunction,
                       canonical_example, congruence_align, extract_immersion,
                       make_example, verify_immersion)
from warpframe.errors import AlignmentDegenerate, NonConvergence
from warpframe.frame_solver import (_group_defect, build_base_frame, expm,
                                    integrate_frame)
from warpframe.immersion import ImmersionField, Isometry, _group_basis
from warpframe.oracle import exact_base_frame, induce_data, reference_field
from warpframe.verifier import ResidualReport


def reconstruct(name, params=None, use_exact_B0=True):
    imm = make_example(name, params or {})
    data = induce_data(imm)
    B0 = exact_base_frame(imm) if use_exact_B0 else build_base_frame(data)
    ff = integrate_frame(data, B0)
    return imm, data, extract_immersion(ff, data)


class TestExtraction:
    def test_base_point_formula(self, slice17):
        # B0 reduces to a signed identity on the slice, so f(x0) is the
        # first coordinate direction scaled by c, with height pi(x0).
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        base = tuple(data.grid.base_node)
        want = np.zeros(3)
        want[0] = data.spec.c
        np.testing.assert_allclose(rec.spatial[base], want, atol=1e-12)
        assert rec.t[base] == data.pi[base]

    def test_quadric_membership_forced(self, slice17, helix65):
        for imm, data in (slice17, helix65):
            ff = integrate_frame(data, build_base_frame(data))
            rec = extract_immersion(ff, data)
            assert rec.quadric_defect() <= 1e-10

    def test_frames_are_ambient_orthonormal(self, helix65):
        imm, data = helix65
        ff = integrate_frame(data, exact_base_frame(imm))
        rec = extract_immersion(ff, data)
        a = data.warp_values()[0]
        spec = data.spec
        fs = spec.fiber_signs
        for node in [(0,), (32,), (64,)]:
            F = rec.frames[node]
            aa = float(a[node])
            for g1 in range(spec.size):
                for g2 in range(spec.size):
                    ip = (spec.epsilon * F[g1, -1] * F[g2, -1]
                          + aa * aa * np.dot(fs * F[g1, :-1], F[g2, :-1]))
                    want = spec.signs[g1] if g1 == g2 else 0.0
                    assert ip == pytest.approx(want, abs=1e-8)

    def test_frame_matrices_round_trip(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        np.testing.assert_allclose(rec.frame_matrices(), ff.B, atol=1e-12)


class TestVerifyImmersion:
    def test_slice_conclusions(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        rep = verify_immersion(rec, data)
        assert rep.passed
        assert rep.entries["isometry"].sup <= 1e-8
        assert rep.entries["dt_split"].sup <= 1e-8
        assert rep.entries["projection"].sup == 0.0
        h = data.grid.max_spacing
        assert rep.entries["alpha_match"].sup <= 10 * h * h
        assert rep.entries["normal_connection"].sup <= 10 * h * h

    def test_helix_conclusions_converge(self):
        sups = []
        for ext, sp in ((65, 0.03125), (129, 0.015625)):
            imm, data, rec = reconstruct(
                "helix", {"grid_extents": [ext], "grid_spacing": [sp]})
            rep = verify_immersion(rec, data)
            assert rep.passed
            sups.append(max(rep.entries[key].sup for key in (
                "dt_split", "alpha_match", "normal_connection")))
        assert sups[0] / sups[1] > 3.0


def _isometry_reference(imm):
    """Per-node isometry residual from all of B: the tangent block of
    B^t G B - G."""
    n = imm.spec.n
    btgb = _group_defect(imm.frame_matrices(),
                         np.asarray(imm.spec.signs, dtype=float))[1]
    tangent = btgb[..., 1:n + 1, 1:n + 1] - np.diag(imm.spec.tangent_signs)
    return np.abs(tangent).max(axis=(-1, -2))


def _isometry_field(imm, data):
    """The per-node array verify_immersion reports as `isometry`."""
    with mock.patch.object(ResidualReport, "add", autospec=True,
                           side_effect=ResidualReport.add) as add:
        verify_immersion(imm, data)
    return next(c.args[2] for c in add.call_args_list
                if c.args[1] == "isometry")


# The benchmark shapes: helix_long (n = 1, 16,385 nodes) and slice3d_fd
# (n = 3, 25^3 nodes, no derivative fields).
_BENCH_SHAPES = {
    "helix_long": lambda: induce_data(make_example("helix", {
        "grid_extents": [16385], "grid_spacing": [0.0005], "beta": 0.6})),
    "slice3d_fd": lambda: canonical_example("slice", {
        "n": 3, "grid_extents": [25, 25, 25],
        "grid_spacing": [0.02, 0.02, 0.02],
        "attach_derivatives": False})[1],
}


@pytest.mark.parametrize("key", [*SIGNATURE_CASES, *_BENCH_SHAPES])
def test_isometry_reads_the_tangent_columns(key):
    # verify_immersion forms the G-Gram matrix of the n tangent columns
    # of B only; it must equal the tangent block of the full B^t G B.
    data = (_BENCH_SHAPES[key]() if key in _BENCH_SHAPES
            else signature_case(key)[1])
    imm = extract_immersion(integrate_frame(data, build_base_frame(data)),
                            data)
    got = _isometry_field(imm, data)
    assert got.tobytes() == _isometry_reference(imm).tobytes()


def test_isometry_fails_off_the_group(slice17):
    # Stretch the first tangent frame at one node: B leaves the group
    # there, and the isometry check fails and names that node.
    _, data = slice17
    imm = extract_immersion(integrate_frame(data, build_base_frame(data)),
                            data)
    imm.frames[4, 11, 1] *= 1.1
    rep = verify_immersion(imm, data)
    assert rep.failing() == ["isometry"]
    assert rep.entries["isometry"].worst_node == (4, 11)
    assert rep.entries["isometry"].sup == pytest.approx(0.21, rel=1e-6)


class TestCongruence:
    def test_identity(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        tau, defect = congruence_align(rec, rec)
        assert defect <= 1e-12
        np.testing.assert_allclose(tau.O, np.eye(3), atol=1e-10)

    def test_apply_then_recover(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        th = 0.9
        O = np.array([[np.cos(th), -np.sin(th), 0.0],
                      [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        moved = immersion_reference.apply_isometry(Isometry(O=O), rec)
        tau, defect = congruence_align(rec, moved)
        assert defect <= 1e-8
        np.testing.assert_allclose(tau.O, O, atol=1e-8)

    def test_round_trip_orders(self):
        for name, grids in (("slice", [({"n": 2}, None),
                                       ({"n": 2, "grid_extents": [33, 33],
                                         "grid_spacing": [0.02, 0.02]}, None)]),
                            ("helix", [({}, None),
                                       ({"grid_extents": [129],
                                         "grid_spacing": [0.015625]}, None)])):
            defects = []
            for params, _ in grids:
                imm, data, rec = reconstruct(name, params)
                ref = reference_field(imm)
                tau, defect = congruence_align(rec, ref)
                h = data.grid.max_spacing
                assert defect <= 10 * h * h
                defects.append(defect)
            order = np.log2(defects[0] / defects[1])
            assert order >= 1.8

    def test_base_frame_choice_immaterial(self, slice17):
        # Two admissible base frames differ by the row-constraint stabilizer
        # blockdiag(O, 1); the reconstructions must align to the same map.
        imm, data = slice17
        B0 = build_base_frame(data)
        th = 0.7
        O = np.array([[np.cos(th), -np.sin(th), 0.0],
                      [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        K = np.eye(4)
        K[:3, :3] = O
        r1 = extract_immersion(integrate_frame(data, B0), data)
        r2 = extract_immersion(integrate_frame(data, K @ B0), data)
        tau, defect = congruence_align(r1, r2)
        h = data.grid.max_spacing
        assert defect <= 10 * h * h
        np.testing.assert_allclose(tau.O, O, atol=1e-8)

    def test_non_congruent_curves(self):
        _, _, r1 = reconstruct("helix", {})
        _, _, r2 = reconstruct("helix", {"beta": 0.3})
        tau, defect = congruence_align(r1, r2)
        assert defect > 0.1

    def test_degenerate_cloud_needs_frames(self):
        # great-circle positions span only a plane; without frames the
        # alignment is ambiguous and must be refused.
        _, _, rec = reconstruct("helix", {})
        bare = ImmersionField(spec=rec.spec, warping=rec.warping,
                              grid=rec.grid, spatial=rec.spatial, t=rec.t,
                              frames=None)
        with pytest.raises(AlignmentDegenerate):
            congruence_align(bare, bare)
        tau, defect = congruence_align(rec, rec)  # frames resolve it
        assert defect <= 1e-12 and tau.used_frames

    # Away from t0 = 0 the fitted shift is g.t - f.t, not g.t + f.t, which
    # agrees with it only at height 0.
    @pytest.mark.parametrize("params, delta", [
        ({"radius": 0.8}, 0.25), ({"t0": 0.3}, -0.2)], ids=["t0=0", "t0=0.3"])
    def test_constant_warping_fits_vertical_shift(self, params, delta):
        _, data = canonical_example("great_subsphere", params)
        ff = integrate_frame(data, build_base_frame(data))
        rec = extract_immersion(ff, data)
        shifted = ImmersionField(spec=rec.spec, warping=rec.warping,
                                 grid=rec.grid, spatial=rec.spatial,
                                 t=rec.t + delta, frames=rec.frames)
        tau, defect = congruence_align(rec, shifted)
        assert tau.t_shift == pytest.approx(delta, abs=1e-12)
        assert defect <= 1e-12

    def test_grid_mismatch_rejected(self, slice17, helix65):
        _, d1 = slice17
        _, d2 = helix65
        r1 = extract_immersion(integrate_frame(d1, build_base_frame(d1)), d1)
        r2 = extract_immersion(integrate_frame(d2, build_base_frame(d2)), d2)
        with pytest.raises(ValueError):
            congruence_align(r1, r2)


# Fiber signatures of the clouds: Riemannian (d = 3, 4), Lorentzian with the
# minus on a tangent or a bundle slot, and c = -1.
CLOUD_SPECS = [
    SignatureSpec.from_counts(2, 1, 1, 1, (1, 1), (1,)),
    SignatureSpec.from_counts(3, 1, 1, 1, (1, 1, 1), (1,)),
    SignatureSpec.from_counts(2, 1, 1, 1, (1, -1), (1,)),
    SignatureSpec.from_counts(2, 2, 1, 1, (1, 1), (-1, 1)),
    SignatureSpec.from_counts(2, 1, 1, -1, (1, 1), (1,)),
]


def _cloud_pair(spec, kind, seed, scale, noise):
    """(f, g): a random point cloud with random frames, and its image under
    a random ambient isometry (a group element times a sign flip) plus
    noise. kind: "full" (generic rows), "rank" (rows spanning d - 1
    dimensions), "thin" (one direction shrunk by `scale`; the thinnest fall
    under the rank threshold and use the frames too)."""
    rng = np.random.default_rng(seed)
    d, rows = spec.N + 1, 40
    basis = _group_basis(spec.fiber_signs)
    Z = rng.standard_normal((rows, d))
    if kind == "rank":
        Z[:, -1] = 0.0
    elif kind == "thin":
        Z[:, -1] *= scale
    P = Z @ (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    frames = rng.standard_normal((rows, d + 1, d + 1))
    grid = ChartGrid((rows,), (0.1,), (0.0,), (0,))
    f = ImmersionField(spec=spec, warping=WarpingFunction("cosh"), grid=grid,
                       spatial=P, t=rng.standard_normal(rows), frames=frames)
    theta = rng.uniform(-1.0, 1.0, len(basis))
    O = expm(np.einsum("i,iab->ab", theta, basis))
    O = O * rng.choice([-1.0, 1.0], d)
    g = immersion_reference.apply_isometry(Isometry(O=O), f)
    g.spatial = g.spatial + noise * rng.standard_normal(g.spatial.shape)
    g.frames = g.frames + noise * rng.standard_normal(g.frames.shape)
    return f, g


@settings(max_examples=80, deadline=None, database=None)
@given(spec=st.sampled_from(CLOUD_SPECS),
       kind=st.sampled_from(["full", "rank", "thin"]),
       seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-4.0, -1.0),
       noise=st.sampled_from([0.0, 1e-8, 1e-4]))
def test_moment_fit_matches_stacked_reference(spec, kind, seed, log_scale,
                                              noise):
    """The d x d moment fit against the stacked lstsq fit it replaced
    (tests/immersion_reference.py). Normal equations square the condition
    number of the rows, so O is compared relative to cond(S), S the moment
    matrix the fit reads. Without noise both defects sit at roundoff, where
    either fit can come out ahead by a few 1e-14; the defects are compared
    to 1e-13, relative once they exceed 1."""
    f, g = _cloud_pair(spec, kind, seed, 10.0 ** log_scale, noise)
    ref, ref_defect = immersion_reference.congruence_align(f, g)
    # Noise at the scale of a thin direction leaves the group element along
    # it undetermined; the reference then stops at its round limit, and the
    # fit raises NonConvergence (test_stalled_fit_raises).
    assume(ref.rounds < 50)
    tau, defect = congruence_align(f, g)
    assert tau.used_frames == ref.used_frames
    assert tau.used_frames or kind != "rank"
    d = spec.N + 1
    rows = [f.spatial.reshape(-1, d)]
    if tau.used_frames:
        rows.append(f.frames[..., :, :d].reshape(-1, d))
    S = sum(R.T @ R for R in rows)
    gap = float(np.abs(tau.O - ref.O).max())
    assert gap <= 1e-12 * np.linalg.cond(S), gap
    assert abs(defect - ref_defect) <= 1e-13 * max(1.0, ref_defect), (
        defect, ref_defect)


def _applied_defect(tau, f, g):
    """The alignment defect of f moved by tau."""
    moved = immersion_reference.apply_isometry(tau, f)
    return max(float(np.abs(moved.spatial - g.spatial).max()),
               float(np.abs(moved.t - g.t).max()))


@pytest.mark.parametrize("name, params, shift", [
    ("slice", {}, 0.0), ("helix", {}, 0.0),
    ("great_subsphere", {"radius": 0.8}, 0.25)])
def test_reconstruction_defect_is_that_of_the_applied_isometry(name, params,
                                                               shift):
    _, data = canonical_example(name, params)
    rec = extract_immersion(integrate_frame(data, build_base_frame(data)),
                            data)
    imm = make_example(name, params)
    ref = reference_field(imm)
    ref.t = ref.t + shift
    tau, defect = congruence_align(rec, ref)
    assert tau.t_shift == pytest.approx(shift, abs=1e-12)
    assert defect == _applied_defect(tau, rec, ref)


def test_stalled_fit_raises():
    """A c = -1 cloud (fiber signs -1, 1, 1) one direction of which is
    shrunk to 1e-4 under noise 1e-4: the group element along it is
    undetermined and Gauss-Newton wanders, so the fit raises instead of
    returning its last iterate."""
    f, g = _cloud_pair(CLOUD_SPECS[4], "thin", 9, 1e-4, 1e-4)
    with pytest.raises(NonConvergence, match="50 rounds"):
        congruence_align(f, g)


class TestRoundTripSignatureCoverage:
    """Reconstruction across the signature variants: timelike interval,
    Lorentzian fiber, and a chart with nonvanishing vertical projection."""

    @pytest.mark.parametrize("name", ["desitter_slice", "lorentz_cylinder"])
    def test_slice_variants(self, name):
        imm = make_example(name, {})
        data = induce_data(imm)
        ff = integrate_frame(data, exact_base_frame(imm))
        rec = extract_immersion(ff, data)
        h = data.grid.max_spacing
        assert rec.quadric_defect() <= 1e-8
        rep = verify_immersion(rec, data)
        assert rep.passed
        _, defect = congruence_align(rec, reference_field(imm))
        assert defect <= 10 * h * h

    def test_tilted_hypersurface(self):
        from test_oracle import tilted_graph_immersion
        defects = []
        for extent in (17, 33):
            imm = tilted_graph_immersion(extent=extent)
            data = induce_data(imm)
            ff = integrate_frame(data, exact_base_frame(imm))
            rec = extract_immersion(ff, data)
            rep = verify_immersion(rec, data)
            assert rep.passed
            _, defect = congruence_align(rec, reference_field(imm))
            h = data.grid.max_spacing
            assert defect <= 10 * h * h
            defects.append(defect)
        assert np.log2(defects[0] / defects[1]) >= 1.8

    def test_tilted_codim2(self):
        from test_oracle import tilted_surface_codim2
        imm = tilted_surface_codim2()
        data = induce_data(imm)
        ff = integrate_frame(data, exact_base_frame(imm))
        rec = extract_immersion(ff, data)
        h = data.grid.max_spacing
        assert verify_immersion(rec, data).passed
        assert ff.diagnostics["max_row_defect"] <= 10 * h * h
        _, defect = congruence_align(rec, reference_field(imm))
        assert defect <= 10 * h * h


def test_congruence_recovers_reflection(slice17):
    imm, data = slice17
    ff = integrate_frame(data, build_base_frame(data))
    rec = extract_immersion(ff, data)
    O = np.diag([1.0, -1.0, 1.0])
    moved = immersion_reference.apply_isometry(Isometry(O=O), rec)
    tau, defect = congruence_align(rec, moved)
    assert defect <= 1e-8
    np.testing.assert_allclose(tau.O, O, atol=1e-8)


def test_round_trip_tilted_helix():
    imm = make_example("helix", {"z0": 0.4, "beta": 0.5})
    data = induce_data(imm)
    rec = extract_immersion(integrate_frame(data, exact_base_frame(imm)), data)
    h = data.grid.max_spacing
    assert verify_immersion(rec, data).passed
    _, defect = congruence_align(rec, reference_field(imm))
    assert defect <= 10 * h * h


def test_large_grid_stress():
    import time
    t0 = time.perf_counter()
    imm = make_example("slice", {"n": 2, "grid_extents": [129, 129],
                                 "grid_spacing": [0.005, 0.005]})
    data = induce_data(imm)
    from warpframe import structure_residuals
    assert structure_residuals(data).passed
    ff = integrate_frame(data, exact_base_frame(imm))
    rec = extract_immersion(ff, data)
    assert verify_immersion(rec, data).passed
    assert ff.diagnostics["max_group_defect"] <= 1e-8
    assert time.perf_counter() - t0 < 60.0
