import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from geometry_reference import shape_operator
from test_frame_solver import SIGNATURE_CASES, assert_base_frame
from warpframe import (ExplicitImmersion, SignatureSpec,
                       aux_identity_residuals, canonical_example,
                       flatness_residual, induce_data, make_example,
                       structure_residuals)
from warpframe import jets, oracle
from warpframe.ambient import warped_dot
from warpframe.errors import DegenerateDataError, SchemaError
from warpframe.jets import value
from warpframe.oracle import (exact_base_frame, exact_frame_field,
                              reference_field)

ALL_FAMILIES = ["slice", "vertical_geodesic", "great_subsphere", "helix",
                "desitter_slice", "lorentz_cylinder"]


class TestSliceFamily:
    def test_vertical_split(self, slice17):
        imm, data = slice17
        assert np.abs(data.T_comp).max() == 0.0
        # xi is the unit vertical direction in the single bundle slot
        np.testing.assert_allclose(np.abs(data.xi_comp), 1.0, atol=1e-12)

    def test_umbilic_shape_operator(self, slice17):
        imm, data = slice17
        a, a1, _ = data.warp_values()
        for node in [(0, 0), (8, 8), (16, 3)]:
            A = shape_operator(data, node, data.xi_comp[node])
            np.testing.assert_allclose(A, -(a1 / a)[node] * np.eye(2),
                                       atol=1e-10)

    def test_totally_geodesic_at_cosh_minimum(self):
        _, data = canonical_example("slice", {"n": 2, "t0": 0.0})
        assert np.abs(data.alpha).max() <= 1e-12

    def test_warp_term_matrix_pattern(self, slice17):
        # X has only its last row and column, (a'/a) omega_alpha up to sign
        from warpframe.frame_solver import assemble_all
        imm, data = slice17
        forms = assemble_all(data)
        X = forms["X"]
        W = forms["W"]
        a, a1, _ = data.warp_values()
        Np1 = data.spec.N + 1
        assert np.abs(X[..., :Np1, :Np1, :]).max() <= 1e-14
        want = (a1 / a)[..., None, None] * W[..., :Np1, :]
        np.testing.assert_allclose(X[..., :Np1, Np1, :], want, atol=1e-13)


class TestVerticalGeodesic:
    def test_split_and_flatness(self):
        _, data = canonical_example("vertical_geodesic", {})
        # T is the full vertical direction, xi vanishes, alpha vanishes
        np.testing.assert_allclose(
            np.einsum("i,...i,...i->...", data.spec.tangent_signs,
                      data.T_comp, data.T_comp), 1.0, atol=1e-12)
        assert np.abs(data.xi_comp).max() <= 1e-12
        assert np.abs(data.alpha).max() <= 1e-12

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DegenerateDataError):
            make_example("vertical_geodesic", {"epsilon": -1})


class TestHelix:
    def test_unit_speed_validation(self):
        with pytest.raises(SchemaError, match="example helix: .*unit speed"):
            make_example("helix", {"beta": 0.6, "omega": 0.5})
        make_example("helix", {"beta": 0.6, "omega": 0.8})  # 0.36+0.64=1

    def test_degenerate_pitch_is_a_slice_circle(self):
        _, data = canonical_example("helix", {"beta": 0.0})
        assert np.abs(data.T_comp).max() <= 1e-12
        assert np.abs(data.pi - data.pi.flat[0]).max() == 0.0

    def test_vertical_split_norm(self, helix65):
        _, data = helix65
        spec = data.spec
        tt = np.einsum("i,...i,...i->...", spec.tangent_signs,
                       data.T_comp, data.T_comp)
        xx = np.einsum("u,...u,...u->...", spec.bundle_signs,
                       data.xi_comp, data.xi_comp)
        np.testing.assert_allclose(tt + xx, 1.0, atol=1e-10)


class TestGreatSubsphere:
    def test_great_circle_in_s3_flat_normal_bundle(self):
        _, data = canonical_example("great_subsphere",
                                    {"n": 1, "N": 3, "grid_extents": [21],
                                     "grid_spacing": [0.05]})
        assert np.abs(data.alpha).max() <= 1e-12
        assert np.abs(data.omega_bundle).max() <= 1e-12
        rep = structure_residuals(data)
        assert rep.entries["F"].sup <= 1e-12

    def test_small_subsphere_is_umbilic(self):
        r = 0.8
        _, data = canonical_example("great_subsphere", {"radius": r})
        # |alpha(e_i, e_i)| = sqrt(1 - r^2)/r for a distance sphere
        node = tuple(e // 2 for e in data.grid.extents)
        al = data.alpha[node]
        norm = np.sqrt(sum(al[u, 0, 0] ** 2 for u in range(data.spec.m)))
        assert norm == pytest.approx(np.sqrt(1 - r * r) / r, abs=1e-10)

    def test_requires_unit_constant_warping(self):
        with pytest.raises(SchemaError,
                           match="great_subsphere: the warping must be"):
            make_example("great_subsphere", {"warping": "cosh"})


class TestInduceData:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_forward_data_satisfies_all_residuals(self, name):
        _, data = canonical_example(name, {})
        for rep in (structure_residuals(data), aux_identity_residuals(data),
                    flatness_residual(data)):
            assert rep.passed
            assert max(e.sup for e in rep.entries.values()) <= 1e-10

    @pytest.mark.parametrize("name", ["slice", "desitter_slice",
                                      "great_subsphere", "lorentz_cylinder",
                                      "helix"])
    def test_fd_engine_agrees_with_jets_at_second_order(self, name):
        # On every node, faces included: the fd engine samples the map two
        # nodes beyond the chart, so no one-sided stencil reaches its
        # fields, and the gap to the jets falls fourfold per halving of h
        # (without the halo it halves near the faces). The induced data
        # passes its own finite-difference check at both spacings.
        imm0 = make_example(name, {})
        sups = []
        for factor in (1, 2):
            imm = make_example(name, {**imm0.params, **oracle._grid_tag(
                imm0.grid.refine(factor))})
            d_jet = induce_data(imm, derivatives="jet",
                                attach_derivatives=False)
            d_fd = induce_data(imm, derivatives="fd")
            sups.append(max(
                float(np.abs(getattr(d_jet, f) - getattr(d_fd, f)).max())
                for f in ("frame", "omega_tangent", "omega_bundle", "alpha",
                          "T_comp", "xi_comp", "pi")))
            for rep in (structure_residuals(d_fd),
                        aux_identity_residuals(d_fd),
                        flatness_residual(d_fd)):
                assert rep.passed, (factor, rep.failing())
        assert sups[0] / sups[1] > 3.5, sups

    def test_wrong_declared_signature_rejected(self):
        imm = make_example("lorentz_cylinder", {})
        bad_spec = SignatureSpec.from_counts(2, 1, 1, 1, (1, 1), (1,))
        bad = type(imm)(spec=bad_spec, warping=imm.warping, grid=imm.grid,
                        map_fn=imm.map_fn)
        with pytest.raises(DegenerateDataError):
            induce_data(bad)

    def test_frame_seed_mixes_tangents(self, slice17):
        imm, data = slice17
        seed = np.array([[0.0, 1.0], [1.0, 0.0]])
        mixed = induce_data(imm, frame_seed=seed, attach_derivatives=False)
        rep = structure_residuals(mixed, force_fd=True)
        assert rep.passed
        # the first frame vector now points along the second axis
        assert abs(mixed.frame[8, 8, 0, 1]) > abs(mixed.frame[8, 8, 0, 0])


class TestExactFrames:
    def test_base_frame_invariants(self, helix65):
        imm, data = helix65
        assert_base_frame(exact_base_frame(imm), data, 1e-12, 1e-12)

    def test_frame_field_in_group_everywhere(self, slice17):
        imm, data = slice17
        B = exact_frame_field(imm)
        g = np.diag(data.spec.G)
        ztgz = np.einsum("...ji,j,...jl->...il", B, g, B)
        assert np.abs(ztgz - np.diag(g)).max() <= 1e-12
        # row N+1 carries the vertical components
        assert np.abs(B[..., -1, :] - data.delta_all()).max() <= 1e-12

    @pytest.mark.parametrize("fixture", ["slice17", "helix65"])
    def test_reference_field_from_given_frame_field(self, fixture, request):
        # roundtrip builds the exact frame field once and takes both B0 and
        # the reference frames from it.
        imm, _ = request.getfixturevalue(fixture)
        B = exact_frame_field(imm)
        np.testing.assert_array_equal(B[imm.grid.base_node],
                                      exact_base_frame(imm))
        shared, fresh = reference_field(imm, B), reference_field(imm)
        for name in ("spatial", "t", "frames"):
            np.testing.assert_array_equal(getattr(shared, name),
                                          getattr(fresh, name))


class TestStage1HandOff:
    """induce_data leaves its stage-1 values in the immersion's _cache;
    exact_frame_field takes them out and packs them into the frame field
    that a fresh immersion gives, bit for bit."""

    @staticmethod
    def check_seeded(make, **kw):
        imm = make()
        induce_data(imm, **kw)
        P, E, a = imm._cache["stage1"]
        for x in (P, E, a):      # plain copies, no jet rows behind them
            assert type(x) is np.ndarray and x.base is None
        t, p = imm.sample()
        assert P.tobytes() == np.concatenate(
            [t[None], np.moveaxis(p, -1, 0)]).tobytes()
        B = exact_frame_field(imm)
        assert "stage1" not in imm._cache
        assert B.tobytes() == exact_frame_field(make()).tobytes()
        assert exact_frame_field(imm).tobytes() == B.tobytes()

    @pytest.mark.parametrize("attach", [True, False])
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_families(self, name, attach):
        self.check_seeded(lambda: make_example(name, {}),
                          attach_derivatives=attach)

    @pytest.mark.parametrize("key", SIGNATURE_CASES)
    def test_signature_cases(self, key):
        self.check_seeded(lambda: SIGNATURE_CASES[key](1, None))

    @pytest.mark.parametrize("kw", [{"derivatives": "fd"},
                                    {"frame_seed": [[1.7]]}],
                             ids=["fd", "frame_seed"])
    def test_fd_and_frame_seed_leave_it_unseeded(self, kw):
        imm = make_example("helix", {})
        induce_data(imm, **kw)
        assert imm._cache == {}
        fresh = make_example("helix", {})
        assert exact_frame_field(imm).tobytes() == \
            exact_frame_field(fresh).tobytes()

    def test_cache_outside_repr_equality_and_replace(self):
        imm = make_example("helix", {})
        twin = dataclasses.replace(imm)
        induce_data(imm)
        assert "_cache" not in repr(imm) and imm == twin
        # A replaced immersion (another grid, say) starts with its own cache.
        assert twin._cache == {} and dataclasses.replace(imm)._cache == {}


def test_unknown_example_name():
    with pytest.raises(KeyError):
        make_example("moebius", {})


def tilted_graph_immersion(gamma=0.35, t0=0.25, extent=17):
    """Hypersurface with nonvanishing T on a 2-d chart: the height varies
    along the first chart direction over a quadric graph chart."""
    from warpframe import ChartGrid, ExplicitImmersion, WarpingFunction
    from warpframe.jets import sqrt
    spec = SignatureSpec.from_counts(2, 1, 1, 1, (1, 1), (1,))
    warping = WarpingFunction("cosh")
    h = 0.64 / (extent - 1)
    grid = ChartGrid((extent, extent), (h, h),
                     (-0.32, -0.32), (extent // 2, extent // 2))

    def map_fn(x):
        q = x[0] * x[0] + x[1] * x[1]
        w = sqrt(1.0 - q)
        return t0 + gamma * x[0], [w, x[0], x[1]]

    return ExplicitImmersion(spec, warping, grid, map_fn)


def tilted_surface_codim2(gamma=0.3, t0=0.2, extent=13):
    """Codimension-two surface with nonvanishing T: a great 2-subsphere
    chart inside S^3 with the height varying along the second direction."""
    from warpframe import ChartGrid, ExplicitImmersion, WarpingFunction
    from warpframe.jets import sqrt
    spec = SignatureSpec.from_counts(2, 2, 1, 1, (1, 1), (1, 1))
    warping = WarpingFunction("cosh")
    h = 0.5 / (extent - 1)
    grid = ChartGrid((extent, extent), (h, h),
                     (-0.25, -0.25), (extent // 2, extent // 2))

    def map_fn(x):
        q = x[0] * x[0] + x[1] * x[1]
        w = sqrt(1.0 - q)
        return t0 + gamma * x[1], [w, x[0], x[1], 0.0 * x[0]]

    return ExplicitImmersion(spec, warping, grid, map_fn)


class TestTiltedImmersions:
    """Charts where T != 0 on a multidimensional chart: these are the only
    configurations in which the vertical terms of the Gauss and Codazzi
    right-hand sides are nonzero, so they pin the corresponding signs."""

    def test_hypersurface_T_nonzero_and_residuals_vanish(self):
        data = induce_data(tilted_graph_immersion())
        assert np.abs(data.T_comp).max() > 0.1
        for rep in (structure_residuals(data), aux_identity_residuals(data),
                    flatness_residual(data)):
            assert max(e.sup for e in rep.entries.values()) <= 1e-9

    def test_codim2_T_nonzero_and_residuals_vanish(self):
        data = induce_data(tilted_surface_codim2())
        assert np.abs(data.T_comp).max() > 0.1
        assert data.spec.m == 2
        for rep in (structure_residuals(data), aux_identity_residuals(data),
                    flatness_residual(data)):
            assert max(e.sup for e in rep.entries.values()) <= 1e-9

    def test_gauss_vertical_terms_actually_contribute(self):
        # zeroing T in the same data must break (D): the vertical terms of
        # the right-hand side are load-bearing here.
        from warpframe import GeometricData
        data = induce_data(tilted_graph_immersion())
        rep0 = structure_residuals(data)
        stripped = GeometricData(
            data.spec, data.warping, data.grid, frame=data.frame,
            omega_tangent=data.omega_tangent, omega_bundle=data.omega_bundle,
            alpha=data.alpha, T_comp=0.0 * data.T_comp,
            xi_comp=data.xi_comp, pi=0.0 * data.pi + float(data.pi.flat[0]))
        rep1 = structure_residuals(stripped, force_fd=True)
        assert rep0.entries["D"].sup <= 1e-9
        assert rep1.entries["D"].sup > 1e-3


def test_normal_completion_with_out_of_order_signs():
    # Bundle signs (-1, +1): the timelike candidate sits after the spacelike
    # ones in index order, so the completion must skip without discarding.
    from warpframe import ChartGrid, ExplicitImmersion, WarpingFunction
    from warpframe.jets import cos, sin
    spec = SignatureSpec.from_counts(1, 2, 1, 1, (1,), (-1, 1))
    w = WarpingFunction("constant")
    grid = ChartGrid((21,), (0.05,), (-0.5,), (10,))

    def map_fn(x):
        th = x[0]
        return 0.3 + 0.0 * th, [cos(th), sin(th), 0.0 * th]

    data = induce_data(ExplicitImmersion(spec, w, grid, map_fn))
    rep = structure_residuals(data)
    assert rep.passed
    assert max(e.sup for e in rep.entries.values()) <= 1e-10


def test_tabulated_warping_end_to_end():
    # Same pipeline with a sampled scale factor: the slice's height is
    # constant, so all evaluations stay inside one interpolation segment and
    # the induced data must satisfy the equations to roundoff.
    from warpframe import WarpingFunction
    ts = np.linspace(-1.0, 1.0, 101)
    tab = WarpingFunction("tabulated", domain=(-0.9, 0.9),
                          table_t=tuple(ts), table_a=tuple(np.cosh(ts)))
    _, data = canonical_example("slice", {"n": 2, "warping": tab, "t0": 0.3})
    rep = structure_residuals(data)
    rep.merge(aux_identity_residuals(data))
    rep.merge(flatness_residual(data))
    assert rep.passed
    assert max(e.sup for e in rep.entries.values()) <= 1e-10


@pytest.mark.parametrize("warp", ["cos", "exp"])
def test_other_analytic_warpings_end_to_end(warp):
    _, data = canonical_example("slice", {"n": 2, "warping": warp, "t0": 0.2})
    rep = structure_residuals(data)
    rep.merge(flatness_residual(data))
    assert rep.passed
    assert max(e.sup for e in rep.entries.values()) <= 1e-10


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_forward_data_passes_at_grid_tolerance_without_derivatives(name):
    _, data = canonical_example(name, {"attach_derivatives": False})
    for rep in (structure_residuals(data), aux_identity_residuals(data),
                flatness_residual(data)):
        assert rep.passed  # default tolerance is 10 h^2 in FD mode


class TestDegeneracyMessages:
    def test_tangent_slot_names_sign_and_node(self):
        # The lorentz_cylinder map, with one more spacelike fiber coordinate
        # so that the quadric of a (+, +) tangent declaration holds it.
        cyl = make_example("lorentz_cylinder", {})
        spec = SignatureSpec.from_counts(2, 2, 1, 1, (1, 1), (-1, 1))

        def map_fn(x):
            t, p = cyl.map_fn(x)
            return t, [p[0], p[1], 0.0 * x[0], p[2]]

        imm = ExplicitImmersion(spec, cyl.warping, cyl.grid, map_fn)
        with pytest.raises(DegenerateDataError,
                           match=r"tangent frame slot 2 has squared norm "
                                 r"-\d\.\d+e[-+]\d+ at node \(0, 0\), "
                                 r"declared sign 1$"):
            induce_data(imm)

    def test_normal_slot_names_sign_and_node(self):
        # Both normal directions of a helix in S^2 x R are spacelike, so no
        # candidate meets a timelike declaration of the last slot. That
        # signature is invalid (eps_{N+1} != epsilon), so induce_data stops
        # before the frame stage; stage 1 is run on its own here.
        helix = make_example("helix", {})
        spec = dataclasses.replace(helix.spec, q=1, signs=(1, 1, 1, -1))
        P, V = oracle._map_jets(helix.grid, helix.map_fn, 1)
        with pytest.raises(DegenerateDataError,
                           match=r"normal frame slot 3: no candidate has "
                                 r"the declared sign -1 at every node; the "
                                 r"last to fail has squared norm "
                                 r"\d\.\d+e[-+]\d+ at node \(0,\)$"):
            oracle._stage1(spec, helix.warping, P, V)

    def test_invalid_signature_rejected_first(self):
        helix = make_example("helix", {})
        spec = dataclasses.replace(helix.spec, q=1, signs=(1, 1, 1, -1))
        imm = ExplicitImmersion(spec, helix.warping, helix.grid, helix.map_fn)
        with pytest.raises(DegenerateDataError,
                           match=r"^invalid signature: .*"
                                 r"eps_\{N\+1\} != epsilon \(-1 != 1\)"):
            induce_data(imm)


def _assert_close(new, ref, what):
    """Agreement to roundoff: 1e-14 times the reference's sup (at least 1)."""
    assert new.shape == ref.shape, what
    tol = 1e-14 * max(1.0, float(np.abs(ref).max()))
    gap = float(np.abs(new - ref).max())
    assert gap <= tol, (what, gap, tol)


class TestListReference:
    """The tensor stages against the nested-list stages they replaced
    (tests/oracle_reference.py), field by field and derivative field by
    derivative field. Another normal-completion candidate would change a
    field by O(1), so this also pins the candidate choice."""

    CASES = [(key, None) for key in SIGNATURE_CASES] + [
        ("helix", "exp"), ("tilted_desitter", "exp")]
    IDS = [f"{k}-{w}" if w else k for k, w in CASES]
    # Invertible, not orthogonal: the frame seed mixes and rescales.
    SEEDS = {1: [[1.7]], 2: [[1.0, 0.4], [0.3, 1.2]],
             3: [[1.0, 0.4, 0.0], [0.3, 1.2, 0.1], [0.0, 0.2, 0.9]]}

    def check(self, imm, **kw):
        data = induce_data(imm, **kw)
        fields, derivs = oracle_reference.induce_fields(imm, **kw)
        for name, ref in fields.items():
            _assert_close(getattr(data, name), ref, name)
        assert sorted(data.derivs) == sorted(derivs or {})
        for name, ref in (derivs or {}).items():
            _assert_close(data.derivs[name], ref, f"d {name}")

    @pytest.mark.parametrize("derivatives", ["jet", "fd"])
    @pytest.mark.parametrize("key, warping", CASES, ids=IDS)
    def test_induced_fields(self, key, warping, derivatives):
        self.check(SIGNATURE_CASES[key](1, warping), derivatives=derivatives)

    @pytest.mark.parametrize("derivatives", ["jet", "fd"])
    @pytest.mark.parametrize("key", ["slice_n2", "slice_n3",
                                     "tilted_desitter", "helix"])
    def test_frame_seed(self, key, derivatives):
        imm = SIGNATURE_CASES[key](1, None)
        self.check(imm, derivatives=derivatives,
                   frame_seed=np.array(self.SEEDS[imm.spec.n]))

    @pytest.mark.parametrize("key, warping", CASES, ids=IDS)
    def test_exact_frame_field(self, key, warping):
        imm = SIGNATURE_CASES[key](1, warping)
        _assert_close(exact_frame_field(imm),
                      oracle_reference.exact_frame_field(imm), "B")


# ---------------------------------------------------------------------------
# The gathered Gram of the normal completion


def explicit_rejection(spec, a2, p, E, slot, pos):
    """Candidate `pos` rejected from E[:slot] explicitly: one frame vector
    at a time (modified Gram-Schmidt) with warped_dot. The arithmetic is
    oracle._reject's, which builds the winner and which _pick falls back to
    near _TOL. Arrays or jets."""
    w = oracle._candidate(spec, p, pos)
    for j in range(slot):
        w = w - (spec.signs[1 + j] * warped_dot(spec, a2, w, E[j])) * E[j]
    return w


def explicit_norm(spec, a2, p, E, slot, pos):
    """Squared norm of candidate `pos` after its explicit rejection."""
    w = explicit_rejection(spec, a2, p, E, slot, pos)
    return warped_dot(spec, a2, w, w)


def recorded_stage1(spec, warping, P, V):
    """_stage1 with every call of _pick recorded as (slot, the free
    candidates, the gathered Q and S, the pick)."""
    calls, pick = [], oracle._pick

    def spy(spec, a2, p, E, slot, Q, S, free):
        pos = pick(spec, a2, p, E, slot, Q, S, free)
        calls.append((slot, list(free), Q.copy(), S.copy(), pos))
        return pos

    with mock.patch.object(oracle, "_pick", spy):
        s1 = oracle._stage1(spec, warping, P, V)
    return s1, calls


def assert_gathered_matches_explicit(spec, warping, P, V):
    """Every free candidate's gathered Q, in every normal slot, equals its
    explicit norm to 1e-14 relative: of the terms Q is formed from (S), or
    of 1 where they are smaller."""
    s1, calls = recorded_stage1(spec, warping, P, V)
    E, a = value(s1["E"]), value(s1["a"])
    p = value(P)[1:]
    assert [c[0] for c in calls] == list(range(spec.n, spec.n + spec.m))
    for slot, free, Q, S, _ in calls:
        for pos in free:
            want = explicit_norm(spec, a * a, p, E, slot, pos)
            gap = np.abs(Q[pos] - want) - 1e-14 * np.maximum(1.0, S[pos])
            assert gap.max() <= 0.0, (slot, pos, float(gap.max()))
    return s1, calls


def assert_normals_are_the_trial_loops(spec, s1, P):
    """Each normal E[slot] is, bit for bit, what the trial loop builds from
    E[:slot]: the first free candidate whose explicit squared norm has the
    slot's sign beyond _TOL at every node, rejected and normalized at the
    jet level. So the gathered pick changes no induced field."""
    E, a = s1["E"], s1["a"]
    a2, p = a * a, P[1:]
    free = list(range(spec.N + 2))
    for slot in range(spec.n, spec.n + spec.m):
        need = spec.signs[1 + slot]
        pos = next(c for c in free if (need * explicit_norm(
            spec, value(a2), value(p), value(E), slot, c) > oracle._TOL).all())
        free.remove(pos)
        w = explicit_rejection(spec, a2, p, E, slot, pos)
        e = (1.0 / jets.sqrt(need * warped_dot(spec, a2, w, w))) * w
        got = E[slot]
        assert np.array_equal(getattr(e, "d", e), getattr(got, "d", got)), \
            (slot, pos)


def reference_normals(spec, warping, P, V):
    """The normal frame vectors (m, N+2, *ext) that the nested-list stage 1
    of tests/oracle_reference.py completes from the same P and V values."""
    P, V = value(P), value(V)
    ext = P.shape[1:]
    ref = oracle_reference._stage1(
        spec, warping, P[0], list(P[1:]),
        [(v[0], list(v[1:])) for v in V])
    return np.stack([
        np.stack([np.broadcast_to(c, ext) for c in (e[0], *e[1])])
        for e in ref["ehat"][spec.n:]])


# Family parameters that flip a sign of the signature.
SIGNED_PARAMS = {"slice": ("c", "epsilon"), "great_subsphere": ("epsilon",)}


@st.composite
def stage1_inputs(draw):
    """(spec, warping, P, V) of a signature case or a family with drawn
    signs, on jets or finite differences, the tangents mixed by an
    invertible frame seed or not."""
    name = draw(st.sampled_from(sorted(SIGNATURE_CASES) + ALL_FAMILIES))
    if name in SIGNATURE_CASES:
        imm = SIGNATURE_CASES[name](1, None)
    else:
        imm = make_example(name, {key: draw(st.sampled_from([1, -1]))
                                  for key in SIGNED_PARAMS.get(name, ())})
    if draw(st.sampled_from(["jet", "fd"])) == "jet":
        P, V = oracle._map_jets(imm.grid, imm.map_fn, 2)
    else:
        P, V = oracle._map_fd(imm.grid, imm.map_fn)
    n = imm.spec.n
    mix = draw(st.none() | st.lists(st.floats(-0.3, 0.3), min_size=n * n,
                                    max_size=n * n))
    if mix is not None:
        V = jets.einsum("kl,l...->k...", np.eye(n) + np.reshape(mix, (n, n)) / n,
                        V)
    return imm.spec, imm.warping, P, V


class TestGatheredGram:
    """_stage1 gathers every normal-completion candidate's squared norm in
    closed form from the frame's components; the explicit rejection is the
    reference, and the nested-list stage 1 pins the pick."""

    # The example budget comes from the hypothesis profile: the CI soak
    # step runs this test under tests/conftest.py's "soak" profile.
    @settings(deadline=None, database=None)
    @given(stage1_inputs())
    def test_gathered_norms_and_pick(self, inputs):
        spec, warping, P, V = inputs
        s1, _ = assert_gathered_matches_explicit(spec, warping, P, V)
        assert_normals_are_the_trial_loops(spec, s1, P)
        want = reference_normals(spec, warping, P, V)
        got = value(s1["E"])[spec.n:]
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name, params", [
        ("helix", {}), ("great_subsphere", {"radius": 0.8})])
    def test_map_off_the_quadric(self, name, params):
        # Scaled off M^N(c) by 1 + 1e-10, inside induce_data's membership
        # tolerance: g0(p, p) = c (1 + 2e-10), and a filled fiber-direction
        # normal has pi = g0(p, E_j) of about 2e-10, so the closed form
        # must keep both terms.
        base = make_example(name, params)

        def map_fn(x):
            t, p = base.map_fn(x)
            return t, [(1.0 + 1e-10) * c for c in p]

        imm = dataclasses.replace(base, map_fn=map_fn)
        induce_data(imm)
        P, V = oracle._map_jets(imm.grid, map_fn, 2)
        _, calls = assert_gathered_matches_explicit(imm.spec, imm.warping,
                                                    P, V)
        assert calls[0][-1] <= imm.spec.N     # a fiber direction fills slot 1

    # (family and params, or a SIGNATURE_CASES key and None; candidates
    # rejected over all normal slots)
    COUNT_CASES = [("slice", {}, 3), ("slice", {"n": 3}, 4),
                   ("vertical_geodesic", {"N": 3}, 3),
                   ("great_subsphere", {"N": 5}, 12), ("helix", {}, 2),
                   ("desitter_slice", {}, 3), ("lorentz_cylinder", {}, 3),
                   ("tilted_desitter", None, 1), ("graph_surface", None, 3)]

    @pytest.mark.parametrize("name, params, rejected", COUNT_CASES)
    def test_warped_dot_calls_per_stage1(self, name, params, rejected):
        # The Gram-Schmidt of the n + m frame vectors and nothing else:
        # n(n+1)/2 calls for the tangent frame, and for each normal slot one
        # per filled frame vector to reject the winner plus one for its
        # norm, however many candidates the pick rejects.
        imm = (SIGNATURE_CASES[name](1, None) if params is None
               else make_example(name, params))
        P, V = oracle._map_jets(imm.grid, imm.map_fn, 2)
        with mock.patch.object(oracle, "warped_dot",
                               wraps=oracle.warped_dot) as dot:
            _, calls = recorded_stage1(imm.spec, imm.warping, P, V)
        n, m = imm.spec.n, imm.spec.m
        assert dot.call_count == (n + m) * (n + m + 1) // 2
        assert sum(free.index(pos) for _, free, _, _, pos in calls) \
            == rejected

    def test_threshold_ties_go_to_the_explicit_rejection(self, monkeypatch):
        # Put _TOL exactly at the explicit worst-node norm of the helix's
        # slot-1 winner: the explicit check fails there (q > _TOL is
        # false), one ulp lower it passes. The gathered norm lies within
        # roundoff of it either way, so _pick must ask the explicit
        # rejection, which costs warped_dot calls the gathered pass does
        # not make.
        helix = make_example("helix", {})
        spec = helix.spec
        P, V = oracle._map_jets(helix.grid, helix.map_fn, 1)
        s1, calls = recorded_stage1(spec, helix.warping, P, V)
        slot, _, Q, S, pos = calls[0]
        E, a2, p = s1["E"], s1["a"] ** 2, P[1:]
        need = spec.signs[1 + slot]
        tie = float((need * explicit_norm(spec, a2, p, E, slot, pos)).min())
        assert abs(float((need * Q[pos]).min()) - tie) <= 1e-14
        for tol, picked in ((tie, False), (np.nextafter(tie, -1.0), True)):
            monkeypatch.setattr(oracle, "_TOL", tol)
            with mock.patch.object(oracle, "warped_dot",
                                   wraps=oracle.warped_dot) as dot:
                try:
                    got = oracle._pick(spec, a2, p, E, slot, Q, S, [pos])
                except DegenerateDataError:
                    got = None
            assert dot.call_count == slot + 1
            assert (got == pos) is picked

    @pytest.mark.parametrize("t0", [-0.2, -0.15, -0.1, -0.05, 0.0, 0.05, 0.07,
                                    0.1, 0.15, 0.2])
    def test_helix_long_frames_match_the_reference(self, t0):
        # The benchmark's helix shape at its t0 list and at 0.07, where the
        # oracle's normal frame flips between two nodes: the same picks as
        # the nested-list stage 1.
        imm = make_example("helix", {"grid_extents": [16385],
                                     "grid_spacing": [0.0005], "beta": 0.6,
                                     "t0": t0})
        P, V = oracle._map_jets(imm.grid, imm.map_fn, 1)
        got = oracle._stage1(imm.spec, imm.warping, P, V)["E"][imm.spec.n:]
        want = reference_normals(imm.spec, imm.warping, P, V)
        assert np.abs(got - want).max() <= 1e-12
