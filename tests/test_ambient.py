import numpy as np
import pytest

from warpframe import (AmbientVector, SignatureSpec, WarpingFunction,
                       ambient_inner, curvature_bar, curvature_coefficients,
                       curvature_tilde, space_form_membership,
                       validate_signature, warped_connection)
from warpframe.ambient import quadric_inclusion_gauss_residual, quadric_project
from warpframe.errors import DomainError


def riemannian_spec(n=2, m=1):
    return SignatureSpec.from_counts(n, m, 1, 1, (1,) * n, (1,) * m)


class TestSignature:
    def test_riemannian_hypersurface_valid(self):
        spec = SignatureSpec(n=2, m=1, N=2, p=0, q=0, lam=0, epsilon=1, c=1,
                             signs=(1, 1, 1, 1))
        assert validate_signature(spec) == []

    def test_eps0_must_equal_c(self):
        spec = SignatureSpec(n=2, m=1, N=2, p=0, q=0, lam=1, epsilon=1, c=1,
                             signs=(-1, 1, 1, 1))
        msgs = validate_signature(spec)
        assert any("eps_0" in m for m in msgs)

    def test_lorentzian_curve_case(self):
        # n = m = 1, timelike tangent: sign counts force lam = 1
        spec = SignatureSpec.from_counts(1, 1, 1, 1, (-1,), (1,))
        assert (spec.p, spec.q, spec.lam) == (1, 0, 1)
        assert validate_signature(spec) == []

    def test_lambda_mismatch_reported_not_repaired(self):
        spec = SignatureSpec(n=1, m=1, N=1, p=1, q=0, lam=0, epsilon=1, c=1,
                             signs=(1, -1, 1))
        msgs = validate_signature(spec)
        assert any("lambda" in m for m in msgs)
        assert spec.lam == 0  # untouched

    def test_last_sign_is_epsilon(self):
        spec = SignatureSpec(n=1, m=1, N=1, p=0, q=0, lam=0, epsilon=-1, c=1,
                             signs=(1, 1, 1))
        msgs = validate_signature(spec)
        assert any("epsilon" in m for m in msgs)


class TestWarping:
    def test_constant(self):
        w = WarpingFunction("constant", amplitude=2.5)
        a, a1, a2 = w.eval(0.7)
        assert (a, a1, a2) == (2.5, 0.0, 0.0)

    def test_cosh_symmetry_point(self):
        a, a1, a2 = WarpingFunction("cosh").eval(0.0)
        assert (a, a1, a2) == (1.0, 0.0, 1.0)

    def test_cos_at_pi_third(self):
        a, a1, a2 = WarpingFunction("cos").eval(np.pi / 3)
        assert a == pytest.approx(0.5, abs=1e-14)
        assert a1 == pytest.approx(-np.sqrt(3) / 2, abs=1e-14)
        assert a2 == pytest.approx(-0.5, abs=1e-14)

    def test_domain_enforced(self):
        w = WarpingFunction("cosh", domain=(-1.0, 1.0))
        with pytest.raises(DomainError):
            w.eval(2.0)

    def test_cos_positivity_enforced(self):
        w = WarpingFunction("cos", domain=(-3.0, 3.0))
        with pytest.raises(DomainError):
            w.eval(2.0)

    def test_tabulated_matches_cosh(self):
        ts = np.linspace(-1, 1, 201)
        w = WarpingFunction("tabulated", domain=(-0.9, 0.9),
                            table_t=tuple(ts), table_a=tuple(np.cosh(ts)))
        a, a1, a2 = w.eval(0.37)
        h = ts[1] - ts[0]
        assert abs(a - np.cosh(0.37)) < 10 * h ** 2
        assert abs(a1 - np.sinh(0.37)) < 10 * h ** 2
        assert abs(a2 - np.cosh(0.37)) < 10 * h


class TestInnerProduct:
    def setup_method(self):
        self.spec = riemannian_spec()
        self.w = WarpingFunction("constant", amplitude=3.0)
        self.p = np.array([1.0, 0.0, 0.0])
        self.point = (0.2, self.p)

    def test_dt_squared_is_epsilon(self):
        dt = AmbientVector.dt(0.2, self.p)
        assert ambient_inner(self.spec, self.w, self.point, dt, dt) == 1.0

    def test_fiber_scaling(self):
        # a = 3, g0(u, v) = 2 gives 18
        u = AmbientVector.fiber_vector([0, 2, 0], 0.2, self.p)
        v = AmbientVector.fiber_vector([0, 1, 0], 0.2, self.p)
        assert ambient_inner(self.spec, self.w, self.point, u, v) == 18.0

    def test_mixed_factors_orthogonal(self):
        dt = AmbientVector.dt(0.2, self.p)
        v = AmbientVector.fiber_vector([0, 1, 0], 0.2, self.p)
        assert ambient_inner(self.spec, self.w, self.point, dt, v) == 0.0

    def test_base_point_mismatch_rejected(self):
        u = AmbientVector.fiber_vector([0, 1, 0], 0.2, self.p)
        v = AmbientVector.fiber_vector([0, 1, 0], 0.5, self.p)
        with pytest.raises(ValueError):
            ambient_inner(self.spec, self.w, self.point, u, v)


class TestWarpedConnection:
    def setup_method(self):
        self.spec = riemannian_spec()
        self.p = np.array([1.0, 0.0, 0.0])

    def test_dt_dt_vanishes(self):
        w = WarpingFunction("cosh")
        dt = AmbientVector.dt(0.4, self.p)
        out = warped_connection(self.spec, w, (0.4, self.p), dt, dt)
        assert out.t_component == 0.0 and np.all(out.fiber == 0.0)

    def test_constant_warping_kills_vertical_term(self):
        w = WarpingFunction("constant")
        v = AmbientVector.fiber_vector([0, 1, 0], 0.4, self.p)
        dt = AmbientVector.dt(0.4, self.p)
        out = warped_connection(self.spec, w, (0.4, self.p), v, dt)
        assert abs(out.t_component) == 0.0 and np.all(out.fiber == 0.0)

    def test_cosh_critical_point(self):
        w = WarpingFunction("cosh")
        v = AmbientVector.fiber_vector([0, 1, 0], 0.0, self.p)
        dt = AmbientVector.dt(0.0, self.p)
        out = warped_connection(self.spec, w, (0.0, self.p), v, dt)
        assert np.abs(out.fiber).max() == 0.0

    def test_metric_compatibility_along_vertical_curve(self):
        # Sample two fiber fields along t, differentiate the inner product.
        spec, p = self.spec, self.p
        w = WarpingFunction("cosh")
        h = 1e-3
        ts = np.array([-h, 0.0, h]) + 0.3

        def Vf(t):
            return np.array([0.0, 1.0 + 0.1 * t, 0.2 * t])

        def Wf(t):
            return np.array([0.0, 0.3 * t, 1.0])

        ips = [ambient_inner(spec, w, (t, p),
                             AmbientVector.fiber_vector(Vf(t), t, p),
                             AmbientVector.fiber_vector(Wf(t), t, p))
               for t in ts]
        lhs = (ips[2] - ips[0]) / (2 * h)
        t0 = 0.3
        V = AmbientVector.fiber_vector(Vf(t0), t0, p)
        W_ = AmbientVector.fiber_vector(Wf(t0), t0, p)
        dt = AmbientVector.dt(t0, p)
        dV = AmbientVector((0.0), (Vf(t0 + h) - Vf(t0 - h)) / (2 * h), t0, p)
        dW = AmbientVector((0.0), (Wf(t0 + h) - Wf(t0 - h)) / (2 * h), t0, p)
        nV = warped_connection(spec, w, (t0, p), dt, V, dW=dV)
        nW = warped_connection(spec, w, (t0, p), dt, W_, dW=dW)
        rhs = (ambient_inner(spec, w, (t0, p), nV, W_, check_tangency=False)
               + ambient_inner(spec, w, (t0, p), V, nW, check_tangency=False))
        assert abs(lhs - rhs) < 20 * h ** 2


def _random_quadric_setup(rng, lorentz=False):
    if lorentz:
        spec = SignatureSpec.from_counts(2, 1, 1, 1, (1, -1), (1,))
        while True:
            x = rng.normal(size=3)
            q = x[0] ** 2 + x[1] ** 2 - x[2] ** 2
            if q > 0.1:
                break
        p = x / np.sqrt(q)
    else:
        spec = riemannian_spec()
        x = rng.normal(size=3)
        p = x / np.linalg.norm(x)
    return spec, p


class TestCurvatureTensors:
    def test_unit_sphere_sectional(self):
        spec = riemannian_spec()
        w = WarpingFunction("constant")
        p = np.array([1.0, 0.0, 0.0])
        u = AmbientVector.fiber_vector([0, 1, 0], 0.0, p)
        v = AmbientVector.fiber_vector([0, 0, 1], 0.0, p)
        assert curvature_bar(spec, w, (0.0, p), u, v, v, u) == pytest.approx(1.0)
        assert curvature_bar(spec, w, (0.0, p), u, u, v, u) == 0.0

    def test_flat_fiber_constant_warp_is_flat(self, rng):
        spec = riemannian_spec()
        w = WarpingFunction("constant")
        p = np.array([1.0, 0.0, 0.0])
        vecs = [AmbientVector(rng.normal(), rng.normal(size=3), 0.0, p)
                for _ in range(4)]
        assert curvature_tilde(spec, w, (0.0, p), *vecs) == pytest.approx(0.0)

    def test_cosh_vertical_sectional(self):
        spec = riemannian_spec()
        w = WarpingFunction("cosh")
        p = np.array([1.0, 0.0, 0.0])
        dt = AmbientVector.dt(0.0, p)
        Y = AmbientVector.fiber_vector([0, 1, 0], 0.0, p)
        assert curvature_tilde(spec, w, (0.0, p), dt, Y, Y, dt,
                               first_coeff="squared") == pytest.approx(-1.0)
        assert curvature_tilde(spec, w, (0.0, p), dt, Y, dt, Y,
                               first_coeff="squared") == pytest.approx(1.0)

    def test_symmetries_randomized(self, rng):
        spec = riemannian_spec()
        w = WarpingFunction("cosh")
        for lorentz in (False, True):
            spec, p = _random_quadric_setup(rng, lorentz)
            t = rng.uniform(-0.5, 0.5)
            for _ in range(20):
                X, Y, Z, W_ = [
                    AmbientVector(rng.normal(),
                                  quadric_project(spec, p, rng.normal(size=3)),
                                  t, p) for _ in range(4)]
                args = (spec, w, (t, p))
                base = curvature_bar(*args, X, Y, Z, W_)
                assert curvature_bar(*args, Y, X, Z, W_) == pytest.approx(
                    -base, abs=1e-12)
                assert curvature_bar(*args, X, Y, W_, Z) == pytest.approx(
                    -base, abs=1e-12)
                assert curvature_bar(*args, Z, W_, X, Y) == pytest.approx(
                    base, abs=1e-12)
                baset = curvature_tilde(*args, X, Y, Z, W_)
                assert curvature_tilde(*args, Y, X, Z, W_) == pytest.approx(
                    -baset, abs=1e-12)

    def test_constant_curvature_degeneracies(self):
        ts = np.linspace(-1.2, 1.2, 100)
        spec = SignatureSpec.from_counts(2, 1, -1, 1, (1, 1), (-1,))
        _, k2 = curvature_coefficients(spec, WarpingFunction("cosh"), ts)
        assert np.abs(k2).max() <= 1e-12
        spec = riemannian_spec()
        _, k2 = curvature_coefficients(
            spec, WarpingFunction("cos", domain=(-1.4, 1.4)),
            np.linspace(-1.3, 1.3, 100))
        assert np.abs(k2).max() <= 1e-12

    def test_radial_curvature_rule(self, rng):
        # <R(V, dt) dt, W> = -(a''/a) <V, W> on fiber vectors, with the
        # squared leading coefficient.
        spec = riemannian_spec()
        w = WarpingFunction("cosh")
        p = np.array([0.0, 1.0, 0.0])
        for _ in range(10):
            t = rng.uniform(-0.7, 0.7)
            a, _, a2 = w.eval(t)
            V = AmbientVector.fiber_vector(rng.normal(size=3), t, p)
            W_ = AmbientVector.fiber_vector(rng.normal(size=3), t, p)
            dt = AmbientVector.dt(t, p)
            got = curvature_tilde(spec, w, (t, p), V, dt, dt, W_,
                                  first_coeff="squared")
            want = -(a2 / a) * ambient_inner(spec, w, (t, p), V, W_,
                                             check_tangency=False)
            assert got == pytest.approx(want, abs=1e-10 * max(1, abs(want)))

    def test_leading_coefficient_consistency(self, rng):
        # Only the squared variant closes the Gauss reduction through the
        # umbilical inclusion of the quadric.
        spec = riemannian_spec()
        w = WarpingFunction("cosh")
        worst_sq, worst_printed = 0.0, 0.0
        for _ in range(20):
            spec_, p = _random_quadric_setup(rng)
            t = rng.uniform(-0.8, 0.8)
            vecs = [AmbientVector(rng.normal(),
                                  quadric_project(spec_, p, rng.normal(size=3)),
                                  t, p) for _ in range(4)]
            worst_sq = max(worst_sq, quadric_inclusion_gauss_residual(
                spec_, w, (t, p), *vecs, first_coeff="squared"))
            worst_printed = max(worst_printed, quadric_inclusion_gauss_residual(
                spec_, w, (t, p), *vecs, first_coeff="as_printed"))
        assert worst_sq <= 1e-10
        assert worst_printed > 1e-3


class TestMembership:
    def test_examples(self):
        spec = riemannian_spec()
        assert space_form_membership(spec, [1, 0, 0]) == 0.0
        assert space_form_membership(spec, [2, 0, 0]) == 3.0
        hyp = SignatureSpec.from_counts(1, 1, 1, -1, (1,), (1,))
        assert hyp.signs[0] == -1
        assert space_form_membership(hyp, [1, 0]) == 0.0
