import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import (curvature_bar, curvature_tilde,
                                quadric_inclusion_gauss_residual)
from warpframe import (SignatureSpec, WarpingFunction, curvature_coefficients,
                       validate_signature, warped_dot, warped_lower,
                       warped_nabla)
from warpframe import jets
from warpframe.errors import DomainError


def riemannian_spec(n=2, m=1):
    return SignatureSpec.from_counts(n, m, 1, 1, (1,) * n, (1,) * m)


def vec(t_component, fiber):
    """t-first ambient vector (N+2,)."""
    return np.concatenate([[float(t_component)], np.asarray(fiber, float)])


def quadric_project(spec, p, w):
    """The fiber vector w minus its g0-component along the quadric
    position p: tangent to {g0(p, p) = c} at p."""
    return w - spec.c * float(np.dot(spec.fiber_signs * w, p)) * p


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

    def test_tabulated_positivity_enforced(self):
        # Samples 0.1, 0.1, 1.0 at t = 1, 2, 3: the local quadratic reads
        # 0.1 - 0.45 * 0.25 < 0 at t = 1.5.
        w = WarpingFunction("tabulated", table_t=(0.0, 1.0, 2.0, 3.0),
                            table_a=(1.0, 0.1, 0.1, 1.0))
        with pytest.raises(DomainError, match="stay positive"):
            w.eval(np.array([0.5, 1.5]))


    @pytest.mark.parametrize("kind, f", [
        ("cosh", (np.cosh, np.sinh, np.cosh)),
        ("cos", (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))),
        ("exp", (np.exp, np.exp, np.exp))])
    def test_closed_forms_and_jets(self, kind, f):
        # amplitude * rate^j * f_j(u), and the jet entry points carry the
        # same values as eval
        w = WarpingFunction(kind, amplitude=1.7, rate=0.6, shift=-0.3)
        t = np.linspace(-0.9, 0.9, 7)
        u = 0.6 * (t + 0.3)
        for j, got in enumerate(w.eval(t)):
            np.testing.assert_allclose(got, 1.7 * 0.6 ** j * f[j](u),
                                       rtol=1e-15, atol=1e-15)
        tj = jets.Jet(t, [np.ones_like(t)])
        a, a1, _ = w.eval(t)
        assert np.array_equal(jets.value(w.derivative(tj, 0)), a)
        assert np.array_equal(jets.value(w.derivative(tj, 1)), a1)
        np.testing.assert_allclose(w.derivative(tj, 0).parts[0], a1,
                                   rtol=1e-15)

    def test_constant_signed_zeros(self):
        # a' = 0 t keeps the sign of t; a'' is +0 everywhere
        a, a1, a2 = WarpingFunction("constant").eval(np.array([-0.5, 0.5]))
        assert np.array_equal(a, [1.0, 1.0])
        assert np.signbit(a1).tolist() == [True, False]
        assert not np.signbit(a2).any()

class TestInnerProduct:
    def setup_method(self):
        self.spec = riemannian_spec()
        a = WarpingFunction("constant", amplitude=3.0).eval(0.2)[0]
        self.a2 = a * a

    def test_dt_squared_is_epsilon(self):
        dt = vec(1.0, [0, 0, 0])
        assert warped_dot(self.spec, self.a2, dt, dt) == 1.0

    def test_fiber_scaling(self):
        # a = 3, g0(u, v) = 2 gives 18
        u, v = vec(0.0, [0, 2, 0]), vec(0.0, [0, 1, 0])
        assert warped_dot(self.spec, self.a2, u, v) == 18.0

    def test_mixed_factors_orthogonal(self):
        dt, v = vec(1.0, [0, 0, 0]), vec(0.0, [0, 1, 0])
        assert warped_dot(self.spec, self.a2, dt, v) == 0.0

    def test_lowered_vector_contracts_to_the_dot(self, rng):
        # (..., N+2, *ext) vectors with one leading axis over a 4 x 5 grid.
        spec = SignatureSpec.from_counts(2, 2, -1, -1, (1, -1), (1, -1))
        a2 = rng.uniform(0.5, 2.0, (4, 5))
        u = rng.normal(size=(3, 5, 4, 5))
        v = rng.normal(size=(5, 4, 5))
        got = np.einsum("jA...,A...->j...", warped_lower(spec, a2, u), v)
        np.testing.assert_allclose(got, warped_dot(spec, a2, u, v),
                                   rtol=1e-13, atol=1e-13)


class TestWarpedConnection:
    def setup_method(self):
        self.spec = riemannian_spec()
        self.zero = np.zeros(4)

    def nabla(self, w, t, V, Y, dY=None):
        a, a1, _ = w.eval(t)
        return warped_nabla(self.spec, a, a1, V, Y,
                            self.zero if dY is None else dY)

    def test_dt_dt_vanishes(self):
        dt = vec(1.0, [0, 0, 0])
        out = self.nabla(WarpingFunction("cosh"), 0.4, dt, dt)
        assert np.all(out == 0.0)

    def test_constant_warping_kills_vertical_term(self):
        v, dt = vec(0.0, [0, 1, 0]), vec(1.0, [0, 0, 0])
        out = self.nabla(WarpingFunction("constant"), 0.4, v, dt)
        assert np.all(out == 0.0)

    def test_cosh_critical_point(self):
        v, dt = vec(0.0, [0, 1, 0]), vec(1.0, [0, 0, 0])
        out = self.nabla(WarpingFunction("cosh"), 0.0, v, dt)
        assert np.abs(out[1:]).max() == 0.0

    def test_metric_compatibility_along_vertical_curve(self):
        # Sample two fiber fields along t, differentiate the inner product.
        spec = self.spec
        w = WarpingFunction("cosh")
        h = 1e-3
        ts = np.array([-h, 0.0, h]) + 0.3

        def Vf(t):
            return vec(0.0, [0.0, 1.0 + 0.1 * t, 0.2 * t])

        def Wf(t):
            return vec(0.0, [0.0, 0.3 * t, 1.0])

        ips = [warped_dot(spec, w.eval(t)[0] ** 2, Vf(t), Wf(t)) for t in ts]
        lhs = (ips[2] - ips[0]) / (2 * h)
        t0 = 0.3
        dt = vec(1.0, [0, 0, 0])
        dV = (Vf(t0 + h) - Vf(t0 - h)) / (2 * h)
        dW = (Wf(t0 + h) - Wf(t0 - h)) / (2 * h)
        nV = self.nabla(w, t0, dt, Vf(t0), dV)
        nW = self.nabla(w, t0, dt, Wf(t0), dW)
        a2 = w.eval(t0)[0] ** 2
        rhs = (warped_dot(spec, a2, nV, Wf(t0))
               + warped_dot(spec, a2, Vf(t0), nW))
        assert abs(lhs - rhs) < 20 * h ** 2


# Kernel properties over the signature space: eps, c, the fiber signs
# (lambda of them negative) and every warping kind. Both identities hold
# exactly for the Levi-Civita connection of eps*I x_a E^{N+1}, and jets
# supply exact derivatives, so only roundoff separates the two sides.

def _warping(kind, amp, rate, shift):
    if kind == "constant":
        return WarpingFunction("constant", amplitude=amp)
    if kind == "cos":
        # |rate (t - shift)| <= 0.9 * 1.5 < pi/2 for |t| <= 1: a > 0.
        return WarpingFunction("cos", amplitude=amp, rate=rate, shift=shift,
                               domain=(-1.0, 1.0))
    if kind == "tabulated":
        ts = np.linspace(-1.5, 1.5, 31)
        table = amp * np.cosh(rate * (ts - shift))
        return WarpingFunction("tabulated", domain=(-1.0, 1.0),
                               table_t=tuple(ts), table_a=tuple(table))
    return WarpingFunction(kind, amplitude=amp, rate=rate, shift=shift)


signature_space = dict(
    eps=st.sampled_from([-1, 1]), c=st.sampled_from([-1, 1]),
    tail=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3),
    kind=st.sampled_from(["constant", "cosh", "exp", "cos", "tabulated"]),
    amp=st.floats(0.5, 2.0), rate=st.floats(0.3, 0.9),
    shift=st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1))


def _spec(eps, c, tail):
    """Spec whose fiber signs are (c, *tail)."""
    return SignatureSpec.from_counts(len(tail), 1, eps, c, tail, (eps,))


def _jet_vectors(rng, xs, count, size):
    """count t-first vectors (size, *ext): smooth functions with random
    coefficients of the jet coordinates xs."""
    out = []
    for _ in range(count):
        v = jets.zeros((size,) + np.shape(jets.value(xs[0])), like=xs[0])
        for i in range(size):
            c = rng.normal(size=len(xs) + 3)
            u = sum(ck * x for ck, x in zip(c, xs))
            v[i] = c[-3] + c[-2] * (u * u) + c[-1] * jets.sin(
                u + xs[0] * xs[-1])
        out.append(v)
    return out


def _sup(*xs):
    return max(float(np.abs(x).max()) for x in xs)


@settings(max_examples=60, deadline=None, database=None)
@given(**signature_space)
def test_metric_compatibility_on_jets(eps, c, tail, kind, amp, rate, shift,
                                      seed):
    """d<Y, Z>/ds = <nabla_V Y, Z> + <Y, nabla_V Z> along a curve X(s)
    with V = X'(s), for fields Y, Z along it."""
    spec, w = _spec(eps, c, tail), _warping(kind, amp, rate, shift)
    rng = np.random.default_rng(seed)
    s = jets.seed([np.linspace(-0.5, 0.5, 7)], 1)[0]
    X, Y, Z = _jet_vectors(rng, [s], 3, spec.N + 2)
    X[0] = rng.uniform(-0.4, 0.4) + rng.uniform(-0.5, 0.5) * s   # t(s)
    t = X[0]
    a, a1 = w.derivative(t, 0), w.derivative(t, 1)
    lhs = jets.part(warped_dot(spec, a * a, Y, Z), 0)
    av, a1v = jets.value(a), jets.value(a1)
    V, Yv, Zv = (jets.value(jets.part(X, 0)), jets.value(Y), jets.value(Z))
    dY, dZ = jets.part(Y, 0), jets.part(Z, 0)
    rhs = (warped_dot(spec, av * av, warped_nabla(spec, av, a1v, V, Yv, dY),
                      Zv)
           + warped_dot(spec, av * av, Yv,
                        warped_nabla(spec, av, a1v, V, Zv, dZ)))
    scale = ((1 + _sup(av) ** 2 + _sup(av * a1v)) * (1 + _sup(V))
             * (1 + _sup(Yv, dY)) * (1 + _sup(Zv, dZ)))
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None, database=None)
@given(**signature_space)
def test_torsion_free_on_nested_jets(eps, c, tail, kind, amp, rate, shift,
                                     seed):
    """nabla_{d_k} d_l f = nabla_{d_l} d_k f for a map f of a 2-d chart,
    its tangents and second derivatives read off nested jets; all (k, l)
    at once through the leading axes."""
    spec, w = _spec(eps, c, tail), _warping(kind, amp, rate, shift)
    rng = np.random.default_rng(seed)
    x = np.meshgrid(*[np.linspace(-0.3, 0.3, 5)] * 2, indexing="ij")
    f, = _jet_vectors(rng, jets.seed(x, 2), 1, spec.N + 2)
    f[0] = 0.3 * jets.sin(f[0])                 # keep t inside [-1, 1]
    t = jets.value(f[0])
    a, a1 = w.derivative(t, 0), w.derivative(t, 1)
    V = np.stack([jets.value(jets.part(f, k)) for k in range(2)])
    D = np.stack([[jets.part(jets.part(f, l), k) for l in range(2)]
                  for k in range(2)])
    nab = warped_nabla(spec, a, a1, V[:, None], V[None], D)
    scale = ((1 + _sup(a) ** 2 + _sup(a1 / a) + _sup(a * a1))
             * (1 + _sup(V)) ** 2 + _sup(D))
    assert np.abs(nab - np.swapaxes(nab, 0, 1)).max() <= 1e-12 * scale


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
        u, v = vec(0.0, [0, 1, 0]), vec(0.0, [0, 0, 1])
        assert curvature_bar(spec, w, 0.0, u, v, v, u) == pytest.approx(1.0)
        assert curvature_bar(spec, w, 0.0, u, u, v, u) == 0.0

    def test_flat_fiber_constant_warp_is_flat(self, rng):
        spec = riemannian_spec()
        w = WarpingFunction("constant")
        vecs = [vec(rng.normal(), rng.normal(size=3)) for _ in range(4)]
        assert curvature_tilde(spec, w, 0.0, *vecs) == pytest.approx(0.0)

    def test_cosh_vertical_sectional(self):
        spec = riemannian_spec()
        w = WarpingFunction("cosh")
        dt, Y = vec(1.0, [0, 0, 0]), vec(0.0, [0, 1, 0])
        assert curvature_tilde(spec, w, 0.0, dt, Y, Y, dt,
                               first_coeff="squared") == pytest.approx(-1.0)
        assert curvature_tilde(spec, w, 0.0, dt, Y, dt, Y,
                               first_coeff="squared") == pytest.approx(1.0)

    def test_symmetries_randomized(self, rng):
        w = WarpingFunction("cosh")
        for lorentz in (False, True):
            spec, p = _random_quadric_setup(rng, lorentz)
            t = rng.uniform(-0.5, 0.5)
            for _ in range(20):
                X, Y, Z, W_ = [
                    vec(rng.normal(),
                        quadric_project(spec, p, rng.normal(size=3)))
                    for _ in range(4)]
                args = (spec, w, t)
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
        dt = vec(1.0, [0, 0, 0])
        for _ in range(10):
            t = rng.uniform(-0.7, 0.7)
            a, _, a2 = w.eval(t)
            V = vec(0.0, rng.normal(size=3))
            W_ = vec(0.0, rng.normal(size=3))
            got = curvature_tilde(spec, w, t, V, dt, dt, W_,
                                  first_coeff="squared")
            want = -(a2 / a) * warped_dot(spec, a * a, V, W_)
            assert got == pytest.approx(want, abs=1e-10 * max(1, abs(want)))

    def test_leading_coefficient_consistency(self, rng):
        # Only the squared variant closes the Gauss reduction through the
        # umbilical inclusion of the quadric.
        w = WarpingFunction("cosh")
        worst_sq, worst_printed = 0.0, 0.0
        for _ in range(20):
            spec_, p = _random_quadric_setup(rng)
            t = rng.uniform(-0.8, 0.8)
            vecs = [vec(rng.normal(),
                        quadric_project(spec_, p, rng.normal(size=3)))
                    for _ in range(4)]
            worst_sq = max(worst_sq, quadric_inclusion_gauss_residual(
                spec_, w, t, *vecs, first_coeff="squared"))
            worst_printed = max(worst_printed, quadric_inclusion_gauss_residual(
                spec_, w, t, *vecs, first_coeff="as_printed"))
        assert worst_sq <= 1e-10
        assert worst_printed > 1e-3


class TestMembership:
    """The quadric equation g0(p, p) = c: g0 is the warped metric at a = 1
    on vectors without a t component."""

    @staticmethod
    def membership(spec, p):
        u = vec(0.0, p)
        return abs(warped_dot(spec, 1.0, u, u) - spec.c)

    def test_examples(self):
        spec = riemannian_spec()
        assert self.membership(spec, [1, 0, 0]) == 0.0
        assert self.membership(spec, [2, 0, 0]) == 3.0
        hyp = SignatureSpec.from_counts(1, 1, 1, -1, (1,), (1,))
        assert hyp.signs[0] == -1
        assert self.membership(hyp, [1, 0]) == 0.0
