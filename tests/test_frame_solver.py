import functools
import itertools
import weakref
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chain_reference
import expm_reference
import path_reference
from geometry_reference import s_tensor
from warpframe import (ChartGrid, ExplicitImmersion, GeometricData,
                       SignatureSpec, WarpingFunction, canonical_example,
                       example_names, frame_solver, jets, make_example,
                       oracle)
from warpframe.errors import (IntegrationBlowup, InvariantViolation,
                              NonConvergence)
from warpframe.frame_solver import (_ASSEMBLY_FIELDS, _TAYLOR, FrameField,
                                    _abs_max, _assemble, _chain,
                                    _grid_first, _grid_last, _group_defect,
                                    _one_norms, _taylor, assemble_all,
                                    assembled_derivatives, build_base_frame,
                                    expm, integrate_frame,
                                    path_independence_defect,
                                    pseudo_orthonormalize)
from warpframe.oracle import (_grid_tag, exact_base_frame, exact_frame_field,
                              induce_data)
from warpframe.stencils import grad1
from warpframe.verifier import ResidualReport


def assert_base_frame(B0, data, group_tol, row_tol):
    """B0 is on the group and its last row is T_beta at the base node."""
    assert _group_defect(B0, np.diag(data.spec.G))[0] <= group_tol
    row = data.delta_all()[tuple(data.grid.base_node)]
    assert np.abs(B0[-1] - row).max() <= row_tol


def taylor_expm(K, terms=40):
    """Independent matrix exponential: scaling by powers of two plus a
    truncated series."""
    K = np.asarray(K, dtype=float)
    s = max(0, int(np.ceil(np.log2(max(np.abs(K).sum(axis=1).max(), 1e-30))))
            + 1)
    A = K / 2.0 ** s
    out = np.eye(K.shape[0])
    term = np.eye(K.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def serial_sweep(data, B0, upsilon=None):
    """Step-by-step reference sweep: one scipy exponential and one matmul
    per step, re-projection after every 16 steps."""
    grid, spec = data.grid, data.spec
    n, M = spec.n, spec.size
    base = tuple(grid.base_node)
    Ups = upsilon if upsilon is not None else assemble_all(data)["Upsilon"]
    B = np.full(tuple(grid.extents) + (M, M), np.nan)
    B[base] = B0
    for axis in range(n):
        lead = (slice(None),) * axis
        suffix = base[axis + 1:]
        h = grid.spacing[axis]
        for direction in (1, -1):
            stop = grid.extents[axis] if direction > 0 else -1
            js = range(base[axis] + direction, stop, direction)
            for steps, j in enumerate(js, 1):
                prev = lead + (j - direction,) + suffix
                cur = lead + (j,) + suffix
                K = 0.5 * direction * h * (Ups[prev + (Ellipsis, axis)]
                                           + Ups[cur + (Ellipsis, axis)])
                Bn = B[prev] @ scipy.linalg.expm(K)
                if steps % 16 == 0:
                    Bn = pseudo_orthonormalize(Bn, spec.G)
                B[cur] = Bn
    return B


def serial_chain(B0, P, interval, G):
    """Step-by-step reference of _chain: one matmul per step and a
    re-projection after every `interval` steps."""
    out, B = [], B0
    for steps, Pi in enumerate(P, 1):
        B = B @ Pi
        if steps % interval == 0:
            B = pseudo_orthonormalize(B, G)
        out.append(B)
    return np.stack(out)


def flat_strip_data(extent=9):
    """Constant fields: Upsilon vanishes identically."""
    spec = SignatureSpec.from_counts(1, 1, 1, 1, (1,), (1,))
    w = WarpingFunction("constant")
    grid = ChartGrid((extent,), (0.1,), (0.0,), (extent // 2,))
    return GeometricData(
        spec, w, grid,
        frame=np.broadcast_to(np.eye(1), (extent, 1, 1)).copy(),
        omega_tangent=np.zeros((extent, 1, 1, 1)),
        omega_bundle=np.zeros((extent, 1, 1, 1)),
        alpha=np.zeros((extent, 1, 1, 1)),
        T_comp=np.zeros((extent, 1)),
        xi_comp=np.ones((extent, 1)),
        pi=np.full((extent,), 0.3))


def _oracle_case(name, **params):
    def build(refine, warping):
        grid = make_example(name, params).grid.refine(refine)
        extra = {"warping": warping} if warping else {}
        return make_example(name, {**params, **_grid_tag(grid), **extra})
    return build


def _tilted_desitter(refine, warping):
    """A spacelike surface in -dt^2 + cosh(t)^2 g(S^2) whose height varies
    across the chart: eps = -1 with T != 0, which no oracle family has."""
    spec = SignatureSpec.from_counts(2, 1, -1, 1, (1, 1), (-1,))
    grid = ChartGrid((9, 9), (0.05, 0.05), (-0.2, -0.2), (4, 4))

    def map_fn(x):
        p0 = jets.sqrt(1.0 - x[0] * x[0] - x[1] * x[1])
        return 0.25 + 0.4 * x[0] + 0.3 * x[0] * x[1], [p0, x[0], x[1]]

    return ExplicitImmersion(spec, WarpingFunction(warping or "cosh"),
                             grid.refine(refine), map_fn)


def _graph_surface(refine, warping):
    """A surface in eps I x_cosh H^3 (n = m = 2, eps = +1, c = -1) on a
    graph over the quadric, with the height varying in both directions: a
    curved normal bundle (omega_bundle != 0) with T != 0, which no oracle
    family has."""
    c = -1
    spec = SignatureSpec.from_counts(2, 2, 1, c, (1, 1), (1, 1))
    grid = ChartGrid((13, 13), (0.03, 0.03), (-0.18, -0.18), (6, 6))
    chart = oracle._graph_chart((c, 1, 1, 1), c)

    def map_fn(x):
        u, v = x
        return (0.2 + 0.35 * u + 0.25 * v * v,
                chart([u, v, 0.8 * u * v + 0.3 * u * u]))

    return ExplicitImmersion(spec, WarpingFunction(warping or "cosh"),
                             grid.refine(refine), map_fn)


# One dataset per corner of the signature space: n = 1, 2 and 3, a
# Lorentzian chart, eps = -1 with and without a vertical tangent part, a
# bundle of rank m = 2, and a curved normal bundle in a c = -1 fiber.
SIGNATURE_CASES = {
    "slice_n2": _oracle_case("slice", n=2),
    "slice_n3": _oracle_case("slice", n=3, grid_extents=[7, 7, 7],
                             grid_spacing=[0.05, 0.05, 0.05]),
    "lorentz_cylinder": _oracle_case("lorentz_cylinder"),
    "desitter_slice": _oracle_case("desitter_slice"),
    "tilted_desitter": _tilted_desitter,
    "graph_surface": _graph_surface,
    "great_subsphere": _oracle_case("great_subsphere"),
    "helix": _oracle_case("helix"),
}


@functools.cache
def signature_case(key, refine=1, warping=None):
    """(ExplicitImmersion, GeometricData) of a signature case, on its grid
    refined `refine` times, optionally with another warping function."""
    imm = SIGNATURE_CASES[key](refine, warping)
    return imm, induce_data(imm)


def reference_forms(data, node):
    """Omega and X (M, M, n) at one node, one entry at a time, from the
    definitions in the frame_solver docstring: frame slot 0 is the fiber
    normal, 1..n the tangent frame, n+1..n+m the bundle frame, N+1 the
    vertical slot; omega_alpha is the coframe, T_alpha = delta(e_alpha)."""
    spec = data.spec
    n, m, M = spec.n, spec.m, spec.size
    eps, sgn = spec.epsilon, spec.signs
    C = data.inv_frame[node]                 # d/dx_k = sum_i C[k, i] e_i
    Ta = data.delta_all()[node]
    a, a1, _ = (float(v[node]) for v in data.warp_values())

    def coframe(al, k):
        return C[k, al - 1] if 1 <= al <= n else 0.0

    Om = np.zeros((M, M, n))
    X = np.zeros((M, M, n))
    for k in range(n):
        S_tan, S_bun = s_tensor(data, node, C[k])     # S(d/dx_k)
        for i in range(n):
            Om[1 + i, 0, k] = -S_tan[i]
            for j in range(n):
                Om[1 + i, 1 + j, k] = data.omega_tangent[node][i, j, k]
        for u in range(m):
            Om[1 + n + u, 0, k] = -S_bun[u]
            for v in range(m):
                Om[1 + n + u, 1 + n + v, k] = data.omega_bundle[node][u, v, k]
            for i in range(n):
                # alpha(d/dx_k, e_i)^u
                aki = sum(C[k, j] * data.alpha[node][u, j, i]
                          for j in range(n))
                Om[1 + n + u, 1 + i, k] = aki
                Om[1 + i, 1 + n + u, k] = -sgn[1 + i] * sgn[1 + n + u] * aki
        for be in range(1, M):
            Om[0, be, k] = -sgn[0] * sgn[be] * Om[be, 0, k]
        for al in range(M):
            for be in range(M):
                X[al, be, k] = eps * a1 / a * (
                    Ta[be] * coframe(al, k)
                    - sgn[al] * sgn[be] * Ta[al] * coframe(be, k))
    return Om, X


class TestAssembly:
    def test_omega_is_group_skew(self):
        for key in SIGNATURE_CASES:
            _, data = signature_case(key)
            g = np.asarray(data.spec.signs, dtype=float)
            Om = assemble_all(data)["Omega"]
            skew = Om + np.einsum("a,b,...bak->...abk", g, g, Om)
            assert np.abs(skew).max() <= 1e-14, key

    def test_constant_warping_kills_X(self):
        assert np.abs(assemble_all(flat_strip_data())["X"]).max() == 0.0
        for key in SIGNATURE_CASES:
            _, data = signature_case(key, warping="constant")
            assert np.abs(assemble_all(data)["X"]).max() == 0.0, key

    def test_upsilon_traceless(self):
        for key in SIGNATURE_CASES:
            _, data = signature_case(key)
            tr = np.einsum("...aak->...k", assemble_all(data)["Upsilon"])
            assert np.abs(tr).max() <= 1e-15, key

    @pytest.mark.parametrize("key", SIGNATURE_CASES)
    def test_matches_scalar_transcription(self, key, rng):
        _, data = signature_case(key)
        forms = assemble_all(data)
        ext = data.grid.extents
        for _ in range(5):
            node = tuple(int(rng.integers(e)) for e in ext)
            Om, X = reference_forms(data, node)
            np.testing.assert_allclose(forms["Omega"][node], Om,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(forms["X"][node], X, rtol=0,
                                       atol=1e-14)
            np.testing.assert_array_equal(forms["Upsilon"][node],
                                          forms["Omega"][node]
                                          - forms["X"][node])

    # The FD error constant C of the gap bound C h^2. graph_surface's forms
    # have large third derivatives (|omega_bundle| reaches 2.2): its gap is
    # 41.8 h^2 at h = 0.015 and falls 3.95x per halving; the other cases
    # stay below 2.5 h^2.
    FD_CONSTANT = {"graph_surface": 50.0}

    @pytest.mark.parametrize("key", SIGNATURE_CASES)
    def test_analytic_derivatives_match_fd(self, key):
        # Jet assembly of dUpsilon against second-order differences of the
        # numeric Upsilon: the gap is the FD error, so it falls about 4x
        # per halving of h.
        gaps = []
        for refine in (1, 2):
            _, data = signature_case(key, refine)
            nd = data.grid.n
            ups = assemble_all(data, "Upsilon")["Upsilon"]
            gaps.append(max(
                np.abs(_grid_first(e, nd)
                       - grad1(ups, k, data.grid.spacing[k])).max()
                for k, e in enumerate(assembled_derivatives(data))))
        assert gaps[1] <= (self.FD_CONSTANT.get(key, 10.0)
                           * data.grid.max_spacing ** 2)
        assert 3.3 <= gaps[0] / gaps[1] <= 4.7


def fresh_assembly(data):
    """assemble_all without the memo: _assemble on the dataset fields, its
    outputs copied to contiguous grid-major arrays, Upsilon formed there."""
    nd = data.grid.n
    a, a1, _ = data.warp_values()
    Om, X, W = _assemble(data.spec, *(
        _grid_last(getattr(data, name), nd) for name in _ASSEMBLY_FIELDS),
        a, a1)
    Om, X, W = (np.ascontiguousarray(_grid_first(v, nd)) for v in (Om, X, W))
    return {"Omega": Om, "X": X, "Upsilon": Om - X, "W": W}


def memo_cases():
    """The six fixtures and slice n = 3, each as a fresh dataset."""
    for name in example_names():
        yield name, canonical_example(name, {})[1]
    yield "slice_n3", signature_case("slice_n3")[1]


class TestAssemblyMemo:
    def test_second_call_returns_the_same_upsilon(self, slice17):
        # Upsilon is held; Omega, X and W are assembled afresh, alike.
        _, data = slice17
        first, second = assemble_all(data), assemble_all(data)
        assert sorted(first) == ["Omega", "Upsilon", "W", "X"]
        assert second["Upsilon"] is first["Upsilon"]
        for name in ("Omega", "X", "W"):
            assert second[name] is not first[name], name
            assert second[name].tobytes() == first[name].tobytes(), name

    def test_arrays_are_read_only(self, slice17):
        _, data = slice17
        for name, arr in assemble_all(data).items():
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
            with pytest.raises(ValueError):
                _grid_last(arr, data.grid.n)[...] = 0.0

    def test_views_of_component_major_memory(self, slice17):
        _, data = slice17
        for name, arr in assemble_all(data).items():
            assert _grid_last(arr, data.grid.n).flags.c_contiguous, name

    def test_byte_identical_to_unmemoized_assembly(self):
        for key, data in memo_cases():
            memo, ref = assemble_all(data), fresh_assembly(data)
            for name in ref:
                assert memo[name].shape == ref[name].shape, (key, name)
                assert memo[name].tobytes() == ref[name].tobytes(), (key,
                                                                    name)

    def test_holds_upsilon_alone(self, held_forms):
        _, data = canonical_example("slice", {"n": 2})
        first = assemble_all(data)
        # No reference to the memory behind Omega stays.
        omega = weakref.ref(first.pop("Omega").base)
        assert omega() is None
        assert held_forms(data) == {"Upsilon"}
        # Integration asks for Upsilon alone and gets the held array.
        assert assemble_all(data, "Upsilon")["Upsilon"] is first["Upsilon"]
        B0 = build_base_frame(data)
        after = integrate_frame(data, B0)
        assert held_forms(data) == {"Upsilon"}
        assert after.B.tobytes() == integrate_frame(
            data, B0, upsilon=fresh_assembly(data)["Upsilon"]).B.tobytes()

    def test_any_request_keeps_upsilon(self, held_forms):
        # Whatever the first call asks for, it keeps Upsilon alone, and
        # every later call returns that array.
        for first in (("Upsilon",), ("Omega", "W"), ("X",), ()):
            _, data = canonical_example("slice", {"n": 2})
            got = assemble_all(data, *first)
            assert sorted(got) == sorted(first or ("Omega", "Upsilon", "W",
                                                   "X"))
            assert held_forms(data) == {"Upsilon"}, first
            ups = assemble_all(data, "Upsilon")["Upsilon"]
            forms = assemble_all(data)
            assert forms["Upsilon"] is ups, first
            assert held_forms(data) == {"Upsilon"}, first
            ref = fresh_assembly(data)
            for name in ref:
                assert forms[name].tobytes() == ref[name].tobytes(), name
                assert not forms[name].flags.writeable, name

    def test_integrate_frame_matches_fresh_upsilon(self):
        for key, data in memo_cases():
            B0 = build_base_frame(data)
            memo = integrate_frame(data, B0)
            fresh = integrate_frame(data, B0,
                                    upsilon=fresh_assembly(data)["Upsilon"])
            assert memo.B.tobytes() == fresh.B.tobytes(), key
            assert memo.diagnostics == fresh.diagnostics, key


def flat_strip_data_2d():
    """Constant fields on a 5 x 5 grid with the base node at a corner."""
    spec = SignatureSpec.from_counts(2, 1, 1, 1, (1, 1), (1,))
    w = WarpingFunction("constant")
    grid = ChartGrid((5, 5), (0.1, 0.1), (0.0, 0.0), (0, 0))
    return GeometricData(
        spec, w, grid,
        frame=np.broadcast_to(np.eye(2), (5, 5, 2, 2)).copy(),
        omega_tangent=np.zeros((5, 5, 2, 2, 2)),
        omega_bundle=np.zeros((5, 5, 1, 1, 2)),
        alpha=np.zeros((5, 5, 1, 2, 2)),
        T_comp=np.zeros((5, 5, 2)),
        xi_comp=np.ones((5, 5, 1)),
        pi=np.full((5, 5), 0.3))


def _scaled(rng, shape, norm):
    """Gaussian matrices rescaled to the given 1-norm."""
    X = rng.standard_normal(shape)
    return X * (norm / np.abs(X).sum(axis=-2).max(axis=-1))[..., None, None]


_THETA = {m: theta for m, _, theta in _TAYLOR}


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _exact_expm(K):
    """40-digit exponential of one matrix, rounded to floats."""
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(K.tolist())).tolist(),
                        dtype=float)


def _group_defect_bound(K, g):
    """A first-order bound on max |R^t G R - G| for R = expm(K), K G-skew.

    Without squarings (|K|_1 <= theta_16) expm returns R = T_m(K), m the
    lowest degree whose theta_m bounds |K|_1, and the bound is the
    a-priori one this test has always asserted there,

        b(R) = 1e-13 max(1, |R|^2_max)

    on the largest entry of the defect as computed: roundoff relative to
    |R|^2, since boosts have large entries. With s > 0 squarings expm
    returns R_0^(2^s), R_0 = T_16(K / 2^s) (here m = 16, as
    |K / 2^s|_1 > theta_16 / 2 > theta_12), and |K / 2^s|_1 <= theta_16
    puts R_0 in that same regime, so b(R_0) bounds the entries of its
    defect and |D(R_0)|_2 <= M b(R_0). The defect D(X) = X^t G X - G obeys
    D(XY) = Y^t D(X) Y + D(Y), so squaring R_0 exactly s times gives

        D(R_0^(2^s)) = sum_{j < 2^s} (R_0^j)^t D(R_0) R_0^j.

    A computed square R_{k+1} = R_k R_k + F_k, |F_k| <= gamma_M |R_k||R_k|
    entrywise (gamma_M = M u / (1 - M u), u = 2^-53; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., eq. 3.13), adds
    F_k^t G R_{k+1} + R_{k+1}^t G F_k to D(R_{k+1}), of 2-norm at most
    phi_k = 2 gamma_M |(|R_k||R_k|)|_2 |R_{k+1}|_2, and the s - k - 1
    squarings left carry it as the sum over j < 2^(s-k-1) of
    (R_{k+1}^j)^t (.) R_{k+1}^j, where R_{k+1}^j = R_0^(j 2^(k+1)). Hence

        |D(R)|_2 <= M b(R_0) sum_{j < 2^s} |R_0^j|_2^2
                    + sum_k phi_k sum_{j < 2^(s-k-1)} |R_0^(j 2^(k+1))|_2^2

    up to terms of order u^2, and the largest entry is at most the 2-norm.
    Forming the defect of R in floats adds at most
    gamma_M |(|R|^t |R|)|_2. So the bound grows with the number of
    squarings, and with the norms along the path exp(t K): a boost, or a
    rotation seen through a boost, that is large halfway costs digits even
    where R itself is small. Only norms of R_0 and of its powers enter;
    the defect of the kernel's output is never measured.
    """
    M = len(g)
    gamma = M * 2.0 ** -53 / (1.0 - M * 2.0 ** -53)

    def taylor_bound(X):
        return 1e-13 * max(1.0, np.abs(X).max() ** 2)

    def two(X):
        return np.linalg.norm(X, 2, axis=(-2, -1))

    def slack(X):
        return gamma * two(np.abs(X).T @ np.abs(X))

    theta16 = _TAYLOR[-1][2]
    s = max(0, int(np.ceil(np.log2(_one_norms(K[None])[0] / theta16))))
    R = expm(np.ldexp(K, -s))
    if s == 0:
        return taylor_bound(R)
    powers = [np.eye(M)]
    for _ in range(2 ** s - 1):
        powers.append(powers[-1] @ R)
    sq = two(np.stack(powers)) ** 2          # |R_0^j|_2^2, j < 2^s
    bound = M * taylor_bound(R) * sq.sum()
    for k in range(s):
        R2 = R @ R
        bound += (sq[::2 ** (k + 1)].sum() * 2 * gamma
                  * two(np.abs(R) @ np.abs(R)) * two(R2))
        R = R2
    return bound + slack(R)


class TestExpm:
    @settings(max_examples=60, deadline=None, database=None)
    @given(M=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
           log_norm=st.floats(-6.0, np.log10(30.0)))
    def test_matches_scipy_per_matrix(self, M, seed, log_norm):
        # One stack mixes the drawn norm with smaller and larger ones, so
        # matrices with different scaling exponents share a call.
        rng = np.random.default_rng(seed)
        norms = 10.0 ** np.array([log_norm, -6.0, -2.0, 0.0, np.log10(30.0)])
        K = _scaled(rng, (len(norms), M, M), norms)
        got = expm(K)
        for Ki, Ri in zip(K, got):
            want = scipy.linalg.expm(Ki)
            if _rel(Ri, want) <= 1e-12:
                continue
            # Near |K| = 30 scipy's own error can reach a few 1e-12 on
            # strongly non-normal K; then a 40-digit exponential decides.
            exact = _exact_expm(Ki)
            assert _rel(Ri, exact) <= 1e-13
            assert _rel(Ri, exact) < _rel(want, exact)

    # The example budget comes from the hypothesis profile: the CI soak
    # step runs this test under tests/conftest.py's "soak" profile. The
    # explicit example is a rotation seen through a boost: |K|_1 = 29.1,
    # six squarings, entries of R below 1.7, but the path exp(t K) reaches
    # a 2-norm of 24.8 after five squarings, and the defect reads 1.8e-12,
    # above 1e-13 |R|^2_max = 2.7e-13 (its bound is 7.2e-9).
    @settings(deadline=None, database=None)
    @given(signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3,
                          max_size=7),
           seed=st.integers(0, 2**32 - 1),
           log_norm=st.floats(-6.0, np.log10(30.0)))
    @example(signs=[1.0, -1.0, 1.0], seed=2683125081, log_norm=1.46361)
    def test_g_skew_generator_stays_on_group(self, signs, seed, log_norm):
        g = np.array(signs)
        S = _scaled(np.random.default_rng(seed), (len(g), len(g)), 1.0)
        K = g[:, None] * (S - S.T)           # G K is skew, exactly
        K *= 10.0 ** log_norm / np.abs(K).sum(axis=0).max()
        R = expm(K)
        defect = np.abs(R.T @ np.diag(g) @ R - np.diag(g)).max()
        assert defect <= _group_defect_bound(K, g)

    def test_stack_shape_and_identity(self):
        K = np.zeros((2, 3, 4, 4))
        np.testing.assert_array_equal(expm(K), np.broadcast_to(
            np.eye(4), K.shape))
        assert expm(np.zeros((4, 4))).shape == (4, 4)

    @pytest.mark.parametrize("M", range(1, 10))
    def test_one_norms_bit_identical(self, M):
        # The sliced column sums add the rows in the order numpy's
        # reduction over a non-contiguous axis does; NaN, inf, -0.0,
        # subnormals and sums that overflow included.
        rng = np.random.default_rng(M)
        shape = (400, M, M)
        A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
        pick = rng.integers(0, 12, shape)
        for k, v in enumerate([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                               1.7e308]):
            A[pick == k] = v
        with np.errstate(over="ignore"):
            want = np.abs(A).sum(axis=-2).max(axis=-1)
            got = _one_norms(A)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [
        np.full((3, 3), 1e160),
        np.array([[0.0, 1e160], [-1e160, 0.0]]),   # a rotation generator
        np.array([[np.nan, 0.0], [0.0, 0.0]]),
        np.array([[np.inf, 0.0], [0.0, 0.0]])])
    def test_blowup_generator_is_non_finite(self, K):
        stack = np.stack([np.zeros_like(K), K])
        out = expm(stack)
        assert not np.any(np.isfinite(out[1]))
        np.testing.assert_array_equal(out[0], np.eye(K.shape[0]))


class TestPivotFreeKernels:
    """expm's Taylor polynomial (products only: no elimination, no pivots)
    and the matmul group defect, against the LAPACK-solve Pade exponential
    of tests/expm_reference.py and the einsum formula."""

    @pytest.mark.parametrize("M", range(2, 8))
    @settings(max_examples=8, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           log_norm=st.floats(-6.0, np.log10(30.0)))
    def test_expm_matches_lapack_reference(self, M, seed, log_norm):
        # Every sign pattern of G, with G-skew generators of the drawn norm,
        # of 1e-6, 1e-2, 1 and 30 (the last two are scaled: s = 1, 6), and
        # just below and just above each theta_m. Each norm is one call,
        # which picks its own Taylor degree; all of them mixed in one call
        # are scaled, at degree 16.
        rng = np.random.default_rng(seed)
        g = np.array(list(itertools.product([1.0, -1.0], repeat=M)))
        norms = np.array([10.0 ** log_norm, 1e-6, 1e-2, 1.0, 30.0]
                         + [t * (1 + d) for t in _THETA.values()
                            for d in (-1e-6, 1e-6)])
        S = rng.standard_normal((len(g), len(norms), M, M))
        K = g[:, None, :, None] * (S - np.swapaxes(S, -1, -2))
        K *= (norms / np.abs(K).sum(axis=-2).max(axis=-1))[..., None, None]
        want = expm_reference.expm(K)
        for got in (expm(K), np.stack([expm(K[:, j]) for j in
                                       range(len(norms))], axis=1)):
            rel = (np.abs(got - want).max(axis=(-1, -2))
                   / np.abs(want).max(axis=(-1, -2)))
            # Where boosts near |K| = 30 leave both a few 1e-13 from the
            # exponential, a 40-digit one decides.
            for idx in zip(*np.nonzero(rel > 1e-12)):
                assert _rel(got[idx], _exact_expm(K[idx])) <= 1e-12

    @pytest.mark.parametrize("norms, degree", [
        ((1e-6, _THETA[4] * (1 - 1e-6)), 4),
        ((1e-6, _THETA[4] * (1 + 1e-6)), 6),
        ((_THETA[4], _THETA[6] * (1 - 1e-6)), 6),
        ((_THETA[4], _THETA[6] * (1 + 1e-6)), 9),
        ((_THETA[6], _THETA[9] * (1 - 1e-6)), 9),
        ((_THETA[6], _THETA[9] * (1 + 1e-6)), 12),
        ((_THETA[9], _THETA[12] * (1 - 1e-6)), 12),
        ((_THETA[9], _THETA[12] * (1 + 1e-6)), 16),
        ((1e-6, _THETA[16]), 16),
        ((1e-6, _THETA[16] * (1 + 1e-6)), 16),
        ((1e-6, _THETA[4], 30.0), 16)])
    @settings(max_examples=6, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(2, 7))
    def test_degree_from_largest_norm(self, norms, degree, seed, M):
        # One degree per stack, the lowest whose theta_m bounds its largest
        # 1-norm; a stack that needs scaling gets degree 16. Just below and
        # just above each theta_m, the result matches the degree-7
        # LAPACK-solve reference.
        rng = np.random.default_rng(seed)
        g = rng.choice([-1.0, 1.0], M)
        S = rng.standard_normal((len(norms), 3, M, M))
        K = g[:, None] * (S - np.swapaxes(S, -1, -2))
        K *= (np.array(norms)[:, None]
              / np.abs(K).sum(axis=-2).max(axis=-1))[..., None, None]
        with mock.patch.object(frame_solver, "_taylor",
                               wraps=_taylor) as spy:
            got = expm(K)
        assert [c.args[1] for c in spy.call_args_list] == [degree]
        want = expm_reference.expm(K)
        rel = (np.abs(got - want).max(axis=(-1, -2))
               / np.abs(want).max(axis=(-1, -2)))
        for idx in zip(*np.nonzero(rel > 1e-12)):
            assert _rel(got[idx], _exact_expm(K[idx])) <= 1e-12

    @pytest.mark.parametrize("m, s, theta", _TAYLOR)
    def test_theta_is_the_truncation_bound(self, m, s, theta):
        # theta_m is the largest x with sum_{k>m} x^(k-1)/k! <= 2^-53:
        # the bound holds at theta_m and fails 0.1 % above it. s divides m,
        # so the top Paterson-Stockmeyer block needs no product.
        assert m % s == 0
        with mpmath.workdps(40):
            def tail(x):
                x = mpmath.mpf(x)
                return mpmath.fsum(x ** (k - 1) / mpmath.factorial(k)
                                   for k in range(m + 1, m + 60))
            u = mpmath.mpf(2) ** -53
            assert tail(theta) <= u
            assert tail(theta * (1 + 1e-3)) > u

    @settings(max_examples=60, deadline=None, database=None)
    @given(signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=2,
                          max_size=7),
           seed=st.integers(0, 2**32 - 1),
           log_norm=st.floats(-6.0, np.log10(30.0)))
    def test_group_defect_matches_einsum(self, signs, seed, log_norm):
        g = np.array(signs)
        M = len(g)
        rng = np.random.default_rng(seed)
        S = _scaled(rng, (8, M, M), 10.0 ** log_norm)
        Z = np.concatenate([expm(g[:, None] * (S - np.swapaxes(S, -1, -2))),
                            rng.standard_normal((8, M, M))])
        defect, ztgz = _group_defect(Z, g)
        want = np.einsum("...ji,j,...jl->...il", Z, g, Z)
        # Both round each entry of Z^t G Z to within M u of its absolute
        # sum |Z|^t |Z|.
        scale = np.swapaxes(np.abs(Z), -1, -2) @ np.abs(Z)
        assert np.all(np.abs(ztgz - want) <= 1e-15 * scale)
        np.testing.assert_allclose(
            defect, np.abs(want - np.diag(g)).max(axis=(-1, -2)),
            rtol=0, atol=1e-15 * scale.max())
        d1, z1 = _group_defect(Z[0], g)
        assert z1.shape == (M, M) and d1.shape == ()


def _former_group_defect(Z, g):
    """_group_defect as it was written before its column passes: G
    broadcast over every matrix, diag(g) subtracted from every matrix, and
    numpy's reduction over the two trailing axes."""
    ztgz = np.swapaxes(Z, -1, -2) @ (g[:, None] * Z)
    return np.abs(ztgz - np.diag(g)).max(axis=(-1, -2)), ztgz


def _special_entries(rng, x):
    """x with about one entry in eight replaced by NaN, -NaN, inf, -inf or
    -0.0."""
    pick = rng.integers(0, 40, x.shape)
    for k, v in enumerate([np.nan, -np.nan, np.inf, -np.inf, -0.0]):
        x[pick == k] = v
    return x


class TestPerMatrixMaxima:
    """_abs_max takes every per-matrix maximum column by column; the checks
    that read it give what numpy's small-axis reductions gave, bit for
    bit."""

    @pytest.mark.parametrize("ext", [(9,), (4, 5), (3, 4, 2)])
    @pytest.mark.parametrize("M", range(1, 7))
    def test_abs_max_bit_identical(self, ext, M):
        rng = np.random.default_rng(M * 10 + len(ext))
        for trail in [(M, M), (M,)]:
            x = rng.standard_normal(ext + trail) * 10.0 ** rng.uniform(
                -300, 300, ext + trail)
            x = _special_entries(rng, x)
            axes = tuple(range(-len(trail), 0))
            got = _abs_max(x, len(trail))
            want = np.abs(x).max(axis=axes)
            assert got.shape == want.shape == ext
            assert got.tobytes() == want.tobytes()
            got = _abs_max(x[(0,) * len(ext)], len(trail))
            assert np.shape(got) == ()
            assert np.array(got).tobytes() == np.array(
                np.abs(x[(0,) * len(ext)]).max()).tobytes()

    def test_abs_max_empty_stack(self):
        assert _abs_max(np.zeros((0, 3, 4, 4)), 2).shape == (0, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reaches_its_node(self, value):
        # One non-finite entry of one matrix makes its node's maximum
        # non-finite, so the report fails the entry and names that node,
        # the first non-finite one.
        x = np.zeros((4, 5, 3, 3))
        x[2, 1, 0, 2] = x[3, 0, 1, 1] = value
        x[0, 0, 1, 0] = 1e300
        report = ResidualReport()
        report.add("defect", _abs_max(x, 2), 1.0)
        entry = report.entries["defect"]
        assert not entry.passed
        assert entry.worst_node == (2, 1)
        assert entry.sup == 1e300
        assert entry.note.startswith("2 of 20 nodes non-finite, first at")

    @pytest.mark.parametrize("key", SIGNATURE_CASES)
    def test_group_defect_matches_former_expression(self, key):
        g = np.asarray(SIGNATURE_CASES[key](1, None).spec.signs, dtype=float)
        M = len(g)
        rng = np.random.default_rng(M)
        S = _scaled(rng, (6, 5, M, M), 0.3)
        Z = expm(g[:, None] * (S - np.swapaxes(S, -1, -2)))
        Z[1] += rng.standard_normal((5, M, M))
        Z[2, 3] = _special_entries(rng, Z[2, 3])
        for stack in [Z, Z[0], Z[0, 0]]:
            got, want = _group_defect(stack, g), _former_group_defect(
                stack, g)
            assert got[0].shape == want[0].shape
            assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
            # Negating a NaN flips its sign where multiplying by -1 keeps
            # it; any other entry of Z^t G Z is the same bit for bit.
            nan = np.isnan(want[1])
            assert (np.isnan(got[1]) == nan).all()
            assert (np.where(nan, 0.0, got[1]).tobytes()
                    == np.where(nan, 0.0, want[1]).tobytes())

    def test_diagnostics_name_the_planted_defect(self):
        M, ext = 4, (6, 7)
        g = np.array([1.0, -1.0, 1.0, 1.0])
        rng = np.random.default_rng(4)
        S = _scaled(rng, ext + (M, M), 0.2)
        B = expm(g[:, None] * (S - np.swapaxes(S, -1, -2)))
        B[3, 5] = B[3, 5] @ expm(np.diag([1e-6, 0.0, 0.0, -1e-6]))
        ff = FrameField(B=B, signs=g, rows=B[..., -1, :].copy(),
                        sweep={"max_preprojection_defect": 0.0, "steps": 41})
        diag = ff.diagnostics
        want = _former_group_defect(B, g)[0]
        assert diag["worst_group_node"] == (3, 5)
        assert diag["max_group_defect"] == float(want.max())
        assert diag["max_row_defect"] == 0.0


class TestPseudoOrthonormalize:
    def test_members_are_fixed_points(self, slice17):
        imm, data = slice17
        B = exact_base_frame(imm)
        out = pseudo_orthonormalize(B, data.spec.G)
        assert np.abs(out - B).max() <= 1e-14

    def test_scalar_newton_oracle(self):
        # G = I, Z = (1 + e) I reduces to the scalar iteration
        # z <- z (3 - z^2) / 2, which we run independently here.
        e = 1e-3
        z = 1.0 + e
        for _ in range(10):
            z = z * (3.0 - z * z) / 2.0
        Z = (1.0 + e) * np.eye(3)
        out = pseudo_orthonormalize(Z, np.eye(3))
        np.testing.assert_allclose(out, z * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-12)

    def test_far_input_refused(self):
        Z = np.diag([1.3, 1.0, 1.0])  # defect 0.69
        with pytest.raises(NonConvergence):
            pseudo_orthonormalize(Z, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, bad):
        with pytest.raises(NonConvergence, match="non-finite input"):
            pseudo_orthonormalize(np.diag([bad, 1.0, 1.0]), np.eye(3))
        stack = np.stack([np.eye(3), np.diag([1.0, bad, 1.0])])
        with pytest.raises(NonConvergence, match=r"matrix \(1,\)"):
            pseudo_orthonormalize(stack, np.eye(3))

    def test_indefinite_metric(self, rng):
        G = np.diag([1.0, -1.0, 1.0, 1.0])
        th = 0.4
        Z = np.eye(4)
        Z[0, 0] = Z[1, 1] = np.cosh(th)
        Z[0, 1] = Z[1, 0] = np.sinh(th)
        Z = Z + 1e-4 * rng.standard_normal((4, 4))
        out = pseudo_orthonormalize(Z, G)
        defect = np.abs(out.T @ G @ out - G).max()
        assert defect <= 1e-12


class TestBaseFrame:
    def test_invariants(self, slice17):
        _, data = slice17
        assert_base_frame(build_base_frame(data), data, 1e-10, 1e-8)

    def test_slice_base_is_signed_identity(self, slice17):
        # T = 0, xi the unit vertical: completion picks the canonical basis
        _, data = slice17
        B0 = build_base_frame(data)
        assert np.abs(np.abs(B0) - np.eye(4)).max() <= 1e-12

    def test_lorentzian_signature_completion(self):
        _, data = canonical_example("lorentz_cylinder", {})
        assert_base_frame(build_base_frame(data), data, 1e-10, 1e-8)

    def test_helix_nontrivial_row(self, helix65):
        _, data = helix65
        B0 = build_base_frame(data)
        assert _group_defect(B0, np.diag(data.spec.G))[0] <= 1e-10
        assert abs(B0[-1, 1]) > 0.1  # T has a genuine tangent component


class TestIntegrateFrame:
    def test_zero_upsilon_keeps_B_constant(self):
        # propagator-level check: inject a vanishing form matrix
        data = flat_strip_data()
        B0 = build_base_frame(data)
        zero = np.zeros(data.grid.extents + (3, 3, 1))
        ff = integrate_frame(data, B0, upsilon=zero)
        np.testing.assert_array_equal(
            ff.B, np.broadcast_to(B0, ff.B.shape))

    def test_constant_upsilon_matches_expm_oracle(self):
        # On the vertical geodesic the assembled Upsilon is constant in s,
        # so B(s) = B0 expm(s K). Compare at the endpoint against an
        # independent series exponential.
        _, data = canonical_example(
            "vertical_geodesic", {"grid_extents": [33],
                                  "grid_spacing": [0.03]})
        Ups = assemble_all(data)["Upsilon"]
        spread = np.abs(Ups - Ups[16]).max()
        assert spread <= 1e-12   # constant along the geodesic
        B0 = build_base_frame(data)
        ff = integrate_frame(data, B0)
        s_total = 0.03 * 16
        want = B0 @ taylor_expm(s_total * Ups[16][..., 0])
        got = ff.B[32]
        assert np.abs(got - want).max() <= 1e-10

    def test_group_and_row_drift(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, build_base_frame(data))
        h = data.grid.max_spacing
        assert ff.diagnostics["max_group_defect"] <= 1e-8
        assert ff.diagnostics["max_row_defect"] <= 10 * h * h

    def test_matches_exact_frame_field(self, slice17):
        imm, data = slice17
        ff = integrate_frame(data, exact_base_frame(imm))
        h = data.grid.max_spacing
        assert np.abs(ff.B - exact_frame_field(imm)).max() <= 10 * h * h

    def test_step_order_two(self):
        errs = []
        for ext, sp in ((17, 0.04), (33, 0.02)):
            imm = make_example("slice", {"n": 2, "grid_extents": [ext, ext],
                                         "grid_spacing": [sp, sp]})
            data = induce_data(imm)
            ff = integrate_frame(data, exact_base_frame(imm))
            errs.append(np.abs(ff.B - exact_frame_field(imm)).max())
        assert 3.2 <= errs[0] / errs[1] <= 4.8

    def test_diagnostics_computed_on_first_read(self, slice17, monkeypatch):
        # The sweep checks only block ends; the group defect over every
        # frame waits for the first read of diagnostics, which keeps it.
        _, data = slice17
        spy = mock.Mock(wraps=_group_defect)
        monkeypatch.setattr(frame_solver, "_group_defect", spy)
        ff = integrate_frame(data, build_base_frame(data))

        def whole_field_calls():
            return [c for c in spy.call_args_list
                    if c.args[0].shape == ff.B.shape]
        assert whole_field_calls() == []
        diag = ff.diagnostics
        assert ff.diagnostics is diag
        assert len(whole_field_calls()) == 1
        g = np.diag(data.spec.G)
        defect = np.abs(np.einsum("...ji,j,...jl->...il", ff.B, g, ff.B)
                        - np.diag(g)).max(axis=(-1, -2))
        rows = np.abs(ff.B[..., -1, :] - data.delta_all()).max(axis=-1)
        assert diag["max_group_defect"] == pytest.approx(defect.max(),
                                                         abs=1e-15)
        assert defect[diag["worst_group_node"]] == pytest.approx(
            defect.max(), abs=1e-15)
        assert diag["max_row_defect"] == rows.max()
        assert list(diag) == ["max_group_defect", "worst_group_node",
                              "max_preprojection_defect", "max_row_defect",
                              "steps", "renorm", "renorm_interval"]
        assert diag["steps"] == data.grid.num_nodes - 1

    def test_b0_invariants_checked(self, slice17):
        _, data = slice17
        B = np.eye(4)
        B[3, 3] = 2.0
        with pytest.raises(InvariantViolation):
            integrate_frame(data, B)

    def test_blowup_detected(self, slice17):
        _, data = slice17
        al = data.alpha + 0.0
        al[..., 0, 0, 0] += 1e160
        al[..., 0, 1, 1] += 1e160
        bad = GeometricData(data.spec, data.warping, data.grid,
                            frame=data.frame,
                            omega_tangent=data.omega_tangent,
                            omega_bundle=data.omega_bundle, alpha=al,
                            T_comp=data.T_comp, xi_comp=data.xi_comp,
                            pi=data.pi)
        with pytest.raises(IntegrationBlowup) as info:
            integrate_frame(bad, build_base_frame(bad))
        # the first step of the first sweep direction is already non-finite
        i, j = data.grid.base_node
        assert info.value.node == (i + 1, j) == (9, 8)
        assert "at node (9, 8)" in str(info.value)

    def test_blowup_names_the_node_on_the_front(self, slice17):
        # Axis 0 sweeps the spine x1 = 8 and never reads node (3, 12).
        # Axis 1 steps every node of the front at once; the frame at
        # (3, 12) is the first to read it.
        _, data = slice17
        ups = np.array(assemble_all(data, "Upsilon")["Upsilon"])
        ups[3, 12] = np.nan
        with pytest.raises(IntegrationBlowup, match="stepping axis 1") as info:
            integrate_frame(data, build_base_frame(data), upsilon=ups)
        assert info.value.node == (3, 12)

    def test_repeat_runs_are_bitwise_equal(self, slice17):
        _, data = slice17
        B0 = build_base_frame(data)
        f1 = integrate_frame(data, B0)
        f2 = integrate_frame(data, B0)
        assert np.array_equal(f1.B, f2.B)

    @pytest.mark.parametrize("fixture", ["slice17", "helix65"])
    def test_sweep_matches_serial_reference(self, fixture, request):
        _, data = request.getfixturevalue(fixture)
        B0 = build_base_frame(data)
        ff = integrate_frame(data, B0)
        assert np.abs(ff.B - serial_sweep(data, B0)).max() <= 1e-12

    def test_sweep_reprojects_every_16_steps(self):
        # Generators off the algebra make B leave the group by ~1e-3 per
        # step, so every re-projection visibly moves the frame.
        data = flat_strip_data(extent=41)
        rng = np.random.default_rng(7)
        ups = 0.05 * rng.standard_normal(data.grid.extents + (3, 3, 1))
        B0 = build_base_frame(data)
        ff = integrate_frame(data, B0, upsilon=ups)
        ref = serial_sweep(data, B0, upsilon=ups)
        assert np.abs(ff.B - ref).max() <= 1e-12
        assert ff.diagnostics["max_preprojection_defect"] > 1e-6

    @pytest.mark.parametrize("fixture, interval", [
        ("slice17", 4), ("slice17", 3), ("helix65", 16), ("helix65", 5)])
    def test_blocked_sweep_matches_serial_reference(self, fixture, interval,
                                                    request):
        # Blocking changes only the association order of the products.
        # Every grid line along the last axis is stepped from the base
        # frame; the front of the chain spans the other axes.
        _, data = request.getfixturevalue(fixture)
        ax = data.spec.n - 1
        U = np.moveaxis(assemble_all(data)["Upsilon"][..., ax], ax, 0)
        P = scipy.linalg.expm(0.5 * data.grid.spacing[ax] * (U[:-1] + U[1:]))
        B0 = np.broadcast_to(build_base_frame(data), P.shape[1:])
        frames, _ = _chain(B0, P, interval, data.spec.G)
        ref = serial_chain(B0, P, interval, data.spec.G)
        assert np.abs(frames - ref).max() <= 1e-12

    @pytest.mark.parametrize("interval", [1, 6, 40])
    def test_reprojection_schedule_matches_serial_reference(self, interval):
        # Steps off the group by ~1e-3 each, so every re-projection
        # visibly moves the frame.
        data = flat_strip_data()
        rng = np.random.default_rng(7)
        P = scipy.linalg.expm(0.005 * rng.standard_normal((20, 3, 3)))
        B0 = build_base_frame(data)
        frames, pre = _chain(B0, P, interval, data.spec.G)
        ref = serial_chain(B0, P, interval, data.spec.G)
        assert np.abs(frames - ref).max() <= 1e-12
        assert (pre > 1e-6) if interval <= 20 else (pre == 0.0)

    def test_preprojection_defect_recorded(self, helix65):
        _, data = helix65
        B0 = build_base_frame(data)
        ff = integrate_frame(data, B0)
        pre = ff.diagnostics["max_preprojection_defect"]
        assert 0.0 < pre <= 1e-12

    def test_renormalization_engages_on_long_runs(self):
        _, data = canonical_example("helix", {"grid_extents": [129],
                                              "grid_spacing": [0.015]})
        B0 = build_base_frame(data)
        ff = integrate_frame(data, B0)
        assert ff.diagnostics["max_group_defect"] <= 1e-8
        assert ff.diagnostics["steps"] == 128


# A Lorentzian metric for the chain comparisons below.
_G4 = np.diag([1.0, -1.0, 1.0, 1.0])


def _steps(rng, shape, off=(), drift=1e-3, G=_G4):
    """Step propagators (*shape, 4, 4): exponentials of G-skew generators,
    which stay on the group to roundoff, except at the indices in `off`
    (along the first axis), whose generators leave the algebra by `drift`
    per entry: at 1e-3 a block of 16 of them moves the frame off the group
    by about 2e-2, far enough that its re-projection lands well below the
    projection tolerance."""
    A = 0.05 * rng.standard_normal(tuple(shape) + (4, 4))
    K = G @ (A - np.swapaxes(A, -1, -2))
    for i in off:
        K[i] += drift * rng.standard_normal(K.shape[1:])
    return expm(K)


def _assert_same_chain(B0, P, block, G):
    frames, pre = _chain(B0, P, block, G)
    ref_frames, ref_pre = chain_reference._chain(B0, P, block, G)
    np.testing.assert_array_equal(frames, ref_frames)
    assert pre == ref_pre
    return frames, pre


class TestChainMatchesBlockwiseReference:
    """The batched walk re-projects only block ends off the group by more
    than the projection tolerance; everywhere else the projection was the
    identity, so frames and pre-projection defect equal the block-by-block
    reference bit for bit."""

    def test_helix_long_grid(self, monkeypatch):
        imm = make_example("helix", {"grid_extents": [16385],
                                     "grid_spacing": [0.0005], "beta": 0.6})
        data = induce_data(imm)
        B0 = exact_base_frame(imm)
        ff = integrate_frame(data, B0)
        monkeypatch.setattr(frame_solver, "_chain", chain_reference._chain)
        ref = integrate_frame(data, B0)
        np.testing.assert_array_equal(ff.B, ref.B)
        assert ff.diagnostics == ref.diagnostics
        assert 0.0 < ff.diagnostics["max_preprojection_defect"] <= 1e-12

    def test_walk_restarts_after_each_drifting_block(self, monkeypatch):
        # 20 blocks of 16 on-algebra steps, except off-algebra steps in
        # blocks 3 and 12: the walk is re-projected twice and resumes.
        rng = np.random.default_rng(3)
        P = _steps(rng, (320,), off=list(range(48, 64))
                   + list(range(192, 208)))
        counter = mock.Mock(wraps=pseudo_orthonormalize)
        monkeypatch.setattr(frame_solver, "pseudo_orthonormalize", counter)
        _, pre = _assert_same_chain(np.eye(4), P, 16, _G4)
        assert counter.call_count == 2
        assert pre > 1e-6

    def test_every_block_drifts(self):
        rng = np.random.default_rng(4)
        P = _steps(rng, (100,), off=range(100))
        _assert_same_chain(np.eye(4), P, 6, _G4)

    def test_non_finite_step_in_a_middle_block(self, monkeypatch):
        data = flat_strip_data(extent=101)
        ups = np.zeros(data.grid.extents + (3, 3, 1))
        ups[80] = np.nan      # step 30 of the forward pass: block 1
        B0 = build_base_frame(data)
        P = expm(np.concatenate([np.zeros((29, 3, 3)),
                                 np.full((1, 3, 3), np.nan),
                                 np.zeros((20, 3, 3))]))
        frames, _ = _assert_same_chain(B0, P, 16, data.spec.G)
        assert np.isfinite(frames[:29]).all()
        assert np.isnan(frames[29:]).all()
        with pytest.raises(IntegrationBlowup) as info:
            integrate_frame(data, B0, upsilon=ups)
        monkeypatch.setattr(frame_solver, "_chain", chain_reference._chain)
        with pytest.raises(IntegrationBlowup) as ref_info:
            integrate_frame(data, B0, upsilon=ups)
        assert info.value.node == ref_info.value.node == (80,)

    def test_far_drift_refused_by_both(self):
        rng = np.random.default_rng(5)
        P = _steps(rng, (64,))
        P[37] = 1.5 * P[37]                 # block 2 ends with defect ~1.25
        for chain in (_chain, chain_reference._chain):
            with pytest.raises(NonConvergence, match=">= 0.5"):
                chain(np.eye(4), P, 16, _G4)

    def test_front_with_some_drifting_members(self):
        # A front of five frames; members 1 and 3 take off-algebra steps
        # in blocks 2 and 5, the others stay on the group.
        rng = np.random.default_rng(6)
        P = _steps(rng, (100, 5))
        for i in (1, 3):
            P[:, i] = _steps(rng, (100,), off=list(range(32, 48))
                             + list(range(80, 96)))
        B0 = _steps(rng, (5,))
        _, pre = _assert_same_chain(B0, P, 16, _G4)
        assert pre > 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70),
           st.integers(1, 12), st.sampled_from([(), (3,)]),
           st.sets(st.integers(0, 69), max_size=8),
           st.sampled_from([1e-3, 1e-8, 1e-12]))
    def test_random_schedules(self, seed, L, block, front, off, drift):
        # Drifts of 1e-8 and 1e-12 leave block ends just above and around
        # the projection tolerance.
        rng = np.random.default_rng(seed)
        P = _steps(rng, (L,) + front, off=[i for i in off if i < L],
                   drift=drift)
        B0 = _steps(rng, front)
        _assert_same_chain(B0, P, block, _G4)

    def test_on_group_sweep_never_projects(self, helix65, monkeypatch):
        _, data = helix65
        B0 = build_base_frame(data)
        counter = mock.Mock(wraps=pseudo_orthonormalize)
        monkeypatch.setattr(frame_solver, "pseudo_orthonormalize", counter)
        integrate_frame(data, B0)
        assert counter.call_count == 0
        # The block-by-block reference projects all four block ends.
        monkeypatch.setattr(chain_reference, "pseudo_orthonormalize", counter)
        monkeypatch.setattr(frame_solver, "_chain", chain_reference._chain)
        integrate_frame(data, B0)
        assert counter.call_count == 4


# The t0 values the helix_long benchmark workload draws from. Every step
# there has a 1-norm below theta6 (at most 5.6e-4), so expm runs at Taylor
# degree 6. At -0.1 and +0.1 it sweeps to 1.394e-13 against the degree-7
# LAPACK-solve Pade reference's 1.263e-13 and 1.266e-13. There
# both sit at the roundoff floor of the chain's own matmuls: propagators
# projected onto the group to 7e-17 per step still sweep to 2.2e-13.
_HELIX_LONG_T0 = [
    pytest.param(t0, marks=pytest.mark.xfail(
        strict=True, reason="swept defect above the reference at t0 = +-0.1"))
    if abs(t0) == 0.1 else t0
    for t0 in (-0.2, -0.15, -0.1, -0.05, 0.0, 0.05, 0.1, 0.15, 0.2)]


@pytest.mark.parametrize("t0", _HELIX_LONG_T0)
def test_swept_drift_not_above_lapack_reference(t0, monkeypatch):
    # The helix_long grid: 16,385 nodes, two chains of 8,192 steps.
    imm = make_example("helix", {"grid_extents": [16385],
                                 "grid_spacing": [0.0005], "beta": 0.6,
                                 "t0": t0})
    data = induce_data(imm)
    B0 = exact_base_frame(imm)
    got = integrate_frame(data, B0).diagnostics["max_group_defect"]
    monkeypatch.setattr(frame_solver, "expm", expm_reference.expm)
    want = integrate_frame(data, B0).diagnostics["max_group_defect"]
    assert got <= want


_PROBE_CASES = {
    **{name: functools.partial(canonical_example, name, {})
       for name in ("slice", "lorentz_cylinder", "desitter_slice",
                    "great_subsphere")},
    **{f"case-{key}": functools.partial(signature_case, key)
       for key in SIGNATURE_CASES if key not in ("helix", "great_subsphere")},
    "slice-fd": functools.partial(canonical_example, "slice",
                                  {"n": 2, "attach_derivatives": False}),
    # Non-square, even extents, the base node off the centre.
    "slice-16x18": functools.partial(canonical_example, "slice", {
        "n": 2, "grid_extents": [16, 18], "grid_spacing": [0.03, 0.03],
        "grid_base": [3, 11]}),
}


class TestPathIndependence:
    @pytest.mark.parametrize("key", _PROBE_CASES)
    def test_matches_two_path_reference(self, key):
        # Every leg here gets the Taylor degree of the reference's leg, so
        # the frames at both path ends are the same bits.
        _, data = _PROBE_CASES[key]()
        assert data.spec.n >= 2
        B0 = build_base_frame(data)
        got = path_independence_defect(data, integrate_frame(data, B0))
        assert got == path_reference.path_independence_defect(data, B0)

    def test_flat_defect_zero(self):
        data = flat_strip_data_2d()
        zero = np.zeros((5, 5, 4, 4, 2))
        ff = integrate_frame(data, build_base_frame(data), upsilon=zero)
        assert path_independence_defect(data, ff, upsilon=zero) == 0.0

    def test_blowup_names_first_node_on_path(self):
        # Base node (0, 0): the sweep reads the axis-0 component on the
        # spine x1 = 0 only, the probe's reverse path on x1 = 4 from (0, 4).
        data = flat_strip_data_2d()
        ups = np.zeros((5, 5, 4, 4, 2))
        ups[2, 4, ..., 0] = np.nan
        ff = integrate_frame(data, build_base_frame(data), upsilon=ups)
        with pytest.raises(IntegrationBlowup) as info:
            path_independence_defect(data, ff, upsilon=ups)
        assert info.value.node == (2, 4)

    def test_reverse_leg_blowup_names_its_node(self, slice17):
        # Base node (8, 8). The sweep reads the axis-0 component on the
        # spine x1 = 8 only; the probe's reverse path steps axis 0 on
        # x1 = 16 from (8, 16), and (12, 16) is the first node it reads.
        _, data = slice17
        assert data.grid.base_node == (8, 8)
        ups = np.array(assemble_all(data, "Upsilon")["Upsilon"])
        ups[12, 16, ..., 0] = np.nan
        ff = integrate_frame(data, build_base_frame(data), upsilon=ups)
        assert np.isfinite(ff.B).all()
        with pytest.raises(IntegrationBlowup,
                           match="stepping axis 0") as info:
            path_independence_defect(data, ff, upsilon=ups)
        assert info.value.node == (12, 16)

    def test_second_order_convergence(self):
        defects = []
        for ext, sp in ((17, 0.04), (33, 0.02)):
            imm = make_example("slice", {"n": 2, "grid_extents": [ext, ext],
                                         "grid_spacing": [sp, sp]})
            data = induce_data(imm)
            defects.append(path_independence_defect(
                data, integrate_frame(data, exact_base_frame(imm))))
        order = np.log2(defects[0] / defects[1])
        assert order >= 1.8

    def test_codazzi_violation_blows_up_holonomy(self):
        _, data = canonical_example("slice", {
            "n": 2, "grid_extents": [33, 33], "grid_spacing": [0.02, 0.02]})
        B0 = build_base_frame(data)
        base = path_independence_defect(data, integrate_frame(data, B0))
        al = data.alpha.copy()
        al[..., 0, 0, 1] += 0.1
        al[..., 0, 1, 0] += 0.1
        bad = GeometricData(data.spec, data.warping, data.grid,
                            frame=data.frame,
                            omega_tangent=data.omega_tangent,
                            omega_bundle=data.omega_bundle, alpha=al,
                            T_comp=data.T_comp, xi_comp=data.xi_comp,
                            pi=data.pi)
        pert = path_independence_defect(bad, integrate_frame(bad, B0))
        assert pert > 100.0 * base


def test_row_constraint_emerges_without_renormalization(slice17):
    # the vertical-component row is never written by the integrator; it
    # must still track T_beta at second order. Every re-projection here
    # meets a defect below the projection tolerance and returns its input,
    # so the frames are those of a run without drift control.
    imm, data = slice17
    ff = integrate_frame(data, build_base_frame(data))
    assert ff.diagnostics["max_preprojection_defect"] <= 1e-12
    h = data.grid.max_spacing
    assert ff.diagnostics["max_row_defect"] <= 10 * h * h
    assert ff.diagnostics["max_group_defect"] <= 10 * h * h
