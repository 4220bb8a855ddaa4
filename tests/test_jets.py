import numpy as np
import pytest

from warpframe import jets
from warpframe.jets import Jet, cos, cosh, exp, part, seed, sin, sqrt, value


def test_first_derivatives_match_closed_forms():
    x0, y0 = 0.3, -0.4
    X = seed([x0, y0], 1)
    f = sin(X[0]) * cosh(X[1]) + sqrt(1.0 + X[0] * X[1])
    assert value(f) == pytest.approx(
        np.sin(x0) * np.cosh(y0) + np.sqrt(1 + x0 * y0))
    fx = np.cos(x0) * np.cosh(y0) + y0 / (2 * np.sqrt(1 + x0 * y0))
    fy = np.sin(x0) * np.sinh(y0) + x0 / (2 * np.sqrt(1 + x0 * y0))
    assert value(part(f, 0)) == pytest.approx(fx, abs=1e-15)
    assert value(part(f, 1)) == pytest.approx(fy, abs=1e-15)


def test_nested_second_and_third_derivatives():
    x0 = 0.7
    X = seed([x0], 3)[0]
    f = exp(2.0 * X) * cos(X)
    # closed forms of d^k (e^{2x} cos x)
    e = np.exp(2 * x0)
    f2 = e * (3 * np.cos(x0) - 4 * np.sin(x0))
    f3 = e * (2 * np.cos(x0) - 11 * np.sin(x0))
    assert value(part(part(f, 0), 0)) == pytest.approx(f2, rel=1e-13)
    assert value(part(part(part(f, 0), 0), 0)) == pytest.approx(f3, rel=1e-13)


def test_division_and_powers():
    X = seed([2.0], 2)[0]
    f = (X * X * X + 1.0) / X
    # f = x^2 + 1/x, f' = 2x - 1/x^2, f'' = 2 + 2/x^3
    assert value(f) == pytest.approx(4.5)
    assert value(part(f, 0)) == pytest.approx(4 - 0.25)
    assert value(part(part(f, 0), 0)) == pytest.approx(2 + 0.25)


def test_array_leaves_broadcast():
    xs = np.linspace(0.1, 1.0, 7)
    ys = np.linspace(-1.0, -0.1, 7)
    X = seed([xs, ys], 2)
    g = cos(X[0] * X[1])
    gxy = value(part(part(g, 0), 1))
    want = -np.cos(xs * ys) * xs * ys - np.sin(xs * ys)
    np.testing.assert_allclose(gxy, want, atol=1e-14)


def test_constants_are_inert():
    X = seed([1.5], 1)[0]
    f = 3.0 * X + 2.0 - X * 0.0
    assert value(part(f, 0)) == 3.0
    assert part(2.0, 0) == 0.0


def test_numpy_defers_to_jet():
    X = seed([np.array([1.0, 2.0])], 1)[0]
    f = np.array([3.0, 4.0]) * X
    assert isinstance(f, Jet)
    np.testing.assert_array_equal(value(part(f, 0)), [3.0, 4.0])


def _line(rng, shape, nparts=2):
    """A jet of arrays: a random value with random partials."""
    return Jet(rng.standard_normal(shape),
               [rng.standard_normal(shape) for _ in range(nparts)])


def test_einsum_follows_the_product_rule(rng):
    A, B = _line(rng, (5, 3, 4)), _line(rng, (5, 4, 2))
    K = rng.standard_normal((4, 2))          # a constant operand
    got = jets.einsum("...ij,...jk,jk->...ik", A, B, K)
    np.testing.assert_allclose(got.val, A.val @ (B.val * K), atol=1e-14)
    for k in range(2):
        want = A.parts[k] @ (B.val * K) + A.val @ (B.parts[k] * K)
        np.testing.assert_allclose(got.parts[k], want, atol=1e-14)
    plain = jets.einsum("...ij->...ji", A.val)
    assert not isinstance(plain, Jet)


def test_einsum_on_nested_jets():
    # sum_i v_i t w_i t = (v . w) t^2: second derivative 2 (v . w)
    t = seed([np.full(3, 0.5)], 2)[0]
    v, w = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 4.0])
    f = jets.einsum("i,i->", v * t, w * t)
    assert value(f) == pytest.approx(0.25 * v @ w)
    assert value(part(f, 0)) == pytest.approx(v @ w)
    assert value(part(part(f, 0), 0)) == pytest.approx(2 * v @ w)


def test_block_writes_and_indexing(rng):
    row = _line(rng, (4,))
    Z = jets.zeros((3, 4), like=row)
    Z[0] = row
    Z[2, 1:] = np.ones(3)                    # a constant: zero partials
    np.testing.assert_array_equal(Z[0].val, row.val)
    for p, q in zip(Z[0].parts, row.parts):
        np.testing.assert_array_equal(p, q)
    np.testing.assert_array_equal(Z.val[2], [0.0, 1.0, 1.0, 1.0])
    assert all(not p[1:].any() for p in Z.parts)
    col = Z[:, None, 2]
    assert col.val.shape == (3, 1) and col.parts[1].shape == (3, 1)
    assert isinstance(jets.zeros((2,), like=1.0), np.ndarray)


def test_linear_maps_value_and_partials(rng):
    A = _line(rng, (2, 3))
    T = jets.linear(np.transpose, A)
    np.testing.assert_array_equal(T.val, A.val.T)
    np.testing.assert_array_equal(T.parts[1], A.parts[1].T)
    np.testing.assert_array_equal(jets.linear(np.transpose, A.val), A.val.T)


@pytest.mark.parametrize("n, order", [(1, 1), (1, 3), (2, 1), (2, 2),
                                      (3, 2), (3, 3)])
def test_grad_stacks_the_parts(n, order, rng):
    X = seed(list(rng.uniform(-0.5, 0.5, (n, 6))), order)
    f = jets.zeros((2, 6), like=X[0])
    f[0] = sin(X[0]) * exp(X[-1])
    f[1] = X[0] * X[-1] + cosh(X[0])
    g = f.grad
    if order == 1:
        assert isinstance(g, np.ndarray) and np.shares_memory(g, f.d)
        want = np.stack(f.parts)
    else:
        assert g.t is f.val.t
        want = np.stack([p.d for p in f.parts], axis=1)
        g = g.d
    assert g.shape == want.shape and g.tobytes() == want.tobytes()
