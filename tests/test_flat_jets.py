"""Flat jets against the nested reference they replaced.

Random jet programs run twice, once on warpframe.jets and once on
tests/jets_reference.py, from the same seeded coordinates. Values and first
partials must agree bit for bit, every higher partial to 1e-14 of the
reference's scale at its order, and the flat jet has one mixed partial per
multi-index, whatever the order of differentiation.
"""

import itertools

import jets_reference as nested
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from warpframe import jets as flat

NODES = 3
MIX = np.array([[0.7, -0.4], [0.2, 1.1]])


def _bounded(J, x):
    """x scaled so that its values lie in [-1, 1]."""
    return x * (1.0 / (1.0 + float(np.abs(J.value(x)).max())))


# Each operation maps registers (2, NODES) to a register of that shape, on
# either implementation J; denominators and radicands stay away from zero.
OPS = {
    "add": lambda J, a, b: a + b,
    "sub": lambda J, a, b: a - b,
    "rsub": lambda J, a, b: 0.5 - a,
    "mul": lambda J, a, b: a * b,
    "div": lambda J, a, b: a / (2.0 + J.sin(b)),
    "rdiv": lambda J, a, b: 1.0 / (1.5 + a),
    "cube": lambda J, a, b: a * a * a,
    "square": lambda J, a, b: a * a,
    "sqrt": lambda J, a, b: J.sqrt(1.0 + a * a),
    "sin": lambda J, a, b: J.sin(a),
    "cos": lambda J, a, b: J.cos(a),
    "sinh": lambda J, a, b: J.sinh(a),
    "cosh": lambda J, a, b: J.cosh(a),
    "exp": lambda J, a, b: J.exp(a),
    "einsum1": lambda J, a, b: J.einsum("i...,ij->j...", a, MIX),
    "einsum2": lambda J, a, b: J.einsum("ij,j...,i...->i...", MIX, a, b),
    "index": lambda J, a, b: a[::-1] * b[1],
    "block": lambda J, a, b: _block(J, a, b),
    "linear": lambda J, a, b: J.linear(
        lambda v: np.moveaxis(v, -1, 0), J.linear(
            lambda v: np.ascontiguousarray(np.moveaxis(v, 0, -1)), a)),
}


def _block(J, a, b):
    out = J.zeros((2, NODES), like=a)
    out[0] = b[1]
    out[1, 1:] = a[0, 1:]
    out[1, :1] = 0.25               # a constant: zero partials
    return out


def _run(J, coords, order, program):
    X = J.seed(list(coords), order)
    regs = []
    for k, x in enumerate(X):
        r = J.zeros((2, NODES), like=x)
        r[0] = x
        r[1] = 0.5 * X[(k + 1) % len(X)] - x
        regs.append(r)
    for name, i, j in program:
        a, b = regs[i % len(regs)], regs[j % len(regs)]
        regs.append(_bounded(J, OPS[name](J, a, b)))
    return regs[-1]


def _derivative(J, f, seq):
    for k in seq:
        f = J.part(f, k)
    return J.value(f)


programs = st.lists(st.tuples(st.sampled_from(sorted(OPS)),
                              st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), order=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), program=programs)
def test_flat_jets_match_nested_reference(n, order, seed, program):
    coords = np.random.default_rng(seed).uniform(-0.9, 0.9, (n, NODES))
    got = _run(flat, coords, order, program)
    ref = _run(nested, coords, order, program)
    assert isinstance(got, flat.Jet)
    for degree in range(order + 1):
        seqs = list(itertools.product(range(n), repeat=degree))
        want = {s: _derivative(nested, ref, s) for s in seqs}
        scale = max(1.0, max(float(np.abs(w).max()) for w in want.values()))
        for s in seqs:
            have = _derivative(flat, got, s)
            if degree <= 1:
                assert have.tobytes() == want[s].tobytes(), (s, program)
            else:
                assert np.abs(have - want[s]).max() <= 1e-14 * scale, (
                    s, program)
                # One row per multi-index: every order of differentiation
                # reads the same numbers.
                same = _derivative(flat, got, sorted(s))
                assert have.tobytes() == same.tobytes(), s
