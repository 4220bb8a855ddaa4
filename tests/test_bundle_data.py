import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_reference import s_tensor, shape_operator
from json_reference import float64_list
from warpframe import (ChartGrid, GeometricData, SignatureSpec,
                       WarpingFunction, canonical_example, load_data,
                       structure_residuals)
from warpframe import bundle_data
from warpframe.bundle_data import FIELD_NAMES, _inverse_stack
from warpframe.cli import main
from warpframe.errors import InvariantViolation, SchemaError
from warpframe.io import load_dataset, save_dataset


def trivial_data(**overrides):
    """Flat strip: n = m = 1, constant warping, vertical slice data."""
    spec = SignatureSpec.from_counts(1, 1, 1, 1, (1,), (1,))
    w = WarpingFunction("constant")
    grid = ChartGrid((5,), (0.1,), (0.0,), (2,))
    fields = dict(
        frame=np.broadcast_to(np.eye(1), (5, 1, 1)).copy(),
        omega_tangent=np.zeros((5, 1, 1, 1)),
        omega_bundle=np.zeros((5, 1, 1, 1)),
        alpha=np.zeros((5, 1, 1, 1)),
        T_comp=np.zeros((5, 1)),
        xi_comp=np.ones((5, 1)),
        pi=np.full((5,), 0.3),
    )
    fields.update(overrides)
    return GeometricData(spec, w, grid, **fields)


def frame_data(frame):
    """Data of n = frame.shape[-1] (m = 1, a grid of 3 nodes per axis)
    with the given frames (3, ..., 3, n, n) and zeros elsewhere."""
    n = frame.shape[-1]
    ext = (3,) * n
    spec = SignatureSpec.from_counts(n, 1, 1, 1, (1,) * n, (1,))
    grid = ChartGrid(ext, (0.1,) * n, (0.0,) * n, (1,) * n)
    return GeometricData(
        spec, WarpingFunction("constant"), grid, frame=frame,
        omega_tangent=np.zeros(ext + (n, n, n)),
        omega_bundle=np.zeros(ext + (1, 1, n)),
        alpha=np.zeros(ext + (1, n, n)), T_comp=np.zeros(ext + (n,)),
        xi_comp=np.ones(ext + (1,)), pi=np.full(ext, 0.3))


class TestChartGrid:
    def test_extent_minimum(self):
        with pytest.raises(SchemaError):
            ChartGrid((2, 5), (0.1, 0.1), (0.0, 0.0), (0, 0))

    def test_positive_spacing(self):
        for h in (0.0, -0.1, math.nan, math.inf, 1e200):
            with pytest.raises(SchemaError):
                ChartGrid((5,), (h,), (0.0,), (0,))

    def test_finite_origin(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(SchemaError, match="origin"):
                ChartGrid((5,), (0.1,), (x,), (0,))

    def test_refine_preserves_span(self):
        g = ChartGrid((5, 9), (0.2, 0.1), (-0.4, 0.0), (2, 4))
        f = g.refine(2)
        assert f.extents == (9, 17)
        fa, ga = f.axes(), g.axes()
        assert (fa[0][8], fa[1][16]) == (ga[0][4], ga[1][8])
        assert all(fa[k][f.base_node[k]] == ga[k][g.base_node[k]]
                   for k in range(2))


class TestValidation:
    def test_clean_data_passes(self):
        data = trivial_data()
        assert data.validate() == []

    def test_alpha_symmetry_violation(self, slice17):
        _, data = slice17
        al = data.alpha.copy()
        al[..., 0, 0, 1] += 0.5
        with pytest.raises(InvariantViolation, match="alpha symmetry"):
            GeometricData(data.spec, data.warping, data.grid,
                          frame=data.frame, omega_tangent=data.omega_tangent,
                          omega_bundle=data.omega_bundle, alpha=al,
                          T_comp=data.T_comp, xi_comp=data.xi_comp,
                          pi=data.pi).validate()

    def test_pi_domain_violation(self):
        spec = SignatureSpec.from_counts(1, 1, 1, 1, (1,), (1,))
        w = WarpingFunction("cosh", domain=(-1.0, 1.0))
        data = trivial_data()
        bad = GeometricData(spec, w, data.grid, frame=data.frame,
                            omega_tangent=data.omega_tangent,
                            omega_bundle=data.omega_bundle, alpha=data.alpha,
                            T_comp=data.T_comp, xi_comp=data.xi_comp,
                            pi=np.full((5,), 3.0))
        with pytest.raises(InvariantViolation, match="pi leaves"):
            bad.validate()

    def test_gradient_link_violation(self):
        # pi varies but T = 0: T = eps grad(pi) fails
        data = trivial_data(pi=np.linspace(0.0, 1.0, 5))
        with pytest.raises(InvariantViolation, match="grad"):
            data.validate()

    def test_singular_frame_listed_and_gradient_check_skipped(self):
        # pi varies with T = 0, so the T = eps grad(pi) check would fail;
        # it needs the inverse frame, which does not exist at node 3.
        frame = np.ones((5, 1, 1))
        frame[3] = 0.0
        data = trivial_data(frame=frame, pi=np.linspace(0.0, 1.0, 5))
        with pytest.raises(InvariantViolation) as exc:
            data.validate()
        assert exc.value.problems == ["frame is singular at node (3,)"]
        with pytest.raises(InvariantViolation, match=r"node \(3,\)"):
            data.inv_frame

    def test_vertical_norm_drift_flagged_not_raised(self):
        # validate leaves the vertical-norm identity to residual (A), which
        # fails the drifted data and names its worst node
        data = trivial_data(xi_comp=np.full((5, 1), 1.1))
        assert data.validate() == []
        rep = structure_residuals(data)
        assert rep.failing() == ["A"]
        assert rep["A"].sup == pytest.approx(0.21, abs=1e-12)
        assert rep["A"].worst_node == (0,)

    def test_skewness_violation(self):
        ot = np.zeros((5, 1, 1, 1))
        ot[..., 0, 0, 0] = 0.2  # omega_11 must vanish
        with pytest.raises(InvariantViolation, match="skew"):
            trivial_data(omega_tangent=ot).validate()

    def test_every_finding_listed(self):
        # Two faults: both are found, in validate's order, and the message
        # is their join.
        alpha = np.zeros((5, 1, 2, 2))
        alpha[2, 0, 0, 1] = 0.5
        spec = SignatureSpec.from_counts(2, 1, 1, 1, (1, 1), (1,))
        grid = ChartGrid((5, 5), (0.1, 0.1), (0.0, 0.0), (2, 2))
        data = GeometricData(
            spec, WarpingFunction("cosh", domain=(-1.0, 1.0)), grid,
            frame=np.broadcast_to(np.eye(2), (5, 5, 2, 2)),
            omega_tangent=np.zeros((5, 5, 2, 2, 2)),
            omega_bundle=np.zeros((5, 5, 1, 1, 2)),
            alpha=np.broadcast_to(alpha, (5, 5, 1, 2, 2)),
            T_comp=np.zeros((5, 5, 2)), xi_comp=np.ones((5, 5, 1)),
            pi=np.full((5, 5), 3.0))
        with pytest.raises(InvariantViolation) as exc:
            data.validate()
        problems = exc.value.problems
        assert len(problems) == 2
        assert problems[0].startswith("alpha symmetry violated")
        assert problems[0].endswith("at node (0, 2)")
        assert problems[1] == "pi leaves the warping domain I"
        assert str(exc.value) == "; ".join(problems)

    def test_single_message_is_its_own_finding(self):
        exc = InvariantViolation("frame is singular at node (3,)")
        assert exc.problems == ["frame is singular at node (3,)"]



def _slice_with(data, name, index, amount):
    """data (n = 2 slice, 17^2) with amount added to one entry of a field."""
    fields = {f: getattr(data, f) for f in ("frame", "omega_tangent",
                                            "omega_bundle", "alpha",
                                            "T_comp", "xi_comp", "pi")}
    fields[name] = fields[name].copy()
    fields[name][index] += amount
    return GeometricData(data.spec, data.warping, data.grid, **fields)


class TestValidateNodes:
    """Every structural violation names its worst node as plain ints."""

    @pytest.mark.parametrize("name, index, amount, text", [
        ("alpha", (3, 4, 0, 0, 1), 1e-3, "alpha symmetry violated"),
        ("omega_tangent", (3, 4, 0, 1, 0), 1e-3,
         "tangent connection not metric-skew"),
        ("omega_bundle", (3, 4, 0, 0, 1), 1e-3,
         "bundle connection not metric-skew"),
        ("T_comp", (3, 4, 0), 0.1, "T is not eps*grad(pi)")],
        ids=["alpha", "omega_tangent", "omega_bundle", "T_comp"])
    def test_violation_names_node(self, slice17, name, index, amount, text):
        _, data = slice17
        with pytest.raises(InvariantViolation) as exc:
            _slice_with(data, name, index, amount).validate()
        problems = exc.value.problems
        assert len(problems) == 1
        assert problems[0].startswith(text)
        assert problems[0].endswith(" at node (3, 4)")

    # 1e-3 on one entry of a derivative field at node (3, 4): a lower
    # entry of d omega_tangent/dx_1 (the verifier reads the upper ones
    # only), the diagonal of d omega_bundle/dx_0 (which counts twice), one
    # side of d alpha/dx_1.
    DERIVATIVE_DEFECTS = [
        ("omega_tangent", (1, 3, 4, 1, 0, 0),
         "derivative domega_tangent/dx_1 not metric-skew, worst 1.000e-03"),
        ("omega_bundle", (0, 3, 4, 0, 0, 1),
         "derivative domega_bundle/dx_0 not metric-skew, worst 2.000e-03"),
        ("alpha", (1, 3, 4, 0, 1, 0),
         "derivative dalpha/dx_1 not symmetric, worst 1.000e-03")]

    @pytest.mark.parametrize("name, index, text", DERIVATIVE_DEFECTS,
                             ids=[d[0] for d in DERIVATIVE_DEFECTS])
    def test_derivative_violation_names_axis_and_node(self, slice17, name,
                                                      index, text):
        _, data = slice17
        with pytest.raises(InvariantViolation) as exc:
            derivative_with(data, name, index, 1e-3).validate()
        problems = exc.value.problems
        assert problems == [f"{text} at node (3, 4)"]

    @pytest.mark.parametrize("name, index, text", DERIVATIVE_DEFECTS,
                             ids=[d[0] for d in DERIVATIVE_DEFECTS])
    def test_roundoff_derivative_defect_passes(self, slice17, name, index,
                                               text):
        _, data = slice17
        assert derivative_with(data, name, index, 1e-12).validate() == []


def derivative_with(data, name, index, amount):
    """data with amount added to one entry of the derivative field of
    name, index (k, *node, *comp)."""
    derivs = dict(data.derivs)
    derivs[name] = derivs[name].copy()
    derivs[name][index] += amount
    return GeometricData(data.spec, data.warping, data.grid, derivs=derivs,
                         **{f: getattr(data, f) for f in FIELD_NAMES})

class TestSerialization:
    def test_bit_exact_round_trip(self, slice17):
        _, data = slice17
        doc = json.loads(json.dumps(data.to_document(), default=float64_list))
        again = load_data(doc)
        for name in ("frame", "omega_tangent", "omega_bundle", "alpha",
                     "T_comp", "xi_comp", "pi"):
            assert np.array_equal(getattr(data, name), getattr(again, name))
        for name, arr in data.derivs.items():
            assert np.array_equal(arr, again.derivs[name])
        assert again.generator == data.generator

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_data({"kind": "something_else"})
        data = trivial_data()
        doc = data.to_document()
        del doc["fields"]["alpha"]
        with pytest.raises(SchemaError, match="alpha"):
            load_data(doc)
        doc = data.to_document()
        doc["fields"]["pi"] = doc["fields"]["pi"][:-1]
        with pytest.raises(SchemaError):
            load_data(doc)


def _asarray(values):
    return np.asarray(values, dtype=float)


def _load_outcome(doc):
    """The fields load_data returns for doc, as bytes, or the type and
    message of what it raises."""
    try:
        data = load_data(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return {name: getattr(data, name).tobytes() for name in FIELD_NAMES}


class TestDocumentArray:
    """A document's list converts in one pass with np.fromiter; the result,
    and the error of a list that does not convert, are np.asarray's."""

    FLOATS = st.one_of(st.floats(), st.sampled_from([
        -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308]))
    INTS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from([
        2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64,
        2 ** 1023 + 2 ** 970]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.lists(st.one_of(FLOATS, INTS, st.booleans()),
                           max_size=30))
    def test_bits_of_asarray(self, values):
        got = bundle_data._document_array("field pi", values, (len(values),))
        ref = _asarray(values)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("value", [
        None, "abc", 0.3, [[0.3] * 5], [[0.3, 0.3]] * 2,
        [[0.3, 0.3], [0.3]], [0.3, [0.3], 0.3, 0.3, 0.3],
        [0.3] * 4 + [10 ** 400], [0.3] * 4 + [None], [0.3] * 4 + ["abc"],
        [0.3] * 4 + ["0.3"]],
        ids=["null", "string", "scalar", "nested", "nested_size",
             "ragged", "ragged_flat", "beyond_float", "null_entry",
             "string_entry", "numeric_string"])
    def test_load_outcome_of_asarray(self, value, monkeypatch):
        # load_data ends as it did when every list went to np.asarray:
        # the same arrays, or the same exception and message.
        doc = json.loads(json.dumps(trivial_data().to_document(),
                                    default=float64_list))
        doc["fields"]["pi"] = value
        got = _load_outcome(doc)
        monkeypatch.setattr(bundle_data, "_float_array", _asarray)
        assert got == _load_outcome(doc)


class TestSchemaGate:
    """The constructor checks every dataset, however it was built."""

    def test_nan_in_field_named_with_node(self):
        pi = np.full((5,), 0.3)
        pi[3] = np.nan
        with pytest.raises(SchemaError,
                           match=r"field pi: non-finite value at node \(3,\)"):
            trivial_data(pi=pi)

    def test_nan_in_derivative_named_with_node(self, slice17):
        _, data = slice17
        derivs = dict(data.derivs)
        dT = data.derivs["T_comp"].copy()
        dT[1, 3, 4, 0] = np.inf
        derivs["T_comp"] = dT
        with pytest.raises(SchemaError,
                           match=r"derivative dT_comp/dx_1: non-finite "
                                 r"value at node \(3, 4\)"):
            GeometricData(data.spec, data.warping, data.grid, derivs=derivs,
                          **{name: getattr(data, name)
                             for name in FIELD_NAMES})

    def test_unknown_derivative_field(self, slice17):
        _, data = slice17
        with pytest.raises(SchemaError, match="unknown derivative field pi"):
            GeometricData(data.spec, data.warping, data.grid,
                          derivs={**data.derivs,
                                  "pi": np.zeros((2,) + data.pi.shape)},
                          **{name: getattr(data, name)
                             for name in FIELD_NAMES})

    def test_private_copies_are_component_major(self, slice17, tmp_path):
        # Loaded or induced, each field is a read-only grid-major view of a
        # component-major copy of the values passed.
        _, data = slice17
        path = tmp_path / "slice.json"
        save_dataset(data, path)
        loaded = load_dataset(path)
        nd = data.grid.n
        for d in (data, loaded):
            arrays = [getattr(d, name) for name in FIELD_NAMES]
            arrays += [part for v in d.derivs.values() for part in v]
            for arr in arrays:
                assert not arr.flags.writeable
                assert np.moveaxis(arr, range(nd),
                                   range(-nd, 0)).flags.c_contiguous
        for name in FIELD_NAMES:
            assert (getattr(loaded, name).tobytes()
                    == getattr(data, name).tobytes())


class TestDerivedObjects:
    @pytest.mark.parametrize("name", ["helix", "vertical_geodesic"])
    def test_inv_frame_n1_is_the_lapack_inverse(self, name):
        _, data = canonical_example(name, {})
        assert (data.inv_frame.tobytes()
                == np.linalg.inv(data.frame).tobytes())

    def test_inv_frame_n1_random_frames(self):
        rng = np.random.default_rng(3)
        frame = (rng.standard_normal((5, 1, 1))
                 * 10.0 ** rng.integers(-300, 300, (5, 1, 1)))
        data = trivial_data(frame=frame)
        assert (data.inv_frame.tobytes()
                == np.linalg.inv(data.frame).tobytes())

    def test_inv_frame_n1_names_first_zero_node(self):
        frame = np.ones((5, 1, 1))
        frame[1], frame[3] = -0.0, 0.0
        data = trivial_data(frame=frame)
        with pytest.raises(InvariantViolation,
                           match=r"^frame is singular at node \(1,\)$"):
            data.inv_frame

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 5), L=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
    def test_inverse_stack_matches_lapack(self, n, L, seed, log_scale):
        # Gaussian stacks, diagonally dominant ones with their rows
        # permuted (the pivots undo the permutation) and column-scaled
        # ones.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, L, n, n))
        i = np.arange(n)
        A[1, :, i, i] += 2.0 * n * np.sign(A[1, :, i, i])
        A[1] = A[1][:, rng.permutation(n)]
        A[2] *= 10.0 ** (log_scale * rng.uniform(-1.0, 1.0, (L, 1, n)))
        A = A.reshape(3 * L, n, n)
        X, singular = _inverse_stack(np.moveaxis(A, 0, -1))
        got = np.moveaxis(X, -1, 0)
        want = np.linalg.inv(A)
        cond = np.linalg.cond(A)
        assert not singular.any()
        err = np.abs(got - want).max(axis=(-1, -2))
        assert np.all(err <= 1e-13 * cond * np.abs(want).max(axis=(-1, -2)))

    def test_inverse_stack_n1_is_the_reciprocal(self):
        rng = np.random.default_rng(5)
        A = (rng.standard_normal((1, 1, 40))
             * 10.0 ** rng.integers(-300, 300, (1, 1, 40)))
        X, singular = _inverse_stack(A)
        assert X.tobytes() == (1.0 / A).tobytes() and not singular.any()

    @pytest.mark.parametrize("n, kind", [
        (1, "zero"), (2, "zero"), (3, "zero"), (2, (0, 1)), (3, (0, 2)),
        (3, (1, 2)), (1, "overflow"), (2, "overflow"), (3, "overflow")])
    def test_singular_frames_name_the_node(self, n, kind):
        # A zero frame, one with two equal rows, or one whose inverse
        # overflows, at node (2, 0, ...). Node (0, ...) holds 1e-30 I: its
        # |det| is smaller than that of the overflowing frame, but its
        # inverse exists.
        rng = np.random.default_rng(n)
        frame = np.broadcast_to(np.eye(n), (3,) * n + (n, n)).copy()
        frame[(0,) * n] = 1e-30 * np.eye(n)
        bad = (2,) + (0,) * (n - 1)
        if kind == "zero":
            frame[bad] = 0.0
        elif kind == "overflow":
            frame[bad] = np.diag([1e-320] + [1e300] * (n - 1))
        else:
            frame[bad] = rng.standard_normal((n, n))
            frame[bad + (kind[1],)] = frame[bad + (kind[0],)]
        with pytest.raises(InvariantViolation, match=(
                rf"^frame is singular at node {re.escape(str(bad))}$")):
            frame_data(frame).inv_frame

    @pytest.mark.parametrize("command", ["validate", "verify", "reconstruct"])
    def test_zeroed_node_of_3d_slice_exits_two(self, command, tmp_path,
                                               capsys):
        _, data = canonical_example("slice", {
            "n": 3, "grid_extents": [9, 9, 9],
            "grid_spacing": [0.05, 0.05, 0.05],
            "attach_derivatives": False})
        doc = json.loads(json.dumps(data.to_document(),
                                    default=float64_list))
        frame = np.array(doc["fields"]["frame"]).reshape(data.frame.shape)
        frame[2, 4, 6] = 0.0
        doc["fields"]["frame"] = frame.ravel().tolist()
        path = tmp_path / "zeroed.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert "frame is singular at node (2, 4, 6)" in out.out + out.err

    def test_delta_all_slice_pattern(self):
        data = trivial_data()
        np.testing.assert_array_equal(data.delta_all()[2], [0, 0, 1])

    def test_delta_zero_slot(self, slice17):
        _, data = slice17
        assert np.all(data.delta_all()[..., 0] == 0.0)

    def test_shape_operator_zero_alpha(self):
        data = trivial_data()
        assert np.all(shape_operator(data, (2,), [3.0]) == 0.0)

    def test_shape_operator_umbilic(self, slice17):
        _, data = slice17
        a, a1, _ = data.warp_values()
        node = (8, 8)
        A = shape_operator(data, node, data.xi_comp[node])
        np.testing.assert_allclose(A, -(a1 / a)[node] * np.eye(2), atol=1e-12)

    def test_shape_operator_linearity_and_adjunction(self, slice17, rng):
        _, data = slice17
        node = (5, 9)
        spec = data.spec
        for _ in range(5):
            e1 = rng.normal(size=1)
            e2 = rng.normal(size=1)
            c1, c2 = rng.normal(size=2)
            A = shape_operator(data, node, c1 * e1 + c2 * e2)
            A12 = c1 * shape_operator(data, node, e1) \
                + c2 * shape_operator(data, node, e2)
            np.testing.assert_allclose(A, A12, atol=1e-13)
            # <A_eta e_i, e_j> = <alpha(e_i, e_j), eta> for all frame pairs
            for i in range(2):
                for j in range(2):
                    lhs = spec.tangent_signs[j] * A[j, i]
                    rhs = float(np.dot(
                        spec.bundle_signs * (c1 * e1 + c2 * e2),
                        data.alpha[node][:, i, j]))
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_s_tensor_collapses_without_vertical_part(self):
        data = trivial_data(xi_comp=np.zeros((5, 1)),
                            T_comp=np.zeros((5, 1)))
        # S X = -X/(a c) with a = c = 1 and no vertical projection term
        tangent, bundle = s_tensor(data, (2,), np.array([2.0]))
        np.testing.assert_array_equal(tangent, [-2.0])
        np.testing.assert_array_equal(bundle, [0.0])

    def test_s_tensor_kills_T_when_xi_vanishes(self):
        data = trivial_data(T_comp=np.ones((5, 1)),
                            xi_comp=np.zeros((5, 1)),
                            pi=np.linspace(0.1, 0.5, 5))
        tangent, _ = s_tensor(data, (2,), np.array([1.0]))
        np.testing.assert_allclose(tangent, [0.0], atol=1e-15)

    def test_s_tensor_output_orthogonal_to_vertical(self, slice17, rng):
        imm, data = slice17
        spec = data.spec
        for _ in range(10):
            node = tuple(rng.integers(0, 17, size=2))
            X = rng.normal(size=2)
            tangent, bundle = s_tensor(data, node, X)
            ip = (np.dot(spec.tangent_signs * tangent, data.T_comp[node])
                  + np.dot(spec.bundle_signs * bundle, data.xi_comp[node]))
            assert abs(ip) <= 1e-12


def test_fields_are_read_only_after_construction():
    data = trivial_data()
    with pytest.raises(ValueError):
        data.alpha[0, 0, 0, 0] = 1.0


def test_derivatives_are_private_read_only_copies(slice17, tmp_path):
    _, data = slice17
    path = tmp_path / "slice.json"
    save_dataset(data, path)
    for held in (data, load_dataset(path)):
        assert held.derivs
        for arr in held.derivs.values():
            with pytest.raises(ValueError):
                arr[...] = 5.0
        with pytest.raises(ValueError):
            held.derivs["T_comp"][...] = 5.0
    given = {name: arr.copy() for name, arr in data.derivs.items()}
    fields = {name: getattr(data, name) for name in (
        "frame", "omega_tangent", "omega_bundle", "alpha", "T_comp",
        "xi_comp", "pi")}
    copy = GeometricData(data.spec, data.warping, data.grid, derivs=given,
                         **fields)
    for arr in given.values():
        arr[...] = 5.0
    for name, arr in copy.derivs.items():
        assert np.array_equal(arr, data.derivs[name]), name
