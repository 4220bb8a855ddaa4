"""The writers of warpframe.io against the standard library, byte for byte.

The references are the writers the module used before it formatted floats
itself: ``json.dump(doc, fh, indent=1)`` plus a newline, and one
``csv.writer`` row per node. Every file must come out identical.
"""

import csv
import io
import json
import math
import os
import secrets
import struct
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from json_reference import float64_list

from warpframe import ChartGrid, canonical_example
from warpframe import io as wio
from warpframe.bundle_data import FIELD_NAMES, load_data
from warpframe.cli import main
from warpframe.errors import SchemaError
from warpframe.immersion import ImmersionField
from warpframe.oracle import example_names


def stdlib_json(doc):
    buf = io.StringIO()
    json.dump(doc, buf, indent=1, default=float64_list)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def stdlib_write_json(doc, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(stdlib_json(doc))


def stdlib_write_immersion_csv(imm, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    n = imm.grid.n
    d = imm.spatial.shape[-1]
    header = [f"i{k}" for k in range(n)] + [f"f{g}" for g in range(d)] + ["t"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for idx in np.ndindex(*imm.grid.extents):
            row = [str(i) for i in idx]
            row += [repr(float(v)) for v in imm.spatial[idx]]
            row.append(repr(float(imm.t[idx])))
            wr.writerow(row)


def float_texts(a):
    """The repr texts of the values of a float array in row-major order, as
    the immersion CSV writer takes a column's from _float_reprs."""
    a = np.asarray(a, dtype=np.float64).ravel()
    return wio._float_reprs(a, b",").decode().split(",")


def written(doc, tmp_path):
    path = tmp_path / "doc.json"
    wio._write_json(doc, path)
    return path.read_bytes()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-7,
               1e-4, 0.0001234, 0.1, 1 / 3, -2.5, 123456789.0]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Floats with any bit pattern, and the ones json spells NaN and Infinity.
FINITE = st.sampled_from(EDGE_FLOATS) | st.integers(0, 2 ** 64 - 1).map(
    from_bits).filter(math.isfinite)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
# 1-D float64 arrays: mostly finite and non-empty (spliced in by the
# writer), sometimes empty or non-finite (left to json as lists).
ARRAYS = (st.lists(FINITE, min_size=1) | st.lists(FINITE | NON_FINITE)).map(
    lambda values: np.array(values, dtype=np.float64))
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
PLACEHOLDER_PREFIX = "warpframe-array-"


class TestJsonWriter:
    @pytest.mark.parametrize("name", example_names())
    def test_fixture_datasets(self, name, tmp_path):
        _, data = canonical_example(name, {})
        path = tmp_path / f"{name}.json"
        wio.save_dataset(data, path)
        assert path.read_bytes() == stdlib_json(data.to_document())

    def test_reconstruct_and_verify_outputs(self, tmp_path, monkeypatch):
        """frames, diagnostics, reports and the immersion CSV as the CLI
        writes them, against the same commands on the reference writers."""
        _, data = canonical_example("slice", {"n": 2})
        src = tmp_path / "slice.json"
        wio.save_dataset(data, src)

        def run(out):
            assert main(["reconstruct", str(src), "-o", str(out)]) == 0
            assert main(["verify", str(src), "-o", str(out),
                         "--h-refine", "2"]) == 0

        run(tmp_path / "fast")
        files = sorted(p.name for p in (tmp_path / "fast").iterdir())
        assert {"frames.json", "bfield.json", "conclusions.json",
                "immersion.csv", "residuals.json",
                "residuals_refined.json"} <= set(files)
        monkeypatch.setattr(wio, "_write_json", stdlib_write_json)
        monkeypatch.setattr(wio, "write_immersion_csv",
                            stdlib_write_immersion_csv)
        run(tmp_path / "ref")
        for name in files:
            assert ((tmp_path / "fast" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name

    def test_frame_matrix_document(self, tmp_path):
        B = np.random.default_rng(3).standard_normal((5, 5))
        path = tmp_path / "B.json"
        wio.save_frame_matrix(B, path)
        doc = {"format_version": 1, "kind": "warpframe.frame",
               "shape": [5, 5], "matrix": B.ravel().tolist()}
        assert path.read_bytes() == stdlib_json(doc)
        # Older documents carry the base node; the reader ignores it.
        path.write_bytes(stdlib_json({**doc, "node": [1, 2]}))
        np.testing.assert_array_equal(wio.load_frame_matrix(path), B)

    @pytest.mark.parametrize("doc", [
        EDGE_FLOATS,
        EDGE_FLOATS + [math.nan],
        [math.inf, -math.inf, 1.0],
        [-math.nan, 0.0],
        [1.0, 2, True, None, 3.5, False],
        [np.float64(0.1), 0.1, np.float64(-0.0)],
        (1.5, (2.5, -0.0), []),
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
        {1: 2.0, 2.5: "x", True: None, None: [1.0], math.nan: 1, -math.inf: 0},
        {"esc\"\\\n\t\x01": "café – \U0001f600 \x7f", "": ""},
        [0.1] * 3,
        [7.25],
        0.1,
        -0.0,
        math.nan,
        "plain",
        None,
        [],
        {},
        2 ** 70,
        [2 ** 70, -1, 0],
    ])
    def test_edge_values(self, doc, tmp_path):
        assert written(doc, tmp_path) == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        [1.0, np.int64(3)], {"a": np.arange(3)}, {(1, 2): 1.0}, [{1, 2}],
        object(), np.zeros((2, 2)), [np.zeros(3, dtype=np.float32)],
        np.zeros((0, 1))])
    def test_unserializable_raises_type_error(self, doc, tmp_path):
        with pytest.raises(TypeError):
            stdlib_json(doc)
        with pytest.raises(TypeError):
            written(doc, tmp_path)

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.lists(st.floats(), min_size=1)
        | st.lists(st.sampled_from(EDGE_FLOATS), min_size=1),
        lambda kids: (st.lists(kids) | st.tuples(kids, kids)
                      | st.dictionaries(st.text() | st.integers()
                                        | st.floats() | st.booleans()
                                        | st.none(), kids)),
        max_leaves=12))
    def test_nested_documents(self, doc, tmp_path):
        assert written(doc, tmp_path) == stdlib_json(doc)

    # A 1-D float64 array is written as json writes a.tolist(), at any depth.
    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(FINITE) | st.lists(FINITE | NON_FINITE))
    def test_float64_arrays(self, values, tmp_path):
        a = np.array(values, dtype=np.float64)
        assert written(a, tmp_path) == stdlib_json(a.tolist())
        assert (written({"a": [a, a[::-1]]}, tmp_path)
                == stdlib_json({"a": [a.tolist(), a[::-1].tolist()]}))

    @pytest.mark.parametrize("size", [
        0, 1, wio._PIECE - 1, wio._PIECE, wio._PIECE + 1, 3 * wio._PIECE + 1])
    def test_float64_array_pieces(self, size, tmp_path):
        rng = np.random.default_rng(size)
        pool = np.array(EDGE_FLOATS)
        a = np.where(rng.random(size) < 0.5, rng.choice(pool, size),
                     rng.standard_normal(size).round(3))
        assert written({"x": a}, tmp_path) == stdlib_json({"x": a.tolist()})
        pieces = list(wio._json_chunks(a))
        assert max(piece.count(b",") for piece in pieces) < wio._PIECE

    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inner=st.recursive(
        ARRAYS | st.none() | st.floats() | st.text(),
        lambda kids: (st.lists(st.dictionaries(KEYS, kids, min_size=1),
                               min_size=1)
                      | st.tuples(kids, kids)
                      | st.dictionaries(KEYS, kids, min_size=1)),
        max_leaves=10), key=KEYS, a=ARRAYS)
    def test_arrays_in_nested_documents(self, inner, key, a, tmp_path):
        """Arrays in lists of dicts, in tuples and under non-string keys,
        at depth 3 or more, land where json.dump puts their lists."""
        doc = [{key: (inner, a)}, {"x": [{None: a, 1.5: [a]}]}]
        assert written(doc, tmp_path) == stdlib_json(doc)

    def test_strings_like_the_placeholder(self, tmp_path):
        doc = {"s": PLACEHOLDER_PREFIX, "t": PLACEHOLDER_PREFIX + "0" * 16,
               PLACEHOLDER_PREFIX: [np.array([0.5, -1.5])],
               "u": [PLACEHOLDER_PREFIX + "x", np.array([2.0])]}
        assert written(doc, tmp_path) == stdlib_json(doc)

    @pytest.mark.parametrize("as_key", [False, True])
    def test_string_equal_to_placeholder_raises(self, as_key, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(secrets, "token_hex", lambda n: "ab" * n)
        placeholder = PLACEHOLDER_PREFIX + "ab" * 8
        doc = {"a": np.array([1.0, 2.0])}
        doc.update({placeholder: 1.0} if as_key else {"s": placeholder})
        path = tmp_path / "out" / "bfield.json"
        with pytest.raises(ValueError, match="placeholder"):
            wio.save_diagnostics(doc, path)
        assert not path.parent.exists()


# NaNs of either sign, with and without a payload: repr drops both.
SIGNED_NANS = [math.nan, -math.nan, from_bits(0x7FF0000000000001),
               from_bits(0xFFF0000000000001)]
SIGNED_EDGES = [0.0, 5e-324, 1.7976931348623157e308, math.inf] + SIGNED_NANS


def boundary_floats():
    """Every power of ten from 1e-324 to 1e308 with its neighbours 1 to 4
    ulps away (1e-9, 1e-5, 1e-4 and 1e16 among them: orjson's spelling
    changes there), subnormals, NaNs with payloads and inf, of both signs.
    """
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    values = [powers]
    up = down = powers
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        values += [up, down]
    specials = [from_bits(b) for b in (
        1, 2, 0x000FFFFFFFFFFFFF, 0x0008000000000000, 0x0010000000000000,
        0x7FF0000000000000, 0x7FF0000000000001, 0x7FF8000000000000,
        0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF)]
    a = np.concatenate(values + [np.array(specials)])
    return np.concatenate([a, -a])


class TestFloatTexts:
    """orjson formats the floats; every text must be repr's, where orjson
    spells a value differently too."""

    def test_boundary_sweep(self, tmp_path):
        a = boundary_floats()
        assert float_texts(a) == list(map(float.__repr__, a.tolist()))
        finite = a[np.isfinite(a)]
        assert (written({"x": finite}, tmp_path)
                == stdlib_json({"x": finite.tolist()}))

    # Uniform bit patterns (FINITE) seldom land in the ranges where
    # orjson's spelling differs from repr's.
    @settings(max_examples=200, deadline=None, database=None)
    @given(values=st.lists(
        st.floats(1e-10, 1e-3) | st.floats(1e15, 1e18)
        | st.floats(-1e-3, -1e-10) | st.floats(-1e18, -1e15), min_size=1))
    def test_respelled_ranges_match_repr(self, values):
        texts = float_texts(np.array(values, dtype=np.float64))
        assert texts == list(map(float.__repr__, values))

    @settings(max_examples=200, deadline=None, database=None)
    @given(values=st.lists(FINITE | NON_FINITE | st.sampled_from(SIGNED_EDGES),
                           min_size=1), wide=st.booleans())
    @example(values=SIGNED_EDGES, wide=False)
    def test_signed_pairs_match_repr(self, values, wide):
        values = values + [-v for v in values]
        a = np.array(values, dtype=np.float64)
        if wide:
            a = a.reshape(2, -1)
        assert float_texts(a) == list(map(float.__repr__, values))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_pairs_across_a_piece_boundary(self, offset, tmp_path):
        """A value and its negative on either side of a piece boundary, in
        both orders, and a magnitude whose negative lies pieces away."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal(2 * wio._PIECE + 3).round(4)
        at = wio._PIECE + offset
        a[at - 1], a[at] = 0.3125, -0.3125
        a[at + 1], a[at + 2] = -1e-300, 1e-300
        a[0], a[-1] = 123.456, -123.456
        assert written({"x": a}, tmp_path) == stdlib_json({"x": a.tolist()})


# Values where orjson's spelling changes (1e-9, 1e-5, 1e-4, 1e16) and on
# either side of them, one-digit texts in each respelled range (1e-05,
# 2e-05, 5e-07, 3e+17), and values of both signs whose texts hold an "e"
# or a "0.0000" that needs no edit.
DENSITY_EDGES = [1e-9, 1e-5, 9.999999999999999e-05, 1e-4, 1e16, 2e-05,
                 5e-07, 3e17, 9.999999999999999e-10, 9.999999999999999e-06,
                 9999999999999998.0, 1.7976931348623157e308, 1e-17, 5e-324,
                 10.00001, 0.0]
DENSITY_EDGES += [-v for v in DENSITY_EDGES]


def density_array(size, case, seed):
    """`size` values of both signs that orjson spells as repr does, except
    for the edits that `case` names: none, one in the first or the last
    slot, every value in one respelled range, about 11 % exponents (as in
    frames.json) or about 3 % from 1e-5 to 1e-4 (as in a dataset). The
    last two have edits in the first and last slot of each piece, and the
    DENSITY_EDGES in between."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size)

    def log_uniform(lo, hi, n=size):
        return 10.0 ** rng.uniform(lo, hi, n)

    bands = {"low": (-9, -5), "high": (16, 308), "small": (-5, -4)}
    if case.startswith("all_"):
        return sign * log_uniform(*bands[case[4:]])
    # Clean magnitudes: from 1e-4 to 1e15, and below 1e-9 (an "e", no edit).
    a = sign * np.where(rng.random(size) < 0.1, log_uniform(-300, -9.5),
                        log_uniform(-4, 15))
    if case in ("one_first", "one_last"):
        a[0 if case == "one_first" else -1] = 1.5e-7
    elif case != "none":
        band, share = {"frames": ("low", 0.11),
                       "dataset": ("small", 0.03)}[case]
        pick = rng.random(size) < share
        a[pick] = sign[pick] * log_uniform(*bands[band], pick.sum())
        a[[0, wio._PIECE - 1]] = [-3.25e-5, 7e-06]
        a[-1] = -1.5e16
        at = rng.choice(np.arange(1, wio._PIECE - 1), len(DENSITY_EDGES),
                        replace=False)
        a[at] = DENSITY_EDGES
    return a


class TestEditDensity:
    """The kernel against repr at every density of respelled values, on
    arrays of one piece and of one piece and one value."""

    @pytest.mark.parametrize("size", [wio._PIECE, wio._PIECE + 1])
    @pytest.mark.parametrize("case", [
        "none", "one_first", "one_last", "frames", "dataset", "all_low",
        "all_high", "all_small"])
    def test_matches_repr(self, case, size, tmp_path):
        a = density_array(size, case, seed=size)
        sep = b",\n  "
        assert (wio._float_reprs(a, sep)
                == sep.join(repr(x).encode() for x in a.tolist()))
        assert written({"x": a}, tmp_path) == stdlib_json({"x": a.tolist()})

    @pytest.mark.parametrize("case, low, high, small", [
        ("none", 0, 0, 0), ("all_low", 1, 0, 0), ("all_high", 0, 1, 0),
        ("all_small", 0, 0, 1), ("frames", 0.11, 0, 0),
        ("dataset", 0, 0, 0.03)])
    def test_cases_hold_their_edits(self, case, low, high, small):
        mag = np.abs(density_array(wio._PIECE, case, seed=1))
        for share, in_band in [(low, (mag >= 1e-9) & (mag < 1e-5)),
                               (high, mag >= 1e16),
                               (small, (mag >= 1e-5) & (mag < 1e-4))]:
            assert abs(np.mean(in_band) - share) < 0.005

    @pytest.mark.parametrize("value, text", [
        (1e-5, b"1e-5"),
        (1.5e-5, b"1.5e-05"),
        (1.5e-7, b"1.5e-07"),
        (1e16, b"1e+16"),
        (math.nan, b"NaN"),
    ])
    def test_unexpected_orjson_spelling_raises(self, value, text,
                                               monkeypatch):
        """Where orjson spells a value unlike the kernel assumes, it
        raises and names orjson's version instead of writing wrong
        bytes."""
        monkeypatch.setattr(wio.orjson, "dumps",
                            lambda f, option=None: b"[0.5," + text + b"]")
        with pytest.raises(RuntimeError,
                           match=f"orjson {wio.orjson.__version__} "):
            wio._float_reprs(np.array([0.5, value]), b",")


class TestFailedWrite:
    def test_previous_file_kept(self, tmp_path, monkeypatch):
        """A kernel that fails on the second piece of a two-piece array
        leaves the previous file as it was, and no temporary file."""
        path = tmp_path / "doc.json"
        previous = stdlib_json({"x": [1.0]})
        path.write_bytes(previous)
        kernel, calls = wio._float_reprs, []

        def fail_second(f, sep):
            calls.append(f.size)
            if len(calls) == 2:
                raise RuntimeError("second piece")
            return kernel(f, sep)

        monkeypatch.setattr(wio, "_float_reprs", fail_second)
        with pytest.raises(RuntimeError, match="second piece"):
            wio._write_json({"x": np.ones(wio._PIECE + 1)}, path)
        assert calls == [wio._PIECE, 1]
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_new_file_replaces_previous(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"previous, and longer than the new file")
        wio._write_json([0.5], path)
        assert path.read_bytes() == stdlib_json([0.5])
        assert os.listdir(tmp_path) == ["doc.json"]


# Immersion values: each range whose orjson spelling is edited, of either
# sign, the non-finite values, -0.0 and any finite bit pattern.
CSV_VALUES = (
    st.tuples(st.floats(1e-9, 1e-5, exclude_max=True)
              | st.floats(1e-5, 1e-4, exclude_max=True)
              | st.floats(1e16, allow_infinity=False), st.booleans()).map(
        lambda vs: -vs[0] if vs[1] else vs[0])
    | NON_FINITE | st.just(-0.0) | FINITE)


class TestImmersionCsv:
    @pytest.mark.parametrize("extents", [(5,), (3, 4), (3, 4, 5)])
    def test_grids(self, extents, helix65, tmp_path):
        _, data = helix65
        n = len(extents)
        grid = ChartGrid(extents, (0.1,) * n, (0.0,) * n, (0,) * n)
        rng = np.random.default_rng(n)
        pool = np.array(EDGE_FLOATS + [math.nan, math.inf, -math.inf])

        def values(shape):
            return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                            rng.standard_normal(shape))

        spatial, t = values(extents + (3,)), values(extents)
        imm = ImmersionField(data.spec, data.warping, grid, spatial, t)
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        wio.write_immersion_csv(imm, fast)
        stdlib_write_immersion_csv(imm, ref)
        assert fast.read_bytes() == ref.read_bytes()

    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(extents=st.lists(st.integers(1, 7), min_size=1, max_size=3),
           draw=st.data())
    def test_rows_match_csv_writer(self, extents, draw, helix65, tmp_path):
        """Any 1-D to 3-D grid, axes of extent 1 included, with values
        from every range whose spelling is edited, non-finite ones and
        -0.0, scattered anywhere in the rows."""
        _, data = helix65
        # Both writers read only the grid's extents and n. ChartGrid
        # refuses axes of fewer than 3 nodes, so the grid is a stand-in.
        grid = types.SimpleNamespace(extents=tuple(extents), n=len(extents))
        size = math.prod(extents) * 4
        values = draw.draw(st.lists(CSV_VALUES, min_size=size,
                                    max_size=size))
        values = np.array(values).reshape(tuple(extents) + (4,))
        imm = ImmersionField(data.spec, data.warping, grid,
                             values[..., :3], values[..., 3])
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        wio.write_immersion_csv(imm, fast)
        stdlib_write_immersion_csv(imm, ref)
        assert fast.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("extents", [(1200,), (40, 30), (12, 10, 11)])
    def test_long_columns(self, extents, helix65, tmp_path):
        """At least 1,000 rows with multi-digit indices, and values in every
        range where orjson's spelling is rewritten, and -0.0, in each
        column."""
        _, data = helix65
        n = len(extents)
        grid = ChartGrid(extents, (0.1,) * n, (0.0,) * n, (0,) * n)
        rng = np.random.default_rng(10 + n)
        shape = extents + (4,)
        magnitude = np.exp(rng.uniform(np.log(1e-9), np.log(1e-5), shape))
        pick = rng.integers(0, 5, shape)
        magnitude = np.where(pick == 1, rng.uniform(1e-5, 1e-4, shape),
                             magnitude)
        magnitude = np.where(pick == 2, 1e16 * rng.uniform(1.0, 1e6, shape),
                             magnitude)
        magnitude = np.where(pick == 3, rng.standard_normal(shape),
                             magnitude)
        values = np.where(pick == 4, -0.0,
                          magnitude * rng.choice([-1.0, 1.0], shape))
        cols = np.abs(values.reshape(-1, 4))
        for lo, hi in ((1e-9, 1e-5), (1e-5, 1e-4), (1e16, np.inf)):
            assert ((cols >= lo) & (cols < hi)).any(axis=0).all(), (lo, hi)
        assert ((values == 0.0) & np.signbit(values)).reshape(-1, 4).any(
            axis=0).all()
        imm = ImmersionField(data.spec, data.warping, grid,
                             values[..., :3], values[..., 3])
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        wio.write_immersion_csv(imm, fast)
        stdlib_write_immersion_csv(imm, ref)
        assert fast.read_bytes() == ref.read_bytes()

    def test_nan_next_to_negative_nan(self, helix65, tmp_path):
        """csv.writer prints repr, and repr spells NaN of either sign
        "nan": a negative NaN never borrows a text with a "-"."""
        _, data = helix65
        grid = ChartGrid((4,), (0.1,), (0.0,), (0,))
        spatial = np.array(SIGNED_NANS + [1.5, -1.5, -math.nan, math.nan]
                           + [-0.0, 0.0, math.inf, -math.inf]).reshape(4, 3)
        t = np.array([-math.nan, math.nan, -2.0, 2.0])
        imm = ImmersionField(data.spec, data.warping, grid, spatial, t)
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        wio.write_immersion_csv(imm, fast)
        stdlib_write_immersion_csv(imm, ref)
        assert fast.read_bytes() == ref.read_bytes()
        assert b"-nan" not in fast.read_bytes()


class TestReader:
    """_read_json returns what json.load returns: through orjson, or
    through json itself for what orjson refuses or may read otherwise."""

    @pytest.fixture
    def json_loads(self, monkeypatch):
        """The number of documents json itself parsed."""
        calls = []
        load = json.load

        def counted(fh):
            calls.append(fh.name)
            return load(fh)
        monkeypatch.setattr(json, "load", counted)
        return calls

    @pytest.mark.parametrize("name", example_names())
    def test_fixtures(self, name, tmp_path, json_loads):
        _, data = canonical_example(name, {})
        path = tmp_path / f"{name}.json"
        wio.save_dataset(data, path)
        with open(path, encoding="utf-8") as fh:
            want = json.loads(fh.read())
        assert wio._read_json(path) == want
        assert json_loads == []

    @pytest.mark.parametrize("text", [
        '{"a": [1.5, NaN, -0.0]}',
        '[Infinity, -Infinity, 2]',
        '{"n": 18446744073709551617}',
        '[0.5, -18446744073709551617, 0.25]',
        '[[1.0, 36893488147419103232]]',
        '18446744073709551616',
        '{"k": 9223372036854775808}',
    ])
    def test_json_reads_what_orjson_cannot(self, text, tmp_path, json_loads):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        got = wio._read_json(path)
        want = json.loads(text)
        assert json.dumps(got) == json.dumps(want)
        assert repr(got) == repr(want)  # the types too: an int stays an int
        assert json_loads == [str(path)]

    # Integer literals of 64 bits and more: orjson reads those beyond 64
    # bits as floats. 2**64 + 2**11 lies halfway between two floats.
    WIDE = [2 ** 70, 2 ** 64 + 1, -(2 ** 64 + 1), 2 ** 64 + 2 ** 11,
            -(2 ** 63 + 1), 2 ** 63]

    @pytest.mark.parametrize("section", ["fields", "derivatives"])
    @pytest.mark.parametrize("value", WIDE)
    def test_wide_integer_in_dataset_arrays(self, section, value, helix65,
                                            tmp_path, json_loads):
        """load_dataset converts the field arrays to float64 at once, so it
        does not scan them for wide integers: orjson's float of the literal
        is the float numpy makes of json's int."""
        _, data = helix65
        doc = json.loads(json.dumps(data.to_document(),
                                    default=float64_list))
        doc[section]["xi_comp"][0] = value
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        want = load_data(json.loads(path.read_text(encoding="utf-8")))
        got = wio.load_dataset(path)
        assert json_loads == []
        for name in FIELD_NAMES:
            assert getattr(got, name).tobytes() == getattr(want,
                                                           name).tobytes()
        assert list(got.derivs) == list(want.derivs)
        for name, d in want.derivs.items():
            assert np.asarray(got.derivs[name]).tobytes() == np.asarray(
                d).tobytes()
        field = got.derivs["xi_comp"] if section == "derivatives" else [
            got.xi_comp]
        assert np.asarray(field).ravel()[0] == float(value)

    @pytest.mark.parametrize("section", ["grid", "warping", "generator"])
    def test_wide_integer_elsewhere_read_by_json(self, section, helix65,
                                                 tmp_path, json_loads):
        _, data = helix65
        doc = json.loads(json.dumps(data.to_document(),
                                    default=float64_list))
        doc[section]["wide"] = 2 ** 70
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = wio._read_json(path, floats=("fields", "derivatives"))
        assert got == json.loads(path.read_text(encoding="utf-8"))
        assert type(got[section]["wide"]) is int
        assert json_loads == [str(path)]

    @pytest.mark.parametrize("value", WIDE)
    def test_wide_integer_in_frames(self, value, tmp_path, json_loads):
        path = tmp_path / "frames.json"
        stdlib_write_json({"kind": "warpframe.adapted_frames",
                           "shape": [1, 1, 2], "frames": [0.5, value]}, path)
        got = wio.load_frames_json(path)
        assert json_loads == []
        assert got.tobytes() == np.asarray([0.5, value], dtype=float).reshape(
            1, 1, 2).tobytes()

    @pytest.mark.parametrize("reader", [
        wio.load_frames_json, wio.load_frame_matrix, wio.load_dataset])
    def test_byte_order_mark(self, reader, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + stdlib_json(
            {"kind": "warpframe.frame", "shape": [1], "matrix": [1.0]}))
        with pytest.raises(SchemaError, match=f"{path.name}.*BOM"):
            reader(path)

    @pytest.mark.parametrize("text", ['{"kind": 1,}', "[1 2]", "\r\n\r\n{",
                                      '"\\x41"', "[1e5"])
    def test_malformed_text_has_json_message(self, text, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode())
        with pytest.raises(json.JSONDecodeError) as want:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        with pytest.raises(SchemaError) as got:
            wio._read_json(path)
        assert str(got.value) == f"{path}: not valid JSON ({want.value})"


class TestMalformedInput:
    """Every public reader raises SchemaError naming the file."""

    def check(self, reader, path):
        with pytest.raises(SchemaError, match=path.name):
            reader(path)

    @pytest.mark.parametrize("text", [
        "",
        "i0,f0,t\r\n0,1.0\r\n",
        "i0,f0,t\r\n0,1.0,2.0,3.0\r\n",
        "i0,f0,t\r\n0,abc,2.0\r\n",
        "i0,f0,t\r\nx,1.0,2.0\r\n",
        "i0,g0,t\r\n0,1.0,2.0\r\n",
    ])
    def test_immersion_csv(self, text, tmp_path):
        path = tmp_path / "imm.csv"
        path.write_text(text, encoding="utf-8", newline="")
        self.check(wio.read_immersion_csv, path)

    def test_immersion_csv_not_utf8(self, tmp_path):
        path = tmp_path / "imm.csv"
        path.write_bytes(b"i0,f0,t\r\n0,\xff,1.0\r\n")
        self.check(wio.read_immersion_csv, path)

    @pytest.mark.parametrize("doc", [
        {"frames": [1.0, 2.0]},
        {"shape": [3], "frames": [1.0, 2.0]},
        {"shape": [-1], "frames": [1.0, 2.0]},
        {"shape": 2, "frames": [1.0, 2.0]},
        {"shape": [2]},
        {"shape": [2], "frames": ["a", 2.0]},
        {"shape": [2], "frames": [10 ** 400, 2.0]},
    ])
    def test_frames_json(self, doc, tmp_path):
        path = tmp_path / "frames.json"
        stdlib_write_json({"kind": "warpframe.adapted_frames", **doc}, path)
        self.check(wio.load_frames_json, path)

    @pytest.mark.parametrize("doc", [
        {"matrix": [1.0]}, {"shape": [2, 2], "matrix": [1.0]},
        {"shape": [1.5], "matrix": [1.0]},
        {"shape": [1], "matrix": [-(10 ** 400)]}])
    def test_frame_matrix(self, doc, tmp_path):
        path = tmp_path / "B.json"
        stdlib_write_json({"kind": "warpframe.frame", **doc}, path)
        self.check(wio.load_frame_matrix, path)

    @pytest.mark.parametrize("reader", [
        wio.load_frames_json, wio.load_frame_matrix, wio.load_dataset])
    def test_not_json(self, reader, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"{\"kind\": \xff")
        self.check(reader, path)

    def test_valid_files_still_read(self, tmp_path):
        frames = np.arange(6.0).reshape(1, 2, 3)
        path = tmp_path / "frames.json"
        stdlib_write_json({"kind": "warpframe.adapted_frames",
                           "shape": [1, 2, 3],
                           "frames": frames.ravel().tolist()}, path)
        assert np.array_equal(wio.load_frames_json(path), frames)
