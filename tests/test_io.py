"""The writers of warpframe.io against the standard library, byte for byte.

The references are the writers the module used before it formatted floats
once per distinct value: ``json.dump(doc, fh, indent=1)`` plus a newline,
and one ``csv.writer`` row per node. Every file must come out identical.
"""

import csv
import io
import json
import math
import secrets
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from json_reference import float64_list

from warpframe import ChartGrid, canonical_example
from warpframe import io as wio
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
        assert max(piece.count(",") for piece in pieces) < wio._PIECE

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


class TestFloatTexts:
    """The text table formats each magnitude once and gives a negative the
    text of its positive behind a "-"; every text must still be repr's."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(values=st.lists(FINITE | NON_FINITE | st.sampled_from(SIGNED_EDGES),
                           min_size=1), wide=st.booleans())
    @example(values=SIGNED_EDGES, wide=False)
    def test_signed_pairs_match_repr(self, values, wide):
        values = values + [-v for v in values]
        a = np.array(values, dtype=np.float64)
        if wide:
            a = a.reshape(2, -1)
        texts = wio._float_texts(a)
        assert texts.shape == a.shape
        assert texts.ravel().tolist() == list(map(float.__repr__, values))

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
    ])
    def test_frames_json(self, doc, tmp_path):
        path = tmp_path / "frames.json"
        stdlib_write_json({"kind": "warpframe.adapted_frames", **doc}, path)
        self.check(wio.load_frames_json, path)

    @pytest.mark.parametrize("doc", [
        {"matrix": [1.0]}, {"shape": [2, 2], "matrix": [1.0]},
        {"shape": [1.5], "matrix": [1.0]}])
    def test_frame_matrix(self, doc, tmp_path):
        path = tmp_path / "B.json"
        stdlib_write_json({"kind": "warpframe.frame", **doc}, path)
        self.check(wio.load_frame_matrix, path)

    @pytest.mark.parametrize("doc", [
        {"kind": "warpframe.report"},
        {"kind": "warpframe.report", "residuals": [1]},
        {"kind": "warpframe.report", "residuals": {"a": {"sup": 1.0}}},
        [1, 2],
    ])
    def test_report(self, doc, tmp_path):
        path = tmp_path / "rep.json"
        stdlib_write_json(doc, path)
        self.check(wio.load_report, path)

    @pytest.mark.parametrize("reader", [
        wio.load_frames_json, wio.load_frame_matrix, wio.load_report,
        wio.load_dataset])
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
