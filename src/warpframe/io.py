"""On-disk formats: datasets, reports, frame matrices, immersion tables.

Every format is either JSON (datasets, reports, frames, diagnostics) or CSV
(immersion point sets). Floats are serialized as shortest round-trip
decimals, so write -> parse is bit-exact; every writer here has a matching
parser. The readers of reports, frames and immersion tables raise
SchemaError naming the file on malformed input.

The writers produce exactly the bytes of ``json.dump(doc, fh, indent=1)``
plus a newline, and of ``csv.writer`` rows, faster. Stdlib json lays out
every document; warpframe formats only its float arrays. A 1-D float64
ndarray in a document is written as json writes ``a.tolist()``; any other
ndarray is a TypeError, as in json. Each finite, non-empty one becomes a
placeholder string with a per-call random nonce, ``json.dumps`` writes the
rest, and the arrays are spliced in at their placeholders (empty and
non-finite arrays go to json as lists). A document string that reproduces
the placeholder is a ValueError, and nothing is written. The cost floor of
an array is ``float.__repr__`` (about a microsecond per value), so each
array gets one text table: a grid field repeats most of its values, and the
skew connection forms and symmetric grids hold most of them with both
signs. Each distinct magnitude is formatted once; a negative value reuses
the text of its positive behind a "-" (never a NaN, whose ``repr`` drops
the sign), and ``-0.0`` and ``0.0`` stay apart. The texts are gathered by
index one piece of ``_PIECE`` values at a time, so neither an array-sized
string nor an array-sized list of texts is built. The immersion CSV writer
formats its floats through the same table.
"""

from __future__ import annotations

import csv
import json
import secrets
from pathlib import Path

import numpy as np

from .bundle_data import GeometricData, load_data
from .errors import SchemaError
from .immersion import ImmersionField
from .verifier import ResidualReport


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _read_doc(path, kind):
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise SchemaError(f"{path}: not a {kind} document")
    return doc


_MAGNITUDE = np.int64(0x7FFFFFFFFFFFFFFF)  # every bit but the sign
_INF = np.int64(0x7FF0000000000000)  # the bit pattern of inf; above it, NaNs


def _text_table(a):
    """``(texts, inverse)`` of a float64 array: the ``float.__repr__`` of
    each distinct bit pattern, and the index into `texts` of each value of
    the flattened array.

    The patterns sort as int64, so the negative ones come first in
    ascending magnitude. A negative whose magnitude also occurs as a
    positive reuses its text behind a "-" (``repr(-x) == "-" + repr(x)``),
    except a NaN, whose ``repr`` drops the sign; only the rest are
    formatted."""
    bits, inverse = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    k = int(np.searchsorted(bits, 0))
    pos = bits[k:]
    floats = bits.view(np.float64)
    texts = np.empty(bits.size, dtype=object)
    texts[k:] = list(map(float.__repr__, floats[k:].tolist()))
    mag = bits[:k] & _MAGNITUDE
    at = np.searchsorted(pos, mag)
    shared = at < pos.size
    shared[shared] = pos[at[shared]] == mag[shared]
    shared &= mag <= _INF
    own = np.flatnonzero(~shared)
    texts[own] = list(map(float.__repr__, floats[own].tolist()))
    texts[:k][shared] = ["-" + s for s in texts[k + at[shared]].tolist()]
    return texts, inverse


def _float_texts(values):
    """``float.__repr__`` of every value of a float array, as an object array
    of its shape (see `_text_table`)."""
    a = np.asarray(values, dtype=np.float64)
    texts, inverse = _text_table(a)
    return texts[inverse].reshape(a.shape)


# Values per piece that _json_floats joins into one string.
_PIECE = 32768


def _json_floats(a, level):
    """A finite, non-empty 1-D float64 array at nesting depth `level` as json
    writes ``a.tolist()``, in pieces."""
    inner = "\n" + " " * (level + 1)
    sep = "," + inner
    texts, inverse = _text_table(a)
    yield "[" + inner
    for start in range(0, a.size, _PIECE):
        if start:
            yield sep
        yield sep.join(texts[inverse[start:start + _PIECE]].tolist())
    yield "\n" + " " * level + "]"


def _skeleton(o, placeholder, arrays):
    """`o` with each finite, non-empty 1-D float64 array replaced by
    `placeholder` and appended to `arrays`, in the order json visits them."""
    if isinstance(o, np.ndarray) and o.ndim == 1 and o.dtype == np.float64:
        if o.size and np.isfinite(o).all():
            arrays.append(o)
            return placeholder
        return o.tolist()
    if isinstance(o, dict):
        return {k: _skeleton(v, placeholder, arrays) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_skeleton(v, placeholder, arrays) for v in o]
    return o


def _json_chunks(doc):
    """The text of ``json.dump(doc, fh, indent=1)``, in pieces. Raises
    before returning the pieces if the document cannot be written."""
    placeholder = "warpframe-array-" + secrets.token_hex(8)
    arrays = []
    text = json.dumps(_skeleton(doc, placeholder, arrays), indent=1)
    parts = text.split(json.dumps(placeholder))
    if len(parts) != len(arrays) + 1:
        raise ValueError("a document string reproduces the placeholder")
    return _spliced(parts, arrays)


def _spliced(parts, arrays):
    yield parts[0]
    for before, a, after in zip(parts, arrays, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _json_floats(a, len(line) - len(line.lstrip(" ")))
        yield after


def _write_json(doc, path):
    chunks = _json_chunks(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def load_dataset(path, validate=True) -> GeometricData:
    return load_data(_read_json(path), validate=validate)


def save_dataset(data: GeometricData, path):
    _write_json(data.to_document(), path)


def report_document(report: ResidualReport, meta=None) -> dict:
    """The warpframe.report document of `report`, with `meta` if given."""
    doc = {"format_version": 1, "kind": "warpframe.report"}
    doc.update(report.to_dict())
    if meta:
        doc["meta"] = meta
    return doc


def save_report(report: ResidualReport, path, meta=None):
    _write_json(report_document(report, meta), path)


def load_report(path) -> ResidualReport:
    doc = _read_doc(path, "warpframe.report")
    try:
        return ResidualReport.from_dict(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed warpframe.report document "
                          f"({exc!r})") from exc


def _load_array(path, kind, key):
    """The float array `key` of a `kind` document, reshaped to its "shape"."""
    doc = _read_doc(path, kind)
    try:
        shape = tuple(doc["shape"])
        if not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"bad shape {doc['shape']!r}")
        return np.asarray(doc[key], dtype=float).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed {kind} document "
                          f"({exc!r})") from exc


def save_frame_matrix(B, path):
    B = np.asarray(B, dtype=float)
    _write_json({"format_version": 1, "kind": "warpframe.frame",
                 "shape": list(B.shape), "matrix": B.ravel()}, path)


def load_frame_matrix(path):
    return _load_array(path, "warpframe.frame", "matrix")


def save_diagnostics(diag: dict, path):
    doc = {"format_version": 1, "kind": "warpframe.diagnostics"}
    doc.update(diag)
    _write_json(doc, path)


def _immersion_header(n, d):
    return [f"i{k}" for k in range(n)] + [f"f{g}" for g in range(d)] + ["t"]


def write_immersion_csv(imm: ImmersionField, path):
    """Point set as CSV: node multi-index, spatial coordinates, height.

    One row per node in row-major order, ending in CRLF as ``csv.writer``
    writes them; floats as ``repr``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ext = tuple(imm.grid.extents)
    d = imm.spatial.shape[-1]
    index_texts = np.array([str(i) for i in range(max(ext))], dtype=object)
    indices = index_texts[np.indices(ext).reshape(len(ext), -1).T]
    values = _float_texts(np.concatenate(
        [imm.spatial.reshape(-1, d), imm.t.reshape(-1, 1)], axis=1))
    rows = [_immersion_header(len(ext), d)]
    rows += np.concatenate([indices, values], axis=1).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(map(",".join, rows)))
        fh.write("\r\n")


def read_immersion_csv(path):
    """Parse an immersion CSV back into (indices, spatial, t)."""
    idx, spatial, t = [], [], []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header is None:
                raise SchemaError(f"{path}: empty immersion CSV")
            n = sum(1 for h in header if h.startswith("i"))
            d = sum(1 for h in header if h.startswith("f"))
            if header != _immersion_header(n, d):
                raise SchemaError(f"{path}: unexpected immersion CSV header")
            for row in rd:
                if len(row) != n + d + 1:
                    raise SchemaError(f"{path}: line {rd.line_num} has "
                                      f"{len(row)} cells, want {n + d + 1}")
                idx.append([int(v) for v in row[:n]])
                spatial.append([float(v) for v in row[n:n + d]])
                t.append(float(row[n + d]))
    except (csv.Error, UnicodeDecodeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed immersion CSV ({exc})") from exc
    return (np.asarray(idx, dtype=int), np.asarray(spatial, dtype=float),
            np.asarray(t, dtype=float))


def save_frames_json(imm: ImmersionField, path):
    if imm.frames is None:
        raise ValueError("immersion field has no frames")
    doc = {"format_version": 1, "kind": "warpframe.adapted_frames",
           "grid": imm.grid.to_dict(),
           "shape": list(imm.frames.shape),
           "frames": np.asarray(imm.frames, dtype=float).ravel()}
    _write_json(doc, path)


def load_frames_json(path):
    return _load_array(path, "warpframe.adapted_frames", "frames")
