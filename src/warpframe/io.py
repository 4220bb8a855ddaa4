"""On-disk formats: datasets, reports, frame matrices, immersion tables.

Every format is either JSON (datasets, reports, frames, diagnostics) or CSV
(immersion point sets). Floats are serialized as shortest round-trip
decimals, so write -> parse is bit-exact; every writer here has a matching
parser. The readers of reports, frames and immersion tables raise
SchemaError naming the file on malformed input.

The writers produce exactly the bytes of ``json.dump(doc, fh, indent=1)``
plus a newline, and of ``csv.writer`` rows, faster. The cost floor is
``float.__repr__`` (about a microsecond per value), so a list of floats is
formatted once per distinct bit pattern (``-0.0`` and ``0.0`` stay apart)
and the texts are gathered by index: a grid field repeats most of its
values. NaN and infinities take json's own path (``NaN``, ``Infinity``).
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring_ascii as _json_str
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


def _float_texts(values):
    """``float.__repr__`` of every value of a float array, as an object array
    of its shape; each distinct bit pattern is formatted once."""
    a = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse].reshape(a.shape)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _json_key(key):
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return next(_json_chunks(key, 0))   # null, true, false or a number
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_chunks(o, level):
    """The text of ``json.dump(o, fh, indent=1)`` at nesting depth `level`,
    in pieces."""
    if isinstance(o, str):
        yield _json_str(o)
    elif o is None:
        yield "null"
    elif o is True:
        yield "true"
    elif o is False:
        yield "false"
    elif isinstance(o, int):
        yield int.__repr__(o)
    elif isinstance(o, float):
        yield _json_float(o)
    elif isinstance(o, (list, tuple)):
        yield from _json_list(o, level)
    elif isinstance(o, dict):
        yield from _json_dict(o, level)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def _json_list(o, level):
    if not o:
        yield "[]"
        return
    inner = "\n" + " " * (level + 1)
    sep = "," + inner
    yield "[" + inner
    floats = None
    if set(map(type, o)) == {float}:
        floats = np.array(o, dtype=np.float64)
    if floats is not None and np.isfinite(floats).all():
        yield sep.join(_float_texts(floats).tolist())
    else:
        for i, value in enumerate(o):
            if i:
                yield sep
            yield from _json_chunks(value, level + 1)
    yield "\n" + " " * level + "]"


def _json_dict(o, level):
    if not o:
        yield "{}"
        return
    inner = "\n" + " " * (level + 1)
    yield "{"
    for i, (key, value) in enumerate(o.items()):
        yield ("," if i else "") + inner + _json_str(_json_key(key)) + ": "
        yield from _json_chunks(value, level + 1)
    yield "\n" + " " * level + "}"


def _write_json(doc, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(doc, 0))
        fh.write("\n")


def load_dataset(path, validate=True) -> GeometricData:
    return load_data(_read_json(path), validate=validate)


def save_dataset(data: GeometricData, path):
    _write_json(data.to_document(), path)


def save_report(report: ResidualReport, path, meta=None):
    doc = {"format_version": 1, "kind": "warpframe.report"}
    doc.update(report.to_dict())
    if meta:
        doc["meta"] = meta
    _write_json(doc, path)


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


def save_frame_matrix(B, path, node=None):
    B = np.asarray(getattr(B, "B", B), dtype=float)
    doc = {"format_version": 1, "kind": "warpframe.frame",
           "shape": list(B.shape), "matrix": B.ravel().tolist()}
    if node is not None:
        doc["node"] = list(node)
    _write_json(doc, path)


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
        raise ValueError("immersion field carries no frames")
    doc = {"format_version": 1, "kind": "warpframe.adapted_frames",
           "grid": imm.grid.to_dict(),
           "shape": list(imm.frames.shape),
           "frames": imm.frames.ravel().tolist()}
    _write_json(doc, path)


def load_frames_json(path):
    return _load_array(path, "warpframe.adapted_frames", "frames")
