"""On-disk formats: datasets, reports, frame matrices, immersion tables.

Every format is either JSON (datasets, reports, frames, diagnostics) or CSV
(immersion point sets). Floats are serialized as shortest round-trip
decimals, so write -> parse is bit-exact. A format has a reader here only
where a program reads it back: datasets (every command's input), the base
frame matrix (reconstruct --base-frame), and the adapted frames and the
immersion table, which the benchmark reads back to check reconstruct's
output. Reports and diagnostics are written for people and other tools,
and nothing here parses them. The readers of frames and immersion tables
raise SchemaError naming the file on malformed input.

The JSON reader parses with orjson and returns what ``json.load`` returns.
A file orjson refuses (NaN and Infinity literals, which json writes for
non-finite floats, a byte order mark, malformed text, an integer beyond the
float range), and a document in which it may have read an integer beyond
64 bits as a float, is parsed again by json, so its outcome and its error
message are json's. That last check skips the float arrays that the
caller turns into float64 at once: a dataset's ``fields`` and
``derivatives``, and the ``matrix`` or ``frames`` array of a frame
document. There orjson's float of a wide integer literal is the correctly
rounded one, the same float that numpy makes of json's int, so the arrays
come out bit for bit as json's would; an int elsewhere in the document
keeps its type.

The writers produce exactly the bytes of ``json.dump(doc, fh, indent=1)``
plus a newline, and of ``csv.writer`` rows, faster. Stdlib json lays out
every document; warpframe formats only its float arrays. A 1-D float64
ndarray in a document is written as json writes ``a.tolist()``; any other
ndarray is a TypeError, as in json. Each finite, non-empty one becomes a
placeholder string with a per-call random nonce, ``json.dumps`` writes the
rest, and the arrays are spliced in at their placeholders (empty and
non-finite arrays go to json as lists). A document string that reproduces
the placeholder is a ValueError, and nothing is written.

The arrays are formatted by orjson, one piece of ``_PIECE`` values per
call, so no array-sized text is built. orjson prints the shortest
round-trip digits, as ``float.__repr__`` does, in about 40 ns a value
against repr's microsecond, so every value is formatted: sorting out the
distinct values first, or the signs, would cost more than it saves. Only
the spelling differs, and only here:

- from 1e-9 to 1e-5 orjson writes a one-digit exponent (``1.5e-7``,
  repr ``1.5e-07``), and from 1e16 up no exponent sign (``1e16``, repr
  ``1e+16``);
- from 1e-5 to 1e-4 it writes the digits positionally (``0.000015``,
  repr ``1.5e-05``);
- a non-finite value it writes as ``null`` (repr ``nan``, ``inf``,
  ``-inf``); these reach the kernel only from the CSV writer.

A piece with none of these is orjson's text with its commas replaced by
the separator. Any other piece is edited as one byte buffer, from
orjson's own digits. The ``e`` bytes locate the exponents and the ``n``
bytes the nulls; the commas, scanned only when the piece holds a value
from 1e-5 to 1e-4, locate those values. Each edit overwrites bytes in
place, marking with a byte that orjson never writes where bytes must be
inserted or dropped, and one ``bytes.replace`` per kind of mark then
respells them all. No per-value object is built and ``float.__repr__`` is
never called. The kernel checks what it assumes of orjson's spelling (one
edit per value in each range, a leading ``0.0000`` from 1e-5 to 1e-4)
and raises RuntimeError, naming orjson's version, where it does not hold.
The immersion CSV writer takes its texts from the same kernel.

Each file is written to a temporary file beside it and renamed over it,
so a write that fails leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import secrets
from pathlib import Path

import numpy as np
import orjson

from .bundle_data import GeometricData, load_data
from .errors import SchemaError
from .immersion import ImmersionField
from .verifier import ResidualReport

# orjson reads an integer literal beyond 64 bits as a float, where json
# keeps the int; a float of this magnitude may be one.
_WIDE = 2.0 ** 63


def _wide(o):
    """Whether the parsed document `o` holds a number of magnitude at least
    2**63. ``math.hypot`` of a list of numbers is at least its largest
    magnitude, in one pass at C speed."""
    if isinstance(o, dict):
        return any(map(_wide, o.values()))
    if isinstance(o, list):
        try:
            return math.hypot(*o) >= _WIDE
        except TypeError:  # not all numbers
            return any(map(_wide, o))
    return isinstance(o, (int, float)) and abs(o) >= _WIDE


def _read_json(path, floats=()):
    """The document of a JSON file, as json.load returns it, except that
    the values of the top-level keys `floats`, which the caller converts to
    float64 arrays, may hold a float where json holds an int of 64 bits or
    more (the same float once converted; see the module docstring)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    else:
        rest = ({k: v for k, v in doc.items() if k not in floats}
                if floats and isinstance(doc, dict) else doc)
        if not _wide(rest):
            return doc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _read_doc(path, kind, floats=()):
    doc = _read_json(path, floats)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise SchemaError(f"{path}: not a {kind} document")
    return doc


# Bytes orjson never writes in a float array (it writes digits, ".", "-",
# "e", "," and "null"); _float_reprs marks its edits with them.
_DROP, _MINUS_ZERO, _E_PLUS, _E_MINUS_05 = b"\0", b"#", b"P", b";"
_ZEROS = np.frombuffer(b"0.0000", np.uint8)
_NULL = np.frombuffer(b"null", np.uint8)
# repr's spelling of nan, inf and -inf, padded to orjson's "null" with
# bytes to drop.
_NON_FINITE = np.frombuffer(b"nan\0inf\0-inf", np.uint8).reshape(3, 4)


def _spelling_error(what):
    return RuntimeError(f"orjson {orjson.__version__} spells floats unlike "
                        f"warpframe.io expects: {what}")


def _float_reprs(f, sep):
    """``sep.join`` of the ``float.__repr__`` texts of the values of a 1-D
    float64 array, as bytes. orjson formats them all; the few it spells
    differently are edited in its text (see the module docstring)."""
    f = np.ascontiguousarray(f)
    text = orjson.dumps(f, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    mag = np.abs(f)
    n_exponent = np.count_nonzero(((mag >= 1e-9) & (mag < 1e-5))
                                  | ((mag >= 1e16) & (mag < np.inf)))
    small = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    non_finite = np.flatnonzero(~np.isfinite(f))
    if not (n_exponent or small.size or non_finite.size):
        return text.replace(b",", sep)
    # One writable copy with a comma after the last value, so that every
    # value ends at a comma.
    b = np.empty(len(text) + 1, np.uint8)
    b[:-1] = np.frombuffer(text, np.uint8)
    b[-1] = ord(",")
    spellings = {}
    if n_exponent:
        # "e-7" -> "e-07" and "e16" -> "e+16".
        e = np.flatnonzero(b == ord("e"))
        after = b[e + 1]
        one_digit = e[(after == ord("-")) & (b[e + 3] == ord(","))]
        positive = e[(after >= ord("0")) & (after <= ord("9"))]
        if one_digit.size + positive.size != n_exponent:
            raise _spelling_error(
                f"{one_digit.size + positive.size} exponents to respell "
                f"for {n_exponent} values in [1e-9, 1e-5) or [1e16, inf)")
        b[one_digit + 1] = ord(_MINUS_ZERO)
        b[positive] = ord(_E_PLUS)
        spellings.update({_MINUS_ZERO: b"-0", _E_PLUS: b"e+"})
    if small.size:
        # "0.0000DXYZ" -> "D.XYZe-05" and "0.0000D" -> "De-05", after the
        # sign.
        comma = np.flatnonzero(b == ord(","))
        if comma.size != f.size:
            raise _spelling_error(f"{comma.size} texts for {f.size} values")
        end = comma[small]
        start = np.where(small, comma[small - 1] + 1, 0)
        start += b[start] == ord("-")
        head = start[:, None] + np.arange(6)
        if (end - start < 7).any() or (b[head] != _ZEROS).any():
            raise _spelling_error("a value in [1e-5, 1e-4) does not start "
                                  "with 0.0000")
        b[head[:, :5]] = ord(_DROP)
        b[start + 5] = b[start + 6]
        b[start + 6] = np.where(start + 7 < end, ord("."), ord(_DROP))
        b[end] = ord(_E_MINUS_05)
        spellings.update({_DROP: b"", _E_MINUS_05: b"e-05,"})
    if non_finite.size:
        # "null" -> "nan", "inf" or "-inf".
        null = np.flatnonzero(b == ord("n"))[:, None] + np.arange(4)
        if null.shape[0] != non_finite.size or (b[null] != _NULL).any():
            raise _spelling_error(f"{null.shape[0]} nulls for "
                                  f"{non_finite.size} non-finite values")
        x = f[non_finite]
        b[null] = _NON_FINITE[np.where(np.isnan(x), 0, np.where(x > 0, 1, 2))]
        spellings[_DROP] = b""
    text = b.tobytes()
    for mark, spelling in spellings.items():
        text = text.replace(mark, spelling)
    return text[:-1].replace(b",", sep)


# Values per piece that _json_floats formats in one call.
_PIECE = 32768


def _json_floats(a, level):
    """A finite, non-empty 1-D float64 array at nesting depth `level` as json
    writes ``a.tolist()``, in pieces of UTF-8."""
    inner = b"\n" + b" " * (level + 1)
    sep = b"," + inner
    yield b"[" + inner
    for start in range(0, a.size, _PIECE):
        if start:
            yield sep
        yield _float_reprs(a[start:start + _PIECE], sep)
    yield b"\n" + b" " * level + b"]"


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
    """The text of ``json.dump(doc, fh, indent=1)`` as UTF-8, in pieces.
    Raises before returning the pieces if the document cannot be
    written."""
    placeholder = "warpframe-array-" + secrets.token_hex(8)
    arrays = []
    text = json.dumps(_skeleton(doc, placeholder, arrays), indent=1)
    parts = text.split(json.dumps(placeholder))
    if len(parts) != len(arrays) + 1:
        raise ValueError("a document string reproduces the placeholder")
    return _spliced(parts, arrays)


def _spliced(parts, arrays):
    yield parts[0].encode()
    for before, a, after in zip(parts, arrays, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _json_floats(a, len(line) - len(line.lstrip(" ")))
        yield after.encode()


@contextlib.contextmanager
def _replacing(path):
    """A binary file handle whose content replaces `path` once the block
    ends. It writes a sibling temporary file and renames it over `path`;
    if the block raises, the temporary file is removed and `path` is left
    as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(doc, path):
    chunks = _json_chunks(doc)
    with _replacing(path) as fh:
        fh.writelines(chunks)
        fh.write(b"\n")


def load_dataset(path) -> GeometricData:
    """The dataset of a JSON file, checked as load_data checks it."""
    return load_data(_read_json(path, floats=("fields", "derivatives")))


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


def _load_array(path, kind, key):
    """The float array `key` of a `kind` document, reshaped to its "shape"."""
    doc = _read_doc(path, kind, floats=(key,))
    try:
        shape = tuple(doc["shape"])
        if not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"bad shape {doc['shape']!r}")
        return np.asarray(doc[key], dtype=float).reshape(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _segments(text):
    """A comma-separated text as one uint8 array with a comma after its
    last value, and the length of each value with its comma."""
    b = np.frombuffer(text + b",", np.uint8)
    return b, np.diff(np.flatnonzero(b == ord(",")), prepend=-1)


def write_immersion_csv(imm: ImmersionField, path):
    """Point set as CSV: node multi-index, spatial coordinates, height.

    One row per node in row-major order, ending in CRLF as ``csv.writer``
    writes them; floats as ``repr``. Each float column's texts come from
    one _float_reprs call and each index column's from one orjson call, as
    one comma-separated text. The rows are built in one byte buffer: each
    column's text is scattered to its place in every row (row start plus
    the widths of the columns before it), value and comma together, and
    the comma after the last column becomes CRLF."""
    ext = tuple(imm.grid.extents)
    d = imm.spatial.shape[-1]
    cols = [_segments(orjson.dumps(i, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])
            for i in np.indices(ext).reshape(len(ext), -1)]
    cols += [_segments(_float_reprs(col, b",")) for col in
             (*imm.spatial.reshape(-1, d).T, imm.t.ravel())]
    width = sum(lengths for _, lengths in cols) + 1
    at = np.cumsum(width) - width           # where each row's next cell goes
    rows = np.empty(at[-1] + width[-1], np.uint8)
    for b, lengths in cols:
        # Byte j of segment r goes to at[r] + j.
        idx = np.repeat(at - (np.cumsum(lengths) - lengths), lengths)
        idx += np.arange(b.size)
        rows[idx] = b
        at += lengths
    rows[at - 1] = ord("\r")
    rows[at] = ord("\n")
    header = ",".join(_immersion_header(len(ext), d)).encode()
    with _replacing(path) as fh:
        fh.write(header + b"\r\n")
        fh.write(rows)


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
