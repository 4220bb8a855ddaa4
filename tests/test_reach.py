"""Every function in src/warpframe is run by some CLI invocation.

The invocations below cover each command and option on every fixture,
finite-difference induction, the exp and tabulated warpings, a saved base
frame, a missing file, both benchmark shapes at smoke size and an
integrator blow-up. They run in-process under ``sys.setprofile``, which
records every code object entered. Each code object is matched to its
``def`` (nested ones included) by file, name and line span, the span
starting at the first decorator. A def that no invocation enters is
either listed in ALLOWED with the reason it stays, or it is code that no
command runs, and the test fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import warpframe
from warpframe import cli, oracle
from warpframe.io import save_frame_matrix

PACKAGE = Path(warpframe.__file__).resolve().parent

# Defs that no command enters, each with the reason it stays.
ALLOWED = {
    "io.read_immersion_csv":
        "bench/run.py reads reconstruct's immersion.csv back with it",
    "io.load_frames_json":
        "bench/run.py reads reconstruct's frames.json back with it",
    "oracle.exact_base_frame": "bench/tracing.py TARGETS wraps it",
    "io.save_frame_matrix":
        "writes the --base-frame input; README and CI call it",
    "jets.part":
        "the module's documented reader of a partial, paired with value",
    "io._spelling_error":
        "the guard on orjson's float spelling, which no supported orjson "
        "trips",
}

# Both benchmark shapes at smoke size (bench/workloads.py).
HELIX_LONG = {"grid_extents": [65], "grid_spacing": [0.0005], "beta": 0.6,
              "t0": 0.0}
SLICE3D_FD = {"n": 3, "grid_extents": [7, 7, 7],
              "grid_spacing": [0.02, 0.02, 0.02], "t0": 0.3}

# Eleven samples of cosh on [-1, 1].
_T = np.linspace(-1.0, 1.0, 11)
TABULATED = {"kind": "tabulated", "table_t": _T.tolist(),
             "table_a": np.cosh(_T).tolist()}


def _defs():
    """{(file, name, first line, last line): dotted name} of every def in
    the package, nested ones included; the first line is that of the
    first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                walk(child, path, prefix)
                continue
            dotted = prefix + (child.name,)
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[str(path), child.name, first,
                    child.end_lineno] = ".".join(dotted)
            walk(child, path, dotted)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path,
             (path.stem,))
    return out


def _reached(codes, defs):
    """The keys of the defs that the code objects `codes` belong to: for
    each, the innermost def of its file and name whose span holds its
    first line."""
    reached = set()
    for code in codes:
        path = str(Path(code.co_filename).resolve())
        hits = [key for key in defs
                if key[:2] == (path, code.co_name)
                and key[2] <= code.co_firstlineno <= key[3]]
        if hits:
            reached.add(min(hits, key=lambda k: k[3] - k[2]))
    return reached


def _clear_caches():
    """Empty every functools cache of the package, so that a function that
    an earlier test has cached is entered again."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "warpframe":
            continue
        for obj in list(vars(module).values()):
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                if callable(getattr(f, "cache_clear", None)):
                    f.cache_clear()


def _invocations(tmp, run):
    """The fixed invocation list, each given to run(argv, exit code); the
    files go under `tmp`."""
    for name in oracle.example_names():
        d = tmp / name
        path = str(d / f"{name}.json")
        run(["examples", "--example", name, "-o", str(d)], 0)
        run(["validate", path], 0)
        run(["validate", "--example", name, "--report", "json"], 0)
        run(["verify", path], 0)
        run(["verify", path, "--force-fd"], 0)
        run(["verify", path, "--report", "json", "-o", str(d / "v")], 0)
        run(["reconstruct", path, "--report", "json", "-o", str(d / "r")], 0)
        run(["reconstruct", path, "--h-refine", "2"], 0)
        run(["reconstruct", path, "--tol", "1e-300", "--h-refine", "2",
             "-o", str(d / "refused")], 2)
        run(["roundtrip", "--example", name], 0)
        run(["roundtrip", "--example", name, "--h-refine", "2"], 0)
    run(["examples"], 0)
    run(["validate", "--example", "slice", "--params",
         '{"warping": {"kind": "cosh", "domain": [-0.1, 0.1]}}'], 2)
    run(["verify", "--example", "great_subsphere", "--params",
         '{"derivatives": "fd"}'], 0)
    run(["verify", "--example", "helix", "--params", '{"warping": "exp"}'], 0)
    run(["verify", "--example", "helix", "--params",
         json.dumps({"warping": TABULATED})], 0)
    imm = oracle.make_example("helix")
    save_frame_matrix(oracle.exact_frame_field(imm)[imm.grid.base_node],
                      tmp / "b0.json")
    run(["reconstruct", str(tmp / "helix" / "helix.json"),
         "--base-frame", str(tmp / "b0.json")], 0)
    run(["verify", str(tmp / "missing.json")], 1)

    for name, params, attach in (("helix", HELIX_LONG, True),
                                 ("slice", SLICE3D_FD, False)):
        d = tmp / f"bench_{name}"
        path = str(d / f"{name}.json")
        run(["examples", "--example", name, "--params",
             json.dumps({**params, "attach_derivatives": attach}),
             "-o", str(d)], 0)
        run(["verify", path, "--report", "json"], 0)
        run(["reconstruct", path, "-o", str(d / "r"), "--report", "json"], 0)
    run(["roundtrip", "--example", "helix", "--params",
         json.dumps(HELIX_LONG)], 0)
    # The slice generator tag omits n, so this roundtrip rebuilds a 2-D
    # slice on the 3-D grid and induce_data's quadric check raises.
    with pytest.raises(ValueError):
        run(["roundtrip", "--example", "slice", "--params",
             json.dumps(SLICE3D_FD)], 0)

    # omega_tangent scaled by 1e200: the residuals fail, and the forced
    # sweep overflows.
    doc = json.loads((tmp / "slice" / "slice.json").read_text())
    doc["fields"]["omega_tangent"] = [
        1e200 * v for v in doc["fields"]["omega_tangent"]]
    doc.pop("derivatives")
    (tmp / "huge.json").write_text(json.dumps(doc))
    run(["reconstruct", str(tmp / "huge.json"), "--force"], 3)


def test_every_def_is_entered_or_allowed(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def run(argv, want):
        """cli.main(argv) under the hook, its output dropped; asserts the
        exit code."""
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert rc == want, (argv, rc)

    _clear_caches()
    _invocations(tmp_path, run)
    defs = _defs()
    never = {defs[key] for key in defs.keys() - _reached(entered, defs)}
    unexpected = sorted(never - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - never)
    assert not unexpected and not stale, (
        f"never entered and not in ALLOWED: {unexpected}; "
        f"in ALLOWED but entered or gone: {stale}")
