"""Metadata edits that are symmetries of the data.

A dataset states the grid it lives on and its ambient. Some edits of that
metadata change nothing the structure equations read, so the edited file
must still pass verify (analytic and finite-difference derivatives) and
reconstruct, and rebuild the same immersion up to an ambient isometry:

* a chart origin shift, on every fixture: the equations read the
  spacing, never the origin;
* on great_subsphere (a = 1), a t-translation, the warping shift and pi
  moved together: a translation in t is an isometry of a product;
* on the helix, the warping amplitude scaled by 1.05: a curve's equations
  read only a'/a and a''/a, so the data is realized in the scaled ambient.
  There it is another curve (its congruence defect against the unscaled
  reconstruction is about 2.7e-2), so only the pass is asserted;
* on every fixture, the base node moved to the far corner or to an
  off-centre interior node: B0 is built at another node, so the two
  reconstructions differ by a constant group element plus the sweep's
  O(h^2) error, and are congruent within 10 h^2. Measured: at most 4.0e-5
  on the n = 2 fixtures (10 h^2 is 1.6e-2 or 2.5e-2 there), and roundoff
  (at most 1.2e-12) on the curves, where the sweep is one chain whatever
  node it starts from;
* on the n = 2 fixtures, the chart axes reversed (grid keys, field grid
  axes, the coordinate index of the frame and of both connection blocks,
  and the derivative axis together): every residual field of (A)-(F),
  aux4 and flatness, jets and finite differences, is the same field with
  its grid axes reversed, to roundoff (measured: at most 1.3e-15 apart).
  The sweep takes its axes in the other order, so the reconstruction is
  congruent within 10 h^2 (measured: 6.1e-6 to 1.3e-5), and the path
  probe's two extremal paths swap, so its defect is the same to 1e-12
  relative (measured: equal on three fixtures, 6.3e-15 on desitter_slice);
* on the n = 2 fixtures, a chart reflection x_k -> -x_k for k = 0 and
  k = 1 (grid axis k of every field reversed, the origin and base node
  mirrored, and one sign flip per coordinate index k a quantity carries:
  the frame's coordinate column, the 1-form index of both connection
  blocks, the derivative axis): every residual field, jets and finite
  differences, is the same field mirrored along axis k, to roundoff
  (measured: at most 3.6e-15 apart), and the reconstruction is congruent
  within 10 h^2.

Each edit is made to the JSON file that `examples -o` writes, and every
command runs through the CLI.
"""

import json

import numpy as np
import pytest

from warpframe.cli import main
from warpframe.immersion import ImmersionField, congruence_align
from warpframe.io import load_dataset, load_frames_json, read_immersion_csv
from warpframe.oracle import example_names
from warpframe.verifier import (aux_identity_fields, flatness_fields,
                                structure_residual_fields)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """The directory of the jet files that `examples -o` writes."""
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["examples", "-o", str(out)]) == 0
    return out


def _edited(fixtures, tmp, name, edit):
    """A copy of the fixture file `name` under tmp, edit(doc) applied."""
    doc = json.loads((fixtures / f"{name}.json").read_text())
    edit(doc)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _reconstruction(path, out):
    """The immersion that `reconstruct path -o out` writes, after verify
    and verify --force-fd; each command must exit 0."""
    for argv in (["verify", str(path)], ["verify", str(path), "--force-fd"],
                 ["reconstruct", str(path), "-o", str(out)]):
        assert main(argv) == 0, argv
    data = load_dataset(path)
    ext = data.grid.extents
    _, spatial, t = read_immersion_csv(out / "immersion.csv")
    return ImmersionField(spec=data.spec, warping=data.warping,
                          grid=data.grid, spatial=spatial.reshape(ext + (-1,)),
                          t=t.reshape(ext),
                          frames=load_frames_json(out / "frames.json"))


def _shift_origin(doc):
    doc["grid"]["origin"] = [x + 0.37 for x in doc["grid"]["origin"]]


def _translate_t(doc):
    doc["warping"]["shift"] += 0.02
    doc["fields"]["pi"] = [t + 0.02 for t in doc["fields"]["pi"]]


def _scale_amplitude(doc):
    doc["warping"]["amplitude"] *= 1.05


# The fields whose last component axis is a chart coordinate: the frame's
# columns and the 1-form index of both connection blocks.
_COORDINATE_LAST = ("frame", "omega_tangent", "omega_bundle")


# The fixtures with a 1-dimensional chart, which has one axis order only.
_CURVES = ("helix", "vertical_geodesic")


def _reverse_grid(a, n):
    """a (*ext, ...) with its n grid axes in reverse order."""
    return np.transpose(a, [*range(n)][::-1] + [*range(n, a.ndim)])


def _reverse_axes(doc):
    """The chart axes in reverse order, x'_k = x_{n-1-k}: the grid keys, the
    grid axes of every field, the coordinate index of the frame and the
    connection blocks, and the derivative axis, all together. The
    generator tag, which names the unreversed chart, is dropped."""
    n = doc["signature"]["n"]
    ext = tuple(doc["grid"]["extents"])
    for key in ("extents", "spacing", "origin", "base_node"):
        doc["grid"][key] = doc["grid"][key][::-1]
    for group, lead in (("fields", ()), ("derivatives", (n,))):
        for name, values in doc.get(group, {}).items():
            a = np.asarray(values).reshape(lead + ext + (-1,))
            a = (np.stack([_reverse_grid(d, n) for d in a[::-1]]) if lead
                 else _reverse_grid(a, n))
            if name in _COORDINATE_LAST:
                a = a.reshape(a.shape[:-1] + (-1, n))[..., ::-1]
            doc[group][name] = a.ravel().tolist()
    doc.pop("generator", None)


@pytest.mark.parametrize("name, edit", [
    *((name, _shift_origin) for name in example_names()),
    ("great_subsphere", _translate_t),
], ids=[*(f"{name}-origin" for name in example_names()),
        "great_subsphere-t_translation"])
def test_symmetry_rebuilds_a_congruent_immersion(name, edit, fixtures,
                                                 tmp_path, capsys):
    plain = _reconstruction(fixtures / f"{name}.json", tmp_path / "plain")
    moved = _reconstruction(_edited(fixtures, tmp_path, name, edit),
                            tmp_path / "moved")
    capsys.readouterr()
    _, defect = congruence_align(moved, plain)
    assert defect <= 1e-12


def _move_base_node(where):
    def edit(doc):
        ext = doc["grid"]["extents"]
        doc["grid"]["base_node"] = ([e - 1 for e in ext] if where == "corner"
                                    else [e // 4 + 1 for e in ext])
    return edit


@pytest.mark.parametrize("where", ["corner", "interior"])
@pytest.mark.parametrize("name", example_names())
def test_base_node_move_rebuilds_a_congruent_immersion(name, where, fixtures,
                                                       tmp_path, capsys):
    plain = _reconstruction(fixtures / f"{name}.json", tmp_path / "plain")
    path = _edited(fixtures, tmp_path, name, _move_base_node(where))
    moved = _reconstruction(path, tmp_path / "moved")
    capsys.readouterr()
    assert moved.grid.base_node != plain.grid.base_node
    h = max(plain.grid.spacing)
    _, defect = congruence_align(moved, plain)
    assert defect <= 10 * h * h


def test_curve_amplitude_passes(fixtures, tmp_path, capsys):
    _reconstruction(_edited(fixtures, tmp_path, "helix", _scale_amplitude),
                    tmp_path / "out")
    capsys.readouterr()


def _residual_fields(data, force_fd):
    """Every per-node residual field: (A)-(F), aux4 and flatness."""
    return {**structure_residual_fields(data, force_fd),
            **aux_identity_fields(data, force_fd),
            **flatness_fields(data, force_fd)}


@pytest.mark.parametrize("name", [name for name in example_names()
                                  if name not in _CURVES])
def test_axis_reversal_rebuilds_a_congruent_immersion(name, fixtures,
                                                      tmp_path, capsys):
    path = fixtures / f"{name}.json"
    plain = _reconstruction(path, tmp_path / "plain")
    rpath = _edited(fixtures, tmp_path, name, _reverse_axes)
    rev = _reconstruction(rpath, tmp_path / "rev")
    capsys.readouterr()
    n = plain.grid.n
    assert n == 2

    data, rdata = load_dataset(path), load_dataset(rpath)
    for force_fd in (False, True):
        fields = _residual_fields(data, force_fd)
        rfields = _residual_fields(rdata, force_fd)
        assert fields.keys() == rfields.keys()
        for key, field in fields.items():
            np.testing.assert_allclose(_reverse_grid(rfields[key], n), field,
                                       rtol=1e-12, atol=1e-14,
                                       err_msg=f"{key} force_fd={force_fd}")

    # The sweep runs its axes in the other order, so the two
    # reconstructions differ by the sweep's O(h^2) error.
    back = ImmersionField(spec=plain.spec, warping=plain.warping,
                          grid=plain.grid,
                          spatial=_reverse_grid(rev.spatial, n),
                          t=_reverse_grid(rev.t, n),
                          frames=_reverse_grid(rev.frames, n))
    h = max(plain.grid.spacing)
    _, defect = congruence_align(back, plain)
    assert defect <= 10 * h * h

    # The probe's two extremal paths swap.
    pid = [json.loads((tmp_path / out / "bfield.json").read_text())[
        "path_independence_defect"] for out in ("plain", "rev")]
    assert pid[1] == pytest.approx(pid[0], rel=1e-12, abs=0.0)


def _reflect_axis(k):
    """The chart reflection x_k -> -x_k: grid axis k of every field and
    derivative field reversed, the origin mirrored to
    -(origin_k + (e_k - 1) h_k) and the base node to e_k - 1 - base_k, and
    the sign of a quantity flipped once for each coordinate index k it
    carries: the frame's coordinate column, the 1-form index of both
    connection blocks, and the derivative axis. The generator tag, which
    names the unreflected chart, is dropped."""
    def edit(doc):
        n = doc["signature"]["n"]
        grid = doc["grid"]
        ext = tuple(grid["extents"])
        grid["origin"][k] = -(grid["origin"][k]
                              + (ext[k] - 1) * grid["spacing"][k])
        grid["base_node"][k] = ext[k] - 1 - grid["base_node"][k]
        for group, lead in (("fields", ()), ("derivatives", (n,))):
            for name, values in doc.get(group, {}).items():
                a = np.asarray(values).reshape(lead + ext + (-1,))
                a = np.flip(a, len(lead) + k).copy()
                if lead:
                    a[k] *= -1.0
                if name in _COORDINATE_LAST:
                    a = a.reshape(a.shape[:-1] + (-1, n))
                    a[..., k] *= -1.0
                doc[group][name] = a.ravel().tolist()
        doc.pop("generator", None)
    return edit


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", [name for name in example_names()
                                  if name not in _CURVES])
def test_chart_reflection_rebuilds_a_congruent_immersion(name, k, fixtures,
                                                         tmp_path, capsys):
    path = fixtures / f"{name}.json"
    plain = _reconstruction(path, tmp_path / "plain")
    rpath = _edited(fixtures, tmp_path, name, _reflect_axis(k))
    refl = _reconstruction(rpath, tmp_path / "refl")
    capsys.readouterr()
    assert plain.grid.n == 2

    data, rdata = load_dataset(path), load_dataset(rpath)
    for force_fd in (False, True):
        fields = _residual_fields(data, force_fd)
        rfields = _residual_fields(rdata, force_fd)
        assert fields.keys() == rfields.keys()
        for key, field in fields.items():
            np.testing.assert_allclose(np.flip(rfields[key], k), field,
                                       rtol=1e-12, atol=1e-14,
                                       err_msg=f"{key} force_fd={force_fd}")

    # The sweep steps each line of axis k the other way from the mirrored
    # base node. Every n = 2 fixture has its base node at the centre, so
    # it meets the same propagators and the reconstructions agree at
    # roundoff (measured: 1.1e-16 to 7.2e-16); 10 h^2 bounds any base node.
    back = ImmersionField(spec=plain.spec, warping=plain.warping,
                          grid=plain.grid, spatial=np.flip(refl.spatial, k),
                          t=np.flip(refl.t, k),
                          frames=np.flip(refl.frames, k))
    h = max(plain.grid.spacing)
    _, defect = congruence_align(back, plain)
    assert defect <= 10 * h * h
