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
  node it starts from.

Each edit is made to the JSON file that `examples -o` writes, and every
command runs through the CLI.
"""

import json

import pytest

from warpframe.cli import main
from warpframe.immersion import ImmersionField, congruence_align
from warpframe.io import load_dataset, load_frames_json, read_immersion_csv
from warpframe.oracle import example_names


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
