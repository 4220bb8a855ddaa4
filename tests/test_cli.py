import ctypes
import json
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from json_reference import float64_list

from warpframe import ChartGrid, GeometricData, canonical_example
from warpframe import cli, jets
from warpframe.bundle_data import FIELD_NAMES
from warpframe.cli import main
from warpframe.errors import SchemaError
from warpframe.io import (load_dataset, load_frame_matrix, read_immersion_csv,
                          save_dataset, save_frame_matrix)
from warpframe.oracle import _grid_tag


@pytest.fixture(scope="module")
def slice_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "slice.json"
    _, data = canonical_example("slice", {"n": 2})
    save_dataset(data, path)
    return path


@pytest.fixture(scope="module")
def helix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "helix.json"
    _, data = canonical_example("helix", {})
    save_dataset(data, path)
    return path


@pytest.fixture(scope="module")
def fd_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "slice_fd.json"
    _, data = canonical_example("slice", {"n": 2,
                                          "attach_derivatives": False})
    save_dataset(data, path)
    return path


class TestVerifyCommand:
    def test_pass_exit_zero(self, slice_file, capsys):
        assert main(["verify", str(slice_file)]) == 0
        out = capsys.readouterr().out
        assert "flatness" in out and "FAIL" not in out

    def test_broken_alpha_exits_two_and_names_codazzi(self, slice_file,
                                                      tmp_path, capsys):
        doc = json.loads(slice_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 0.1
        doc.pop("derivatives")
        bad = tmp_path / "broken_alpha.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("E ")][0]
        assert "FAIL" in line

    @pytest.mark.parametrize("node", [(0, 8), (0, 0)],
                             ids=["face", "corner"])
    def test_face_bump_fails_on_analytic_data(self, node, slice_file,
                                              tmp_path, capsys):
        # Analytic derivatives are judged on every node, faces included,
        # so a 1e-3 bump of alpha[0, 0, 0] on the boundary fails B there.
        # Finite differences are judged on the interior alone, where the
        # bump's differences stay within 10 h^2.
        doc = json.loads(slice_file.read_text())
        doc["fields"]["alpha"][4 * (17 * node[0] + node[1])] += 1e-3
        bad = tmp_path / "bump.json"
        bad.write_text(json.dumps(doc))
        for command in ("verify", "reconstruct"):
            assert main([command, str(bad), "--report", "json"]) == 2
            B = json.loads(capsys.readouterr().out)["residuals"]["B"]
            assert not B["passed"] and B["worst_node"] == list(node)
            assert main([command, str(bad), "--force-fd"]) == 0
            capsys.readouterr()

    def test_missing_file_exits_one(self):
        assert main(["verify", "does_not_exist.json"]) == 1

    def test_malformed_json_exits_one(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 1

    def test_invariant_violation_exits_two(self, slice_file, tmp_path):
        doc = json.loads(slice_file.read_text())
        doc["fields"]["alpha"][1] += 0.5  # breaks symmetry
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2

    def test_json_report_mode(self, slice_file, capsys):
        assert main(["verify", str(slice_file), "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert "A" in doc["residuals"]

    @pytest.mark.parametrize("fixture", ["slice_file", "helix_file"])
    def test_report_entries_one_per_identity(self, fixture, request, capsys):
        path = request.getfixturevalue(fixture)
        assert main(["verify", str(path), "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["residuals"]) == [
            "A", "B", "C", "D", "E", "F", "aux4", "flatness"]

    @pytest.mark.parametrize("extra", [[], ["--force-fd", "--h-refine", "2"]],
                             ids=["plain", "refined"])
    def test_json_stdout_equals_report_file(self, slice_file, extra,
                                            tmp_path, capsys):
        out = tmp_path / "vout"
        assert main(["verify", str(slice_file), "--report", "json",
                     "-o", str(out)] + extra) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith('{\n "format_version": 1,\n')
        assert stdout.encode() == (out / "residuals.json").read_bytes()

    def test_h_refine_records_ratios(self, slice_file, capsys):
        rc = main(["verify", str(slice_file), "--h-refine", "2",
                   "--force-fd", "--report", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ratios = doc["meta"]["refinement"]["sup_ratios"]
        assert 3.0 < ratios["flatness"] < 4.8

    def test_example_inline(self, capsys):
        assert main(["verify", "--example", "desitter_slice"]) == 0
        capsys.readouterr()

    def test_deterministic_exit(self, slice_file):
        assert main(["verify", str(slice_file)]) == main(
            ["verify", str(slice_file)])


class TestVerifyRecordsCheckSource:
    """verify's report meta names the derivatives that drove the checks and
    the tolerance with its origin; the text report prints the same as its
    first line."""

    def run(self, path, extra, capsys):
        assert main(["verify", str(path), "--report", "json"] + extra) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert main(["verify", str(path)] + extra) == 0
        header = capsys.readouterr().out.splitlines()[0]
        return meta, header

    def test_jet_fixture(self, helix_file, capsys):
        meta, header = self.run(helix_file, [], capsys)
        assert meta["derivatives"] == "analytic"
        assert meta["tolerance"] == {"value": 1e-8, "origin": "1e-8"}
        assert header == "derivatives analytic  tolerance 1.00e-08 (1e-8)"

    def test_fd_fixture(self, fd_file, capsys):
        meta, header = self.run(fd_file, [], capsys)
        tol = load_dataset(fd_file).grid.fd_tolerance
        assert meta["derivatives"] == "finite_differences"
        assert meta["tolerance"] == {"value": tol, "origin": "10 h^2"}
        assert header == (f"derivatives finite_differences  tolerance "
                          f"{tol:.2e} (10 h^2)")

    def test_force_fd(self, helix_file, capsys):
        meta, header = self.run(helix_file, ["--force-fd"], capsys)
        tol = load_dataset(helix_file).grid.fd_tolerance
        assert meta["derivatives"] == "finite_differences"
        assert meta["tolerance"] == {"value": tol, "origin": "10 h^2"}
        assert header.startswith("derivatives finite_differences  ")

    @pytest.mark.parametrize("fixture", ["helix_file", "fd_file"])
    def test_tol(self, fixture, request, capsys):
        path = request.getfixturevalue(fixture)
        meta, header = self.run(path, ["--tol", "0.03"], capsys)
        assert meta["tolerance"] == {"value": 0.03, "origin": "--tol"}
        assert header.endswith("  tolerance 3.00e-02 (--tol)")

    def test_meta_in_report_file(self, fd_file, tmp_path, capsys):
        out = tmp_path / "vout"
        assert main(["verify", str(fd_file), "--report", "json",
                     "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode() == (out / "residuals.json").read_bytes()
        assert list(json.loads(stdout)["meta"]) == [
            "grid_extents", "derivatives", "tolerance"]

    def test_meta_in_refined_report_file(self, tmp_path, capsys):
        # The refined report carries the fine grid's meta: its extents and
        # its own 10 (h/2)^2 tolerance.
        out = tmp_path / "vout"
        assert main(["verify", "--example", "helix", "--h-refine", "2",
                     "--force-fd", "-o", str(out)]) == 0
        capsys.readouterr()
        coarse = json.loads((out / "residuals.json").read_text())["meta"]
        fine = json.loads((out / "residuals_refined.json").read_text())
        assert fine["meta"] == {
            "grid_extents": [129], "derivatives": "finite_differences",
            "tolerance": {"value": 2.44140625e-3, "origin": "10 h^2"}}
        assert coarse["grid_extents"] == [65]
        assert coarse["tolerance"] == {"value": 9.765625e-3,
                                       "origin": "10 h^2"}
        assert all(e["tolerance"] == 2.44140625e-3
                   for e in fine["residuals"].values())


class TestReconstructRecordsGate:
    """reconstruct's report meta records what gated it: the grid extents,
    then under "gate" the derivatives and tolerance of the residual check
    as verify's meta has them, then the conclusions' own tolerance. The
    text report starts with verify's header line."""

    def run(self, path, extra, capsys):
        assert main(["reconstruct", str(path), "--report", "json"]
                    + extra) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert main(["verify", str(path), "--report", "json"] + extra) == 0
        verified = json.loads(capsys.readouterr().out)["meta"]
        assert main(["reconstruct", str(path)] + extra) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert main(["verify", str(path)] + extra) == 0
        assert header == capsys.readouterr().out.splitlines()[0]
        assert list(meta) == ["grid_extents", "gate", "tolerance",
                              "diagnostics"]
        assert meta["grid_extents"] == verified["grid_extents"]
        assert meta["gate"] == {"derivatives": verified["derivatives"],
                                "tolerance": verified["tolerance"]}
        assert list(meta["gate"]) == ["derivatives", "tolerance"]
        return meta, header

    def test_jet_fixture(self, helix_file, capsys):
        meta, header = self.run(helix_file, [], capsys)
        tol = load_dataset(helix_file).grid.fd_tolerance
        assert meta["gate"] == {"derivatives": "analytic",
                                "tolerance": {"value": 1e-8,
                                              "origin": "1e-8"}}
        assert meta["tolerance"] == {"value": tol, "origin": "10 h^2"}
        assert header == "derivatives analytic  tolerance 1.00e-08 (1e-8)"

    def test_fd_fixture(self, fd_file, capsys):
        meta, header = self.run(fd_file, [], capsys)
        tol = load_dataset(fd_file).grid.fd_tolerance
        assert meta["gate"] == {"derivatives": "finite_differences",
                                "tolerance": {"value": tol,
                                              "origin": "10 h^2"}}
        assert meta["tolerance"] == {"value": tol, "origin": "10 h^2"}
        assert header == (f"derivatives finite_differences  tolerance "
                          f"{tol:.2e} (10 h^2)")

    def test_force_fd(self, helix_file, capsys):
        meta, _ = self.run(helix_file, ["--force-fd"], capsys)
        tol = load_dataset(helix_file).grid.fd_tolerance
        assert meta["gate"] == {"derivatives": "finite_differences",
                                "tolerance": {"value": tol,
                                              "origin": "10 h^2"}}

    @pytest.mark.parametrize("fixture", ["helix_file", "fd_file"])
    def test_tol(self, fixture, request, capsys):
        path = request.getfixturevalue(fixture)
        meta, header = self.run(path, ["--tol", "0.03"], capsys)
        assert meta["gate"]["tolerance"] == {"value": 0.03, "origin": "--tol"}
        assert meta["tolerance"] == {"value": 0.03, "origin": "--tol"}
        assert header.endswith("  tolerance 3.00e-02 (--tol)")

    def test_refused_gate_writes_verify_meta(self, fd_file, tmp_path,
                                             capsys):
        # A refused reconstruct leaves the residuals.json that verify
        # writes, meta included, and prints verify's header first.
        doc = json.loads(fd_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 0.1
        bad = tmp_path / "broken_alpha.json"
        bad.write_text(json.dumps(doc))
        assert main(["reconstruct", str(bad), "-o", str(tmp_path / "r")]) == 2
        out = capsys.readouterr().out.splitlines()
        assert main(["verify", str(bad), "-o", str(tmp_path / "v")]) == 2
        assert out[0] == capsys.readouterr().out.splitlines()[0]
        assert out[1].startswith("verification failed; not reconstructing")
        refused, verified = (
            json.loads((tmp_path / d / "residuals.json").read_text())
            for d in ("r", "v"))
        assert refused == verified
        assert list(refused["meta"]) == ["grid_extents", "derivatives",
                                         "tolerance"]

    @pytest.mark.parametrize("extra", [[], ["--force-fd"], ["--tol", "1e-3"],
                                       ["--h-refine", "2"]])
    def test_refused_gate_prints_verify_json(self, fd_file, tmp_path, extra,
                                             capsys):
        # With --report json a refused reconstruct prints, byte for byte,
        # what verify --report json prints for the same file and options.
        doc = json.loads(fd_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 0.1
        bad = tmp_path / "broken_alpha.json"
        bad.write_text(json.dumps(doc))
        argv = [str(bad), "--report", "json"] + extra
        assert main(["reconstruct"] + argv) == 2
        refused = capsys.readouterr().out
        assert main(["verify"] + argv) == 2
        assert refused == capsys.readouterr().out
        assert json.loads(refused)["passed"] is False

    @pytest.mark.parametrize("report", ["json", "text"])
    def test_refused_gate_writes_refined_verify_files(self, fd_file,
                                                      tmp_path, report,
                                                      capsys):
        # With --h-refine too, a refused reconstruct -o writes the files
        # verify -o writes, meta.refinement included, and with --report
        # json prints that residuals.json.
        doc = json.loads(fd_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 0.1
        bad = tmp_path / "broken_alpha.json"
        bad.write_text(json.dumps(doc))
        argv = [str(bad), "--h-refine", "2", "--report", report, "-o"]
        assert main(["reconstruct"] + argv + [str(tmp_path / "r")]) == 2
        out = capsys.readouterr().out
        assert main(["verify"] + argv + [str(tmp_path / "v")]) == 2
        capsys.readouterr()
        for name in ("residuals.json", "residuals_refined.json"):
            assert ((tmp_path / "r" / name).read_bytes()
                    == (tmp_path / "v" / name).read_bytes()), name
        refused = (tmp_path / "r" / "residuals.json").read_text()
        assert json.loads(refused)["meta"]["refinement"]["factor"] == 2
        if report == "json":
            assert out == refused
        else:
            assert "verification failed; not reconstructing" in out


@pytest.mark.parametrize("command, broken", [
    ("verify", False), ("reconstruct", True), ("reconstruct", False)],
    ids=["verify", "refused-reconstruct", "reconstruct"])
def test_text_report_prints_refinement_ratios(command, broken, fd_file,
                                              tmp_path, capsys):
    # Under --h-refine the text report of verify, of a refused reconstruct
    # and of a passing one ends with the sup ratios that meta.refinement
    # holds in the JSON report, rounded to 3 places.
    path = fd_file
    if broken:
        doc = json.loads(fd_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 0.1
        path = tmp_path / "broken_alpha.json"
        path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    rc = main(argv)
    plain = capsys.readouterr().out
    assert main(argv + ["--h-refine", "2"]) == rc == (2 if broken else 0)
    refined = capsys.readouterr().out
    assert refined != plain and "refinement" not in plain
    *head, last = refined.splitlines()
    assert head == plain.splitlines()
    prefix = "refinement sup ratios: "
    assert last.startswith(prefix)
    assert main(argv + ["--h-refine", "2", "--report", "json"]) == rc
    want = json.loads(capsys.readouterr().out)["meta"]["refinement"]
    ratios = json.loads(last[len(prefix):])
    assert list(ratios) == list(want["sup_ratios"])
    for key, value in want["sup_ratios"].items():
        assert ratios[key] == (round(value, 3) if value else None), key


@pytest.mark.parametrize("fixture, extra, source", [
    ("slice_file", [], "analytic"),
    ("slice_file", ["--force-fd"], "finite_differences"),
    ("fd_file", [], "finite_differences")],
    ids=["jets", "jets-force-fd", "fd-induced"])
def test_refinement_records_the_fine_check_source(fixture, extra, source,
                                                  request, capsys):
    # With analytic derivative fields and no --force-fd, the coarse and the
    # fine sups are both roundoff, so their ratios carry no order:
    # meta.refinement names the derivatives of the fine check, and the
    # text line says what its ratios are. The finite-difference line keeps
    # its plain prefix.
    argv = ["verify", str(request.getfixturevalue(fixture)), "--h-refine",
            "2"] + extra
    assert main(argv + ["--report", "json"]) == 0
    refinement = json.loads(capsys.readouterr().out)["meta"]["refinement"]
    assert list(refinement) == ["factor", "derivatives", "sup_ratios"]
    assert refinement["derivatives"] == source
    assert main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    prefix = {"analytic": "refinement sup ratios (analytic derivatives: "
                          "roundoff over roundoff, no order): ",
              "finite_differences": "refinement sup ratios: "}[source]
    assert last.startswith(prefix)
    ratios = json.loads(last[len(prefix):])
    assert list(ratios) == list(refinement["sup_ratios"])
    if source == "finite_differences":
        assert 3.0 < ratios["flatness"] < 4.8


class TestCurveSkipsPlanes:
    """A curve's chart has no coordinate 2-plane: verify reports D, E, F,
    aux4 and flatness as skipped without assembling a form or
    differentiating the coframe, and the sweep assembles Upsilon alone."""

    SKIPPED = ("D", "E", "F", "aux4", "flatness")

    @pytest.fixture
    def calls(self, monkeypatch):
        from warpframe import frame_solver, verifier
        calls = []
        for module in (frame_solver, verifier):
            for name in ("assemble_all", "inv_frame_derivatives"):
                def spy(*args, _fn=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("extra", [[], ["--force-fd"]],
                             ids=["jets", "fd"])
    @pytest.mark.parametrize("name", ["helix", "vertical_geodesic"])
    def test_verify_assembles_nothing(self, name, extra, calls, tmp_path,
                                      capsys):
        path = tmp_path / f"{name}.json"
        save_dataset(canonical_example(name, {})[1], path)
        calls.clear()
        assert main(["verify", str(path), "--report", "json"] + extra) == 0
        assert calls == []
        res = json.loads(capsys.readouterr().out)["residuals"]
        for key in self.SKIPPED:
            assert res[key] == {
                "sup": 0.0, "rms": 0.0, "worst_node": None,
                "tolerance": res["A"]["tolerance"], "passed": True,
                "note": "no coordinate 2-planes on a 1-dimensional chart"}, key
        for key in "ABC":
            assert res[key]["worst_node"] is not None and "note" not in res[key]

    @pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
    def test_sweep_keeps_upsilon_alone(self, command, calls, held_forms,
                                       monkeypatch, capsys):
        swept = []

        def spy(data, *args, **kwargs):
            swept.append(data)
            return integrate(data, *args, **kwargs)
        integrate = cli.integrate_frame
        monkeypatch.setattr(cli, "integrate_frame", spy)
        assert main([command, "--example", "helix"]) == 0
        capsys.readouterr()
        assert calls == ["assemble_all"]
        assert [held_forms(d) for d in swept] == [{"Upsilon"}]


class TestOneAssembly:
    """On a surface every command assembles the forms once per dataset
    (and their jets once, for flatness on analytic data): aux4 gets Omega
    and W, and flatness, the sweep and the path probe one held Upsilon,
    the only form the dataset keeps."""

    @pytest.fixture
    def seen(self, monkeypatch):
        from warpframe import frame_solver, verifier
        seen = {"assemble": [], "upsilon": []}

        def assemble(spec, C, *args):
            seen["assemble"].append(
                "jets" if isinstance(C, jets.Jet) else "arrays")
            return _assemble(spec, C, *args)
        _assemble = frame_solver._assemble
        monkeypatch.setattr(frame_solver, "_assemble", assemble)
        for module in (frame_solver, verifier):
            def spy(data, *names, _fn=module.assemble_all):
                forms = _fn(data, *names)
                if "Upsilon" in forms:
                    seen["upsilon"].append((data, forms["Upsilon"]))
                return forms
            monkeypatch.setattr(module, "assemble_all", spy)
        return seen

    @staticmethod
    def check_upsilon(seen, held_forms, datasets):
        """One Upsilon per dataset, read by every reader and held alone."""
        found = {}
        for data, ups in seen["upsilon"]:
            assert found.setdefault(id(data), ups) is ups
            assert data._cache["Upsilon"] is ups
            assert held_forms(data) == {"Upsilon"}
        assert len(found) == datasets

    @pytest.mark.parametrize("command, readers", [("verify", 1),
                                                  ("reconstruct", 3)])
    def test_file_commands(self, command, readers, seen, held_forms,
                           slice_file, tmp_path, capsys):
        argv = [command, str(slice_file), "-o", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert seen["assemble"] == ["arrays", "jets"]
        assert len(seen["upsilon"]) == readers
        self.check_upsilon(seen, held_forms, 1)

    def test_roundtrip_levels(self, seen, held_forms, capsys):
        argv = ["roundtrip", "--example", "slice", "--params", '{"n": 2}',
                "--h-refine", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert seen["assemble"] == ["arrays", "jets"] * 2
        # Per level: flatness, then the sweep.
        assert len(seen["upsilon"]) == 4
        self.check_upsilon(seen, held_forms, 2)


class TestReconstructCommand:
    def test_outputs_and_exit(self, slice_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["reconstruct", str(slice_file), "-o", str(out)])
        assert rc == 0
        capsys.readouterr()
        for name in ("immersion.csv", "frames.json", "bfield.json",
                     "conclusions.json"):
            assert (out / name).exists()
        idx, spatial, t = read_immersion_csv(out / "immersion.csv")
        # quadric membership of the emitted point set
        member = np.abs((spatial ** 2).sum(axis=1) - 1.0).max()
        assert member <= 1e-8
        assert json.loads((out / "conclusions.json").read_text())["passed"]

    def test_bad_base_frame_exits_two(self, slice_file, tmp_path, capsys):
        B = np.eye(4)
        B[3, 3] = 5.0
        bf = tmp_path / "bad_B0.json"
        save_frame_matrix(B, bf)
        rc = main(["reconstruct", str(slice_file), "--base-frame", str(bf)])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("B, code", [
        (np.eye(3), 1),                       # wrong shape for the 4x4 helix
        (np.full((4, 4), np.nan), 2)],        # NaN defects must not pass
        ids=["wrong_shape", "nan"])
    def test_malformed_base_frame_exit_code(self, helix_file, tmp_path,
                                            capsys, B, code):
        bf = tmp_path / "B0.json"
        save_frame_matrix(B, bf)
        rc = main(["reconstruct", str(helix_file), "--base-frame", str(bf)])
        assert rc == code
        assert "B0" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["helix_file", "slice_file"])
    def test_saved_base_frame_reproduces_default(self, name, request,
                                                 tmp_path, capsys):
        from warpframe.frame_solver import build_base_frame
        path = request.getfixturevalue(name)
        bf = tmp_path / "b0.json"
        save_frame_matrix(build_base_frame(load_dataset(path)), bf)
        assert main(["reconstruct", str(path), "--base-frame", str(bf),
                     "-o", str(tmp_path / "A")]) == 0
        assert main(["reconstruct", str(path),
                     "-o", str(tmp_path / "B")]) == 0
        capsys.readouterr()
        for f in ("immersion.csv", "frames.json", "bfield.json"):
            assert ((tmp_path / "A" / f).read_bytes()
                    == (tmp_path / "B" / f).read_bytes()), f

    def test_refinement_ratio_recorded(self, helix_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["reconstruct", str(helix_file), "--h-refine", "2",
                   "-o", str(out), "--report", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ratios = doc["meta"]["refinement"]["sup_ratios"]
        assert 2.5 < ratios["dt_split"] < 5.5
        assert (out / "immersion.csv").exists()
        assert (out / "immersion_refined.csv").exists()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: an even-extent helix grid has no node at s = 0, "
        "and the oracle's normal frame flips between the two nodes that "
        "straddle it (xi_comp jumps by 1.6); verify passes on the smooth "
        "stored derivatives, the conclusions fail"))
    def test_even_extent_helix(self, capsys):
        assert main(["reconstruct", "--example", "helix", "--params",
                     '{"grid_extents": [6]}']) == 0

    @pytest.mark.parametrize("extra", [[], ["--h-refine", "2"]],
                             ids=["plain", "refined"])
    def test_json_stdout_equals_conclusions_file(self, helix_file, extra,
                                                 tmp_path, capsys):
        # One document, printed and written alike; the refined file
        # carries the fine grid's meta.
        out = tmp_path / "out"
        assert main(["reconstruct", str(helix_file), "--report", "json",
                     "-o", str(out)] + extra) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode() == (out / "conclusions.json").read_bytes()
        if not extra:
            return
        meta = json.loads(stdout)["meta"]
        fine = json.loads(
            (out / "conclusions_refined.json").read_text())["meta"]
        grid = load_dataset(helix_file).grid.refine(2)
        assert list(fine) == ["grid_extents", "gate", "tolerance",
                              "diagnostics"]
        assert fine["grid_extents"] == list(grid.extents)
        assert fine["gate"] == meta["gate"]
        assert fine["tolerance"] == {"value": grid.fd_tolerance,
                                     "origin": "10 h^2"}
        bfield = json.loads((out / "bfield_refined.json").read_text())
        assert fine["diagnostics"] == {
            k: v for k, v in bfield.items()
            if k not in ("format_version", "kind")}

    def test_force_overrides_failed_verification(self, slice_file, tmp_path,
                                                 capsys):
        doc = json.loads(slice_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al), 4):
            al[i] += 1e-6
        doc.pop("derivatives")
        bad = tmp_path / "slightly_off.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--tol", "1e-9"]) == 2
        rc = main(["reconstruct", str(bad), "--tol", "1e-9"])
        assert rc == 2
        rc = main(["reconstruct", str(bad), "--tol", "1e-2", "--force"])
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exits_three(self, slice_file, tmp_path, capsys):
        doc = json.loads(slice_file.read_text())
        al = doc["fields"]["alpha"]
        for i in range(0, len(al)):
            al[i] = al[i] * 1.0 + (1e160 if i % 4 in (0, 3) else 0.0)
        doc.pop("derivatives")
        bad = tmp_path / "explosive.json"
        bad.write_text(json.dumps(doc))
        rc = main(["reconstruct", str(bad), "--force"])
        capsys.readouterr()
        assert rc == 3


def _strict_json(text):
    """The document of text, read as strict JSON: NaN and Infinity, which
    json writes for non-finite floats, are errors."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_huge_residuals_report_is_strict_json(slice_file, tmp_path, capsys):
    # omega_tangent scaled by 1e200: finite residuals whose squares
    # overflow. Their rms stays finite, so the report is strict JSON.
    doc = json.loads(slice_file.read_text())
    doc["fields"]["omega_tangent"] = [
        1e200 * v for v in doc["fields"]["omega_tangent"]]
    doc.pop("derivatives")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    out = tmp_path / "v"
    rc = main(["verify", str(huge), "--report", "json", "-o", str(out)])
    printed = _strict_json(capsys.readouterr().out)
    assert rc == 2
    assert printed == _strict_json((out / "residuals.json").read_text())
    assert printed["residuals"]["D"]["sup"] > 1e200


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forced_blowup_names_the_grid_node(slice_file, tmp_path, capsys):
    # The same 1e200 omega_tangent: the forced sweep overflows, exits 3 and
    # names the node of the first non-finite frame, one index per chart
    # axis.
    doc = json.loads(slice_file.read_text())
    doc["fields"]["omega_tangent"] = [
        1e200 * v for v in doc["fields"]["omega_tangent"]]
    doc.pop("derivatives")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    rc = main(["reconstruct", str(huge), "--force", "-o", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 3
    assert re.search(r"^integrator blow-up: .*at node \(\d+, \d+\)", err,
                     re.M), err


class TestRoundtripCommand:
    def test_helix_refined(self, capsys):
        rc = main(["roundtrip", "--example", "helix", "--h-refine", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "order" in out

    def test_slice(self, capsys):
        rc = main(["roundtrip", "--example", "slice"])
        capsys.readouterr()
        assert rc == 0

    def test_no_whole_field_group_defect(self, capsys, monkeypatch):
        # roundtrip reads no sweep diagnostics, so the group defect runs
        # only on the base frame and the checked block ends, never on a
        # stack as large as the frame field.
        from warpframe import frame_solver
        shapes = []

        def spy(Z, g):
            shapes.append(np.shape(Z))
            return group_defect(Z, g)
        group_defect = frame_solver._group_defect
        monkeypatch.setattr(frame_solver, "_group_defect", spy)
        assert main(["roundtrip", "--example", "helix"]) == 0
        capsys.readouterr()
        nodes = canonical_example("helix", {})[1].grid.num_nodes
        assert shapes and all(len(s) < 3 or s[0] < nodes for s in shapes)

    @pytest.mark.parametrize("name", ["desitter_slice", "great_subsphere",
                                      "helix", "lorentz_cylinder", "slice"])
    def test_refined_order_two(self, name, capsys):
        assert main(["roundtrip", "--example", name, "--h-refine", "2"]) == 0
        assert "congruence defect order: 2.00\n" in capsys.readouterr().out

    def test_refined_exact_reconstruction(self, capsys):
        # The vertical geodesic is rebuilt exactly at both levels (2.2e-16),
        # and a ratio of two roundoff defects shows no order.
        rc = main(["roundtrip", "--example", "vertical_geodesic",
                   "--h-refine", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[-1] == ("congruence defect order: none "
                                        "(both defects at roundoff, <= 1e-12)")


@pytest.mark.parametrize("command, name, params", [
    ("verify", "great_subsphere", {"radius": 2}),
    ("verify", "great_subsphere", {"N": 1}),
    ("verify", "great_subsphere", {"derivatives": "foo"}),
    ("verify", "great_subsphere", {"warping": {"kind": "foo"}}),
    ("verify", "helix", {"beta": "x"}),
    ("verify", "helix", {"beta": 1.5}),
    ("roundtrip", "great_subsphere", {"radius": 2}),
    ("roundtrip", "helix", {"beta": "x"}),
])
def test_bad_example_parameter_is_schema_error(command, name, params,
                                               capsys):
    rc = main([command, "--example", name, "--params", json.dumps(params)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"schema error: example {name}: "), err


class TestExamplesCommand:
    def test_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out.split()
        assert "helix" in out and "slice" in out

    def test_write_single(self, tmp_path, capsys):
        assert main(["examples", "--example", "lorentz_cylinder",
                     "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        data = load_dataset(tmp_path / "lorentz_cylinder.json")
        assert data.spec.lam == 1


class TestFileRoundTrips:
    def test_dataset_bit_exact(self, slice_file, tmp_path):
        data = load_dataset(slice_file)
        again = tmp_path / "again.json"
        save_dataset(data, again)
        data2 = load_dataset(again)
        assert np.array_equal(data.alpha, data2.alpha)
        assert np.array_equal(data.pi, data2.pi)
        assert slice_file.read_text() == again.read_text()

    def test_frame_matrix_round_trip(self, tmp_path, rng):
        B = rng.standard_normal((4, 4))
        p = tmp_path / "B.json"
        save_frame_matrix(B, p)
        assert np.array_equal(load_frame_matrix(p), B)

    def test_immersion_csv_bit_exact(self, slice_file, tmp_path):
        from warpframe import extract_immersion
        from warpframe.frame_solver import build_base_frame, integrate_frame
        from warpframe.io import write_immersion_csv
        data = load_dataset(slice_file)
        rec = extract_immersion(
            integrate_frame(data, build_base_frame(data)), data)
        p = tmp_path / "imm.csv"
        write_immersion_csv(rec, p)
        idx, spatial, t = read_immersion_csv(p)
        assert np.array_equal(spatial.reshape(rec.spatial.shape), rec.spatial)
        assert np.array_equal(t.reshape(rec.t.shape), rec.t)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "warpframe.cli", "examples"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "helix" in proc.stdout


def test_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable the
    # commands that integrate, extract and align still succeed.
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from warpframe.cli import main",
        "sys.exit(main(['roundtrip', '--example', 'helix'])"
        " or main(['reconstruct', '--example', 'slice']))"])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestValidateCommand:
    def test_valid_dataset(self, slice_file, capsys):
        assert main(["validate", str(slice_file)]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_reports_violation_without_crashing(self, slice_file, tmp_path,
                                                capsys):
        doc = json.loads(slice_file.read_text())
        doc["fields"]["alpha"][1] += 0.5
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert "alpha symmetry" in capsys.readouterr().out

    def test_json_output(self, slice_file, tmp_path, capsys):
        assert main(["validate", str(slice_file), "--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"problems": []}

    def test_pi_outside_domain(self, slice_file, tmp_path, capsys):
        doc = json.loads(slice_file.read_text())
        doc["warping"]["domain"] = [-0.1, 0.1]  # pi sits at 0.3
        bad = tmp_path / "outside.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "pi leaves" in out

    # pi sits at 0.3, outside the declared domain: the oracle's dataset is
    # rejected with its findings on stdout, as a file's is.
    DOMAIN = ["--example", "slice", "--params",
              '{"warping": {"kind": "cosh", "domain": [-0.1, 0.1]}}']

    def test_example_outside_domain_prints_findings(self, capsys):
        assert main(["validate", *self.DOMAIN]) == 2
        out, err = capsys.readouterr()
        assert out == "violation: pi leaves the warping domain I\n"
        assert err == ""

    def test_example_outside_domain_json(self, capsys):
        assert main(["validate", *self.DOMAIN, "--report", "json"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "problems": ["pi leaves the warping domain I"]}


@pytest.mark.parametrize("argv", [
    ["validate", "FILE", "--tol", "1e-3"],
    ["validate", "FILE", "--force-fd"],
    ["validate", "FILE", "-o", "DIR"],
    ["roundtrip", "--example", "helix", "--report", "json"]],
    ids=["validate-tol", "validate-force-fd", "validate-o",
         "roundtrip-report"])
def test_unread_options_are_usage_errors(argv, slice_file, tmp_path, capsys):
    # Each command takes only the options it reads.
    argv = [str(slice_file) if a == "FILE" else
            str(tmp_path / "out") if a == "DIR" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, stream, code", [
    ("validate", "out", 2), ("verify", "err", 2)])
def test_asymmetric_alpha_names_node(command, stream, code, slice_file,
                                     tmp_path, capsys):
    data = load_dataset(slice_file)
    doc = json.loads(json.dumps(data.to_document(), default=float64_list))
    alpha = np.array(doc["fields"]["alpha"]).reshape(data.alpha.shape)
    alpha[3, 4, 0, 0, 1] += 1e-3
    doc["fields"]["alpha"] = alpha.ravel().tolist()
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == code
    text = getattr(capsys.readouterr(), stream)
    assert "alpha symmetry violated" in text
    assert "at node (3, 4)" in text

@pytest.mark.parametrize("amount, code", [(1e-3, 2), (1e-12, 0)])
def test_skew_defect_in_derivative_field(amount, code, slice_file, tmp_path,
                                         capsys):
    # One lower entry of d omega_tangent/dx_1 at node (3, 4). The residual
    # kernels read the upper entries only, so the gate must stop it: at
    # 1e-3 verify exits 2 naming the field, the axis and the node; a
    # roundoff-sized defect still loads and verifies.
    data = load_dataset(slice_file)
    doc = json.loads(json.dumps(data.to_document(), default=float64_list))
    dot = data.derivs["omega_tangent"].copy()
    dot[1, 3, 4, 1, 0, 0] += amount
    doc["derivatives"]["omega_tangent"] = dot.ravel().tolist()
    bad = tmp_path / "dskew.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.strip() == (
            "error: derivative domega_tangent/dx_1 not metric-skew, worst "
            "1.000e-03 at node (3, 4)")
    else:
        assert err == ""


@pytest.mark.parametrize("command, stream", [
    ("validate", "out"), ("verify", "err"), ("reconstruct", "err")])
def test_singular_frame_names_node(command, stream, slice_file, tmp_path,
                                   capsys):
    # A zero frame at one node: the inverse frame does not exist there,
    # which is an invariant violation (exit 2), not a crash in the solver.
    data = load_dataset(slice_file)
    doc = json.loads(json.dumps(data.to_document(), default=float64_list))
    frame = np.array(doc["fields"]["frame"]).reshape(data.frame.shape)
    frame[0, 5] = 0.0
    doc["fields"]["frame"] = frame.ravel().tolist()
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    assert "frame is singular at node (0, 5)" in getattr(
        capsys.readouterr(), stream)


@pytest.mark.parametrize("command, stream", [
    ("validate", "out"), ("verify", "err"), ("reconstruct", "err")])
def test_overflowing_inverse_frame_names_node(command, stream, slice_file,
                                              tmp_path, capsys):
    # A frame of 1e-320 I is not zero, but its inverse overflows to inf.
    # The NaN that inf makes in the T = eps grad(pi) defect compares false
    # against the tolerance, so the frame must count as singular.
    data = load_dataset(slice_file)
    doc = json.loads(json.dumps(data.to_document(), default=float64_list))
    frame = np.array(doc["fields"]["frame"]).reshape(data.frame.shape)
    frame[3, 3] = 1e-320 * np.eye(2)
    doc["fields"]["frame"] = frame.ravel().tolist()
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    assert "frame is singular at node (3, 3)" in getattr(
        capsys.readouterr(), stream)


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    try:
        assert main(["examples"]) == 0
        assert main(["examples"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # A usage error still exits 2, from argparse, with the cached parser.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--report", "yaml"])
        assert exc.value.code == 2
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "verify"])
@pytest.mark.parametrize("section, name, index, node", [
    ("fields", "alpha", 0, "(0, 0)"),
    ("fields", "pi", 9 * 4 + 7, "(4, 7)"),
    ("derivatives", "T_comp", 81 * 2 + 1, "(0, 0)")])
def test_non_finite_dataset_exits_one(command, section, name, index, node,
                                      tmp_path, capsys):
    # A NaN compares False against every tolerance; only the load-time
    # gate keeps it from passing.
    _, data = canonical_example("slice", {"n": 2, "grid_extents": [9, 9]})
    doc = json.loads(json.dumps(data.to_document(), default=float64_list))
    doc[section][name][index] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert name in err and f"node {node}" in err


# Derivative fields come all or none. A partial set would let finite
# differences of one field be judged against the analytic 1e-8, or leave a
# field the jet assembly needs missing.
_DERIVED = tuple(name for name in FIELD_NAMES if name != "pi")
_PARTIAL = {"one": ("T_comp",),
            "five": tuple(n for n in _DERIVED if n != "omega_bundle")}


def _missing(keep):
    return ", ".join(name for name in _DERIVED if name not in keep)


@pytest.mark.parametrize("keep", list(_PARTIAL.values()), ids=list(_PARTIAL))
@pytest.mark.parametrize("fixture", ["helix_file", "slice_file"])
class TestPartialDerivativeSet:
    @pytest.mark.parametrize("command", ["verify", "reconstruct"])
    def test_command_exits_one(self, fixture, keep, command, request,
                               tmp_path, capsys):
        doc = json.loads(request.getfixturevalue(fixture).read_text())
        doc["derivatives"] = {k: doc["derivatives"][k] for k in keep}
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(doc))
        assert main([command, str(partial)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:")
        assert f"derivative fields missing {_missing(keep)}:" in err

    def test_constructor_raises(self, fixture, keep, request):
        data = load_dataset(request.getfixturevalue(fixture))
        with pytest.raises(SchemaError) as exc:
            GeometricData(data.spec, data.warping, data.grid,
                          derivs={k: data.derivs[k] for k in keep},
                          **{name: getattr(data, name)
                             for name in FIELD_NAMES})
        assert f"derivative fields missing {_missing(keep)}:" in str(
            exc.value)


def test_empty_derivatives_verify_as_fd(slice_file, tmp_path, capsys):
    doc = json.loads(slice_file.read_text())
    path = tmp_path / "fd.json"
    reports = []
    for derivs in ({}, None):
        if derivs is None:
            doc.pop("derivatives")
        else:
            doc["derivatives"] = derivs
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--report", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    tol = ChartGrid.from_dict(doc["grid"]).fd_tolerance
    residuals = json.loads(reports[0])["residuals"]
    assert all(e["tolerance"] == tol for e in residuals.values())


def test_h_refine_needs_generator_tag(slice_file, tmp_path):
    doc = json.loads(slice_file.read_text())
    doc.pop("generator")
    bare = tmp_path / "no_gen.json"
    bare.write_text(json.dumps(doc))
    assert main(["verify", str(bare), "--h-refine", "2"]) == 1


def test_h_refine_keeps_fd_induction(tmp_path):
    # The generator tag records the induction mode, so the refined dataset
    # of an FD-induced file is FD-induced too.
    params = {"n": 2, "derivatives": "fd"}
    _, data = canonical_example("slice", params)
    save_dataset(data, tmp_path / "fd.json")
    fine = cli._refined_data(load_dataset(tmp_path / "fd.json"), 2)
    _, want = canonical_example(
        "slice", {**params, **_grid_tag(data.grid.refine(2))})
    assert fine.grid.extents == want.grid.extents and not fine.derivs
    for name in FIELD_NAMES:
        assert getattr(fine, name).tobytes() == getattr(want, name).tobytes()


def test_nonpositive_tolerance_rejected(slice_file):
    for tol in ("-1.0", "nan", "inf"):
        with pytest.raises(SystemExit):
            main(["verify", str(slice_file), "--tol", tol])


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_infinite_spacing_exits_one(command, slice_file, tmp_path, capsys):
    # Corrupted alpha fails verify; an infinite spacing would make every
    # 10 h^2 tolerance infinite and let it pass.
    doc = json.loads(slice_file.read_text())
    doc["fields"]["alpha"] = [v + 0.3 for v in doc["fields"]["alpha"]]
    doc.pop("derivatives")
    doc["grid"]["spacing"] = [float("inf")] * 2
    bad = tmp_path / "inf_spacing.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 1
    assert "spacing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_infinite_origin_exits_one(command, slice_file, tmp_path, capsys):
    # No residual reads the origin, so without the load-time check such a
    # dataset verifies and reconstructs as if the origin were finite.
    doc = json.loads(slice_file.read_text())
    doc["grid"]["origin"] = [float("inf")] * 2
    bad = tmp_path / "inf_origin.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 1
    assert "origin" in capsys.readouterr().err


def test_removed_renorm_flags_rejected(slice_file, capsys):
    # Re-projection runs every 16 steps, always; the knobs are gone.
    for flags in (["--renorm-interval", "8"], ["--no-renorm"]):
        with pytest.raises(SystemExit):
            main(["reconstruct", str(slice_file)] + flags)
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, named", [
    ("warping", None, {"kind": "sinh"}, "warping"),
    ("grid", "extents", ["a"], "grid"),
    ("grid", "extents", 65, "grid"),
    ("grid", "spacing", [None], "grid"),
    ("fields", "pi", "abc", "field pi"),
    ("fields", "pi", [[0.0], [0.0, 1.0]], "field pi"),
    ("derivatives", "T_comp", [[0.0], [0.0, 1.0]], "derivative T_comp"),
], ids=["warping-kind", "extents-string", "extents-int", "spacing-null",
        "field-string", "field-ragged", "derivative-ragged"])
def test_malformed_section_exits_one(section, key, value, named, slice_file,
                                     tmp_path, capsys):
    # The parse of each section raises TypeError or ValueError on these;
    # load_data names the section or field instead of a traceback.
    doc = json.loads(slice_file.read_text())
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"schema error: {named}:")


@pytest.mark.parametrize("section, value, extra", [
    ("signature", [], []),
    ("warping", 3.5, []),
    ("grid", 5, []),
    ("fields", -0.0, []),
    ("derivatives", [], []),
    ("derivatives", 5, []),
    ("generator", 5, ["--h-refine", "2"]),
    ("generator", "x", ["--h-refine", "2"]),
    ("generator", [1], ["--h-refine", "2"]),
], ids=["signature-list", "warping-float", "grid-int", "fields-float",
        "derivatives-list", "derivatives-int", "generator-int",
        "generator-string", "generator-list"])
def test_section_not_an_object_is_schema_error(section, value, extra,
                                               slice_file, tmp_path, capsys):
    # Each of these ended in an AttributeError or TypeError traceback, or
    # in a schema error about list indices.
    doc = json.loads(slice_file.read_text())
    doc[section] = value
    bad = tmp_path / "section.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {section}: expected a JSON object")
    assert "Traceback" not in err


# Three helix verifies at 16,385 nodes in one process; prints the minor page
# faults each one adds.
_FAULTS_PER_COMMAND = """
import contextlib, io, json, resource
from warpframe.cli import main
argv = ["verify", "--example", "helix", "--params",
        json.dumps({"grid_extents": [16385], "grid_spacing": [0.0005]})]
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_repeated_command_reuses_freed_memory():
    # With glibc's defaults the third call faults about 12.5k pages in
    # again: its temporaries were unmapped or trimmed after the second.
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_COMMAND],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    faults = json.loads(proc.stdout)
    assert faults[2] < 1000, faults


@pytest.fixture
def fresh_policy(monkeypatch):
    """_keep_freed_memory runs again on the next main; the platform reads
    as Linux, so the ctypes path is taken whatever the host."""
    monkeypatch.setattr(sys, "platform", "linux")
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                         ids=["cdll-raises", "no-mallopt"])
def test_missing_mallopt_is_a_noop(cdll, fresh_policy, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["examples"]) == 0
    assert "helix" in capsys.readouterr().out


def test_allocation_policy_set_once(fresh_policy, monkeypatch, capsys):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc)
    assert main(["examples"]) == 0
    assert main(["examples"]) == 0
    # M_MMAP_THRESHOLD to 32 MiB, M_TRIM_THRESHOLD off.
    assert calls == [(-3, 32 * 1024 * 1024), (-1, -1)]


# 10**400: json reads it as an int that no float holds, and orjson refuses
# the file. The conversion of that int raises OverflowError.
_BEYOND_FLOAT = 10 ** 400


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
@pytest.mark.parametrize("section, name, named", [
    ("fields", "xi_comp", "field xi_comp"),
    ("derivatives", "alpha", "derivative alpha"),
    ("grid", "spacing", "grid")])
def test_integer_beyond_float_range_exits_one(command, section, name, named,
                                              helix_file, tmp_path, capsys):
    doc = json.loads(helix_file.read_text())
    doc[section][name][0] = _BEYOND_FLOAT
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"schema error: {named}:")


def test_base_frame_beyond_float_range_exits_one(helix_file, tmp_path,
                                                 capsys):
    B0 = tmp_path / "b0.json"
    B0.write_text(json.dumps({"format_version": 1, "kind": "warpframe.frame",
                              "shape": [1, 1], "matrix": [_BEYOND_FLOAT]}))
    assert main(["reconstruct", str(helix_file), "--base-frame",
                 str(B0)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and B0.name in err
