"""Tests of the benchmark itself: tracer, exact call counts, metric names and
a tiny-grid smoke run of every workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
from hostspeed import SpeedProbe
from tracing import Tracer, metric_value
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def test_metric_and_workload_names_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    # slice2d_jet is run by hand only (see README.md).
    assert [w["name"] for w in doc["workloads"]] == [
        "helix_long", "slice3d_fd"]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)


def test_tracer_nests_spans_and_restores_functions():
    import warpframe
    from warpframe import cli, frame_solver, oracle
    originals = (frame_solver.assemble_all, cli.integrate_frame,
                 warpframe.integrate_frame, frame_solver.expm)
    tracer = Tracer()
    with tracer.installed():
        # A `from ... import` binding is replaced by the same wrapper.
        assert cli.integrate_frame is frame_solver.integrate_frame
        assert warpframe.integrate_frame is frame_solver.integrate_frame
        assert frame_solver.integrate_frame is not originals[1]
        with tracer.for_command(7), tracer.span("outer"):
            oracle.canonical_example("slice", {"n": 2, "grid_extents": [5, 5]})
    assert (frame_solver.assemble_all, cli.integrate_frame,
            warpframe.integrate_frame, frame_solver.expm) == originals
    totals = tracer.totals({7})
    assert totals["oracle.induce_data"]["calls"] == 1
    assert totals["bundle_data.validate"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["oracle.induce_data"]["s"], abs=1e-9)
    assert tracer.totals({8}) == {}


def test_speed_probe_divides_out_the_host_speed():
    probe = SpeedProbe()
    ref = hostspeed.REFERENCE_S
    # A 1 s command at half speed (probes take 2 * REFERENCE_S), with ten
    # probes inside it and one slow outlier that the trimmed mean drops.
    probe.starts = [0.05 + 0.1 * i for i in range(10)]
    probe.seconds = [2 * ref] * 9 + [40 * ref]
    own = 1.0 - sum(probe.seconds)
    assert probe.corrected(0.0, 1.0) == pytest.approx(own / 2, rel=1e-12)
    # No probe near a command: only the probes inside are taken out.
    assert probe.corrected(5.0, 0.5) == 0.5


def test_speed_probe_samples_while_running():
    probe = SpeedProbe()
    with probe.running():
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            sum(range(100))
    n = len(probe.seconds)
    assert n >= 5
    time.sleep(2 * hostspeed.PERIOD)
    assert len(probe.seconds) == n      # the timer is off again
    assert probe.starts == sorted(probe.starts)


def traced_cycles(workload, smoke, workdir, cycles):
    """Per-command tracer totals of `cycles` traced cycles."""
    bench = run.Bench(workload, seed=1, smoke=smoke, workdir=workdir)
    bench.setup()
    tracer = Tracer()
    out = []
    for _ in range(cycles):
        results = bench.cycle(tracer)
        out.append({r.command: tracer.totals({r.command_id})
                    for r in results})
    assert bench.problems == []
    return out


def test_assemble_all_calls_per_command_repeat_on_slice2d_jet(tmp_path):
    # The number of assemblies does not depend on the grid size.
    counts = [{c: metric_value(t, "frame_solver.assemble_all.calls")
               for c, t in cycle.items()}
              for cycle in traced_cycles("slice2d_jet", True, tmp_path, 2)]
    assert counts[0] == counts[1] == {
        "examples": 0, "verify": 2, "reconstruct": 4, "roundtrip": 3}


def test_expm_calls_for_reconstruct_on_helix_long(tmp_path):
    (cycle,) = traced_cycles("helix_long", False, tmp_path, 1)
    assert metric_value(cycle["reconstruct"], "frame_solver.expm.calls") == \
        16384


@pytest.mark.xfail(strict=True, reason=(
    "the oracle's normal frame flips sign between two nodes of this long "
    "helix; verify passes and reconstruct exits 2"))
def test_long_helix_reconstructs_at_excluded_t0(tmp_path):
    from warpframe import cli
    params = dict(WORKLOADS["helix_long"].fixed, t0=0.07)
    assert cli.main(["examples", "--example", "helix", "--params",
                     json.dumps(params), "-o", str(tmp_path)]) == 0
    assert cli.main(["verify", str(tmp_path / "helix.json")]) == 0
    assert cli.main(["reconstruct", str(tmp_path / "helix.json")]) == 0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = run_bench(HERE.parent, "--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(names)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    # Trace runs make one traced and one untraced cycle of four commands.
    assert result["attempted"] == (8 if trace == "1" else 4)
    known = WORKLOADS[workload].known_failure
    assert result["failed"] == (result["attempted"] // 4 if known else 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "helix_long", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
