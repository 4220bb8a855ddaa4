#!/usr/bin/env python3
"""warpframe benchmark: user-command times per workload, and a layer trace.

    python3 bench/run.py --workload slice2d_jet --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One process per workload drives the real CLI in-process
(``warpframe.cli.main(argv)`` with stdout captured) as a single-client closed
loop: each command is issued once the previous one returns, with the
program's own thread settings. Set-up imports the package, writes the
workload's dataset three times (the median counts) and runs one warm-up
cycle; then cycles of four commands run until ``--seconds`` have passed.
Every command's output is checked and its reported numbers kept as a
fingerprint.

``--trace 0`` reports the end-to-end metrics; each command time is the run's
median of the times corrected for the host's speed (see hostspeed.py), and
the raw times stay in the record. ``--trace 1`` alternates traced
and untraced cycles and reports the per-layer metrics of the traced ones
(see tracing.py) plus the tracing overhead. The run record goes to
``bench/out/``; the last line of stdout is the JSON result. ``--workload all``
runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedProbe
from tracing import Tracer, metric_value
from workloads import (COMMANDS, RECONSTRUCT_FILES, WORKLOADS, CheckFailed,
                       check_output, sha256)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("examples_s", "s"),
    ("verify_s", "s"),
    ("reconstruct_s", "s"),
    ("roundtrip_s", "s"),
    ("peak_rss_mb", "MB"),
    ("congruence_defect", "1"),
    ("ok_frac", "1"),
)

# Per-layer metrics read from the tracer, then the tracing overhead.
TRACED = tuple(
    [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [("oracle.induce_data.s", "s"), ("oracle.induce_data.calls", "count"),
       ("oracle.reference_field.s", "s"), ("oracle.exact_base_frame.s", "s"),
       ("io.load_dataset.self_s", "s"), ("io.save_dataset.s", "s"),
       ("io.save_frames_json.s", "s"), ("io.write_immersion_csv.s", "s"),
       ("io.bytes_read", "B"), ("io.bytes_written", "B"),
       ("bundle_data.load_data.self_s", "s"), ("bundle_data.validate.s", "s"),
       ("verifier.structure_residuals.s", "s"),
       ("verifier.aux_identity_residuals.self_s", "s"),
       ("verifier.flatness_residual.self_s", "s"),
       ("frame_solver.assemble_all.s", "s"),
       ("frame_solver.assemble_all.calls", "count"),
       ("frame_solver.assembled_derivatives.self_s", "s"),
       ("frame_solver.assembled_derivatives.calls", "count"),
       ("frame_solver.integrate_frame.self_s", "s"),
       ("frame_solver.path_independence_defect.self_s", "s"),
       ("frame_solver.expm.s", "s"), ("frame_solver.expm.calls", "count"),
       ("frame_solver.pseudo_orthonormalize.s", "s"),
       ("frame_solver.pseudo_orthonormalize.calls", "count"),
       ("immersion.extract_immersion.s", "s"),
       ("immersion.verify_immersion.s", "s"),
       ("immersion.congruence_align.s", "s")])
PER_LAYER = TRACED + (("trace.overhead_s", "s"),)

THREAD_VARS = ("WARPFRAME_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


@dataclasses.dataclass
class Files:
    dataset: Path
    examples: Path
    reconstruct: Path


@dataclasses.dataclass
class Result:
    command: str
    command_id: int
    start: float
    seconds: float
    ok: bool = True
    reason: str = ""


def call_cli(cli, argv):
    """Run one command in-process: (start, seconds, exit code, exception,
    stdout, stderr). cli.main lets some errors (ValueError) escape; they are
    caught here and returned, so one failed command does not end the run."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:  # noqa: BLE001 - a crashing command is a result
        exc = e
    secs = time.perf_counter() - t0
    return t0, secs, rc, exc, out.getvalue(), err.getvalue()


class Bench:
    """One workload in this process: set-up, cycles and their checks."""

    def __init__(self, workload, seed, smoke, workdir):
        self.wl = WORKLOADS[workload]
        self.params = self.wl.params(seed, smoke)
        self.h = max(self.params["grid_spacing"])
        self.nodes = math.prod(self.params["grid_extents"])
        self.files = Files(dataset=workdir / "input" /
                           f"{self.wl.example}.json",
                           examples=workdir / "examples",
                           reconstruct=workdir / "reconstruct")
        self.cli = None
        self.next_id = 0
        self.reference = {}     # command -> (fingerprint, digests)
        self.problems = []      # anything that makes the run incorrect
        self.failures = []      # every failed command, expected or not

    def setup(self):
        """Import, write the input dataset SETUP_REPEATS times, run one
        warm-up cycle. Returns the timed parts as (start, seconds) pairs:
        {"import": [one], "writes": [one per write], "warmup": [one per
        command]}."""
        t0 = time.perf_counter()
        self.cli = importlib.import_module("warpframe.cli")
        parts = {"import": [(t0, time.perf_counter() - t0)]}
        argv = self.wl.argv("examples", self.params, dataclasses.replace(
            self.files, examples=self.files.dataset.parent))
        writes, digests = [], set()
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start, secs, rc, exc, _, err = call_cli(self.cli, argv)
            if exc is not None or rc != 0 or not self.files.dataset.is_file():
                raise RuntimeError(f"cannot write the input dataset: "
                                   f"exit {rc} {exc!r} {err.strip()}")
            writes.append((start, secs))
            digests.add(sha256(self.files.dataset))
        if len(digests) != 1:
            self.problems.append("set-up: dataset differs between writes")
        parts["writes"] = writes
        parts["warmup"] = [(r.start, r.seconds) for r in self.cycle()]
        return parts

    def step(self, command, tracer=None):
        argv = self.wl.argv(command, self.params, self.files)
        stale = []
        if command == "examples":
            stale = [self.files.examples / self.files.dataset.name]
        elif command == "reconstruct":
            stale = [self.files.reconstruct / f for f in RECONSTRUCT_FILES]
        for path in stale:
            path.unlink(missing_ok=True)
        gc.collect()  # start without the previous command's garbage
        res = Result(command, self.next_id, 0.0, 0.0)
        self.next_id += 1
        if tracer is None:
            res.start, res.seconds, rc, exc, out, err = call_cli(
                self.cli, argv)
        else:
            with tracer.for_command(res.command_id), \
                    tracer.span(f"cli.{command}"):
                res.start, res.seconds, rc, exc, out, err = call_cli(
                    self.cli, argv)
        if exc is not None:
            res.reason = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        elif rc != 0:
            res.reason = f"exit {rc}: {err.strip()[-300:]}"
        else:
            try:
                got = check_output(command, out, self.files, self.h)
            except CheckFailed as e:
                res.reason = f"check failed: {e}"
            else:
                ref = self.reference.setdefault(command, got)
                if got != ref:
                    self.problems.append(
                        f"{command}: output differs from its first run")
        if res.reason:
            res.ok = False
            self.failures.append(f"{command}: {res.reason}")
            known = exc is not None and self.wl.known_failure == (
                command, type(exc).__name__)
            if not known:
                self.problems.append(f"{command}: {res.reason}")
        return res

    def cycle(self, tracer=None):
        if tracer is None:
            return [self.step(c) for c in COMMANDS]
        with tracer.installed():
            return [self.step(c, tracer) for c in COMMANDS]

    def measure(self, seconds, tracer=None):
        """Cycles until `seconds` have passed: (traced, results) pairs. With
        a tracer, cycles alternate traced and untraced, at least one each."""
        cycles = []
        t0 = time.perf_counter()
        while True:
            traced = tracer is not None and len(cycles) % 2 == 0
            cycles.append((traced, self.cycle(tracer if traced else None)))
            if time.perf_counter() - t0 >= seconds and (
                    tracer is None or len(cycles) >= 2):
                return cycles

    def congruence_defect(self):
        """Defect of the reconstructed immersion (the warm-up cycle's
        immersion.csv and frames.json) against the generating immersion,
        after the best ambient isometry. Every later reconstruct output is
        byte-identical to it, or the run is marked incorrect."""
        from warpframe import io as wio
        from warpframe import oracle
        from warpframe.immersion import ImmersionField, congruence_align
        if "reconstruct" not in self.reference:
            return None
        imm = oracle.make_example(self.wl.example, self.params)
        ext = tuple(imm.grid.extents)
        _, spatial, t = wio.read_immersion_csv(
            self.files.reconstruct / "immersion.csv")
        rec = ImmersionField(
            spec=imm.spec, warping=imm.warping, grid=imm.grid,
            spatial=spatial.reshape(ext + (-1,)), t=t.reshape(ext),
            frames=wio.load_frames_json(
                self.files.reconstruct / "frames.json"))
        _, defect = congruence_align(rec, oracle.reference_field(imm))
        if not defect <= 10.0 * self.h * self.h:
            self.problems.append(
                f"reconstruct: congruence defect {defect:.3e} > 10 h^2")
        return defect


def command_runs(cycles, command):
    """A command's results: those that succeeded, or every attempt (times to
    failure) when none did."""
    runs = [r for _, cyc in cycles for r in cyc if r.command == command]
    return [r for r in runs if r.ok] or runs


def end_to_end(cycles, probe, setup, defect, attempted, failed):
    """End-to-end metric values with sample counts, and each command's raw
    and corrected times for the record."""
    def total(key):
        return sum(probe.corrected(*p) for p in setup[key])
    # Import, the median dataset write and the warm-up cycle.
    setup_s = total("import") + statistics.median(
        probe.corrected(*p) for p in setup["writes"]) + total("warmup")
    vals = {"setup_s": (setup_s, SETUP_REPEATS)}
    summary = {}
    for command in COMMANDS:
        runs = command_runs(cycles, command)
        raw = [r.seconds for r in runs]
        # Median of the times corrected for the host's speed (hostspeed.py).
        corrected = [probe.corrected(r.start, r.seconds) for r in runs]
        vals[f"{command}_s"] = (statistics.median(corrected), len(runs))
        summary[command] = {"raw_min": min(raw),
                            "raw_median": statistics.median(raw),
                            "raw_max": max(raw),
                            "corrected_min": min(corrected),
                            "corrected_median": statistics.median(corrected),
                            "corrected_max": max(corrected),
                            "samples": len(runs)}
    vals["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    vals["congruence_defect"] = (defect, 1)
    vals["ok_frac"] = ((attempted - failed) / attempted, attempted)
    return vals, summary


def per_layer(tracer, cycles):
    traced = [cyc for t, cyc in cycles if t]
    plain = [cyc for t, cyc in cycles if not t]
    per_cycle = [tracer.totals({r.command_id for r in cyc}) for cyc in traced]
    vals = {name: (statistics.median(metric_value(t, name) for t in per_cycle),
                   len(per_cycle)) for name, _ in TRACED}
    wall = [statistics.median(sum(r.seconds for r in cyc) for cyc in group)
            for group in (traced, plain)]
    vals["trace.overhead_s"] = (wall[0] - wall[1], len(cycles))
    by_command = {}
    for r in traced[0]:
        totals = tracer.totals({r.command_id})
        by_command[r.command] = {name: metric_value(totals, name)
                                 for name, _ in TRACED}
    return vals, by_command


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit or "unknown (not a git checkout)",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def run_tag(workload, args):
    return f"{workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")


def record_path(workload, args):
    return OUT / f"record-{run_tag(workload, args)}-trace{args.trace}.json"


def run_workload(args):
    tag = run_tag(args.workload, args)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.smoke, workdir)
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    try:
        with (probe.running() if tracer is None
              else contextlib.nullcontext()):
            setup = bench.setup()
            defect = bench.congruence_defect()
            cycles = bench.measure(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(cyc) for _, cyc in cycles)
    failed = sum(not r.ok for _, cyc in cycles for r in cyc)
    if tracer is None:
        vals, extra = end_to_end(cycles, probe, setup, defect, attempted,
                                 failed)
        names, extra_key = END_TO_END, "command_times"
    else:
        vals, extra = per_layer(tracer, cycles)
        names, extra_key = PER_LAYER, "per_command"
        tracer.dump(OUT / f"spans-{tag}.json")
    record = {
        "kind": "warpframe.bench", "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(),
        "input": {"example": bench.wl.example, "params": bench.params,
                  "attach_derivatives": bench.wl.attach_derivatives,
                  "grid_extents": bench.params["grid_extents"],
                  "nodes": bench.nodes, "h": bench.h},
        "correct": not bench.problems, "attempted": attempted,
        "failed": failed, "fail_frac": failed / attempted,
        "metrics": {name: {"value": vals[name][0], "unit": unit,
                           "samples": vals[name][1]} for name, unit in names},
        "commands": [{"cycle": i, "traced": traced, "command": r.command,
                      "seconds": r.seconds,
                      "corrected_s": None if traced else probe.corrected(
                          r.start, r.seconds),
                      "ok": r.ok, "reason": r.reason}
                     for i, (traced, cyc) in enumerate(cycles) for r in cyc],
        "fingerprint": {k: v for fp, _ in bench.reference.values()
                        for k, v in fp.items()},
        "digests": {k: v for _, dg in bench.reference.values()
                    for k, v in dg.items()},
        "failures": bench.failures, "problems": bench.problems,
        "host_speed": probe.summary(), extra_key: extra,
    }
    path = record_path(args.workload, args)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_record(record, path)
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))
    return record


def print_record(rec, path):
    env, inp = rec["environment"], rec["input"]
    threads = " ".join(f"{k}={v if v is not None else 'unset'}"
                       for k, v in env["thread_env"].items())
    print(f"warpframe bench: workload {rec['workload']}  seed {rec['seed']}  "
          f"seconds {rec['seconds']}  trace {rec['trace']}"
          + ("  smoke" if rec["smoke"] else ""))
    print(f"  commit {env['commit']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']} "
          f"({env['machine']})  blas {env['blas']}  {threads}")
    print(f"  input {inp['example']} grid "
          f"{'x'.join(map(str, inp['grid_extents']))} ({inp['nodes']} nodes) "
          f"h={inp['h']}  derivative fields "
          f"{'yes' if inp['attach_derivatives'] else 'no'}  params "
          f"{json.dumps(inp['params'])}")
    print(f"  {'metric':<46s}{'value':>16s}  {'unit':<6s}samples")
    for name, m in rec["metrics"].items():
        v = m["value"]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<46s}{shown:>16s}  {m['unit']:<6s}{m['samples']}")
    for command, t in rec.get("command_times", {}).items():
        print(f"  {command + ' s':<14s}raw min/median/max {t['raw_min']:.4g} "
              f"{t['raw_median']:.4g} {t['raw_max']:.4g}  corrected "
              f"{t['corrected_min']:.4g} {t['corrected_median']:.4g} "
              f"{t['corrected_max']:.4g}  ({t['samples']} calls)")
    speed = rec["host_speed"]
    if speed["probes"]:
        print(f"  host speed: {speed['probes']} probes, min "
              f"{speed['min_s'] * 1e6:.1f} us, median "
              f"{speed['p50_s'] * 1e6:.1f} us, max "
              f"{speed['max_s'] * 1e6:.1f} us")
    print(f"  commands attempted {rec['attempted']}  failed {rec['failed']}  "
          f"fail_frac {rec['fail_frac']:.4f}  correct {rec['correct']}")
    for line, count in collections.Counter(rec["failures"]).items():
        print(f"  failed {count}x: {line}")
    for line in rec["problems"]:
        print(f"  INCORRECT: {line}")
    print(f"  record: {path}")


def run_all(args):
    """Every workload in its own process, then one table."""
    records, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd)
        status = status or proc.returncode
        path = record_path(name, args)
        if proc.returncode == 0 and path.is_file():
            with open(path, encoding="utf-8") as fh:
                records[name] = json.load(fh)
    print("\nall workloads (value [samples]):")
    print(f"  {'metric':<46s}{'unit':<7s}" + "".join(
        f"{n:>24s}" for n in records))
    for metric, unit in (PER_LAYER if args.trace else END_TO_END):
        cells = []
        for rec in records.values():
            m = rec["metrics"][metric]
            v = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            cells.append(f"{v} [{m['samples']}]".rjust(24))
        print(f"  {metric:<46s}{unit:<7s}" + "".join(cells))
    print(f"  {'fail_frac':<46s}{'1':<7s}" + "".join(
        f"{rec['fail_frac']:.4f} [{rec['attempted']}]".rjust(24)
        for rec in records.values()))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for testing the benchmark itself")
    args = ap.parse_args(argv)
    if not (SRC / "warpframe" / "__init__.py").is_file():
        sys.exit(f"bench: no warpframe sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
