"""Command-line front end.

Commands:
  warpframe validate INPUT            structural invariants only
  warpframe verify INPUT              structure + identity + flatness residuals
  warpframe reconstruct INPUT         integrate the frame field, emit the
                                      immersion, check the conclusions
  warpframe roundtrip --example NAME  induce -> verify -> reconstruct -> align
  warpframe examples                  list or write the fixture library

INPUT is a dataset file or --example NAME (--params JSON), validated as it
is built: validate prints every finding, the other commands stop with the
findings joined on stderr. Each command takes only the options it reads.

Exit codes: 0 pass, 1 I/O or schema error, 2 invariant or residual failure,
3 integrator blow-up.

Memory: on its first call in a process, `main` sets glibc's allocator to
serve blocks up to 32 MiB from the heap and never to trim it, so a freed
numpy temporary (a helix vector field at 16,385 nodes is 512 KB, a slice
form at 25^3 several MB) is reused by the next one instead of being
unmapped and faulted in again. Three `verify --example helix` runs at
16,385 nodes in one process take 20.4k/13.5k/12.5k minor page faults with
glibc's defaults and 7.7k/5/7 with this policy. The faults that remain
after the first command come from CPython's own arenas, which hold the
float objects of a JSON parse. Processes that only import the library
keep glibc's defaults; they can get the same policy from the environment,
`MALLOC_MMAP_THRESHOLD_=33554432` and `MALLOC_TRIM_THRESHOLD_=-1`. Where
`mallopt` is missing (macOS, Windows) or a stub (musl) nothing is set.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from pathlib import Path

from . import io as wio
from . import oracle
from .bundle_data import GeometricData
from .errors import (IntegrationBlowup, InvariantViolation, SchemaError,
                     WarpframeError)
from .frame_solver import (build_base_frame, integrate_frame,
                           path_independence_defect)
from .immersion import congruence_align, extract_immersion, verify_immersion
from .verifier import (ResidualReport, aux_identity_residuals, check_source,
                       flatness_residual, structure_residuals)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FAIL = 2
EXIT_BLOWUP = 3

# mallopt parameters of glibc's malloc.h. 32 MiB is DEFAULT_MMAP_THRESHOLD_MAX
# on 64-bit, the ceiling of glibc's own dynamic mmap threshold, and the
# largest value older releases accept (HEAP_MAX_SIZE / 2). A trim threshold
# of -1 turns trimming off (mallopt(3)).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024


@functools.cache
def _keep_freed_memory():
    """Keep freed blocks of up to 32 MiB in the heap for reuse (see the
    module docstring). Runs once per process: a call costs about 15 us."""
    if sys.platform != "linux":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, -1)


def _positive_float(text):
    val = float(text)
    if not (0 < val < math.inf):
        raise argparse.ArgumentTypeError(
            "tolerance must be positive and finite")
    return val


@functools.cache
def _build_parser():
    """The argument parser, built once per process (a build takes about
    2 ms); parse_args leaves it unchanged. Each command takes only the
    options it reads."""
    ap = argparse.ArgumentParser(
        prog="warpframe",
        description="verify structure equations and reconstruct immersions "
                    "into warped products over space forms")
    sub = ap.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("validate", help="check structural data invariants")
    pf = sub.add_parser("verify", help="evaluate every residual family")
    pr = sub.add_parser("reconstruct",
                        help="integrate the frame field and emit the immersion")
    pt = sub.add_parser("roundtrip",
                        help="induce from an example, reconstruct, align")
    for p in (pv, pf, pr):
        p.add_argument("input", nargs="?", default=None)
        p.add_argument("--example", default=None)
    pt.add_argument("--example", required=True)
    for p in (pv, pf, pr, pt):
        p.add_argument("--params", default=None,
                       help="example parameters, JSON")
    pr.add_argument("--base-frame", default=None,
                    help="JSON file with the base frame matrix B0")
    pr.add_argument("--force", action="store_true",
                    help="reconstruct even if verification fails")
    for p in (pf, pr, pt):
        p.add_argument("--h-refine", type=int, choices=(1, 2, 4), default=1)
        p.add_argument("--tol", type=_positive_float, default=None,
                       help="override the pass tolerance for every residual")
        p.add_argument("--force-fd", action="store_true",
                       help="ignore stored analytic derivatives")
        p.add_argument("-o", "--output-dir", default=None,
                       help="directory for emitted files")
    for p in (pv, pf, pr):
        p.add_argument("--report", choices=("json", "text"), default="text",
                       help="stdout report format")

    pe = sub.add_parser("examples", help="list or write fixture datasets")
    pe.add_argument("--example", default=None,
                    help="write only this example")
    pe.add_argument("--params", default=None)
    pe.add_argument("-o", "--output-dir", default=None,
                    help="write dataset JSON files here")
    return ap


def _load_input(args) -> GeometricData:
    """The validated dataset of --example or of the input file."""
    if args.example:
        params = json.loads(args.params) if args.params else {}
        _, data = oracle.canonical_example(args.example, params)
        return data
    if not args.input:
        raise SchemaError("either an input file or --example is required")
    return wio.load_dataset(args.input)


def _refined_data(data: GeometricData, factor: int) -> GeometricData:
    """The dataset re-induced as its generator tag records (jets or FD) on
    the grid refined by factor, with derivative fields if it has them."""
    if factor == 1:
        return data
    if not data.generator:
        raise SchemaError(
            "--h-refine needs a dataset with a generator tag (only oracle-"
            "generated datasets can be re-sampled on a finer grid)")
    params = {**data.generator.get("params", {}),
              **oracle._grid_tag(data.grid.refine(factor)),
              "attach_derivatives": bool(data.derivs)}
    _, fine = oracle.canonical_example(data.generator["name"], params)
    return fine


def _sup_ratios(coarse: ResidualReport, fine: ResidualReport) -> dict:
    """Coarse over fine sup per entry; None where the fine sup is 0."""
    return {key: (e.sup / fine.entries[key].sup
                  if fine.entries[key].sup > 0 else None)
            for key, e in coarse.entries.items()}


def _emit_report(report: ResidualReport, args, name, outdir, meta=None,
                 text=None):
    """Print the report document (--report json) or the text lines (the
    report's summary lines unless given), and write the document to
    outdir/name."""
    if args.report == "json":
        print(json.dumps(wio.report_document(report, meta), indent=1))
    else:
        for line in report.summary_lines() if text is None else text:
            print(line)
    if outdir is not None:
        wio.save_report(report, Path(outdir) / name, meta=meta)


def _all_residuals(data, tol, force_fd):
    rep = structure_residuals(data, tol=tol, force_fd=force_fd)
    rep.merge(aux_identity_residuals(data, tol=tol, force_fd=force_fd))
    rep.merge(flatness_residual(data, tol=tol, force_fd=force_fd))
    return rep


def _cmd_validate(args):
    try:
        _load_input(args)
        problems = []
    except InvariantViolation as exc:
        problems = exc.problems
    if args.report == "json":
        print(json.dumps({"problems": problems}, indent=1))
    else:
        for p in problems:
            print(f"violation: {p}")
        if not problems:
            print("all structural invariants hold")
    return EXIT_FAIL if problems else EXIT_OK


def _verify_meta(data, args):
    """verify's report meta: the grid extents and the check source."""
    return {"grid_extents": list(data.grid.extents),
            **check_source(data, args.force_fd, args.tol)}


def _print_check_source(source):
    """verify's text header: the derivatives and the tolerance."""
    tol = source["tolerance"]
    print(f"derivatives {source['derivatives']}  tolerance "
          f"{tol['value']:.2e} ({tol['origin']})")


def _print_refinement(meta):
    """The text line of meta's refinement sup ratios, if it has them. On
    analytic derivatives both sups sit at roundoff, and the line says so."""
    if "refinement" in meta:
        ref = meta["refinement"]
        label = "refinement sup ratios"
        if ref.get("derivatives") == "analytic":
            label += " (analytic derivatives: roundoff over roundoff, no order)"
        print(label + ": " + json.dumps(
            {k: (round(v, 3) if v else None)
             for k, v in ref["sup_ratios"].items()}))


def _add_refinement(meta, rep, data, args, outdir):
    """With --h-refine, verify's coarse/fine sup ratios into meta, with the
    derivatives that drove the fine check; the refined report goes to
    outdir/residuals_refined.json."""
    if args.h_refine == 1:
        return
    fine = _refined_data(data, args.h_refine)
    rep_f = _all_residuals(fine, args.tol, args.force_fd)
    meta["refinement"] = {
        "factor": args.h_refine,
        "derivatives": check_source(fine, args.force_fd, args.tol)[
            "derivatives"],
        "sup_ratios": _sup_ratios(rep, rep_f)}
    if outdir is not None:
        wio.save_report(rep_f, Path(outdir) / "residuals_refined.json",
                        meta=_verify_meta(fine, args))


def _cmd_verify(args):
    data = _load_input(args)
    outdir = args.output_dir
    rep = _all_residuals(data, args.tol, args.force_fd)
    meta = _verify_meta(data, args)
    if args.report == "text":
        _print_check_source(meta)
    _add_refinement(meta, rep, data, args, outdir)
    _emit_report(rep, args, "residuals.json", outdir, meta=meta)
    if args.report == "text":
        _print_refinement(meta)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _reconstruct_once(data, args, outdir, suffix=""):
    B0 = (wio.load_frame_matrix(args.base_frame) if args.base_frame
          else build_base_frame(data))
    ff = integrate_frame(data, B0)
    imm = extract_immersion(ff, data)
    rep = verify_immersion(imm, data, tol=args.tol)
    pid = path_independence_defect(data, B0) if data.spec.n > 1 else 0.0
    diag = dict(ff.diagnostics)
    diag["path_independence_defect"] = pid
    diag["quadric_defect"] = imm.quadric_defect()
    if outdir is not None:
        outdir = Path(outdir)
        wio.write_immersion_csv(imm, outdir / f"immersion{suffix}.csv")
        wio.save_frames_json(imm, outdir / f"frames{suffix}.json")
        wio.save_diagnostics(diag, outdir / f"bfield{suffix}.json")
        wio.save_report(rep, outdir / f"conclusions{suffix}.json")
    return imm, rep, diag


def _cmd_reconstruct(args):
    data = _load_input(args)
    outdir = args.output_dir
    gate = check_source(data, args.force_fd, args.tol)
    if args.report == "text":
        _print_check_source(gate)
    pre = _all_residuals(data, args.tol, args.force_fd)
    if not pre.passed and not args.force:
        # The document verify prints and writes for these options.
        meta = _verify_meta(data, args)
        _add_refinement(meta, pre, data, args, outdir)
        _emit_report(pre, args, "residuals.json", outdir, meta=meta, text=[
            "verification failed; not reconstructing (failing: "
            + ", ".join(pre.failing()) + "; use --force)"])
        if args.report == "text":
            _print_refinement(meta)
        return EXIT_FAIL
    imm, rep, diag = _reconstruct_once(data, args, outdir, suffix="")
    # The residual gate's check source, then the conclusions' own
    # tolerance: they are finite-difference cross-checks, judged against
    # 10 h^2 or --tol.
    meta = {"grid_extents": list(data.grid.extents), "gate": gate,
            "tolerance": check_source(data, True, args.tol)["tolerance"],
            "diagnostics": diag}
    if args.h_refine > 1:
        fine = _refined_data(data, args.h_refine)
        imm2, rep2, diag2 = _reconstruct_once(fine, args, outdir, suffix="_refined")
        ratios = _sup_ratios(rep, rep2)
        for key in ("max_row_defect", "path_independence_defect"):
            if diag2.get(key):
                ratios[key] = diag[key] / diag2[key]
        meta["refinement"] = {"factor": args.h_refine, "sup_ratios": ratios}
    _emit_report(rep, args, "conclusions.json", None, meta=meta)
    if args.report == "text":
        print(f"group defect {diag['max_group_defect']:.3e}  "
              f"row defect {diag['max_row_defect']:.3e}  "
              f"path independence {diag['path_independence_defect']:.3e}")
        _print_refinement(meta)
    return EXIT_OK if rep.passed else EXIT_FAIL


# A congruence defect at or below this is roundoff: the map is rebuilt
# exactly (vertical_geodesic reads 2.2e-16 at both levels), and the ratio of
# two such defects shows no order. The smallest defect of an inexact
# reconstruction among the fixtures is 1.9e-07 (the refined helix), five
# orders above.
_ROUNDOFF_DEFECT = 1e-12


def _cmd_roundtrip(args):
    params = json.loads(args.params) if args.params else {}
    defects = []
    imm0 = oracle.make_example(args.example, params)
    for level in range(2 if args.h_refine > 1 else 1):
        factor = args.h_refine ** level if args.h_refine > 1 else 1
        grid = imm0.grid.refine(factor)
        imm = oracle.make_example(args.example,
                                  {**imm0.params, **oracle._grid_tag(grid)})
        data = oracle.induce_data(imm)
        rep = _all_residuals(data, args.tol, args.force_fd)
        if not rep.passed:
            print("induced data failed verification: "
                  + ", ".join(rep.failing()))
            return EXIT_FAIL
        # One exact frame field gives both B0 and the reference frames.
        Bx = oracle.exact_frame_field(imm)
        ff = integrate_frame(data, Bx[imm.grid.base_node])
        rec = extract_immersion(ff, data)
        crep = verify_immersion(rec, data, tol=args.tol)
        ref = oracle.reference_field(imm, Bx)
        tau, defect = congruence_align(rec, ref)
        defects.append(defect)
        ok = crep.passed and defect <= grid.fd_tolerance
        print(f"level {level}: h={grid.max_spacing:.5f} "
              f"congruence defect {defect:.3e} "
              f"conclusions {'pass' if crep.passed else 'FAIL'}")
        if args.output_dir is not None:
            wio.write_immersion_csv(
                rec, Path(args.output_dir) / f"roundtrip_l{level}.csv")
        if not ok:
            return EXIT_FAIL
    if len(defects) == 2 and max(defects) <= _ROUNDOFF_DEFECT:
        print(f"congruence defect order: none (both defects at roundoff, "
              f"<= {_ROUNDOFF_DEFECT:.0e})")
    elif len(defects) == 2 and defects[1] > 0:
        order = math.log(defects[0] / defects[1], args.h_refine)
        print(f"congruence defect order: {order:.2f}")
        if order < 1.8:
            return EXIT_FAIL
    return EXIT_OK


def _cmd_examples(args):
    if args.example is None and args.output_dir is None:
        for name in oracle.example_names():
            print(name)
        return EXIT_OK
    names = [args.example] if args.example else oracle.example_names()
    params = json.loads(args.params) if args.params else {}
    outdir = Path(args.output_dir or ".")
    for name in names:
        _, data = oracle.canonical_example(name, dict(params))
        wio.save_dataset(data, outdir / f"{name}.json")
        print(f"wrote {outdir / (name + '.json')}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "roundtrip": _cmd_roundtrip,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IntegrationBlowup as exc:
        print(f"integrator blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WarpframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
