"""Spans and counters around warpframe's public functions, from outside the
package.

`Tracer.installed()` replaces each target function by a timing wrapper: on
the module that defines it, and on every warpframe module that bound the same
function object with ``from ... import``. Nested calls are therefore caught
too, such as ``assemble_all`` inside ``flatness_residual`` and
``integrate_frame``, or ``expm`` inside the frame sweep. Leaving the context
restores the originals.

A span records name, start, end, parent span and command id. The hot
functions (``expm``, ``pseudo_orthonormalize``: up to 16k calls per command)
only get a per-command count and time, so they cost two clock reads a call.
Self time is a span's duration minus the time of its child spans and of the
counted calls made inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time

SPAN = "span"
COUNT = "count"

# (module under warpframe, attribute, kind). A dotted attribute is a method.
TARGETS = (
    ("oracle", "induce_data", SPAN),
    ("oracle", "reference_field", SPAN),
    ("oracle", "exact_base_frame", SPAN),
    ("io", "load_dataset", SPAN),
    ("io", "save_dataset", SPAN),
    ("io", "save_report", SPAN),
    ("io", "save_diagnostics", SPAN),
    ("io", "save_frames_json", SPAN),
    ("io", "write_immersion_csv", SPAN),
    ("bundle_data", "load_data", SPAN),
    ("bundle_data", "GeometricData.validate", SPAN),
    ("verifier", "structure_residuals", SPAN),
    ("verifier", "aux_identity_residuals", SPAN),
    ("verifier", "flatness_residual", SPAN),
    ("frame_solver", "assemble_all", SPAN),
    ("frame_solver", "assembled_derivatives", SPAN),
    ("frame_solver", "integrate_frame", SPAN),
    ("frame_solver", "path_independence_defect", SPAN),
    ("frame_solver", "expm", COUNT),
    ("frame_solver", "pseudo_orthonormalize", COUNT),
    ("immersion", "extract_immersion", SPAN),
    ("immersion", "verify_immersion", SPAN),
    ("immersion", "congruence_align", SPAN),
)

# Span name -> (byte counter, position of the path argument). Bytes are the
# size of the file after the call: computed from file sizes, not measured.
IO_BYTES = {
    "io.load_dataset": ("io.bytes_read", 0),
    "io.save_dataset": ("io.bytes_written", 1),
    "io.save_report": ("io.bytes_written", 1),
    "io.save_diagnostics": ("io.bytes_written", 1),
    "io.save_frames_json": ("io.bytes_written", 1),
    "io.write_immersion_csv": ("io.bytes_written", 1),
}

COUNTERS = {counter for counter, _ in IO_BYTES.values()}


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "child_s")

    def __init__(self, name, start, parent, command):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.command = command
        self.child_s = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s


class Tracer:
    """In-memory spans and counters, grouped by command id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}      # (command, name) -> [calls, seconds]
        self.counters: dict = {}    # (command, counter) -> total
        self.command = None
        self._stack: list[Span] = []
        self._patches: list = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.command)
        self._stack.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(sp)
        if sp.parent is not None:
            sp.parent.child_s += sp.seconds

    @contextlib.contextmanager
    def span(self, name):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    @contextlib.contextmanager
    def for_command(self, command):
        """Attribute everything recorded inside to this command id."""
        prev, self.command = self.command, command
        try:
            yield
        finally:
            self.command = prev

    def _add_counter(self, counter, amount):
        key = (self.command, counter)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _span_wrapper(self, name, fn):
        io_bytes = IO_BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sp)
                if io_bytes is not None:
                    counter, pos = io_bytes
                    path = kwargs.get("path", args[pos] if len(args) > pos
                                      else None)
                    if path is not None and os.path.exists(path):
                        self._add_counter(counter, os.path.getsize(path))
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                # The frame sweep may call this from worker threads when
                # WARPFRAME_THREADS > 1.
                with self._lock:
                    acc = self.counts.setdefault((self.command, name),
                                                 [0, 0.0])
                    acc[0] += 1
                    acc[1] += dt
                    if self._stack:
                        self._stack[-1].child_s += dt
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, kind in TARGETS:
            module = importlib.import_module(f"warpframe.{modname}")
            owner, leaf = module, attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(module, cls)
            original = getattr(owner, leaf)
            name = f"{modname}.{leaf}"
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            wrapper = make(name, original)
            self._patch(owner, leaf, wrapper)
            if owner is not module or not getattr(
                    original, "__module__", "").startswith("warpframe"):
                # Methods are found through the class; a third-party
                # function (expm) is wrapped only where the target names it.
                continue
            for other_name, other in list(sys.modules.items()):
                in_package = (other_name == "warpframe"
                              or other_name.startswith("warpframe."))
                if other is module or not in_package:
                    continue
                for key, val in list(vars(other).items()):
                    if val is original:
                        self._patch(other, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------

    def totals(self, commands=None):
        """{name: {"s", "self_s", "calls"}} plus {counter: total}, summed
        over the given command ids (all when None)."""
        keep = (lambda c: True) if commands is None else (
            lambda c: c in commands)
        out: dict = {}
        for sp in self.spans:
            if keep(sp.command):
                t = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0,
                                             "calls": 0})
                t["s"] += sp.seconds
                t["self_s"] += sp.self_s
                t["calls"] += 1
        for (cmd, name), (calls, secs) in self.counts.items():
            if keep(cmd):
                t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
                t["s"] += secs
                t["self_s"] += secs
                t["calls"] += calls
        for (cmd, counter), total in self.counters.items():
            if keep(cmd):
                out[counter] = out.get(counter, 0) + total
        return out

    def dump(self, path):
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        doc = {
            "kind": "warpframe.bench.spans",
            "spans": [{"name": sp.name, "start": sp.start, "end": sp.end,
                       "parent": index.get(id(sp.parent)),
                       "command": sp.command, "self_s": sp.self_s}
                      for sp in self.spans],
            "counts": [{"command": cmd, "name": name, "calls": calls,
                        "s": secs}
                       for (cmd, name), (calls, secs) in self.counts.items()],
            "counters": [{"command": cmd, "name": name, "value": total}
                         for (cmd, name), total in self.counters.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def metric_value(totals, metric):
    """Value of a per-layer metric name such as 'frame_solver.expm.calls'
    or 'io.bytes_read' from `Tracer.totals` output; 0 when never called."""
    if metric in COUNTERS:
        return totals.get(metric, 0)
    name, field = metric.rsplit(".", 1)
    return totals.get(name, {}).get(field, 0)
