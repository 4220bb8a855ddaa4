"""Discrete hypothesis bundle on a chart grid.

A GeometricData object holds, per grid node, everything the structure
equations talk about: an orthonormal tangent frame (as coordinate
components), the tangent and bundle connection coefficients against
coordinate directions, the symmetric bilinear form alpha with values in the
bundle, the tangent/bundle split (T, xi) of the vertical direction, and the
height function pi. Derived objects (the delta covector, the warp values,
the coordinate components of T) are computed on demand.

Connection data is stored against coordinate directions d/dx_k on purpose:
exterior derivatives on the grid then reduce to plain componentwise finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import SignatureSpec, WarpingFunction, validate_signature
from .errors import InvariantViolation, SchemaError
from .stencils import grad1

FIELD_NAMES = ("frame", "omega_tangent", "omega_bundle", "alpha",
               "T_comp", "xi_comp", "pi")
# A dataset holds the coordinate derivatives of all of these or of none.
_DERIVATIVE_NAMES = tuple(name for name in FIELD_NAMES if name != "pi")


@dataclass(frozen=True)
class ChartGrid:
    """Rectangular chart: extents per axis, spacings, origin, base node."""

    extents: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]
    base_node: tuple[int, ...]

    def __post_init__(self):
        n = len(self.extents)
        if not (len(self.spacing) == len(self.origin) == len(self.base_node) == n):
            raise SchemaError("grid extents/spacing/origin/base_node lengths differ")
        if any(e < 3 for e in self.extents):
            raise SchemaError("grid extents must be >= 3 per axis")
        if not (all(0 < h for h in self.spacing)
                and math.isfinite(self.fd_tolerance)):
            raise SchemaError("grid spacing must be positive and finite "
                              "(with 10 h^2 finite)")
        if not all(math.isfinite(x) for x in self.origin):
            raise SchemaError("grid origin must be finite")
        if any(not (0 <= b < e) for b, e in zip(self.base_node, self.extents)):
            raise SchemaError("base node outside the grid")

    @property
    def n(self):
        return len(self.extents)

    @property
    def num_nodes(self):
        return int(np.prod(self.extents))

    @property
    def max_spacing(self):
        return max(self.spacing)

    @property
    def fd_tolerance(self):
        """10 h^2 with h the largest spacing: the tolerance of every check
        driven by second-order finite differences on this grid."""
        h = self.max_spacing
        return 10.0 * h * h

    def axes(self):
        """Per-axis coordinate arrays."""
        return [self.origin[k] + self.spacing[k] * np.arange(self.extents[k])
                for k in range(self.n)]

    def coordinates(self):
        """Node coordinate arrays, one (*extents) array per axis."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def refine(self, factor: int) -> "ChartGrid":
        """Same chart span with spacing divided by `factor`."""
        if factor == 1:
            return self
        extents = tuple((e - 1) * factor + 1 for e in self.extents)
        spacing = tuple(h / factor for h in self.spacing)
        base = tuple(b * factor for b in self.base_node)
        return ChartGrid(extents, spacing, self.origin, base)

    def to_dict(self):
        return {"extents": list(self.extents),
                "spacing": list(self.spacing),
                "origin": list(self.origin),
                "base_node": list(self.base_node)}

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(tuple(int(v) for v in d["extents"]),
                       tuple(float(v) for v in d["spacing"]),
                       tuple(float(v) for v in d["origin"]),
                       tuple(int(v) for v in d["base_node"]))
        except KeyError as exc:
            raise SchemaError(f"grid document missing {exc}") from exc


# Tolerance of the exact invariants validate checks (alpha symmetry,
# connection skewness, on the fields and their derivative fields).
_VALIDATE_TOL = 1e-10

_FIELD_SHAPES = {
    "frame": lambda n, m: (n, n),
    "omega_tangent": lambda n, m: (n, n, n),
    "omega_bundle": lambda n, m: (m, m, n),
    "alpha": lambda n, m: (m, n, n),
    "T_comp": lambda n, m: (n,),
    "xi_comp": lambda n, m: (m,),
    "pi": lambda n, m: (),
}


def _field_shape(name, spec, grid, derivative=False):
    """The shape of field `name`, or of its coordinate derivatives
    (n, *ext, ...); SchemaError for a derivative of pi or of no field."""
    if derivative and name not in _DERIVATIVE_NAMES:
        raise SchemaError(f"unknown derivative field {name}")
    lead = (spec.n,) if derivative else ()
    return lead + tuple(grid.extents) + _FIELD_SHAPES[name](spec.n, spec.m)


class GeometricData:
    """Immutable-after-load bundle of grid fields. See the module docstring
    for the index conventions of each field.

    The constructor is the schema gate of every dataset, loaded, induced
    or built from arrays: a field of the wrong shape or with a non-finite
    value is a SchemaError naming it (and the first such node). derivs
    holds the coordinate derivatives (n, *ext, ...) of all six fields but
    pi, or none. Each is kept as a private read-only component-major copy
    (grid axes last), of which the attribute is a grid-major view."""

    def __init__(self, spec: SignatureSpec, warping: WarpingFunction,
                 grid: ChartGrid, frame, omega_tangent, omega_bundle,
                 alpha, T_comp, xi_comp, pi, derivs=None, generator=None):
        self.spec = spec
        self.warping = warping
        self.grid = grid
        if grid.n != spec.n:
            raise SchemaError(f"grid dimension {grid.n} != spec n={spec.n}")
        self.frame = self._private("frame", frame)
        self.omega_tangent = self._private("omega_tangent", omega_tangent)
        self.omega_bundle = self._private("omega_bundle", omega_bundle)
        self.alpha = self._private("alpha", alpha)
        self.T_comp = self._private("T_comp", T_comp)
        self.xi_comp = self._private("xi_comp", xi_comp)
        self.pi = self._private("pi", pi)
        self.derivs = {name: self._private(name, arr, derivative=True)
                       for name, arr in (derivs or {}).items()}
        missing = [name for name in _DERIVATIVE_NAMES
                   if name not in self.derivs]
        if self.derivs and missing:
            raise SchemaError(
                f"derivative fields missing {', '.join(missing)}: a "
                f"dataset holds all {len(_DERIVATIVE_NAMES)} or none")
        self.generator = generator
        self._cache = {}

    def _private(self, name, arr, derivative=False):
        """The private copy of field `name` (or of its derivatives) as a
        grid-major view, or SchemaError; see the class docstring."""
        want = _field_shape(name, self.spec, self.grid, derivative)
        arr = np.asarray(arr, dtype=float)
        what = f"derivative {name}" if derivative else f"field {name}"
        if arr.shape != want:
            raise SchemaError(f"{what}: shape {arr.shape}, want {want}")
        nd, lead = self.grid.n, int(derivative)
        # The leading derivative axis, the components, then the grid axes.
        order = (*range(lead), *range(lead + nd, arr.ndim),
                 *range(lead, lead + nd))
        private = np.array(arr.transpose(order), order="C")
        private.setflags(write=False)
        view = private.transpose(np.argsort(order))
        finite = np.isfinite(view)
        if not finite.all():
            at = _worst_node(~finite, lead + nd)
            where = f"derivative d{name}/dx_{at[0]}" if derivative else what
            raise SchemaError(f"{where}: non-finite value at node {at[lead:]}")
        return view

    # -- cached derived arrays ---------------------------------------------

    @property
    def inv_frame(self):
        """C with d/dx_k = sum_i C[k, i] e_i (inverse of the frame rows),
        by _inverse_stack over all nodes at once. Raises InvariantViolation
        naming the first node of smallest |det| among the nodes whose frame
        is singular: a zero pivot, or an inverse that is not finite (it
        overflows). For n = 1 C is exactly 1.0 / frame."""
        if "inv_frame" not in self._cache:
            nd = self.grid.n
            # The private memory is component-major: (n, n, *ext).
            frame = np.moveaxis(self.frame, (-2, -1), (0, 1))
            inv, singular = _inverse_stack(frame)
            if singular.any():
                det = np.abs(np.linalg.det(self.frame))
                bad = _worst_node(np.where(singular, -det, -np.inf), nd)
                raise InvariantViolation(f"frame is singular at node {bad}")
            self._cache["inv_frame"] = np.moveaxis(inv, (0, 1), (-2, -1))
        return self._cache["inv_frame"]

    def warp_values(self):
        """(a, a', a'') evaluated at pi, each shaped like the grid."""
        if "warp" not in self._cache:
            self._cache["warp"] = self.warping.eval(self.pi)
        return self._cache["warp"]

    def delta_all(self):
        """T_alpha = delta(e_alpha) for alpha = 0..N+1 at every node."""
        if "delta" not in self._cache:
            spec = self.spec
            out = np.zeros(self.grid.extents + (spec.size,))
            out[..., 1:spec.n + 1] = self.spec.tangent_signs * self.T_comp
            out[..., spec.n + 1:] = self.spec.bundle_signs * self.xi_comp
            self._cache["delta"] = out
        return self._cache["delta"]

    def coord_T(self):
        """<T, d/dx_k> per node."""
        if "tk" not in self._cache:
            eps = self.spec.tangent_signs
            self._cache["tk"] = np.einsum(
                "...ki,i,...i->...k", self.inv_frame, eps, self.T_comp)
        return self._cache["tk"]

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the structural invariants: returns [] or raises
        InvariantViolation, whose problems list every finding.

        The invariants are the signature, alpha symmetry, connection
        skewness, the pi domain and T = eps * grad(pi). Symmetry and metric
        skewness are checked on the derivative fields of alpha,
        omega_tangent and omega_bundle too, each finding naming the field,
        the derivative axis and the node: the verifier computes (D), (F)
        and flatness on the independent entries of their blocks only, which
        is exact when these hold. The vertical-norm identity
        <T,T> + <xi,xi> = eps is not checked here: it is the residual
        family (A) of verifier.structure_residuals, which names the worst
        node.
        """
        spec, grid = self.spec, self.grid
        problems = validate_signature(spec)
        nd = grid.n
        et, eb = spec.tangent_signs, spec.bundle_signs
        # Each invariant holds for the field and for its derivative fields:
        # (field, finding, what a derivative must be, entrywise defect).
        for name, finding, kind, defect in (
                ("alpha", "alpha symmetry violated", "symmetric",
                 lambda x: x - np.swapaxes(x, -1, -2)),
                ("omega_tangent", "tangent connection not metric-skew",
                 "metric-skew",
                 lambda x: x + np.einsum("i,j,...jik->...ijk", et, et, x)),
                ("omega_bundle", "bundle connection not metric-skew",
                 "metric-skew",
                 lambda x: x + np.einsum("u,v,...vuk->...uvk", eb, eb, x))):
            dev = np.abs(defect(getattr(self, name)))
            if dev.max() > _VALIDATE_TOL:
                problems.append(f"{finding}, worst {dev.max():.3e} at node "
                                f"{_worst_node(dev, nd)}")
            if name in self.derivs:
                dev = np.abs(defect(self.derivs[name]))
                if dev.max() > _VALIDATE_TOL:
                    k, *node = _worst_node(dev, nd + 1)
                    problems.append(
                        f"derivative d{name}/dx_{k} not {kind}, worst "
                        f"{dev.max():.3e} at node {tuple(node)}")
        lo, hi = self.warping.domain
        if np.any(self.pi < lo) or np.any(self.pi > hi):
            problems.append("pi leaves the warping domain I")
        # T = eps * grad(pi): d(pi)(d/dx_k) must equal eps * <T, d/dx_k>,
        # which needs the inverse frame.
        gtol = grid.fd_tolerance
        try:
            tk = self.coord_T()
        except InvariantViolation as exc:
            problems.append(str(exc))
        else:
            dev = np.stack([np.abs(grad1(self.pi, k, grid.spacing[k])
                                   - spec.epsilon * tk[..., k])
                            for k in range(nd)], axis=-1)
            if dev.max() > gtol:
                problems.append(
                    f"T is not eps*grad(pi): defect {dev.max():.3e} > "
                    f"{gtol:.3e} at node {_worst_node(dev, nd)}")
        if problems:
            raise InvariantViolation("; ".join(problems), problems)
        return []

    # -- serialization ----------------------------------------------------------

    def to_document(self):
        """The dataset document for warpframe.io to write. Fields and
        derivatives are flattened (row-major) float64 arrays, which
        warpframe.io writes as the JSON lists of their floats."""
        doc = {
            "format_version": 1,
            "kind": "warpframe.dataset",
            "signature": self.spec.to_dict(),
            "warping": self.warping.to_dict(),
            "grid": self.grid.to_dict(),
            "fields": {name: getattr(self, name).ravel()
                       for name in FIELD_NAMES},
        }
        if self.derivs:
            doc["derivatives"] = {name: arr.ravel()
                                  for name, arr in self.derivs.items()}
        if self.generator:
            doc["generator"] = dict(self.generator)
        return doc


def _inverse_stack(A):
    """Inverses X (n, n, *ext) of a component-major stack of matrices
    A (n, n, *ext), and the mask (*ext) of the singular ones.

    Gaussian elimination with partial pivoting (the first row of largest
    |entry| in the column, as LAPACK picks it) on [A | I], component-major,
    so each of its O(n^2) numpy operations sweeps the whole stack. A
    matrix is singular when a pivot is zero or its inverse is not finite
    (it overflows). A zero pivot divides a row of X by zero, so both show
    as a non-finite X. For n = 1 X is exactly 1.0 / A.
    """
    n = A.shape[0]
    A = np.array(A, dtype=float)
    X = np.zeros_like(A)
    for i in range(n):
        X[i, i] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            p = k + np.argmax(np.abs(A[k:, k]), axis=0)
            for r in range(k + 1, n):
                swap = p == r
                if swap.any():
                    for Z in (A, X):
                        Z[k], Z[r] = (np.where(swap, Z[r], Z[k]),
                                      np.where(swap, Z[k], Z[r]))
            l = A[k + 1:, k] / A[k, k]
            A[k + 1:, k + 1:] -= l[:, None] * A[k, k + 1:]
            X[k + 1:] -= l[:, None] * X[k]
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                X[k] -= (A[k, k + 1:, None] * X[k + 1:]).sum(axis=0)
            X[k] /= A[k, k]
    return X, ~np.isfinite(X).all(axis=(0, 1))


def _worst_node(arr, n):
    """The first grid node (row-major order, plain ints) at which the
    per-node array arr (*extents, ...) takes its largest value."""
    at = np.unravel_index(int(np.argmax(arr)), arr.shape)[:n]
    return tuple(int(i) for i in at)


def _document_array(what, values, shape):
    """The float array of a document's list `values`, reshaped to `shape`;
    SchemaError naming `what` if it does not parse or has another size."""
    arr = _parsed(what, _float_array, values)
    if arr.size != math.prod(shape):
        raise SchemaError(f"{what}: {arr.size} values, want "
                          f"{math.prod(shape)}")
    return arr.reshape(shape)


def _float_array(values):
    """values as a float64 array. A list is converted in one pass, element
    by element; one that does not convert that way (nested, ragged, a
    string or an integer beyond the float range) goes to np.asarray, as
    does anything else, so its result or error is np.asarray's."""
    if isinstance(values, list):
        try:
            return np.fromiter(values, float, count=len(values))
        except (TypeError, ValueError, OverflowError):
            pass
    return np.asarray(values, dtype=float)


def _parsed(what, parse, value):
    """parse(value), with the TypeError, ValueError or OverflowError of a
    malformed section (an unknown warping kind, a string where a number
    belongs, a ragged list, an integer beyond the float range) raised as a
    SchemaError naming `what`."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_data(document: dict) -> GeometricData:
    """The dataset of a JSON-decoded document. It passes the GeometricData
    schema gate and validate(), or raises SchemaError or
    InvariantViolation."""
    if not isinstance(document, dict):
        raise SchemaError("dataset document must be a JSON object")
    if document.get("kind") != "warpframe.dataset":
        raise SchemaError("not a warpframe.dataset document")
    if document.get("format_version") != 1:
        raise SchemaError("unsupported format_version")
    try:
        spec = _parsed("signature", SignatureSpec.from_dict,
                       document["signature"])
        warping = _parsed("warping", WarpingFunction.from_dict,
                          document["warping"])
        grid = _parsed("grid", ChartGrid.from_dict, document["grid"])
        raw = document["fields"]
    except KeyError as exc:
        raise SchemaError(f"dataset document missing {exc}") from exc
    fields = {}
    for name in FIELD_NAMES:
        if name not in raw:
            raise SchemaError(f"fields missing {name!r}")
        fields[name] = _document_array(f"field {name}", raw[name],
                                       _field_shape(name, spec, grid))
    derivs = {name: _document_array(f"derivative {name}", values,
                                    _field_shape(name, spec, grid, True))
              for name, values in document.get("derivatives", {}).items()}
    data = GeometricData(spec, warping, grid, derivs=derivs,
                         generator=document.get("generator"), **fields)
    data.validate()
    return data
