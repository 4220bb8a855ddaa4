"""Residuals of the structure equations and their integrability identities.

Three entry points, eight report entries in all (A-F, aux4, flatness):

* structure_residuals: the six defining equations (A)-(F) evaluated on
  coordinate/frame inputs at every node. Curvatures come from the stored
  connection coefficients through d(omega) + omega ^ omega, never from
  second derivatives of a metric.
* aux_identity_residuals: the one first-order identity that (A)-(F) do
  not already state, the torsion-free equation dW = -Omega ^ W of the dual
  coframe (item aux4).
* flatness_residual: d(Upsilon) + Upsilon ^ Upsilon on every coordinate
  2-plane, the integrability condition of the frame equations.

A 1-dimensional chart (a curve) has no coordinate 2-plane, so the 2-form
equations (D), (E), (F), aux4 and flatness say nothing there: their fields
are None, each reported as 0 with worst_node None and a note, without an
assembled form or a coframe derivative. Only (A)-(C) carry content.

Each entry is independent evidence, so no identity that restates another
is computed: sum eps_alpha T_alpha^2 = eps is (A); the derivative of
T_alpha is (B) on tangent rows, (C) on normal rows and (A) rescaled on
row 0; delta = sum T_gamma omega_gamma holds by construction of W. Nor are
closed forms of pieces of the flatness 2-form: d X is the product rule on
(T_alpha, W), the Omega/X cross terms are (A)-(C) and the torsion-free
coframe, and d Omega + Omega ^ Omega is Gauss, Codazzi and Ricci, so each
piece's residual is a combination of the A-F and aux4 residuals.

Which derivatives drive the checks, and the tolerance that judges them,
is decided in one place, check_source: a dataset holds the analytic
derivatives of all six non-pi fields or of none. With them every residual
uses them (and sits at roundoff for exact data, judged against 1e-8);
without them, or with force_fd, every exterior derivative is a
second-order finite difference, judged against 10 h^2, which is what grid
convergence studies measure. A tol given by the caller overrides either.

The kernels work component-major: every per-node tensor is held as
(*comp, *ext), component axes first and grid axes last, so each
elementwise operation and each einsum contraction runs its inner loop over
the grid. aux4 asks assemble_all for Omega and W, flatness for Upsilon
alone, which the dataset holds for the sweep (one assembly per dataset,
read-only component-major memory behind grid-major views); neither copies
them. Exterior derivatives are formed plane by plane: (d v)(k, l) from the
two directional derivatives it needs, so on FD data no full list of
derivative arrays is held. Each family has a *_fields function returning
the per-node residual magnitudes and a report function reducing them.

The 2-form residuals (D), (F) and flatness are computed only on their
independent entries, the index pairs a < b of their block. The connection
blocks omega_tangent and omega_bundle and the assembled Upsilon take
values in the pseudo-orthogonal Lie algebra (G omega is skew) and alpha is
symmetric, so each residual matrix is antisymmetric up to the signs of G:
when those fields and their derivatives are exactly so, |res[b, a]| =
|res[a, b]| and res[a, a] = 0 bit for bit, and the maximum over a < b is
the maximum over every entry. The oracle builds them that way. The premise
rests on GeometricData.validate, which rejects a dataset whose fields or
derivative fields break it by more than 1e-10; below that the entries left
out restate the ones computed up to the defect validate lets through. aux4
differences only the n tangent rows of W, the coframe: its other rows are
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import curvature_coefficients
from .bundle_data import GeometricData, _worst_node
from .frame_solver import (_grid_last, _pattern, assemble_all,
                           assembled_derivatives, inv_frame_derivatives)
from .stencils import grad1, interior_mask


@dataclass
class ResidualEntry:
    sup: float
    rms: float
    worst_node: tuple | None
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self):
        d = {"sup": self.sup, "rms": self.rms,
             "worst_node": list(self.worst_node) if self.worst_node else None,
             "tolerance": self.tolerance, "passed": bool(self.passed)}
        if self.note:
            d["note"] = self.note
        return d


class ResidualReport:
    """Named residuals with sup/rms reductions and pass verdicts."""

    def __init__(self):
        self.entries: dict[str, ResidualEntry] = {}

    def add(self, name, per_node, tolerance, note=""):
        """per_node: array of per-node residual magnitudes (grid shape),
        or None for a skipped check.

        A NaN or an inf at any node fails the check: worst_node is then the
        first non-finite node (row-major), sup and rms are taken over the
        finite nodes (0.0 when there are none), and the note counts the
        non-finite nodes. Where the squares of finite magnitudes overflow
        (above about 1e154), rms is taken as sup * rms(per_node / sup)."""
        if per_node is None:
            self.entries[name] = ResidualEntry(
                sup=0.0, rms=0.0, worst_node=None, tolerance=tolerance,
                passed=True, note=note or "skipped")
            return
        per_node = np.asarray(per_node, dtype=float)
        bad = ~np.isfinite(per_node)
        passed = not bad.any()
        worst = _worst_node(per_node if passed else bad, per_node.ndim)
        if not passed:
            nbad = int(bad.sum())
            note = "; ".join(filter(None, (note, (
                f"{nbad} of {per_node.size} nodes non-finite, first at "
                f"{worst}; sup and rms over the finite nodes"))))
            per_node = per_node[~bad]
        sup, rms = 0.0, 0.0
        if per_node.size:
            sup = float(per_node.max())
            with np.errstate(over="ignore"):
                rms = float(np.sqrt(np.mean(per_node ** 2)))
            if not np.isfinite(rms):
                rms = sup * float(np.sqrt(np.mean((per_node / sup) ** 2)))
        self.entries[name] = ResidualEntry(
            sup=sup, rms=rms, worst_node=worst, tolerance=float(tolerance),
            passed=passed and sup <= tolerance, note=note)

    @property
    def passed(self):
        return all(e.passed for e in self.entries.values())

    def failing(self):
        return [k for k, e in self.entries.items() if not e.passed]

    def merge(self, other: "ResidualReport"):
        self.entries.update(other.entries)
        return self

    def to_dict(self):
        return {"residuals": {k: e.to_dict() for k, e in self.entries.items()},
                "passed": bool(self.passed)}

    def summary_lines(self):
        out = []
        for k, e in self.entries.items():
            status = "pass" if e.passed else "FAIL"
            line = (f"{k:<28s} sup={e.sup:12.5e}  rms={e.rms:12.5e}  "
                    f"tol={e.tolerance:9.2e}  {status}")
            if e.note:
                line += f"  ({e.note})"
            out.append(line)
        return out


def _analytic(data, force_fd):
    """True when the dataset's derivative fields drive every check, False
    when finite differences do (no derivative fields, or force_fd)."""
    return bool(data.derivs) and not force_fd


def check_source(data: GeometricData, force_fd: bool = False,
                 tol: float | None = None) -> dict:
    """Which derivatives drive the checks of data, and the pass tolerance
    with its origin: tol if given ("--tol"), else 1e-8 on analytic
    derivatives and 10 h^2 on finite differences."""
    analytic = _analytic(data, force_fd)
    if tol is not None:
        tolerance = {"value": tol, "origin": "--tol"}
    elif analytic:
        tolerance = {"value": 1e-8, "origin": "1e-8"}
    else:
        tolerance = {"value": data.grid.fd_tolerance, "origin": "10 h^2"}
    return {"derivatives": "analytic" if analytic else "finite_differences",
            "tolerance": tolerance}


# The note of every entry a 1-dimensional chart skips.
_NO_PLANES = "no coordinate 2-planes on a 1-dimensional chart"


def _report(fields, tol, data, force_fd):
    """The report of per-node residual fields, judged against the
    tolerance of check_source. A None field is a check that the
    1-dimensional chart skips: it reads 0 with the _NO_PLANES note."""
    tol = check_source(data, force_fd, tol)["tolerance"]["value"]
    report = ResidualReport()
    for key, arr in fields.items():
        report.add(key, arr, tol, note=_NO_PLANES if arr is None else "")
    return report


# ---------------------------------------------------------------------------
# helpers shared by the residual families (component-major, see above)


def _coordinate_pairs(n):
    return [(k, l) for k in range(n) for l in range(k + 1, n)]


def _field_derivatives(data, name):
    """The analytic d/dx_k of a dataset field, component-major, one per k."""
    return [_grid_last(d, data.grid.n) for d in data.derivs[name]]


def _derivatives(value, parts, spacing):
    """d/dx_k of a component-major field for every k: parts, or finite
    differences of value along the grid axes where parts is None."""
    if parts is not None:
        return parts
    nd = len(spacing)
    return [grad1(value, k - nd, spacing[k]) for k in range(nd)]


def _dform(v, parts, spacing, k, l):
    """(d v)(d/dx_k, d/dx_l) = d_k v(d/dx_l) - d_l v(d/dx_k) of a 1-form
    valued field v, component-major (*comp, n, *ext). parts[j] is dv/dx_j
    in the same layout; with parts None the derivatives are finite
    differences, taken for one coordinate component at a time."""
    nd = len(spacing)
    lead = (slice(None),) * (v.ndim - nd - 1)

    def d(j, i):
        if parts is None:
            return grad1(v[lead + (i,)], j - nd, spacing[j])
        return parts[j][lead + (i,)]
    return d(k, l) - d(l, k)


def _curvature_pairs(block, parts, spacing):
    """(d omega + omega ^ omega)(d/dx_k, d/dx_l) of a matrix of 1-forms
    stored component-major as (r, r, n, *ext), on its independent entries
    only (see the module docstring). Yields ((k, l), res) per coordinate
    plane, res (P, *ext) holding the P = r(r - 1) / 2 entries [a, b], a < b,
    in np.triu_indices order; nothing for r = 1. parts[j] is d block/dx_j in
    the same layout, or None for finite differences. The d-term is taken on
    the entries gathered once; the wedge is one einsum over g per entry, on
    views of the block."""
    ia, ib = np.triu_indices(block.shape[0], 1)
    if not ia.size:
        return
    upper = block[ia, ib]
    dupper = None if parts is None else [p[ia, ib] for p in parts]
    for k, l in _coordinate_pairs(len(spacing)):
        res = _dform(upper, dupper, spacing, k, l)
        for p, (a, b) in enumerate(zip(ia, ib)):
            res[p] += (_dot(block[a, :, k], block[:, b, l])
                       - _dot(block[a, :, l], block[:, b, k]))
        yield (k, l), res


def _dot(x, y):
    """sum_g x[g] y[g] node by node, for component-major (g, *ext)."""
    return np.einsum("g...,g...->...", x, y)


def _forms(data, *names):
    """The assemble_all arrays `names`, component-major (views, no copy)."""
    nd = data.grid.n
    return {k: _grid_last(v, nd)
            for k, v in assemble_all(data, *names).items()}


# ---------------------------------------------------------------------------
# (A)-(F)


def structure_residual_fields(data: GeometricData,
                              force_fd: bool = False) -> dict:
    """Per-node residual magnitude fields of the six structure equations.

    Keys "A".."F"; the derivative-based equations are zeroed outside the
    interior (the algebraic identity (A) is meaningful everywhere). On a
    1-dimensional chart the 2-form equations (D), (E) and (F) are None:
    there is no coordinate 2-plane to evaluate them on.
    """
    spec, grid = data.spec, data.grid
    n, eps = spec.n, spec.epsilon
    h = grid.spacing
    analytic = _analytic(data, force_fd)

    def dv(name):
        """d/dx_k of a field, component-major; None on FD data, where the
        kernels difference the field itself."""
        return _field_derivatives(data, name) if analytic else None
    inner = interior_mask(grid.extents)
    fields = {}
    et = _pattern(spec.tangent_signs, n)
    eb = _pattern(spec.bundle_signs, n)
    a, a1, _ = data.warp_values()
    rat = a1 / a
    C, T, xi, al, ot, ob, tk = (_grid_last(x, n) for x in (
        data.inv_frame, data.T_comp, data.xi_comp, data.alpha,
        data.omega_tangent, data.omega_bundle, data.coord_T()))

    # (A) algebraic vertical-norm identity.
    fields["A"] = np.abs((et * T * T).sum(axis=0) + (eb * xi * xi).sum(axis=0)
                         - eps)

    # (B) derivative of T.
    axk = np.einsum("ki...,uij...->kju...", C, al)    # alpha(dk, e_j)^u
    dT = np.stack(_derivatives(T, dv("T_comp"), h))
    resB = (dT + np.einsum("jik...,i...->kj...", ot, T)
            - rat * (C - eps * tk[:, None] * T)
            - et * np.einsum("u,u...,kju...->kj...", spec.bundle_signs, xi,
                             axk))
    fields["B"] = np.where(inner, np.abs(resB).max(axis=(0, 1)), 0.0)

    # (C) derivative of xi.  alpha(T, d/dx_k)^u = sum_{i,j} T^i C_kj alpha^u_{ij}
    dxi = np.stack(_derivatives(xi, dv("xi_comp"), h))
    resC = (dxi + np.einsum("vuk...,u...->kv...", ob, xi)
            + (eps * rat * tk)[:, None] * xi
            + np.einsum("i...,kj...,uij...->ku...", T, C, al))
    fields["C"] = np.where(inner, np.abs(resC).max(axis=(0, 1)), 0.0)
    if n < 2:
        return {**fields, "D": None, "E": None, "F": None}

    # (D) Gauss. Tangent curvature from the omega_{ij} block.
    ipe = et * C                             # <d/dx_k, e_j> = eps_j C_kj
    k1, k2 = curvature_coefficients(spec, data.warping, data.pi)
    te = et * T                               # <e_j, T>
    ia, ib = np.triu_indices(n, 1)
    worstD = np.zeros(grid.extents)
    for (k, l), R2 in _curvature_pairs(ot, dv("omega_tangent"), h):
        # R(dk, dl, e_j, e_i) = eps_i R2[i, j], taken at [j, i] = [b, a]
        lhs = et[ia] * R2
        first = ipe[k, ib] * ipe[l, ia] - ipe[l, ib] * ipe[k, ia]
        p = ipe[k] * tk[l] - ipe[l] * tk[k]
        second = p[ib] * te[ia] - te[ib] * p[ia]
        q = np.einsum("u,ju...,iu...->ji...", spec.bundle_signs, axk[k],
                      axk[l])
        aterm = q[ib, ia] - q[ia, ib]
        worstD = np.maximum(worstD, np.abs(
            lhs - (k1 * first + k2 * second - aterm)).max(axis=0))
    fields["D"] = np.where(inner, worstD, 0.0)

    # (E) Codazzi via the covariant derivative of alpha on frame arguments.
    dal = _derivatives(al, dv("alpha"), h)
    Dal = [dal[k]
           + np.einsum("uv...,vij...->uij...", ob[:, :, k], al)
           - np.einsum("li...,ulj...->uij...", ot[:, :, k], al)
           - np.einsum("lj...,uil...->uij...", ot[:, :, k], al)
           for k in range(n)]
    xie = eb * xi
    worstE = np.zeros(grid.extents)
    for k, l in _coordinate_pairs(n):
        lhs = eb * (np.einsum("i...,uij...->ju...", C[k], Dal[l])
                    - np.einsum("i...,uij...->ju...", C[l], Dal[k]))
        rhs = k2 * xie * (tk[k] * ipe[l] - tk[l] * ipe[k])[:, None]
        worstE = np.maximum(worstE, np.abs(lhs - rhs).max(axis=(0, 1)))
    fields["E"] = np.where(inner, worstE, 0.0)

    # (F) Ricci via the omega_{uv} block curvature.
    Aev = np.einsum("j,v,kjv...->kvj...", spec.tangent_signs,
                    spec.bundle_signs, axk)
    Cal = np.einsum("ki...,uji...->kuj...", C, al)
    iu, iv = np.triu_indices(spec.m, 1)
    worstF = np.zeros(grid.extents)
    for (k, l), R2 in _curvature_pairs(ob, dv("omega_bundle"), h):
        # R2[p]: component along e_u of R^E(dk, dl) e_v, (u, v) = (iu, iv)[p]
        for p, (u, v) in enumerate(zip(iu, iv)):
            R2[p] -= _dot(Aev[l, v], Cal[k, u]) - _dot(Aev[k, v], Cal[l, u])
        worstF = np.maximum(worstF, np.abs(R2, out=R2).max(axis=0))
    fields["F"] = np.where(inner, worstF, 0.0)
    return fields


def structure_residuals(data: GeometricData, tol: float | None = None,
                        force_fd: bool = False) -> ResidualReport:
    """Residual report for the six structure equations, keys "A".."F"."""
    return _report(structure_residual_fields(data, force_fd), tol, data,
                   force_fd)


# ---------------------------------------------------------------------------
# aux identities


def aux_identity_fields(data: GeometricData, force_fd: bool = False) -> dict:
    """Per-node residual field of aux4, the torsion-free identity
    dW = -Omega ^ W, zeroed outside the interior; None on a 1-dimensional
    chart, which has no coordinate 2-plane."""
    grid = data.grid
    if data.spec.n < 2:
        return {"aux4": None}
    # Only the tangent rows of W, the coframe, are nonzero.
    tan = slice(1, data.spec.n + 1)
    forms = _forms(data, "Omega", "W")
    Om, W = forms["Omega"][:, tan], forms["W"][tan]
    dW = _coframe_derivatives(data, _analytic(data, force_fd))
    worst = np.zeros(grid.extents)
    for k, l in _coordinate_pairs(data.spec.n):
        res = (np.einsum("ag...,g...->a...", Om[:, :, k], W[:, l])
               - np.einsum("ag...,g...->a...", Om[:, :, l], W[:, k]))
        res[tan] += _dform(W, dW, grid.spacing, k, l)
        worst = np.maximum(worst, np.abs(res, out=res).max(axis=0))
    return {"aux4": np.where(interior_mask(grid.extents), worst, 0.0)}


def aux_identity_residuals(data: GeometricData, tol: float | None = None,
                           force_fd: bool = False) -> ResidualReport:
    """Key aux4; see the module docstring."""
    return _report(aux_identity_fields(data, force_fd), tol, data, force_fd)


def _coframe_derivatives(data, analytic):
    """d/dx_k of the n tangent rows of W (the coframe C^t, coordinate
    components), component-major (n, n, *ext) for every k; None on FD data,
    where _dform differences W itself."""
    if not analytic:
        return None
    return [_grid_last(np.swapaxes(dC, -1, -2), data.spec.n)
            for dC in inv_frame_derivatives(data)]


# ---------------------------------------------------------------------------
# flatness


def flatness_fields(data: GeometricData, force_fd: bool = False) -> dict:
    """Per-node field of d Upsilon + Upsilon ^ Upsilon, zeroed outside the
    interior; None on a 1-dimensional chart, which has no coordinate
    2-plane.

    Upsilon is G-skew, so the residual is taken on the entries a < b of
    its (N+2) x (N+2) block only (see the module docstring). d Upsilon is
    the finite difference of the held Upsilon at those entries, or on
    analytic data the exact dUpsilon/dx_k of assembled_derivatives.
    """
    grid, n = data.grid, data.spec.n
    if n < 2:
        return {"flatness": None}
    Up = _forms(data, "Upsilon")["Upsilon"]
    dUp = assembled_derivatives(data) if _analytic(data, force_fd) else None
    worst = np.zeros(grid.extents)
    for _, res in _curvature_pairs(Up, dUp, grid.spacing):
        np.maximum(worst, np.abs(res, out=res).max(axis=0), out=worst)
    return {"flatness": np.where(interior_mask(grid.extents), worst, 0.0)}


def flatness_residual(data: GeometricData, tol: float | None = None,
                      force_fd: bool = False) -> ResidualReport:
    """d Upsilon + Upsilon ^ Upsilon on all coordinate 2-planes, key
    "flatness"."""
    return _report(flatness_fields(data, force_fd), tol, data, force_fd)
