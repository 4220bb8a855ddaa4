"""Grid derivative helpers.

Fields live on rectangular grids, node-major (*extents, ...) or
component-major (..., *extents); a grid axis is then counted from the back
(axis k of an n-dimensional grid is k - n).
First derivatives are second-order centered in the interior with
second-order one-sided stencils at the boundary (np.gradient, edge_order=2).
Pure second derivatives use the standard three-point stencil; mixed ones
compose first derivatives.
"""

from __future__ import annotations

import numpy as np


def grad1(field, axis, spacing):
    """Second-order first derivative of a field along one grid axis."""
    return np.gradient(field, spacing, axis=axis, edge_order=2)


def grad2_pure(field, axis, spacing):
    """Second derivative along one axis: three-point interior stencil,
    copied inward at the two boundary slices (second-order one-sided)."""
    f = np.asarray(field, dtype=float)
    out = np.empty_like(f)
    fw = np.moveaxis(f, axis, 0)
    ow = np.moveaxis(out, axis, 0)
    h2 = spacing * spacing
    ow[1:-1] = (fw[2:] - 2.0 * fw[1:-1] + fw[:-2]) / h2
    if fw.shape[0] >= 4:
        ow[0] = (2 * fw[0] - 5 * fw[1] + 4 * fw[2] - fw[3]) / h2
        ow[-1] = (2 * fw[-1] - 5 * fw[-2] + 4 * fw[-3] - fw[-4]) / h2
    else:
        ow[0] = ow[1]
        ow[-1] = ow[-2]
    return out


def grad2_mixed(field, axis_a, axis_b, spacing_a, spacing_b):
    return grad1(grad1(field, axis_b, spacing_b), axis_a, spacing_a)


def interior_mask(extents, margin=1):
    """Boolean node mask keeping nodes at least `margin` away from every face."""
    mask = np.ones(tuple(extents), dtype=bool)
    for ax, ext in enumerate(extents):
        sl = [slice(None)] * len(extents)
        take = min(margin, (ext - 1) // 2)
        if take == 0:
            continue
        sl[ax] = slice(0, take)
        mask[tuple(sl)] = False
        sl[ax] = slice(ext - take, ext)
        mask[tuple(sl)] = False
    return mask


class DerivativeSource:
    """Uniform access to field derivatives: analytic when the dataset
    carries them (and analytic mode is not disabled), finite differences
    otherwise."""

    def __init__(self, data, force_fd=False):
        self.data = data
        self.force_fd = force_fd

    @property
    def analytic(self):
        return (not self.force_fd) and bool(self.data.derivs)

    def carries(self, name):
        """True when the derivatives of a named field come from the
        dataset rather than from finite differences."""
        return self.analytic and name in self.data.derivs

    def field(self, name, axis):
        """d/dx_axis of a named field (frame, omega_tangent, ...)."""
        if self.carries(name):
            return self.data.derivs[name][axis]
        arr = getattr(self.data, name)
        return grad1(arr, axis, self.data.grid.spacing[axis])
