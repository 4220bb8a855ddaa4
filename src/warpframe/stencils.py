"""Grid derivative helpers.

Fields live on rectangular grids, node-major (*extents, ...) or
component-major (..., *extents); a grid axis is then counted from the back
(axis k of an n-dimensional grid is k - n).
First derivatives are second-order centered in the interior with
second-order one-sided stencils at the boundary (np.gradient, edge_order=2).
Pure second derivatives use the standard three-point stencil; mixed ones
compose first derivatives. interior_mask leaves out the faces, where the
one-sided stencils sit (verifier.judged_nodes).
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


def interior_mask(extents):
    """Boolean node mask without the nodes on the faces of the grid."""
    mask = np.zeros(tuple(extents), dtype=bool)
    mask[(slice(1, -1),) * len(extents)] = True
    return mask
