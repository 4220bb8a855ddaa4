"""Two-path reference of warpframe.frame_solver.path_independence_defect.

This is the probe as it was before it read its first path from the swept
frame field: both extremal monotone lattice paths are walked from B0, each
leg one call of the sweep's kernel _line on the grid line cut to start at
the base index. It is kept as the reference the one-path probe is compared
against.

The frames differ only where a leg's `expm` stack differs. The sweep steps
each axis over its whole line and front in one stack, and this reference
steps the cut line alone, so the two stacks can get different Taylor
degrees (expm picks one degree from the largest step norm in the stack).
The frames at the far corner then differ at roundoff, and the comparisons
allow 1e-12 relative for it.
"""

import numpy as np

from warpframe.frame_solver import _line, assemble_all


def path_independence_defect(data, B0, upsilon=None):
    """Max-entry difference between the frames transported along the two
    extremal monotone lattice paths (axis order 0..n-1 versus reversed)
    from the base node B0 to the far corner."""
    Ups = (upsilon if upsilon is not None
           else assemble_all(data, "Upsilon")["Upsilon"])
    grid, n = data.grid, data.spec.n
    ends = []
    for order in (range(n), reversed(range(n))):
        B, cur = np.asarray(B0, dtype=float), tuple(grid.base_node)
        for axis in order:
            line = cur[:axis] + (slice(cur[axis], None),) + cur[axis + 1:]
            B = _line(B, Ups, grid, line, axis, data.spec.G)[0][-1]
            cur = cur[:axis] + (grid.extents[axis] - 1,) + cur[axis + 1:]
        ends.append(B)
    return float(np.abs(ends[0] - ends[1]).max())
