"""Block-by-block reference of warpframe.frame_solver._chain.

This is the chain as it was before it checked all block ends in one batch:
the blocks are walked in order, one matmul each, and with the metric G
every full block end goes through pseudo_orthonormalize, which returns its
input unchanged when it is already on the group. It is kept as the
reference the batched walk is compared against, bit for bit.
"""

import numpy as np

from warpframe.frame_solver import _group_defect, pseudo_orthonormalize


def _chain(B0, P, block, G=None):
    """Running products B0 P[0], B0 P[0] P[1], ... of a stack of step
    propagators P (L, *front, M, M), for a front of B0 (*front, M, M).

    The steps are cut into blocks of `block`. The prefix products inside
    every block are formed with `block` batched matmuls across all blocks;
    the blocks are then walked in order, one matmul each. With the metric G
    every full block ends with a re-projection onto the group, that is
    steps `block`, 2 `block`, ... as counted from B0. A block end that
    is non-finite stops the walk without being re-projected; the frames
    after it stay NaN.

    Returns the L frames and the largest group defect seen just before a
    re-projection (0.0 when none happened).
    """
    L = P.shape[0]
    nb = -(-L // block)
    if nb * block > L:
        eye = np.broadcast_to(np.eye(P.shape[-1]), (nb * block - L,)
                              + P.shape[1:])
        P = np.concatenate([P, eye])
    Q = P.reshape((nb, block) + P.shape[1:]).copy()
    for i in range(1, block):
        Q[:, i] = Q[:, i - 1] @ Q[:, i]
    out = np.full(Q.shape, np.nan)
    pre = []
    Bk = B0
    for b in range(nb):
        blk = np.matmul(Bk, Q[b], out=out[b])
        Bk = blk[-1]
        if G is not None and (b + 1) * block <= L:
            if not np.all(np.isfinite(Bk)):
                break
            pre.append(Bk.copy())
            Bk = blk[-1] = pseudo_orthonormalize(Bk, G)
    worst = 0.0
    if pre:
        worst = float(_group_defect(np.stack(pre), np.diag(G))[0].max())
    return out.reshape((nb * block,) + out.shape[2:])[:L], worst
