"""LAPACK-solve reference of warpframe.frame_solver.expm.

The batched exponential by the degree-7 diagonal Pade approximant
r(A) = (V - U)^-1 (V + U), solved through one np.linalg.solve (a pivoted
LU per matrix), as scipy.linalg.expm does at that degree. It is an
independent method: the Taylor kernel of frame_solver.expm is compared
against it matrix by matrix and through the frame sweep.
"""

import numpy as np

from warpframe.frame_solver import _MAX_SQUARINGS

# Pade coefficients b_0 .. b_7 and the largest 1-norm at which the backward
# error stays below the unit roundoff (Higham, "The scaling and squaring
# method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl.
# 26 (2005), Table 2.3).
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
          56.0, 1.0)
_THETA7 = 0.9504178996162932


def expm(K):
    """Matrix exponential of one matrix or a stack (..., M, M).

    Scaling and squaring with the degree-7 diagonal Pade approximant, as in
    scipy.linalg.expm, but vectorized over the stack: each matrix gets its
    own scaling exponent s (the smallest with |K/2^s|_1 <= theta7) and is
    squared s times. It agrees with scipy to roundoff. A diagonal Pade
    approximant maps a G-skew generator onto the group {Z : Z^t G Z = G}.
    Matrices with non-finite entries or a 1-norm beyond about 4e15 (no
    significant digit left) come out NaN, so a blown-up step stays
    non-finite.
    """
    K = np.asarray(K, dtype=float)
    M = K.shape[-1]
    A = K.reshape((-1, M, M))
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.ceil(np.log2(norm / _THETA7))
    bad = ~(s <= _MAX_SQUARINGS)
    s = np.where(bad | (s < 0), 0, s).astype(int)
    A = np.ldexp(np.where(bad[:, None, None], 0.0, A), -s[:, None, None])
    b = _PADE7
    eye = np.eye(M)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    R = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        idx = np.flatnonzero(s > k)
        R[idx] = R[idx] @ R[idx]
    R[bad] = np.nan
    return R.reshape(K.shape)
