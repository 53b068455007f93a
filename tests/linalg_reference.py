"""Reference linear algebra used only by the tests, built on `linalg`."""

import numpy as np

from sigmalcd import linalg


def intersect_dim(F, A, B) -> int:
    """dim(rowspace A cap rowspace B) = n - dim(A^perp + B^perp)."""
    n = np.shape(A)[1]
    return n - linalg.sum_dim(F, linalg.nullspace(F, A), linalg.nullspace(F, B))


def solve_right(F, A, b):
    """One solution x of A x = b (columns act), or None if inconsistent."""
    A = np.asarray(A, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16).reshape(-1)
    n = A.shape[1]
    R, piv = linalg.rref(F, np.hstack([A, b.reshape(-1, 1)]))
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int16)
    for i, c in enumerate(piv):
        x[c] = R[i, n]
    return x
