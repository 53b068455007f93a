"""Exact vectorized linear algebra over GF(p^e) integer encodings.

Matrices are 2-D numpy int16 arrays of field encodings; every function takes
the Field first.  Reduction is plain Gauss-Jordan with the deterministic
pivot rule: first nonzero entry scanning top to bottom in the leftmost
unfinished column.

mat_mul works over GF(p) through the field's regular representation: each
entry a of the left factor becomes its e x e matrix over GF(p), each entry
of the right factor its e digits, and one float64 matrix product of those
small integers, reduced mod p, gives the digits of the result.  A float64
sum of products is exact while it stays below 2^53, so the inner dimension
is split into pieces of at most (2^53 - p) / (p - 1)^2 terms, each reduced
mod p before the next is added.
"""

from __future__ import annotations

import numpy as np

from .errors import BadInput
from .field import Field


def narrow(values, dtype=np.int16) -> np.ndarray:
    """values as a dtype array; an entry the cast would wrap is BadInput."""
    A = np.asarray(values)
    if A.size and A.dtype != dtype:
        info, lo, hi = np.iinfo(dtype), A.min(), A.max()
        if lo < info.min or hi > info.max:
            raise BadInput(f"entry {hi if hi > info.max else lo} out of range")
    return A.astype(dtype, copy=False)


def as_matrix(rows, n: int | None = None) -> np.ndarray:
    M = narrow(rows)
    if M.ndim == 1:
        M = M.reshape(1, -1) if M.size else M.reshape(0, 0 if n is None else n)
    if M.ndim != 2:
        raise BadInput(f"expected a matrix, got ndim {M.ndim}")
    if n is not None and M.shape[1] != n and M.size:
        raise BadInput(f"expected {n} columns, got {M.shape[1]}")
    if M.size == 0 and n is not None:
        M = M.reshape(-1, n) if n else M.reshape(0, 0)
    return M


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int16)


# a float64 sum of integer products is exact below this
EXACT_LIMIT = 2**53


def _exact_terms(p: int) -> int:
    """Most products of two GF(p) digits that can be summed onto a sum
    already reduced mod p and stay below EXACT_LIMIT."""
    return (EXACT_LIMIT - p) // (p - 1) ** 2


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.int16)
    B = np.asarray(B, dtype=np.int16)
    if A.shape[1] != B.shape[0]:
        raise BadInput(f"cannot multiply {A.shape} by {B.shape}")
    (k, n), m, p, e = A.shape, B.shape[1], F.p, F.e
    # block (i, t) of the (k e) x (n e) left factor is regular[A[i, t]]
    left = F.regular[A].transpose(0, 2, 1, 3).reshape(k * e, n * e).astype(np.float64)
    # row t e + s of the (n e) x m right factor is digit s of row t of B
    right = F.digits[B].transpose(0, 2, 1).reshape(n * e, m).astype(np.float64)
    step = _exact_terms(p)
    acc = np.zeros((k * e, m))
    for lo in range(0, n * e, step):
        acc += left[:, lo : lo + step] @ right[lo : lo + step]
        np.fmod(acc, p, out=acc)
    return (F.digit_weights @ acc.reshape(k, e, m)).astype(np.int16)


def mat_vec(F: Field, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.int16).reshape(-1, 1))[:, 0]


def rref(F: Field, M: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = np.array(M, dtype=np.int16, copy=True)
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r] = F.mul(F.inv(pv), R[r])
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            # row r is zero left of column c, so only columns c.. change
            R[others, c:] = F.sub(R[others, c:], F.mul(R[others, c][:, None], R[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def rank(F: Field, M: np.ndarray) -> int:
    return len(rref(F, M)[1])


def row_space(F: Field, M: np.ndarray) -> np.ndarray:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    R, piv = rref(F, M)
    return R[: len(piv)]


def nullspace(F: Field, M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : M v^T = 0}, one row per free column."""
    M = np.asarray(M, dtype=np.int16)
    n = M.shape[1]
    R, piv = rref(F, M)
    r = len(piv)
    free = [c for c in range(n) if c not in piv]
    B = np.zeros((len(free), n), dtype=np.int16)
    if free:
        B[np.arange(len(free)), free] = 1
        if piv:
            B[:, piv] = F.neg(R[:r][:, free].T)
    return B


def residual(F: Field, R: np.ndarray, pivots, V: np.ndarray) -> np.ndarray:
    """Reduce rows of V against an RREF basis; zero rows lie in the span."""
    V = np.array(V, dtype=np.int16, copy=True)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    for i, c in enumerate(pivots):
        f = V[:, c]
        if np.any(f):
            V[:, c:] = F.sub(V[:, c:], F.mul(f[:, None], R[i, c:][None, :]))
    return V


def in_row_space(F: Field, R: np.ndarray, pivots, v) -> bool:
    return not np.any(residual(F, R, pivots, np.asarray(v, dtype=np.int16)))


def stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.vstack([np.asarray(A, dtype=np.int16), np.asarray(B, dtype=np.int16)])


def sum_dim(F: Field, A: np.ndarray, B: np.ndarray) -> int:
    return rank(F, stack(A, B))


def intersect_dim(F: Field, A: np.ndarray, B: np.ndarray) -> int:
    return rank(F, A) + rank(F, B) - sum_dim(F, A, B)


def intersection(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Canonical basis of rowspace(A) intersect rowspace(B)."""
    dual_sum = stack(nullspace(F, A), nullspace(F, B))
    return row_space(F, nullspace(F, dual_sum))


def solve_right(F: Field, A: np.ndarray, b) -> np.ndarray | None:
    """One solution x of A x = b (columns act), or None if inconsistent."""
    A = np.asarray(A, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise BadInput(f"shape mismatch {A.shape} vs {b.shape}")
    n = A.shape[1]
    R, piv = rref(F, np.hstack([A, b.reshape(-1, 1)]))
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int16)
    for i, c in enumerate(piv):
        x[c] = R[i, n]
    return x
