"""Exact vectorized linear algebra over GF(p^e) integer encodings.

Matrices are 2-D numpy int16 arrays of field encodings; every function takes
the Field first.

rref is Gauss-Jordan with one whole-slice update per pivot, R[:, c:] -=
f (x) R[r, c:] over every row, f the pivot column with f[r] = 0.  Over GF(p),
p odd, it is a plain integer subtract, and only what is read (the pivot
column, the pivot row, f) is reduced mod p, the rest once at the end.  A
pivot moves an entry by at most (p - 1)^2, so |entry| < p + min(m, n)
(p - 1)^2: int32 below 2^31, else int64, enough for GF(4093) at any size.
GF(2) is `^= f & row` on uint8; GF(2^e) XORs in products gathered from the
q multiples of the pivot row when q <= m, else one log/exp product.  The
RREF is unique, so the pivot row chosen does not show.  `oracle` keeps the
plain per-column loop as its own kernel.

mat_mul works over GF(p) through the field's regular representation: each
entry a of the left factor becomes its e x e matrix over GF(p), each entry
of the right factor its e digits, and one float64 matrix product of those
small integers, reduced mod p, gives the digits of the result.  A float64
sum of products is exact while it stays below 2^53, so the inner dimension
is split into pieces of at most (2^53 - p) / (p - 1)^2 terms, each reduced
mod p before the next is added.

No subspace intersection lives here: `codes` reads every meet of a code
with a dual off the kernel of a small Gram product.
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


# a float64 sum of integer products is exact below this
EXACT_LIMIT = 2**53


def _exact_terms(p: int) -> int:
    """Most products of two GF(p) digits that can be summed onto a sum
    already reduced mod p and stay below EXACT_LIMIT."""
    return (EXACT_LIMIT - p) // (p - 1) ** 2


def _reduce(acc: np.ndarray, p: int) -> np.ndarray:
    """acc mod p in place, for float64 integers 0 <= acc < 2^53: acc / p is
    at least 1/p below the next integer, more than its rounding error
    acc / (p 2^53), so its floor is the exact quotient."""
    acc -= p * np.floor(acc / p)
    return acc


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
        _reduce(acc, p)
    return (F.digit_weights @ acc.reshape(k, e, m)).astype(np.int16)


def mat_vec(F: Field, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.int16).reshape(-1, 1))[:, 0]


def rref(F: Field, M: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    p, q = F.p, F.q
    lazy = F.e == 1 and p > 2
    m, n = np.shape(M)
    wide = np.int32 if p + min(m, n) * (p - 1) ** 2 < 2**31 else np.int64
    R = np.array(M, dtype=wide if lazy else np.uint8 if q == 2 else np.int16)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        f = R[:, c] % p if lazy else R[:, c].copy()
        pr = r + int(f[r:].argmax())  # any nonzero entry will do
        pv = int(f[pr])
        if pv == 0:
            continue
        if pr != r:  # rows r.. are 0 mod p left of column c
            R[r, c:], R[pr, c:] = R[pr, c:], R[r, c:].copy()
            f[pr] = f[r]
        row = R[r, c:] % p if lazy else R[r, c:]
        if pv != 1:
            row = row * F.inv(pv) % p if lazy else F.mul(F.inv(pv), row)
        R[r, c:] = row
        f[r] = 0
        pivots.append(c)
        r += 1
        if not f.any():
            continue
        # row r is zero left of column c, so only columns c.. change
        if lazy:
            R[:, c:] -= np.multiply.outer(f, row)
        elif q == 2:
            R[:, c:] ^= np.bitwise_and.outer(f, row)
        elif p == 2:
            R[:, c:] ^= np.take(F.mul(np.arange(q)[:, None], row), f, axis=0) if q <= m else F.mul(f[:, None], row)
        else:
            R[:, c:] = F.sub(R[:, c:], F.mul(f[:, None], row))
    if lazy:
        R %= p
    return R.astype(np.int16), pivots


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


def stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.vstack([np.asarray(A, dtype=np.int16), np.asarray(B, dtype=np.int16)])


def sum_dim(F: Field, A: np.ndarray, B: np.ndarray) -> int:
    return rank(F, stack(A, B))
