"""Dense univariate polynomials over a Field.

A polynomial is a 1-D numpy int16 array of encodings, little-endian, with no
trailing zeros; the zero polynomial is the empty array.  Degrees stay small
throughout the package, so coefficient loops are plain Python with field ops
vectorized where it matters.
"""

from __future__ import annotations

import numpy as np

from .errors import BadInput, DivisionByZero
from .field import Field

ZERO = np.zeros(0, dtype=np.int16)


def from_seq(coeffs) -> np.ndarray:
    return trim(np.asarray(list(coeffs), dtype=np.int16))


def trim(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int16).reshape(-1)
    nz = np.nonzero(a)[0]
    return a[: int(nz[-1]) + 1] if nz.size else ZERO


def is_zero(a) -> bool:
    return trim(a).size == 0


def degree(a) -> int:
    """Degree with deg 0 = -1."""
    return trim(a).size - 1


def equal(a, b) -> bool:
    return np.array_equal(trim(a), trim(b))


def add(F: Field, a, b) -> np.ndarray:
    a, b = trim(a), trim(b)
    n = max(a.size, b.size)
    out = np.zeros(n, dtype=np.int16)
    out[: a.size] = a
    out[: b.size] = F.add(out[: b.size], b)
    return trim(out)


def neg(F: Field, a) -> np.ndarray:
    return F.neg(trim(a))


def sub(F: Field, a, b) -> np.ndarray:
    return add(F, a, neg(F, b))


def scale(F: Field, c: int, a) -> np.ndarray:
    return trim(F.mul(int(c), trim(a)))


def mul(F: Field, a, b) -> np.ndarray:
    a, b = trim(a), trim(b)
    if a.size == 0 or b.size == 0:
        return ZERO
    out = np.zeros(a.size + b.size - 1, dtype=np.int16)
    prods = F.mul(a[:, None], b[None, :])
    for i in range(a.size):
        out[i : i + b.size] = F.add(out[i : i + b.size], prods[i])
    return trim(out)


def divmod_(F: Field, a, b):
    a, b = trim(a), trim(b)
    if b.size == 0:
        raise DivisionByZero("polynomial division by zero")
    if a.size < b.size:
        return ZERO, a
    rem = np.array(a, copy=True)
    quo = np.zeros(a.size - b.size + 1, dtype=np.int16)
    inv_lead = F.inv(int(b[-1]))
    for sh in range(a.size - b.size, -1, -1):
        c = F.mul(int(rem[sh + b.size - 1]), inv_lead)
        if c:
            quo[sh] = c
            rem[sh : sh + b.size] = F.sub(rem[sh : sh + b.size], F.mul(c, b))
    return trim(quo), trim(rem)


def mod(F: Field, a, b) -> np.ndarray:
    return divmod_(F, a, b)[1]


def monic(F: Field, a) -> np.ndarray:
    a = trim(a)
    if a.size == 0 or a[-1] == 1:
        return a
    return trim(F.mul(F.inv(int(a[-1])), a))


def gcd(F: Field, a, b) -> np.ndarray:
    a, b = trim(a), trim(b)
    if a.size == 0 and b.size == 0:
        raise BadInput("gcd of two zero polynomials")
    while b.size:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def egcd(F: Field, a, b):
    """(g, u, v) monic with u*a + v*b = g."""
    r0, r1 = trim(a), trim(b)
    u0, u1 = from_seq([1]), ZERO
    v0, v1 = ZERO, from_seq([1])
    while r1.size:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(F, u0, mul(F, q, u1))
        v0, v1 = v1, sub(F, v0, mul(F, q, v1))
    if r0.size == 0:
        raise BadInput("gcd of two zero polynomials")
    lead_inv = F.inv(int(r0[-1]))
    return scale(F, lead_inv, r0), scale(F, lead_inv, u0), scale(F, lead_inv, v0)


def inverse_mod(F: Field, a, m) -> np.ndarray | None:
    """Inverse of a modulo m, or None when gcd(a, m) != 1."""
    g, u, _ = egcd(F, a, m)
    if degree(g) != 0:
        return None
    return mod(F, u, m)


def xm1(F: Field, m: int) -> np.ndarray:
    out = np.zeros(m + 1, dtype=np.int16)
    out[0] = F.neg(1)
    out[m] = 1
    return out


def mod_xm1(F: Field, a, m: int) -> np.ndarray:
    """Reduce modulo x^m - 1 by folding exponents."""
    a = trim(a)
    out = np.zeros(m, dtype=np.int16)
    for i, c in enumerate(a):
        if c:
            out[i % m] = F.add(int(out[i % m]), int(c))
    return trim(out)


def subst_power_mod(F: Field, a, k: int, m: int) -> np.ndarray:
    """a(x^k) reduced modulo x^m - 1."""
    a = trim(a)
    out = np.zeros(m, dtype=np.int16)
    for i, c in enumerate(a):
        if c:
            j = (i * k) % m
            out[j] = F.add(int(out[j]), int(c))
    return trim(out)


def mul_mod_xm1(F: Field, a, b, m: int) -> np.ndarray:
    return mod_xm1(F, mul(F, a, b), m)
