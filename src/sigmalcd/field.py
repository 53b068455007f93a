"""Exact arithmetic in small finite fields GF(p^e).

An element of GF(p^e) is its integer encoding sum(c_i * p^i) where
sum(c_i * x^i) is the canonical representative modulo the field's monic
irreducible modulus.  Each op is one int16 `take` gather from the tables
below, whatever its arguments: numpy integer arrays give an int16 array,
plain ints and numpy integer scalars a Python int.  The tables are numpy
arrays only; `poly` keeps its own list copies for its scalar loops.

The default modulus is the least monic irreducible in constant-major order,
found by Ben-Or's test, which needs a gcd and is this module's one use of
`poly`.  The tables come from the companion matrix of the modulus: the least
generator is found by squaring matrices, and exp by doubling.  A degree-1
modulus changes no table, so every GF(p) stores the modulus x.

Tables built once per field drive everything:

- a zero-aware discrete-log pair: exp is doubled so a sum of two logs needs
  no reduction mod q - 1, and log[0] points past it into a zero tail, so
  a * b is the single gather exp[log[a] + log[b]] for every a and b.
  Division, inversion and powering are single gathers too;
- the digits: digits[a] holds the e base-p digits of a.  linalg.mat_mul
  packs g of them into one float word, float32 where its chunks stay long
  (GF(p^2) for 17 <= p <= 61), and multiplies words (Kronecker
  substitution), so a matrix product costs ceil(e / g)^2 times a GF(p)
  one, not e^2.  One word (g = e) serves GF(p^2), p <= 13, and GF(8);
  GF(2^4) takes two, GF(2^12) and GF(3^7) four.  Over GF(p) the word is
  the encoding itself, a float32 one for p <= 251;
- negation, and for odd p with e > 1 a carry-free addition: a's digits
  spread in base 2p - 1, and an unspread table of (2p - 1)^e < 2^e q entries.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadInput, DivisionByZero

MAX_EXTENSION_DEGREE = 16
# tables are O(q) or O(q e), and an odd-p extension field's unspread table
# has (2p - 1)^e < 2^e q entries
MAX_FIELD_SIZE = 4096


def _out(r):
    """A Field op's result: an int16 array from array arguments, a Python
    int from scalar ones, which linalg ANDs into Python big ints."""
    return r.astype(np.int16, copy=False) if isinstance(r, np.ndarray) else int(r)


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def _check_order(p: int, e: int) -> None:
    """Refuse an unsupported p^e, sizes first: trial division of a huge p
    would never finish."""
    if e < 1 or e > MAX_EXTENSION_DEGREE:
        raise BadInput(f"extension degree {e} outside supported 1..{MAX_EXTENSION_DEGREE}")
    if p**e > MAX_FIELD_SIZE:
        raise BadInput(f"field size {p**e} exceeds table-backed limit {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise BadInput(f"p = {p} is not prime")


def _is_irreducible(f, p: int) -> bool:
    """Ben-Or's test of a monic f over GF(p): of degree d >= 2 and with
    f(0) != 0, f is irreducible iff gcd(x^(p^i) - x, f) = 1 for every
    i <= d/2.  h -> h^p is h(x^p) mod f, the coefficients lying in GF(p)."""
    d = len(f) - 1
    if d <= 1 or f[0] == 0:
        return d == 1
    from . import poly  # poly imports Field

    Fp, x = field(p), np.array([0, 1], dtype=np.int16)
    h = x
    for _ in range(d // 2):
        spread = np.zeros(p * (h.size - 1) + 1, dtype=np.int16)
        spread[::p] = h
        h = poly.mod(Fp, spread, f)
        if poly.degree(poly.gcd(Fp, poly.sub(Fp, h, x), f)) > 0:
            return False
    return True


def _row0_pow(M, k: int, p: int):
    """Row 0 of M^k mod p by squaring: the digits of c^k if M is c's matrix."""
    r = np.eye(len(M), dtype=np.int64)[0]
    while k:
        if k & 1:
            r = r @ M % p
        M = M @ M % p
        k >>= 1
    return r


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, e: int) -> tuple:
    """Least monic irreducible of degree e, ordered by coefficient tuple
    with the constant term most significant."""
    for idx in range(p**e):
        c = tuple((idx // p ** (e - 1 - i)) % p for i in range(e)) + (1,)
        if _is_irreducible(c, p):
            return c
    raise AssertionError("no irreducible polynomial found")


class Field:
    """GF(p^e) with table-backed vectorized arithmetic on integer encodings."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        _check_order(p, e)
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            modulus = default_modulus(p, e)  # found irreducible, so not tested again
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise BadInput(f"modulus must be monic of degree {e}, got {modulus}")
            if e > 1 and not _is_irreducible(modulus, p):
                raise BadInput(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus if e > 1 else (0, 1)  # x changes no table of GF(p)

        q, N = self.q, max(self.q - 1, 1)
        self._order = N
        arr = np.arange(q, dtype=np.int64)
        self.digit_weights = np.array([p**i for i in range(e)], dtype=np.int64)
        self.digits = np.stack([(arr // w) % p for w in self.digit_weights], axis=1).astype(np.int16)

        # least generator: row i of the companion matrix C is x^(i+1), so y -> c*y
        # is sum_j c_j C^j; each product sums e terms below p^2 before its mod p
        C = np.eye(e, k=1, dtype=np.int64)
        C[-1] = [-c % p for c in modulus[:-1]]
        X = [np.eye(e, dtype=np.int64)]
        for _ in range(1, e):
            X.append(X[-1] @ C % p)
        X = np.stack(X)
        prims = prime_factors(N)
        for g in range(2, q):
            M = np.tensordot(self.digits[g], X, 1) % p
            if all((_row0_pow(M, N // ell, p) != X[0, 0]).any() for ell in prims):
                break
        else:
            g, M = 1, X[0]  # GF(2): N = 1 has no prime factors
        # block [2^j, 2^(j+1)) of exp is block [0, 2^j) times g^(2^j)
        digits = X[0, :1]
        while len(digits) < N:
            digits = np.concatenate([digits, digits @ M % p])
            M = M @ M % p
        exp = (digits[:N] @ self.digit_weights).tolist()
        self.generator = g

        # zero-aware tables: log[0] points past the doubled exp table into a
        # zero tail, so exp[log[a] + log[b]] is a*b for every a, b (zero
        # included) and every index stays below 4N + 1, inside int16
        log = [2 * N] * q
        for i, x in enumerate(exp):
            log[x] = i
        assert log.count(2 * N) == 1, "generator must have order q - 1"
        self._exp = np.array(exp + exp + [0] * (2 * N + 1), dtype=np.int16)
        self._log = np.array(log, dtype=np.int16)
        self._inv = np.array([0] + [exp[-log[a] % N] for a in range(1, q)], dtype=np.int16)
        self._ilog = self._log[self._inv]  # log of 1/b; b = 0 is rejected before use

        self._neg = (((p - self.digits) % p) @ self.digit_weights).astype(np.int16)
        # odd-p extension fields add carry-free: spread[a] holds a's digits in base
        # r = 2p - 1, so no digit of a sum of two passes 2p - 2, and unspread takes
        # each back mod p; the narrowest dtype that holds r^e gathers fastest
        if p > 2 and e > 1:
            r = 2 * p - 1
            self._spread = (self.digits @ r ** np.arange(e)).astype(np.min_scalar_type(-(r**e)))
            self._unspread = base = np.arange(r, dtype=np.int16) % p
            for k in range(1, e):
                self._unspread = (base[:, None] * np.int16(p**k) + self._unspread).reshape(-1)

    # -- elementwise ops ----------------------------------------------------
    # one int16 gather per op, whatever the arguments; `_out` casts the result

    def add(self, a, b):
        p = self.p
        if p == 2:
            return _out(np.bitwise_xor(a, b, dtype=np.int16))
        if self.e == 1:
            return _out(np.add(a, b, dtype=np.int16) % np.int16(p))
        return _out(self._unspread.take(self._spread.take(a) + self._spread.take(b)))

    def neg(self, a):
        return _out(self._neg.take(a))

    def sub(self, a, b):
        return self.add(a, b if self.p == 2 else self.neg(b))

    def mul(self, a, b):
        return _out(self._exp.take(self._log.take(a) + self._log.take(b)))

    def inv(self, a):
        if not np.asarray(a).all():
            raise DivisionByZero("inverse of zero")
        return _out(self._inv.take(a))

    def div(self, a, b):
        if not np.asarray(b).all():
            raise DivisionByZero("inverse of zero")
        return _out(self._exp.take(self._log.take(a) + self._ilog.take(b)))

    def pow(self, a, k: int):
        """a**k with 0**0 = 1; negative k inverts (errors on zero base)."""
        if k < 0 and not np.asarray(a).all():
            raise DivisionByZero("negative power of zero")
        # log[a] k mod N, but zero, whose log 2N alone has log // N = 2,
        # stays in the zero tail unless k = 0
        N = self._order
        log = self._log.take(a).astype(np.int64)
        return _out(self._exp.take(log * (k % N) % N + log // N * (N if k else 0)))

    def frob(self, a, s: int = 1):
        """Entrywise Frobenius a -> a**(p**s)."""
        return self.pow(a, pow(self.p, s % self.e))

    def sum(self, arr, axis=None):
        arr = np.asarray(arr)
        if not arr.size:  # an empty list is a float64 array, which no op takes
            arr = arr.astype(np.int16)
        if self.p == 2:
            r = np.bitwise_xor.reduce(arr, axis=axis)
        elif self.e == 1:
            r = arr.sum(axis=axis, dtype=np.int64) % self.p
        else:
            ax = range(arr.ndim) if axis is None else np.atleast_1d(axis) % arr.ndim
            ax = tuple(int(i) for i in ax)  # the digit axis comes last
            r = (self.digits.take(arr, axis=0).sum(axis=ax, dtype=np.int64) % self.p) @ self.digit_weights
        return _out(r)

    # -- identity/equality --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@functools.lru_cache(maxsize=None)
def _field_cached(p, e, modulus):
    return Field(p, e, modulus)


def field(p: int, e: int = 1, modulus=None) -> Field:
    """Interned Field factory: one object per field.  A modulus the field
    stores anyway, any monic one of degree 1 or the default one, is dropped
    before the lookup, so no spelling builds a second copy of the tables."""
    if modulus is not None:
        _check_order(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) == e + 1 and modulus[-1] == 1 and (e == 1 or modulus == default_modulus(p, e)):
            modulus = None
    return _field_cached(p, e, modulus)


class Embedding:
    """Field homomorphism GF(p^a) -> GF(p^b) for a | b, by one rule: x goes
    to `root`, the least-encoding root of the small modulus in the big
    field, so table[sum d_i p^i] = sum d_i root^i.  Into itself root is x,
    and for a prime field, whose modulus is x, it is 0: both tables are the
    identity.  `lift` inverts `table` on the image.
    """

    def __init__(self, small: Field, big: Field):
        if small.p != big.p:
            raise BadInput(f"no embedding {small} -> {big}: different characteristic")
        if big.e % small.e != 0:
            raise BadInput(f"no embedding {small} -> {big}: {small.e} does not divide {big.e}")
        self.small = small
        self.big = big
        # the small modulus, monic and split in the big field, by Horner
        z = np.arange(big.q, dtype=np.int16)
        acc = np.ones(big.q, dtype=np.int16)
        for c in reversed(small.modulus[:-1]):
            acc = big.add(big.mul(acc, z), c)
        self.root = int(np.flatnonzero(acc == 0)[0])
        table = np.zeros(small.q, dtype=np.int16)
        pw = 1
        for i in range(small.e):
            table = big.add(table, big.mul(small.digits[:, i], pw))
            pw = big.mul(pw, self.root)
        self.table = table
        inverse = np.full(big.q, -1, dtype=np.int32)
        inverse[table] = np.arange(small.q)
        assert np.count_nonzero(inverse >= 0) == small.q, "embedding must be injective"
        self._inverse = inverse

    def __call__(self, x):
        return _out(self.table.take(x))

    def lift(self, y):
        r = self._inverse.take(y)
        if np.any(r < 0):
            raise BadInput("value outside the embedded subfield")
        return _out(r)

    def eval_poly(self, coeffs, alpha: int) -> int:
        """Evaluate a small-field polynomial (little-endian encodings) at a
        big-field point: sum table[c_i] alpha^i, the powers read off the
        log table."""
        big, c = self.big, self.table.take(np.asarray(coeffs, dtype=np.int64))
        if alpha == 0:
            return int(c[0]) if c.size else 0
        powers = big._exp.take(np.arange(c.size) * int(big._log[alpha]) % big._order)
        return big.sum(big.mul(c, powers))


@functools.lru_cache(maxsize=None)
def embedding(small: Field, big: Field) -> Embedding:
    return Embedding(small, big)
