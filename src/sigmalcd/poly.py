"""Dense univariate polynomials over a Field.

At the boundary a polynomial is a 1-D numpy int16 array of encodings,
little-endian, with no trailing zeros; the zero polynomial is the empty
array.  Every public function takes and returns that form.

Division, gcds, products and the reductions modulo x^m - 1 convert their
arguments once on the way in and their results once on the way out, and run
in between on plain Python values, one representation per characteristic:

- characteristic 2 (`_Slots`): a polynomial over GF(2^e) is one int whose
  bits [i e, (i + 1) e) hold the coefficient of x^i.  Addition is XOR, a
  shift by i e multiplies by x^i, and GF(2) is e = 1.  A multiple c b is the
  XOR over k < e of ((b >> k) & ones) (c x^k), where ones has bit 0 of every
  slot set: each product writes one e-bit constant into every slot without
  carries, so scaling costs e big-int multiplies;
- odd p (`_Digits`): a polynomial over GF(p^e) is one int whose w-bit
  fields [(i e + k) w, (i e + k + 1) w) hold digit k of the coefficient of
  x^i.  Sums and multiples are integer sums and products: w leaves each
  digit room for a multiple's e products below p^2, so no field carries
  into the next, and a reducer then takes every digit back mod p with a
  few big-int operations per halving of the digit bound.

The public add, sub, neg, scale and monic stay single vectorised numpy
operations.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import BadInput, DivisionByZero
from .field import Field

ZERO = np.zeros(0, dtype=np.int16)

# products c * b kept per call of one divisor or factor b: every nonzero c
# up to GF(16), without holding q copies of b for a large field
_CACHED_MULTIPLES = 15


def from_seq(coeffs) -> np.ndarray:
    return trim(np.asarray(list(coeffs), dtype=np.int16))


def trim(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int16)
    if a.ndim != 1:
        a = a.reshape(-1)
    if a.size and a[-1]:
        return a
    nz = np.nonzero(a)[0]
    return a[: int(nz[-1]) + 1] if nz.size else ZERO


def is_zero(a) -> bool:
    a = np.asarray(a, dtype=np.int16).reshape(-1)
    return not (a.size and (a[-1] or a.any()))


def degree(a) -> int:
    """Degree with deg 0 = -1."""
    return trim(a).size - 1


def equal(a, b) -> bool:
    a, b = trim(a), trim(b)
    return a.size == b.size and bool((a == b).all())


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


def monic(F: Field, a) -> np.ndarray:
    a = trim(a)
    if a.size == 0 or a[-1] == 1:
        return a
    return trim(F.mul(F.inv(int(a[-1])), a))


def xm1(F: Field, m: int) -> np.ndarray:
    _check_m(m)
    out = np.zeros(m + 1, dtype=np.int16)
    out[0] = F.neg(1)
    out[m] = 1
    return out


# ---------------------------------------------------------------------------
# the core on plain Python values


def _slots_from_list(coeffs: list, e: int) -> int:
    """Pack coefficients into e-bit slots; halving keeps it O(n log n)."""
    n = len(coeffs)
    if n > 64:
        h = n // 2
        return _slots_from_list(coeffs[:h], e) | (_slots_from_list(coeffs[h:], e) << (h * e))
    v = 0
    for c in reversed(coeffs):
        v = (v << e) | c
    return v


def _slots_to_list(v: int, e: int, n: int) -> list:
    """The n coefficients in the e-bit slots of v."""
    if n > 64:
        h = n // 2
        return _slots_to_list(v & ((1 << (h * e)) - 1), e, h) + _slots_to_list(v >> (h * e), e, n - h)
    mask = (1 << e) - 1
    out = []
    for _ in range(n):
        out.append(v & mask)
        v >>= e
    return out


def _ltrim(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


def _fold(add, coeffs, k: int, m: int) -> list:
    """sum_i c_i x^(i k mod m) as m coefficients, with the scalar add."""
    out = [0] * m
    for i, c in enumerate(coeffs):
        if c:
            j = i * k % m
            out[j] = add(out[j], c)
    return out


class _Slots:
    """Characteristic 2: one int per polynomial, coefficient i in the e-bit
    slot at bit i e."""

    zero, one = 0, 1
    sadd = operator.xor

    def __init__(self, F: Field):
        self.q, self.e = F.q, F.e
        self.exp, self.log, self.inv = F._exp_s, F._log_s, F._inv_s
        self.xk = [F._log_s[1 << k] for k in range(F.e)]  # logs of x^k

    def value(self, coeffs: list) -> int:
        return _slots_from_list(coeffs, self.e)

    def coeffs(self, v: int) -> list:
        e = self.e
        return _slots_to_list(v, e, (v.bit_length() + e - 1) // e)

    def deg(self, v: int) -> int:
        return (v.bit_length() - 1) // self.e

    def lead(self, v: int) -> int:
        return v >> (self.deg(v) * self.e)

    def sub(self, u: int, v: int) -> int:
        return u ^ v

    def multiples(self, b: int):
        """c -> c * b for nonzero c, caching a few products."""
        e = self.e
        if e == 1:
            return lambda c: b
        exp, log, xk = self.exp, self.log, self.xk
        ones = ((1 << ((self.deg(b) + 1) * e)) - 1) // ((1 << e) - 1)
        bits = [(b >> k) & ones for k in range(e)]  # bit k of every slot, moved to bit 0
        cache = {1: b}

        def times(c):
            v = cache.get(c)
            if v is None:
                lc, v = log[c], 0
                for s, lx in zip(bits, xk):
                    v ^= s * exp[lc + lx]
                if len(cache) < _CACHED_MULTIPLES:
                    cache[c] = v
            return v

        return times

    def scale(self, c: int, v: int) -> int:
        return self.multiples(v)(c) if v else 0

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if a.bit_length() > b.bit_length():
            a, b = b, a
        times, e, out = self.multiples(b), self.e, 0
        for i, c in enumerate(self.coeffs(a)):
            if c:
                out ^= times(c) << (i * e)
        return out

    def divmod(self, a: int, b: int):
        e, exp, log = self.e, self.exp, self.log
        db = self.deg(b)
        linv = log[self.inv[b >> (db * e)]]
        times, q = self.multiples(b), 0
        while True:
            da = (a.bit_length() - 1) // e
            if da < db:
                return q, a
            c = exp[log[a >> (da * e)] + linv]
            s = (da - db) * e
            a ^= times(c) << s
            q |= c << s

    def mod_xm1(self, v: int, m: int) -> int:
        w = m * self.e
        low, out = (1 << w) - 1, 0
        while v:
            out ^= v & low
            v >>= w
        return out


class _Digits:
    """Odd p: one int per polynomial, coefficient i in the e w-bit fields
    from bit i e w up, one base-p digit each.  Sums and multiples are plain
    integer sums and products; w leaves each digit room to grow, so no
    field carries into the next, and a reducer then takes every digit back
    mod p with a few big-int operations."""

    zero, one = 0, 1

    def __init__(self, F: Field):
        p, e = F.p, F.e
        self.q, self.p, self.e = F.q, p, e
        # a digit of a multiple c b sums e products below p^2; reducing it
        # takes `top` steps, 2^top p > e (p - 1)^2, and w bits hold 2^top p
        self.top = (e * (p - 1) ** 2 // p).bit_length()
        self.w = w = ((p << self.top) - 1).bit_length()
        self.ew = e * w
        self.exp, self.log, self.inv, self.neg = F._exp_s, F._log_s, F._inv_s, F._neg_s
        self.pack = [sum(d << (k * w) for k, d in enumerate(ds)) for ds in F.digits.tolist()]
        self.enc = {v: x for x, v in enumerate(self.pack)}
        pack, enc, reduce = self.pack, self.enc, self.reducer(1)
        self.sadd = lambda x, y: enc[reduce(pack[x] + pack[y])]
        self.ylogs = [F._log_s[p**k] for k in range(e)]  # logs of y^k, y the class of x

    def value(self, coeffs: list) -> int:
        return _slots_from_list(coeffs if self.e == 1 else [self.pack[c] for c in coeffs], self.ew)

    def coeffs(self, v: int) -> list:
        out = _slots_to_list(v, self.ew, self.deg(v) + 1)
        return out if self.e == 1 else [self.enc[x] for x in out]

    def deg(self, v: int) -> int:
        return (v.bit_length() - 1) // self.ew

    def lead(self, v: int) -> int:
        return self.enc[v >> (self.deg(v) * self.ew)]

    @staticmethod
    def ones(n: int, width: int) -> int:
        """Bit 0 of each of n width-bit fields."""
        return ((1 << (n * width)) - 1) // ((1 << width) - 1)

    def reducer(self, n: int):
        """reduce(u, top) takes every digit of u, of at most n coefficients
        and with digits below 2^top p, back mod p; a sum of two reduced
        values needs top = 1.  Step j subtracts 2^j p from the digits
        d >= 2^j p, those where d + 2^(w-1) - 2^j p has bit w - 1 set."""
        w, p = self.w, self.p
        ones = self.ones(n * self.e, w)
        steps = [(ones * ((1 << (w - 1)) - (p << j)), p << j) for j in range(self.top)]

        def reduce(u, top=1):
            for lift, c in steps[top - 1 :: -1]:
                u -= (((u + lift) >> (w - 1)) & ones) * c
            return u

        return reduce

    def sub(self, u: int, v: int) -> int:
        n = max(self.deg(u), self.deg(v)) + 1
        # every digit of u + p - v lies in 1..2p - 1
        return self.reducer(n)(u + self.ones(n * self.e, self.w) * self.p - v)

    def multiples(self, b: int, reduce=None):
        """c -> c * b for nonzero c, reduced by `reduce` (by default a
        reducer for b), caching a few.  c b = sum_k b_k (c y^k) over the
        digit planes b_k of b: b_k holds digit k of every coefficient in
        its lowest field, and times the packed digits of c y^k fills all e
        fields of each coefficient."""
        w, e, n = self.w, self.e, self.deg(b) + 1
        reduce = reduce or self.reducer(n)
        planes = [b]
        if e > 1:
            digit = self.ones(n, self.ew) * ((1 << w) - 1)
            planes = [(b >> (k * w)) & digit for k in range(e)]
        exp, log, pack, ylogs, top = self.exp, self.log, self.pack, self.ylogs, self.top
        cache = {}

        def times(c):
            v = cache.get(c)
            if v is None:
                lc = log[c]
                v = reduce(sum(b_k * pack[exp[lc + ly]] for b_k, ly in zip(planes, ylogs)), top)
                if len(cache) < _CACHED_MULTIPLES:
                    cache[c] = v
            return v

        return times

    def scale(self, c: int, v: int) -> int:
        return self.multiples(v)(c) if v else 0

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if a.bit_length() > b.bit_length():
            a, b = b, a
        reduce = self.reducer(self.deg(a) + self.deg(b) + 1)
        times, ew, out = self.multiples(b, reduce), self.ew, 0
        for i, c in enumerate(self.coeffs(a)):
            if c:
                out = reduce(out + (times(c) << (i * ew)))
        return out

    def divmod(self, a: int, b: int):
        ew, exp, log, neg, enc, pack = self.ew, self.exp, self.log, self.neg, self.enc, self.pack
        db = self.deg(b)
        lb = log[self.inv[self.lead(b)]]
        reduce = self.reducer(self.deg(a) + 1)
        times, q = self.multiples(b, reduce), 0
        while True:
            da = (a.bit_length() - 1) // ew
            if da < db:
                return q, a
            c = exp[log[enc[a >> (da * ew)]] + lb]
            s = (da - db) * ew
            a = reduce(a + (times(neg[c]) << s))
            q |= pack[c] << s

    def mod_xm1(self, v: int, m: int) -> int:
        w = m * self.ew
        reduce, low, out = self.reducer(m), (1 << w) - 1, 0
        while v:
            out = reduce(out + (v & low))
            v >>= w
        return out


@functools.lru_cache(maxsize=None)
def _core(F: Field):
    return _Slots(F) if F.p == 2 else _Digits(F)


def _coeffs(core, a) -> list:
    """The coefficients of a as ints, checked to be encodings: a negative
    one would pack into a negative int and come back as garbage."""
    coeffs = trim(a).tolist()
    if coeffs and (min(coeffs) < 0 or max(coeffs) >= core.q):
        raise BadInput(f"coefficients must be encodings in 0..{core.q - 1}")
    return coeffs


def _load(core, a):
    return core.value(_coeffs(core, a))


def _array(core, v) -> np.ndarray:
    return np.array(core.coeffs(v), dtype=np.int16) if v else ZERO


def _monic(core, v):
    return core.scale(core.inv[core.lead(v)], v)


def _divmod(core, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    return core.divmod(a, b)


def _egcd(core, a, b):
    """(g, u, v) monic with u*a + v*b = g, on core values."""
    r0, r1 = a, b
    u0, u1 = core.one, core.zero
    v0, v1 = core.zero, core.one
    while r1:
        q, r = core.divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, core.sub(u0, core.mul(q, u1))
        v0, v1 = v1, core.sub(v0, core.mul(q, v1))
    if not r0:
        raise BadInput("gcd of two zero polynomials")
    c = core.inv[core.lead(r0)]
    return tuple(core.scale(c, v) for v in (r0, u0, v0))


def _check_m(m: int) -> None:
    if m < 1:
        raise BadInput(f"x^m - 1 needs m >= 1, got m = {m}")


# ---------------------------------------------------------------------------
# public operations: one conversion in, one out


def mul(F: Field, a, b) -> np.ndarray:
    core = _core(F)
    return _array(core, core.mul(_load(core, a), _load(core, b)))


def divmod_(F: Field, a, b):
    core = _core(F)
    q, r = _divmod(core, _load(core, a), _load(core, b))
    return _array(core, q), _array(core, r)


def mod(F: Field, a, b) -> np.ndarray:
    core = _core(F)
    return _array(core, _divmod(core, _load(core, a), _load(core, b))[1])


def gcd(F: Field, a, b) -> np.ndarray:
    core = _core(F)
    a, b = _load(core, a), _load(core, b)
    if not a and not b:
        raise BadInput("gcd of two zero polynomials")
    while b:
        a, b = b, core.divmod(a, b)[1]
    return _array(core, _monic(core, a))


def egcd(F: Field, a, b):
    """(g, u, v) monic with u*a + v*b = g."""
    core = _core(F)
    return tuple(_array(core, v) for v in _egcd(core, _load(core, a), _load(core, b)))


def inverse_mod(F: Field, a, m) -> np.ndarray | None:
    """Inverse of a modulo m, or None when gcd(a, m) != 1."""
    core = _core(F)
    m = _load(core, m)
    g, u, _ = _egcd(core, _load(core, a), m)
    if core.deg(g) != 0:
        return None
    return _array(core, _divmod(core, u, m)[1])


def mod_xm1(F: Field, a, m: int) -> np.ndarray:
    """Reduce modulo x^m - 1 by folding exponents."""
    _check_m(m)
    core = _core(F)
    return _array(core, core.mod_xm1(_load(core, a), m))


def subst_power_mod(F: Field, a, k: int, m: int) -> np.ndarray:
    """a(x^k) reduced modulo x^m - 1."""
    _check_m(m)
    core = _core(F)
    out = _ltrim(_fold(core.sadd, _coeffs(core, a), k, m))
    return np.array(out, dtype=np.int16) if out else ZERO


def mul_mod_xm1(F: Field, a, b, m: int) -> np.ndarray:
    _check_m(m)
    core = _core(F)
    return _array(core, core.mod_xm1(core.mul(_load(core, a), _load(core, b)), m))
