"""Dense univariate polynomials over a Field.

At the boundary a polynomial is a 1-D numpy int16 array of encodings,
little-endian, with no trailing zeros; the zero polynomial is the empty
array.  Every public function takes and returns that form.

Division, gcds, products and the reductions modulo x^m - 1 convert their
arguments once on the way in and their results once on the way out, and run
in between on one packed int per polynomial (`_Core`).  Over GF(p^e) the
w-bit field [(i e + k) w, (i e + k + 1) w) holds digit k of the coefficient
of x^i, so a shift by i e w multiplies by x^i.  A multiple c b is the sum
over k < e of (c y^k) times the digit plane b_k, which holds digit k of
every coefficient of b in its lowest field; each product writes one packed
constant into every coefficient without carries.  The characteristic
decides only how values add:

- p = 2: digits are single bits (w = 1), so the packing of an encoding is
  the encoding itself and addition is XOR;
- odd p: w leaves each digit room for a multiple's e products below p^2,
  so sums are integer sums, and a reducer then takes every digit back
  mod p with a few big-int operations per halving of the digit bound.

gcd runs Euclid on remainders alone (`_Core.rem`): it builds no quotient,
and each divisor gets one table of the multiples that cancel a leading
coefficient; over GF(2) a step is one XOR of a shifted divisor.

The public add, sub, neg and monic stay single vectorised numpy
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


def _slots_from_list(coeffs: list, width: int) -> int:
    """Pack values into width-bit slots; halving keeps it O(n log n)."""
    n = len(coeffs)
    if n > 64:
        h = n // 2
        return _slots_from_list(coeffs[:h], width) | (_slots_from_list(coeffs[h:], width) << (h * width))
    v = 0
    for c in reversed(coeffs):
        v = (v << width) | c
    return v


def _slots_to_list(v: int, width: int, n: int) -> list:
    """The n values in the width-bit slots of v."""
    if n > 64:
        h = n // 2
        return _slots_to_list(v & ((1 << (h * width)) - 1), width, h) + _slots_to_list(v >> (h * width), width, n - h)
    mask = (1 << width) - 1
    out = []
    for _ in range(n):
        out.append(v & mask)
        v >>= width
    return out


def _ones(n: int, width: int) -> int:
    """Bit 0 of each of n width-bit fields."""
    return ((1 << (n * width)) - 1) // ((1 << width) - 1)


class _Core:
    """One int per polynomial over GF(p^e): digit k of the coefficient of
    x^i in the w-bit field from bit (i e + k) w up, with w = 1 for p = 2."""

    zero, one = 0, 1

    def __init__(self, F: Field):
        p, e = F.p, F.e
        self.q, self.p, self.e = F.q, p, e
        # p = 2 adds by XOR; odd p adds integers, and a digit of a multiple
        # c b sums e products below p^2: reducing it takes `top` steps,
        # 2^top p > e (p - 1)^2, and w bits hold 2^top p
        self.plus, self.top, w = operator.xor, 0, 1
        if p > 2:
            self.plus, self.top = operator.add, (e * (p - 1) ** 2 // p).bit_length()
            w = ((p << self.top) - 1).bit_length()
        self.w, self.ew = w, e * w
        self.exp, self.log, self.inv, self.neg = F._exp_s, F._log_s, F._inv_s, F._neg_s
        self.ylogs = [self.log[p**k] for k in range(e)]  # logs of y^k, y the class of x
        # packing is the identity for one-bit digits or one digit, and pack
        # and enc are then one list; plog takes a packed coefficient to its log
        self.pack = self.enc = list(range(F.q))
        self.plog = self.log
        if w > 1 and e > 1:
            self.pack = [sum(d << (k * w) for k, d in enumerate(ds)) for ds in F.digits.tolist()]
            self.enc = {v: x for x, v in enumerate(self.pack)}
            self.plog = {v: self.log[x] for x, v in enumerate(self.pack)}

    def value(self, coeffs: list) -> int:
        return _slots_from_list(coeffs if self.pack is self.enc else [self.pack[c] for c in coeffs], self.ew)

    def coeffs(self, v: int) -> list:
        out = _slots_to_list(v, self.ew, self.deg(v) + 1)
        return out if self.pack is self.enc else [self.enc[x] for x in out]

    def deg(self, v: int) -> int:
        return (v.bit_length() - 1) // self.ew

    def lead(self, v: int) -> int:
        return self.enc[v >> (self.deg(v) * self.ew)]

    def reducer(self, n: int):
        """reduce(u, top) takes every digit of u, of at most n coefficients
        and with digits below 2^top p, back mod p; a sum of two reduced
        values needs top = 1.  Step j subtracts 2^j p from the digits
        d >= 2^j p, those where d + 2^(w-1) - 2^j p has bit w - 1 set.
        None for p = 2, whose sums need no reducing."""
        if not self.top:
            return None
        w, p = self.w, self.p
        ones = _ones(n * self.e, w)
        steps = [(ones * ((1 << (w - 1)) - (p << j)), p << j) for j in range(self.top)]

        def reduce(u, top=1):
            for lift, c in steps[top - 1 :: -1]:
                u -= (((u + lift) >> (w - 1)) & ones) * c
            return u

        return reduce

    def adder(self, n: int):
        """(add, reduce) for values of at most n coefficients: add(u, v) is
        the reduced u + v, and reduce the reducer (None for p = 2)."""
        if not self.top:
            return self.plus, None
        reduce = self.reducer(n)
        return (lambda u, v: reduce(u + v)), reduce

    def sub(self, u: int, v: int) -> int:
        if self.p == 2:
            return u ^ v
        n = max(self.deg(u), self.deg(v)) + 1
        # every digit of u + p - v lies in 1..2p - 1
        return self.reducer(n)(u + _ones(n * self.e, self.w) * self.p - v)

    def multiples(self, b: int, reduce):
        """c -> c b for nonzero c, caching a few, with `reduce` a reducer
        for b or more.  c b = sum_k b_k (c y^k) over the digit planes b_k
        of b: b_k holds digit k of every coefficient in its lowest field,
        and times the packed digits of c y^k fills all e fields of each
        coefficient."""
        if self.q == 2:
            return lambda c: b
        w, n = self.w, (b.bit_length() - 1) // self.ew + 1
        digit = _ones(n, self.ew) * ((1 << w) - 1)
        planes = [(b >> (k * w)) & digit for k in range(self.e)]
        cache = {1: b}

        def times(c):
            v = cache.get(c)
            if v is None:
                lc, v, exp, pack, plus = self.log[c], 0, self.exp, self.pack, self.plus
                for b_k, ly in zip(planes, self.ylogs):
                    v = plus(v, b_k * pack[exp[lc + ly]])
                if reduce:
                    v = reduce(v, self.top)
                if len(cache) < _CACHED_MULTIPLES:
                    cache[c] = v
            return v

        return times

    def scale(self, c: int, v: int) -> int:
        return self.multiples(v, self.reducer(self.deg(v) + 1))(c) if v else 0

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if a.bit_length() > b.bit_length():
            a, b = b, a
        add, reduce = self.adder(self.deg(a) + self.deg(b) + 1)
        times, ew, out = self.multiples(b, reduce), self.ew, 0
        for i, c in enumerate(self.coeffs(a)):
            if c:
                out = add(out, times(c) << (i * ew))
        return out

    def divmod(self, a: int, b: int):
        ew, exp, plog, pack, neg = self.ew, self.exp, self.plog, self.pack, self.neg
        db = (b.bit_length() - 1) // ew
        lb = self.log[self.inv[self.enc[b >> (db * ew)]]]
        add, reduce = self.adder((a.bit_length() - 1) // ew + 1)
        times, q = self.multiples(b, reduce), 0
        while True:
            da = (a.bit_length() - 1) // ew
            if da < db:
                return q, a
            c = exp[plog[a >> (da * ew)] + lb]
            s = (da - db) * ew
            a = add(a, times(neg[c]) << s)
            q |= pack[c] << s

    def rem(self, a: int, b: int) -> int:
        """a mod b for b != 0, with no quotient: each step adds to a the
        multiple of b that cancels a's leading coefficient, from b's table of
        multiples; over GF(2) that multiple is b itself."""
        if self.q == 2:
            nb = b.bit_length()
            while (s := a.bit_length() - nb) >= 0:
                a ^= b << s
            return a
        ew = self.ew
        db = (b.bit_length() - 1) // ew
        lb = self.log[self.inv[self.enc[b >> (db * ew)]]]
        add, reduce = self.adder((a.bit_length() - 1) // ew + 1)
        times, exp, plog, neg = self.multiples(b, reduce), self.exp, self.plog, self.neg
        while (da := (a.bit_length() - 1) // ew) >= db:
            a = add(a, times(neg[exp[plog[a >> (da * ew)] + lb]]) << ((da - db) * ew))
        return a

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd by remainders alone; 0 when a = b = 0."""
        while b:
            if b.bit_length() <= self.ew:  # a nonzero constant
                return 1
            a, b = b, self.rem(a, b)
        c = self.inv[self.lead(a)] if a else 1
        return a if c == 1 else self.scale(c, a)

    def mod_xm1(self, v: int, m: int) -> int:
        """v modulo x^m - 1: x^(m j) = 1 adds the upper half of v's m-blocks
        onto the lower half, so each round halves their number."""
        while self.deg(v) >= m:
            h = (self.deg(v) // m + 2) // 2 * m
            v = self.adder(h)[0](v & ((1 << (h * self.ew)) - 1), v >> (h * self.ew))
        return v


@functools.lru_cache(maxsize=None)
def _core(F: Field):
    return _Core(F)


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


def mod(F: Field, a, b) -> np.ndarray:
    core = _core(F)
    return _array(core, _divmod(core, _load(core, a), _load(core, b))[1])


def gcd(F: Field, a, b) -> np.ndarray:
    core = _core(F)
    g = core.gcd(_load(core, a), _load(core, b))
    if not g:
        raise BadInput("gcd of two zero polynomials")
    return _array(core, g)


def egcd(F: Field, a, b):
    """(g, u, v) monic with u*a + v*b = g."""
    core = _core(F)
    return tuple(_array(core, v) for v in _egcd(core, _load(core, a), _load(core, b)))


def mod_xm1(F: Field, a, m: int) -> np.ndarray:
    """Reduce modulo x^m - 1 by folding exponents; below degree m, a is
    already reduced and packs into no int."""
    _check_m(m)
    core = _core(F)
    coeffs = _coeffs(core, a)
    if len(coeffs) <= m:
        return np.array(coeffs, dtype=np.int16) if coeffs else ZERO
    return _array(core, core.mod_xm1(core.value(coeffs), m))
