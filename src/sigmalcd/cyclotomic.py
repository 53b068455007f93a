"""Cyclotomic structure of x^m - 1 over GF(q).

A CyclotomicContext fixes, deterministically: the splitting field
GF(q^t) with t = ord_m(q) (built over the prime field with the default
modulus), the embedding of the base field into it, the least-encoding
primitive m-th root xi, the q-cyclotomic cosets of Z_m, and minimal
polynomials M_i = prod_{j in coset(i)} (x - xi^j) pulled back to the base
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import BadInput
from .field import MAX_FIELD_SIZE, Field, embedding, field


def mult_order(q: int, m: int) -> int:
    """Multiplicative order of q modulo m (1 for m = 1).

    Only m below MAX_FIELD_SIZE is accepted: q^t = 1 mod m needs q^t > m,
    so a larger m has no splitting field GF(q^t) in range, and its order
    could take up to m steps to find."""
    if m < 1:
        raise BadInput(f"m = {m} must be positive")
    if m >= MAX_FIELD_SIZE:
        raise BadInput(f"m = {m}: a primitive m-th root of unity needs more than m field elements, "
                       f"and fields stop at {MAX_FIELD_SIZE}")
    if m == 1:
        return 1
    if math.gcd(q, m) != 1:
        raise BadInput(f"gcd({q}, {m}) != 1")
    t, acc = 1, q % m
    while acc != 1:
        acc = (acc * q) % m
        t += 1
    return t


class CyclotomicContext:
    def __init__(self, base: Field, m: int):
        self.t = mult_order(base.q, m)  # raises on m out of range and gcd(q, m) != 1
        self.base = base
        self.m = m
        D = base.e * self.t
        self.ext = base if D == base.e else field(base.p, D)
        self.emb = embedding(base, self.ext)

        ext, N = self.ext, self.ext.q - 1
        if m == 1:
            xi = 1
        else:
            idx = np.arange(N, dtype=np.int64)
            orders = N // np.gcd(N, idx)
            cand = ext._exp[idx[orders == m]]
            assert cand.size, "splitting field must contain an order-m element"
            xi = int(cand.min())
        self.xi = xi
        pows = np.empty(m, dtype=np.int16)
        x = 1
        for i in range(m):
            pows[i] = x
            x = ext.mul(x, xi)
        assert x == 1, "xi must have order exactly m"
        self.xi_pows = pows

        leader_of = np.full(m, -1, dtype=np.int64)
        cosets: dict[int, tuple[int, ...]] = {}
        q = base.q
        for i in range(m):
            if leader_of[i] >= 0:
                continue
            orbit = []
            j = i
            while leader_of[j] < 0:
                leader_of[j] = i
                orbit.append(j)
                j = (j * q) % m
            cosets[i] = tuple(sorted(orbit))
        self.leader_of = leader_of
        self.cosets = cosets
        self.leaders = sorted(cosets)
        self._minpolys: dict[int, np.ndarray] = {}

    def coset(self, i: int) -> tuple[int, ...]:
        return self.cosets[int(self.leader_of[i % self.m])]

    def leader(self, i: int) -> int:
        return int(self.leader_of[i % self.m])

    def eval_point(self, i: int) -> int:
        """xi^i in the splitting field."""
        return int(self.xi_pows[i % self.m])

    def delta(self, i: int, block_len: int) -> int:
        """1 when xi^(i*block_len) = 1, else 0."""
        return 1 if (i * block_len) % self.m == 0 else 0

    def conj(self, x: int, k: int = 1) -> int:
        """x -> x^(q^k), the base-field-fixing conjugation."""
        return self.ext.pow(int(x), pow(self.base.q, k, max(self.ext.q - 1, 1)))

    def minimal_poly(self, i: int) -> np.ndarray:
        """M_i over the base field (little-endian encodings)."""
        lead = self.leader(i)
        if lead not in self._minpolys:
            ext = self.ext
            f = poly.from_seq([1])
            for j in self.cosets[lead]:
                f = poly.mul(ext, f, poly.from_seq([ext.neg(self.eval_point(j)), 1]))
            self._minpolys[lead] = np.asarray(self.emb.lift(f), dtype=np.int16)
        return self._minpolys[lead]

    def __repr__(self):
        return f"CyclotomicContext({self.base}, m={self.m}, ext={self.ext})"


@dataclass(frozen=True)
class GammaPartition:
    """Coset leaders split by reciprocity: g0_plus and g0_minus are
    self-reciprocal (xi^i in {1,-1} for the plus part), g1 keeps the least
    leader of each reciprocal pair."""

    g0_plus: tuple[int, ...]
    g0_minus: tuple[int, ...]
    g1: tuple[int, ...]

    @property
    def g0(self) -> tuple[int, ...]:
        return tuple(sorted(self.g0_plus + self.g0_minus))


def gamma_partition(ctx: CyclotomicContext) -> GammaPartition:
    m = ctx.m
    one, minus_one = 1, ctx.ext.neg(1)
    g0, g1 = [], []
    for i in ctx.leaders:
        if (-i) % m in ctx.coset(i):
            g0.append(i)
        elif i < ctx.leader(-i):
            g1.append(i)
    g0_plus = tuple(i for i in g0 if ctx.eval_point(i) in (one, minus_one))
    g0_minus = tuple(i for i in g0 if i not in g0_plus)
    part = GammaPartition(g0_plus=g0_plus, g0_minus=g0_minus, g1=tuple(g1))

    # tiling: the partition's minimal polynomials multiply back to x^m - 1
    F = ctx.base
    prod = poly.from_seq([1])
    for i in part.g0:
        prod = poly.mul(F, prod, ctx.minimal_poly(i))
    for i in part.g1:
        prod = poly.mul(F, prod, ctx.minimal_poly(i))
        prod = poly.mul(F, prod, ctx.minimal_poly(-i))
    assert poly.equal(prod, poly.xm1(F, m)), "partition must tile x^m - 1"
    return part
