"""Group algebras F_q[G] for finite abelian G, ideals as codes, the
inversion involution, and the idempotent-generator test for the
complementary-dual property."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .codes import LinearCode, SemiLinearMap, gram, hull_dim
from .errors import BadInput
from .field import Field


class AbelianGroup:
    """Direct product of cyclic groups; elements are mixed-radix indices
    with the first factor most significant.

    The tables are built on first use, so |G| can be compared with a code
    length before the |G| x |G| product table exists."""

    def __init__(self, factors):
        self.factors = tuple(int(f) for f in factors)
        if not self.factors or min(self.factors) < 1:
            raise BadInput("cyclic factors must be positive")
        self.order = math.prod(self.factors)
        # the mixed-radix place value of each digit
        places = [math.prod(self.factors[t + 1 :]) for t in range(len(self.factors))]
        self._weights = np.array(places, dtype=np.int64)
        # indices of the r cyclic generators (one nonzero digit each)
        self.generators = tuple(p for f, p in zip(self.factors, places) if f > 1)

    @cached_property
    def digits(self) -> np.ndarray:
        """(order, r): the digits of every element."""
        idx = np.arange(self.order)
        return np.stack([(idx // w) % f for f, w in zip(self.factors, self._weights)], axis=1)

    @cached_property
    def op(self) -> np.ndarray:
        """op[i, j] = index of g_i * g_j."""
        summed = (self.digits[:, None, :] + self.digits[None, :, :]) % np.array(self.factors)
        return (summed * self._weights).sum(axis=2).astype(np.int64)

    @cached_property
    def inv(self) -> np.ndarray:
        """inv[i] = index of g_i^{-1}."""
        return (((-self.digits) % np.array(self.factors)) * self._weights).sum(axis=1).astype(np.int64)

    def index(self, tup) -> int:
        tup = tuple(int(x) for x in tup)
        if len(tup) != len(self.factors):
            raise BadInput(f"tuple arity {len(tup)} != {len(self.factors)}")
        i = 0
        for x, f in zip(tup, self.factors):
            i = i * f + (x % f)
        return i

    def tuple_of(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.digits[i])

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "Z" + "xZ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class GroupAlgebraElement:
    field: Field
    group: AbelianGroup
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int16)
        if c.shape != (self.group.order,):
            raise BadInput(f"coefficient vector must have length {self.group.order}")
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (
            self.field == other.field
            and self.group == other.group
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field, self.group, self.coeffs.tobytes()))


def ga_element(field: Field, group: AbelianGroup, coeffs) -> GroupAlgebraElement:
    return GroupAlgebraElement(field, group, np.asarray(coeffs, dtype=np.int16))


def ga_one(field: Field, group: AbelianGroup) -> GroupAlgebraElement:
    c = np.zeros(group.order, dtype=np.int16)
    c[0] = 1
    return GroupAlgebraElement(field, group, c)


def _check_same(a: GroupAlgebraElement, b: GroupAlgebraElement):
    if a.group != b.group:
        raise BadInput("elements live over different groups")
    if a.field != b.field:
        raise BadInput("elements live over different fields")


def ga_add(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    _check_same(a, b)
    return GroupAlgebraElement(a.field, a.group, a.field.add(a.coeffs, b.coeffs))


def ga_mul(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """a b = sum_i a_i (g_i b): a's coefficients times b's translate matrix."""
    _check_same(a, b)
    out = linalg.mat_mul(a.field, a.coeffs.reshape(1, -1), translate_matrix(b))[0]
    return GroupAlgebraElement(a.field, a.group, out)


def mu_minus1_ga(a: GroupAlgebraElement) -> GroupAlgebraElement:
    return GroupAlgebraElement(a.field, a.group, a.coeffs[a.group.inv])


def mu_sigma(field: Field, group: AbelianGroup) -> SemiLinearMap:
    """Inversion as a coordinate permutation on the flat coefficient vector."""
    perm = np.asarray(group.inv, dtype=np.int32)
    return SemiLinearMap.permutation(field, perm)


def translate_matrix(e: GroupAlgebraElement) -> np.ndarray:
    """Rows g * e for all g, in index order: (g_i e)_t = e_j with
    g_j = g_i^-1 g_t."""
    G = e.group
    return e.coeffs[G.op[G.inv]]


def ideal_from_generator(e: GroupAlgebraElement) -> LinearCode:
    return LinearCode(e.field, e.group.order, translate_matrix(e))


def is_idempotent(e: GroupAlgebraElement) -> bool:
    return np.array_equal(ga_mul(e, e).coeffs, e.coeffs)


def is_ideal(code: LinearCode, group: AbelianGroup) -> bool:
    """Closure under the cyclic generators suffices: they generate G."""
    if code.n != group.order:
        raise BadInput(f"code length {code.n} != |G| = {group.order}")
    if code.k == 0:
        return True
    for g in group.generators:
        shifted = code.gen[:, np.argsort(group.op[g])]
        if linalg.sum_dim(code.field, code.gen, shifted) != code.k:
            return False
    return True


def _require_ideal(code: LinearCode, group: AbelianGroup):
    if not is_ideal(code, group):
        raise BadInput("code is not closed under the group action")


def find_idempotent_generator(code: LinearCode, group: AbelianGroup):
    """Idempotent e with C = F_q[G] e, or None when C is not
    complementary-dual for the inversion map: split 1 = e + f along
    C (+) (mu_{-1} C)^perp and verify both defining properties.  e = y G
    with M^T y^T = G[:, 0] for M = G mu(G)^T, invertible iff C is
    complementary-dual: one elimination of [M^T | G[:, 0]] decides and solves."""
    _require_ideal(code, group)
    F, n, k = code.field, code.n, code.k
    if k == n:
        return ga_one(F, group)
    if k == 0:
        return GroupAlgebraElement(F, group, np.zeros(n, dtype=np.int16))
    M = gram(code, mu_sigma(F, group))
    R, piv = linalg.rref(F, np.hstack([M.T, code.gen[:, :1]]))
    if piv != list(range(k)):
        return None
    e = GroupAlgebraElement(F, group, linalg.mat_vec(F, code.gen.T, R[:k, k]))
    if not is_idempotent(e):
        return None
    if ideal_from_generator(e) != code:
        return None
    return e


def is_abelian_mu1_lcd(code: LinearCode, group: AbelianGroup) -> bool:
    _require_ideal(code, group)
    return hull_dim(code, mu_sigma(code.field, group)) == 0


def enumerate_ideals(field: Field, group: AbelianGroup) -> list[LinearCode]:
    """Every ideal of F_q[G]: principal ideals from all q^n generators,
    then pairwise sums to closure (each ideal is a finite sum of principal
    ones, so this terminates with the complete lattice)."""
    from .oracle import enumerate_codewords

    n = group.order
    full = LinearCode(field, n, np.eye(n, dtype=np.int16))
    seen: dict[bytes, LinearCode] = {}
    for w in enumerate_codewords(full):
        code = ideal_from_generator(GroupAlgebraElement(field, group, w.copy()))
        seen.setdefault(code.gen.tobytes(), code)
    frontier = list(seen.values())
    while frontier:
        fresh = []
        items = list(seen.values())
        for a in frontier:
            for b in items:
                s_gen = linalg.row_space(field, linalg.stack(a.gen, b.gen))
                key = s_gen.tobytes()
                if key not in seen:
                    code = LinearCode(field, n, s_gen)
                    seen[key] = code
                    fresh.append(code)
        frontier = fresh
    return sorted(seen.values(), key=lambda c: (c.k, c.gen.tobytes()))


def idempotents_in(code: LinearCode, group: AbelianGroup) -> list[GroupAlgebraElement]:
    """All idempotent elements of the code, by batched convolution squares
    over the full codeword enumeration."""
    from .oracle import enumerate_codewords

    F, G = code.field, group
    if code.n != G.order:
        raise BadInput(f"code length {code.n} != |G| = {G.order}")
    W = np.stack([w.copy() for w in enumerate_codewords(code)])
    sq = np.zeros_like(W)
    for i in range(G.order):
        col = W[:, i]
        if not col.any():
            continue
        contrib = np.asarray(F.mul(col[:, None], W), dtype=np.int16)
        sq[:, G.op[i]] = F.add(sq[:, G.op[i]], contrib)
    mask = (sq == W).all(axis=1)
    return [GroupAlgebraElement(F, G, W[t].copy()) for t in np.nonzero(mask)[0]]


def cyclic_group(n: int) -> AbelianGroup:
    return AbelianGroup((n,))


def parse_group(text: str) -> AbelianGroup:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        factors = [int(p) for p in parts]
    except ValueError as exc:
        raise BadInput(f"bad group spec {text!r}") from exc
    if not factors:
        raise BadInput("empty group spec")
    return AbelianGroup(factors)
