"""Group algebras F_q[G] for finite abelian G, ideals as codes, the
inversion involution, and the idempotent-generator test for the
complementary-dual property: on a semisimple F_q[G] whose splitting field
is in range, every ideal is complementary-dual and its idempotent is the sum
of the orbit idempotents it contains; otherwise one Gram solve finds it."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .codes import DEFAULT_MAX_WORDS, LinearCode, SemiLinearMap, gram, hull_dim
from .cyclotomic import context, mult_order
from .errors import BadInput, BudgetExceeded
from .field import MAX_FIELD_SIZE, Field

MAX_GROUP_ORDER = 4096  # the largest |G| whose |G| x |G| int64 table is built: 128 MiB


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
        """op[i, j] = index of g_i * g_j, summed one digit at a time so that
        every temporary is the size of the table, not r times it."""
        if self.order > MAX_GROUP_ORDER:
            raise BadInput(f"group order {self.order} exceeds table-backed limit {MAX_GROUP_ORDER}")
        out = np.zeros((self.order, self.order), dtype=np.int64)
        for d, f, w in zip(self.digits.T, self.factors, self._weights):
            out += (d[:, None] + d) % f * w
        return out

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
    return all(code.contains_rows(code.gen[:, group.op[group.inv[g]]]) for g in group.generators)


def _require_ideal(code: LinearCode, group: AbelianGroup):
    if not is_ideal(code, group):
        raise BadInput("code is not closed under the group action")


def orbit_idempotents(field: Field, group: AbelianGroup):
    """The primitive idempotents of a semisimple F_q[G], one row per q-orbit
    O of u -> q u on G, in the order of the orbits' least elements, or None
    when gcd(q, |G|) != 1 or x^L - 1 does not split in range.  With xi the
    context's primitive L-th root and <u, g> = sum_t u_t g_t (L / f_t) mod L,
    e_O(g) = |G|^-1 sum_{s < |O|} xi^(-q^s <u0, g>) for the least u0 in O.
    The last _CACHED_ALGEBRAS results are kept, read-only and shared."""
    q, L = field.q, math.lcm(*group.factors)
    if group.order % field.p == 0 or L >= MAX_FIELD_SIZE or q ** mult_order(q, L) > MAX_FIELD_SIZE:
        return None
    return _orbit_idempotents(field, group.factors)


# algebras whose orbit idempotents are kept; keyed by the group's factors,
# so no cached result holds a group's |G| x |G| table
_CACHED_ALGEBRAS = 32


@lru_cache(maxsize=_CACHED_ALGEBRAS)
def _orbit_idempotents(field: Field, factors: tuple[int, ...]) -> np.ndarray:
    group = AbelianGroup(factors)
    n, q, L = group.order, field.q, math.lcm(*group.factors)
    ctx = context(field, L)
    ext, idx, f = ctx.ext, np.arange(n), np.array(group.factors)
    step = (group.digits * q % f) @ group._weights  # the index of q u
    orbit, lead, size = idx, idx, np.zeros(n, dtype=np.int64)
    for s in range(1, ctx.t + 1):
        orbit = step[orbit]
        lead = np.minimum(lead, orbit)
        size[(size == 0) & (orbit == idx)] = s
    leaders = np.flatnonzero(lead == idx)
    pairing = group.digits[leaders] * (L // f) @ group.digits.T % L
    acc = np.zeros(pairing.shape, dtype=np.int16)
    for s in range(ctx.t):
        live = s < size[leaders, None]
        acc = ext.add(acc, np.where(live, ctx.xi_pows.take(-pow(q, s, L) * pairing % L), 0))
    V = ctx.emb.lift(ext.mul(acc, ext.inv(n % field.p)))
    V.flags.writeable = False
    return V


def find_idempotent_generator(code: LinearCode, group: AbelianGroup):
    """Idempotent e with C = F_q[G] e, or None when C is not
    complementary-dual for the inversion map.  On a semisimple algebra
    whose splitting field is in range, e is the sum of the orbit idempotents
    e_O in C: G is in RREF, so v lies in C exactly when v = v[pivots] G, and
    one product of the stacked e_O against G picks them.  Otherwise split
    1 = e + f along C (+) (mu_{-1} C)^perp: e = y G with M^T y^T = G[:, 0]
    for M = G mu(G)^T, invertible iff C is complementary-dual, so one
    elimination of [M^T | G[:, 0]] decides and solves.  Either way one
    product checks e: C being an ideal holding e, g e = g for every row g
    of G exactly when e is idempotent and F_q[G] e = C, and two words of C
    agree once they agree at the pivots, where G is the identity, so
    (G T(e))[:, pivots] = I, T(e) the translate matrix, checks both."""
    _require_ideal(code, group)
    F, n, k = code.field, code.n, code.k
    if k == n:
        return ga_one(F, group)
    if k == 0:
        return GroupAlgebraElement(F, group, np.zeros(n, dtype=np.int16))
    V = orbit_idempotents(F, group)
    if V is not None:
        inside = (linalg.mat_mul(F, V[:, code.pivots], code.gen) == V).all(axis=1)
        e = GroupAlgebraElement(F, group, F.sum(V[inside], axis=0))
    else:
        M = gram(code, mu_sigma(F, group))
        R, piv = linalg.rref(F, np.hstack([M.T, code.gen[:, :1]]))
        if piv != list(range(k)):
            return None
        e = GroupAlgebraElement(F, group, linalg.mat_vec(F, code.gen.T, R[:k, k]))
    if not np.array_equal(linalg.mat_mul(F, code.gen, translate_matrix(e)[:, code.pivots]), np.eye(k)):
        return None
    return e


def is_abelian_mu1_lcd(code: LinearCode, group: AbelianGroup) -> bool:
    _require_ideal(code, group)
    return hull_dim(code, mu_sigma(code.field, group)) == 0


def _socle(field: Field, group: AbelianGroup, sylow: list[int], I: LinearCode) -> np.ndarray:
    """soc(F_q[G]/I) = {w : (h - 1) w in I for h in sylow}, reduced modulo I
    (zero at I's pivots) and in RREF.  For I's parity checks H,
    H (h w) = H[:, op[h]] w, so it is the kernel of every H[:, op[h]] - H."""
    H = linalg.nullspace(field, I.gen)
    checks = field.sub(H[:, group.op[sylow]], H[:, None]).reshape(-1, group.order)
    W = linalg.nullspace(field, checks)
    return linalg.row_space(field, field.sub(W, linalg.mat_mul(field, W[:, I.pivots], I.gen)))


def enumerate_ideals(field: Field, group: AbelianGroup) -> list[LinearCode]:
    """Every ideal of F_q[G], by (k, generator bytes), walking up from {0}
    through steps I -> I + F_q[G] w, w in soc(F_q[G]/I): every ideal tops a
    series of them.  rad F_q[G] is (h - 1 : h generating the Sylow
    p-subgroup) (Passman 1977), so the socle is one kernel against I's
    parity checks.  A semisimple algebra's ideals are all one step up, and
    with orbit idempotents the 2^s sums of them are the only w needed.
    DEFAULT_MAX_WORDS bounds the words the walk draws from (the 2^s sums,
    else F_q^n) before anything is built."""
    n, q, p = group.order, field.q, field.p
    # the sums need q^t <= MAX_FIELD_SIZE, and orbits of at most t points
    # give q^n <= (q^t)^s: past MAX_FIELD_SIZE^(budget's bit length), 2^s is over it
    fits = q**n <= MAX_FIELD_SIZE ** DEFAULT_MAX_WORDS.bit_length()
    V = orbit_idempotents(field, group) if fits else None
    pool = q**n if V is None else 2 ** len(V)
    if pool > DEFAULT_MAX_WORDS:
        raise BudgetExceeded(f"{pool} generators exceed budget {DEFAULT_MAX_WORDS}")
    # h = g_t^(f_t / p^v) for each cyclic factor f_t = p^v m, p | f_t
    sylow = [f // math.gcd(f, p**f.bit_length()) * w for f, w in zip(group.factors, group._weights) if f % p == 0]
    T = group.op[group.inv]  # w[T] is the translate matrix of w
    todo = [LinearCode(field, n)]
    seen = {todo[0].gen.tobytes(): todo[0]}
    for I in todo if sylow else todo[:1]:  # todo grows as ideals are found
        B, b = (V, 2) if V is not None else (_socle(field, group, sylow, I), q)  # V: 0/1 sums only
        for c in itertools.product(range(b), repeat=len(B)):
            if next((x for x in c if x), 0) != 1:  # one word per line: its lead digit is 1
                continue
            w = linalg.mat_vec(field, B.T, c)
            J = LinearCode(field, n, linalg.stack(I.gen, w[T]))
            if seen.setdefault(J.gen.tobytes(), J) is J:
                todo.append(J)
    return sorted(seen.values(), key=lambda c: (c.k, c.gen.tobytes()))


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
