"""Generalized quasi-cyclic codes and their root-of-unity constituents.

A code here is an F_q[x]-submodule of prod_j F_q[x]/(x^{m_j} - 1), stored
flat as a LinearCode of length sum(m_j) that is closed under the
simultaneous cyclic shift of every block, with its module generators as
flat rows.  mu_a sends each block c_j(x) to c_j(x^a).  Its criteria live on
the constituents C_i = {(c_j(xi^i) delta_{j,i})_j} inside V_i, and one
pairing, _pairings, reads them off the generators' evaluations A_i at xi^i,
B_i at xi^{-ai} and P_i = sum_j (m / m_j) A_j B_j^T:
dim(C_i cap (C_{-ai})^perp') = rank A_i - rank P_i, so complementary-dual iff
rank P_i = rank A_i at every leader, self-orthogonal iff every P_i = 0; with
one generator row that is the evaluation criterion.  One evaluator, _evaluate,
gives every c_j(xi^i), and one index map, _block_map, every permutation.
The product construction runs the other way, from values to words: the
inverse transform c_u = m_j^-1 Tr(gamma zeta^-u) gives the word of the
minimal ideal at zeta with value gamma (_ideal_words).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg, poly
from .codes import LinearCode, SemiLinearMap, hull_dim, is_sigma_lcd
from .cyclotomic import CyclotomicContext, context, mult_order
from .errors import BadInput, SigmaLcdError
from .field import Field, embedding, field as make_field


def lcm_of(values) -> int:
    return functools.reduce(math.lcm, values, 1)


def _block_map(block_lengths, a: int, b=0) -> np.ndarray:
    """t -> off_j + (a (t - off_j) + b) mod m_j inside every block j; a
    column of b values gives one map per row."""
    bl = np.asarray(block_lengths, dtype=np.int64)
    mj, off = np.repeat(bl, bl), np.repeat(np.cumsum(bl) - bl, bl)
    return off + (a * (np.arange(mj.size) - off) + b) % mj


def _flat_gens(field: Field, block_lengths, gens) -> np.ndarray:
    """One flat row per generator, each block reduced mod x^{m_j} - 1."""
    G = np.zeros((len(gens), sum(block_lengths)), dtype=np.int16)
    for r, g in enumerate(gens):
        if len(g) != len(block_lengths):
            raise BadInput(f"generator arity {len(g)} != {len(block_lengths)} blocks")
        off = 0
        for c, mj in zip(g, block_lengths):
            c = poly.mod_xm1(field, poly.from_seq(c), mj)
            G[r, off : off + c.size] = c
            off += mj
    return G


class GqcCode:
    """Shift-closed submodule of a product of cyclic quotient rings."""

    def __init__(self, field: Field, block_lengths, rows=None, _trusted=False):
        self.field = field
        self.block_lengths = tuple(int(m) for m in block_lengths)
        if any(m < 1 for m in self.block_lengths):
            raise BadInput("block lengths must be positive")
        for m in self.block_lengths:
            if math.gcd(m, field.q) != 1:
                raise BadInput(f"block length {m} not coprime to q = {field.q}")
        self.n = sum(self.block_lengths)
        self.offsets = tuple(
            sum(self.block_lengths[:j]) for j in range(len(self.block_lengths))
        )
        self.flat = LinearCode(field, self.n, rows)
        # module generators as flat rows; from_generators replaces them
        self.generators = self.flat.gen
        if not _trusted and not self.flat.contains_rows(self.shift_map().apply(self.flat.gen)):
            raise BadInput("rows are not closed under the simultaneous shift")

    @property
    def l(self) -> int:
        return len(self.block_lengths)

    @property
    def k(self) -> int:
        return self.flat.k

    @classmethod
    def from_generators(cls, field: Field, block_lengths, gens) -> "GqcCode":
        block_lengths = tuple(int(m) for m in block_lengths)
        G = _flat_gens(field, block_lengths, gens)
        shifts = np.arange(lcm_of(block_lengths))[:, None]
        rows = G[:, _block_map(block_lengths, 1, -shifts)].reshape(-1, G.shape[1])
        code = cls(field, block_lengths, rows, _trusted=True)
        code.generators = G
        return code

    def shift_map(self) -> SemiLinearMap:
        return SemiLinearMap.permutation(self.field, _block_map(self.block_lengths, 1, 1))

    def mu_map(self, a: int) -> SemiLinearMap:
        a = _norm_a(lcm_of(self.block_lengths), a)
        return SemiLinearMap.permutation(self.field, _block_map(self.block_lengths, a))

    def mu(self, a: int) -> "GqcCode":
        rows = self.mu_map(a).apply(self.flat.gen) if self.k else self.flat.gen
        return GqcCode(self.field, self.block_lengths, rows, _trusted=True)

    def __eq__(self, other):
        if not isinstance(other, GqcCode):
            return NotImplemented
        return self.block_lengths == other.block_lengths and self.flat == other.flat

    def __hash__(self):
        return hash((self.block_lengths, self.flat))

    def __repr__(self):
        return f"GqcCode({self.field}, blocks={self.block_lengths}, k={self.k})"


def context_for(code: GqcCode) -> CyclotomicContext:
    return context(code.field, lcm_of(code.block_lengths))


def _check_ctx(ctx: CyclotomicContext, block_lengths, field: Field | None = None):
    if field is not None and ctx.base != field:
        raise BadInput("context base field differs from code field")
    if ctx.m != lcm_of(block_lengths):
        raise BadInput(f"context modulus {ctx.m} != lcm of blocks")


# cells in one temporary of the evaluator: generators x indices x block length
_EVAL_CELLS = 2**16


def _eval_step(r: int, block_lengths) -> int:
    """Indices per step of the evaluator, for r generators."""
    return max(1, _EVAL_CELLS // max(1, r * max(block_lengths, default=1)))


def _evaluate(ctx: CyclotomicContext, block_lengths, G: np.ndarray, indices) -> np.ndarray:
    """E[r, j, s] = delta_{j,i} g_{r,j}(xi^i) in the splitting field at
    i = indices[s], for the generators G as flat rows (blocks reduced mod
    x^{m_j} - 1).  Indices go in chunks so that a temporary holds at most
    _EVAL_CELLS cells, or one index's r x m_j when that alone is more."""
    ext, m = ctx.ext, ctx.m
    idx = np.asarray(indices, dtype=np.int64).reshape(-1) % m
    r = G.shape[0]
    E = np.zeros((r, len(block_lengths), idx.size), dtype=np.int16)
    step = _eval_step(r, block_lengths)
    off = 0
    for j, mj in enumerate(block_lengths):
        C = ctx.emb(G[:, None, off : off + mj])
        t = np.arange(mj)
        act = np.flatnonzero((idx * mj) % m == 0)
        for s0 in range(0, act.size, step):
            s = act[s0 : s0 + step]
            E[:, j, s] = ext.sum(ext.mul(C, ctx.xi_pows[(idx[s, None] * t) % m]), axis=2)
        off += mj
    return E


@dataclass(frozen=True)
class Constituent:
    """C_i as a matrix of evaluation rows inside V_i (columns = blocks,
    inactive blocks identically zero); basis entries generate over the
    subfield GF(q)[xi^i] and the RREF is taken in the splitting field."""

    i: int
    active: tuple[int, ...]
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def constituent(code: GqcCode, ctx: CyclotomicContext, i: int) -> Constituent:
    _check_ctx(ctx, code.block_lengths, code.field)
    i = i % ctx.m
    active = tuple(
        j for j, mj in enumerate(code.block_lengths) if ctx.delta(i, mj)
    )
    rows = _evaluate(ctx, code.block_lengths, code.generators, [i])[:, :, 0]
    return Constituent(i=i, active=active, basis=linalg.row_space(ctx.ext, rows))


def _form_weights(ctx: CyclotomicContext, block_lengths) -> np.ndarray:
    """(m / m_j) mod p per block.  Block j's Euclidean product is 1/m_j times
    the sum over its active i of x_j(xi^i) y_j(xi^-i), so the flat product
    pairs V_i with V_-i by sum_j (m / m_j) x_j y_j, up to the unit 1/m.
    Equal blocks give all ones."""
    return np.array([(ctx.m // mj) % ctx.base.p for mj in block_lengths], dtype=np.int16)


def v_dual(code: GqcCode, ctx: CyclotomicContext, con: Constituent) -> Constituent:
    """Dual of the constituent inside V_i under sum_j (m / m_j) x_j y_j."""
    ext = ctx.ext
    act = list(con.active)
    nb = linalg.nullspace(ext, ext.mul(con.basis[:, act], _form_weights(ctx, code.block_lengths)[act]))
    B = np.zeros((nb.shape[0], code.l), dtype=np.int16)
    if act:
        B[:, act] = nb
    return Constituent(i=con.i, active=con.active, basis=linalg.row_space(ext, B))


def hermitian_v_dual(code: GqcCode, ctx: CyclotomicContext, con: Constituent) -> Constituent:
    """Dual under sum_j c_j w_j^Q with Q = q^(deg/2); needs even coset size."""
    deg = len(ctx.coset(con.i))
    if deg % 2:
        raise BadInput(f"coset of {con.i} has odd size {deg}")
    Q = ctx.base.q ** (deg // 2)
    eu = v_dual(code, ctx, con)
    B = np.asarray(ctx.ext.pow(eu.basis, Q), dtype=np.int16) if eu.dim else eu.basis
    return Constituent(i=con.i, active=con.active, basis=linalg.row_space(ctx.ext, B))


def _norm_a(m: int, a: int) -> int:
    if math.gcd(a, m) != 1:
        raise BadInput(f"a = {a} not invertible modulo {m}")
    return a % m


def _ranks(ext: Field, S: np.ndarray):
    """Per-slice ranks: one numpy step for one-row slices, else lazily."""
    if S.shape[1] <= 1:
        return S.reshape(len(S), -1).any(axis=1).astype(np.int64)
    return map(functools.partial(linalg.rank, ext), S)


def _pairings(ctx: CyclotomicContext, block_lengths, G: np.ndarray, a: int, indices=None):
    """Chunks (I, A, B, P) over the leaders, or over indices: A[s] and B[s]
    are G's evaluations at I[s] and -a I[s], cut to l RREF rows when G has
    more, and P[s] = sum_j (m / m_j) A[s]_j B[s]_j^T.  y A = 0 forces y P = 0,
    so dim(C_i cap (C_{-ai})^perp') = rank A[s] - rank P[s]."""
    _check_ctx(ctx, block_lengths)
    a, ext, l = _norm_a(ctx.m, a), ctx.ext, len(block_lengths)
    idx = np.asarray(ctx.leaders if indices is None else indices, dtype=np.int64) % ctx.m
    w = _form_weights(ctx, block_lengths)
    step = _eval_step(2 * G.shape[0], block_lengths)  # indices and images in one step
    for s0 in range(0, idx.size, step):
        I = idx[s0 : s0 + step]
        J, seen = -a * I % ctx.m, np.zeros(ctx.m, dtype=bool)
        seen[I] = seen[J] = True
        at = np.cumsum(seen) - 1  # each distinct point evaluated once; at[i] is its row in E
        E = _evaluate(ctx, block_lengths, G, np.flatnonzero(seen)).transpose(2, 0, 1)
        if E.shape[1] > l:
            E = np.stack([linalg.rref(ext, e)[0][:l] for e in E])
        A, B = E[at[I]], E[at[J]]
        yield I, A, B, ext.sum(ext.mul(ext.mul(A, w)[:, :, None], B[:, None]), axis=3)


def _lcd(ctx: CyclotomicContext, block_lengths, G: np.ndarray, a: int, indices=None) -> bool:
    """rank A_i = rank P_i at every leader (or index), up to the first failure."""
    return all(
        all(map(operator.eq, _ranks(ctx.ext, A), _ranks(ctx.ext, P)))
        for _, A, _, P in _pairings(ctx, block_lengths, G, a, indices)
    )


def is_mua_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """C_i cap (C_{-ai})^perp' = 0 at every leader (so at every i, by conjugation)."""
    _check_ctx(ctx, code.block_lengths, code.field)
    return _lcd(ctx, code.block_lengths, code.generators, a)


def is_mua_self_orthogonal(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """C_i contained in (C_{-ai})^perp' at every leader."""
    _check_ctx(ctx, code.block_lengths, code.field)
    return not any(P.any() for *_, P in _pairings(ctx, code.block_lengths, code.generators, a))


def is_mua_self_dual(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """C_i = (C_{-ai})^perp' at every leader: self-orthogonal, and the
    dimensions rank A_i + rank B_i <= dim V_i summed over Z_m give 2k = n."""
    return is_mua_self_orthogonal(code, ctx, a) and 2 * code.k == code.n


def trivial_constituent_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """For codes whose constituents are all {0} or V_i: complementary-dual
    for mu_a iff the support set satisfies S = -aS."""
    _check_ctx(ctx, code.block_lengths, code.field)
    S: set[int] = set()
    for I, A, _, _ in _pairings(ctx, code.block_lengths, code.generators, a):
        for i, dim, dim_v in zip(I, _ranks(ctx.ext, A), (I[:, None] * code.block_lengths % ctx.m == 0).sum(axis=1)):
            if dim not in (0, dim_v):
                raise BadInput(f"constituent at {i} has dim {dim} inside V of dim {dim_v}")
            if dim:
                S.update(ctx.cosets[i])
    return S == {(-a * s) % ctx.m for s in S}


def mu_fixes_code(code: GqcCode, a: int) -> bool:
    """mu_{-a}(C) = C, the third face of the trivial-constituent criterion."""
    m = lcm_of(code.block_lengths)
    return code.mu((-a) % m) == code


def reversal_sigma_lcd(code: GqcCode) -> bool:
    """Cyclic codes only: complementary-dual for the full coordinate
    reversal (a pure permutation, no ring structure needed)."""
    if code.l != 1:
        raise BadInput(f"reversal criterion needs one block, got {code.l}")
    return is_sigma_lcd(code.flat, SemiLinearMap.reversal(code.field, code.n))


def cross_block_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """For pairwise coprime block lengths: mu_a complementary-dual iff every
    block projection is and the joint constituent at i = 0 is
    complementary-dual in F_q^l under sum_j (m / m_j) x_j y_j."""
    _check_ctx(ctx, code.block_lengths, code.field)
    a = _norm_a(ctx.m, a)
    bl = code.block_lengths
    for x, y in combinations(bl, 2):
        if math.gcd(x, y) != 1:
            raise BadInput(f"blocks {x} and {y} share a factor")
    for off, mj in zip(code.offsets, bl):
        if not _lcd(context(code.field, mj), (mj,), code.generators[:, off : off + mj], a):
            return False
    return _lcd(ctx, bl, code.generators, a, [0])


# ---------------------------------------------------------------------------
# one-generator criteria


def one_gen_code(field: Field, block_lengths, cvec) -> GqcCode:
    return GqcCode.from_generators(field, block_lengths, [tuple(cvec)])


def one_gen_lcd_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    """Complementary-dual test straight from the evaluation criterion: at
    every leader with a nonzero evaluation vector,
    sum_j (m / m_j) delta c_j(xi^i) c_j(xi^{-ai}) must be nonzero."""
    return _lcd(ctx, block_lengths, _flat_gens(ctx.base, block_lengths, [cvec]), a)


def one_gen_self_orthogonal_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    G = _flat_gens(ctx.base, block_lengths, [cvec])
    return not any(P.any() for *_, P in _pairings(ctx, block_lengths, G, a))


def _qc_m(block_lengths) -> int:
    ms = set(block_lengths)
    if len(ms) != 1:
        raise BadInput(f"quasi-cyclic form needs equal blocks, got {block_lengths}")
    return next(iter(ms))


def _qc_blocks(F: Field, block_lengths, cvec, a: int):
    """F's packed core, m, a as a unit mod m, and each block c_j and its
    twist c_j(x^-a) reduced mod x^m - 1 as core values: -a is a unit mod m,
    so the twist moves coefficient i to -a i mod m."""
    m, core = _qc_m(block_lengths), poly._core(F)
    blocks = [poly._coeffs(core, c) for c in cvec]
    a = _norm_a(m, a)
    to, cs, twists = (-a * np.arange(m) % m).tolist(), [], []
    for coeffs in blocks:
        if len(coeffs) > m:
            coeffs = core.coeffs(core.mod_xm1(core.value(coeffs), m))
        twisted = [0] * m
        for i, x in zip(to, coeffs):
            twisted[i] = x
        cs.append(core.value(coeffs))
        twists.append(core.value(twisted))
    return core, m, a, cs, twists


def _qc_sum(core, m: int, cs, twists) -> int:
    """sum_j c_j(x) c_j(x^-a) mod x^m - 1."""
    add, s = core.adder(2 * m)[0], 0
    for c, t in zip(cs, twists):
        s = add(s, core.mul(c, t))
    return core.mod_xm1(s, m)


def _qc_gcds(core, m: int, cs, twists) -> tuple[int, bool]:
    """g = gcd(c_1, ..., c_l, x^m - 1) and whether g equals
    h = gcd(sum_j c_j(x) c_j(x^-a), x^m - 1), the criterion.  g divides the
    sum, so g | h | x^m - 1 and g = gcd(h, c_1, ..., c_l): one full-degree
    gcd gives both.  Monic gcds are unique, so they compare as ints."""
    xm = core.value([core.neg[1]] + [0] * (m - 1) + [1])
    h = core.gcd(_qc_sum(core, m, cs, twists), xm)
    g = functools.reduce(core.gcd, cs, h)
    return g, g == h


def one_gen_lcd_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    """Quasi-cyclic form of the criterion:
    gcd(sum_j c_j(x) c_j(x^{-a}), x^m - 1) = gcd(c_1, ..., c_l, x^m - 1)."""
    core, m, _, cs, twists = _qc_blocks(F, block_lengths, cvec, a)
    return _qc_gcds(core, m, cs, twists)[1]


def one_gen_self_orthogonal_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    core, m, _, cs, twists = _qc_blocks(F, block_lengths, cvec, a)
    return not _qc_sum(core, m, cs, twists)


def support_sets(ctx: CyclotomicContext, block_lengths, cvec) -> list[set[int]]:
    """S_j = {i in Z_m : c_j(xi^i) != 0}; coset-closed by conjugation."""
    m = _qc_m(block_lengths)
    if m != ctx.m:
        raise BadInput(f"context modulus {ctx.m} != block length {m}")
    E = _evaluate(ctx, block_lengths, _flat_gens(ctx.base, block_lengths, [cvec]), ctx.leaders)[0]
    return [{s for i, v in zip(ctx.leaders, row) if v for s in ctx.cosets[i]} for row in E]


def disjoint_support_lcd(ctx: CyclotomicContext, block_lengths, cvec) -> bool:
    """Sufficient criterion: pairwise disjoint evaluation supports force the
    mu_{-1} complementary-dual property."""
    sets = support_sets(ctx, block_lengths, cvec)
    return sum(map(len, sets)) == len(set().union(*sets))


@dataclass(frozen=True)
class MaximalCheck:
    lcd: bool
    maximal: bool
    canonical: np.ndarray | None


def maximal_one_gen_check(F: Field, block_lengths, cvec, a: int = -1) -> MaximalCheck:
    """Maximality gcd(c_1,...,c_l, x^m - 1) = 1, the mu_a complementary-dual
    verdict, and for a = -1 (mod m), q even, l = 2, m odd the unique
    canonical generator c1 (c1+c2)^{-1} of a maximal complementary-dual
    code.  The canonical form is a theorem about a = -1 only: for any other
    a, c1 + c2 may be a zero divisor, and canonical is None."""
    core, m, a, cs, twists = _qc_blocks(F, block_lengths, cvec, a)
    g, lcd = _qc_gcds(core, m, cs, twists)
    maximal = core.deg(g) == 0
    canonical = None
    if (a + 1) % m == 0 and F.p == 2 and len(cs) == 2 and m % 2 == 1 and maximal and lcd:
        # c1 + c2 in characteristic 2; p = 2 and m odd let inv_xm1 end
        inv = core.inv_xm1(cs[0] ^ cs[1], m)
        if not inv:
            raise SigmaLcdError("c1 + c2 is not invertible modulo x^m - 1")
        canonical = poly._array(core, core.mod_xm1(core.mul(cs[0], inv), m))
    return MaximalCheck(lcd=lcd, maximal=maximal, canonical=canonical)


# ---------------------------------------------------------------------------
# product construction


@dataclass(frozen=True)
class ProductResult:
    code: GqcCode
    ctx: CyclotomicContext
    dim: int
    distance_bound: int
    component_dims: tuple[int, ...]


def _ideal_words(ctx: CyclotomicContext, mj: int, tj: int, gammas) -> np.ndarray:
    """For each gamma in F_q[zeta] (splitting-field encodings), zeta =
    xi^(m/m_j), the word of length m_j in the minimal ideal of
    F_q[x]/(x^{m_j} - 1) with nonzeros at zeta's coset and value gamma at
    zeta: c_u = m_j^-1 Tr_{F_q[zeta]/F_q}(gamma zeta^-u), by the inverse
    discrete Fourier transform.  gammas may have any shape; the words add
    a last axis of length m_j."""
    ext, base, m = ctx.ext, ctx.base, ctx.m
    x = ext.mul(np.asarray(gammas, dtype=np.int16)[..., None], ctx.xi_pows[-(m // mj) * np.arange(mj) % m])
    tr = ext.sum(np.stack([ext.pow(x, base.q**s) for s in range(tj)]), axis=0)
    return base.mul(ctx.emb.lift(tr), base.inv(mj % base.p))


def product_lcd_gqc(base: Field, components) -> ProductResult:
    """Glue Euclidean complementary-dual component codes over GF(q^{t_j})
    into one mu_{-1} complementary-dual code on blocks m_j (repeated r_j
    times): each entry gamma of a component word, times zeta^s for s < t_j,
    becomes the block word of the minimal ideal with value gamma zeta^s at
    zeta = xi^(m/m_j) (_ideal_words).  The distance bound multiplies each
    component's distance by that ideal's (the span of the words of zeta^s).

    components: iterable of (m_j, r_j, LinearCode over GF(q^{t_j}))."""
    from .oracle import brute_min_distance

    comps = [(int(mj), int(rj), comp) for mj, rj, comp in components]
    mjs = [mj for mj, _, _ in comps]
    if len(set(mjs)) != len(mjs):
        raise BadInput(f"component block lengths must be distinct, got {mjs}")
    # a component of length 0 adds no block, so its m_j stays out of m
    m = lcm_of(mj for mj, rj, _ in comps if rj)
    ctx = context(base, m)

    block_lengths: list[int] = []
    comp_dims: list[int] = []
    plans = []
    for mj, rj, comp in comps:
        tj = mult_order(base.q, mj)  # the size of the coset of m / m_j
        want = make_field(base.p, base.e * tj)
        if comp.field != want:
            raise BadInput(f"component for m={mj} must live over {want}, got {comp.field}")
        if comp.n != rj:
            raise BadInput(f"component length {comp.n} != r = {rj}")
        if comp.k and hull_dim(comp, None) != 0:
            raise BadInput(f"component for m={mj} is not Euclidean complementary-dual")
        comp_dims.append(comp.k * tj)
        if rj:
            plans.append((mj, rj, comp, tj))
            block_lengths.extend([mj] * rj)

    rows = np.zeros((sum(comp_dims), sum(block_lengths)), dtype=np.int16)
    row = off = 0
    dist_bound = None
    for mj, rj, comp, tj in plans:
        zetas = ctx.xi_pows[m // mj * np.arange(tj) % m]
        gammas = ctx.ext.mul(embedding(comp.field, ctx.ext)(comp.gen)[:, None, :], zetas[:, None])
        rows[row : row + comp.k * tj, off : off + rj * mj] = _ideal_words(ctx, mj, tj, gammas).reshape(comp.k * tj, rj * mj)
        if comp.k:
            ideal = LinearCode(base, mj, _ideal_words(ctx, mj, tj, zetas))
            cand = brute_min_distance(comp) * brute_min_distance(ideal)
            dist_bound = cand if dist_bound is None else min(dist_bound, cand)
        row, off = row + comp.k * tj, off + rj * mj

    code = GqcCode(base, tuple(block_lengths), rows)
    if code.k != sum(comp_dims):
        raise SigmaLcdError(f"embedded dimension {code.k} != expected {sum(comp_dims)}")
    if not is_mua_lcd(code, ctx, -1):
        raise SigmaLcdError("product code failed the mu_-1 complementary-dual check")
    return ProductResult(
        code=code,
        ctx=ctx,
        dim=sum(comp_dims),
        distance_bound=0 if dist_bound is None else dist_bound,
        component_dims=tuple(comp_dims),
    )


def divisor_cyclic_codes(ctx: CyclotomicContext):
    """All cyclic codes of length m over the base field, one per subset of
    the irreducible factors of x^m - 1 (generator = product of the subset)."""
    leaders = ctx.leaders
    for r in range(len(leaders) + 1):
        for subset in combinations(leaders, r):
            g = poly.from_seq([1])
            for i in subset:
                g = poly.mul(ctx.base, g, ctx.minimal_poly(i))
            yield subset, one_gen_code(ctx.base, (ctx.m,), (g,))
