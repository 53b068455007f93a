"""Generalized quasi-cyclic codes and their root-of-unity constituents.

A code here is an F_q[x]-submodule of prod_j F_q[x]/(x^{m_j} - 1), stored
flat as a LinearCode of length sum(m_j) that is closed under the
simultaneous cyclic shift of every block, with its module generators as
flat rows.  mu_a sends each block c_j(x) to c_j(x^a); its complementary-dual /
self-orthogonality criteria live on the constituents
C_i = {(c_j(xi^i) delta_{j,i})_j} inside V_i.  One evaluator, _evaluate,
gives every c_j(xi^i) that the constituent, evaluation, support-set and
product routes read, and one index map, _block_map, every permutation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .codes import LinearCode, SemiLinearMap, hull_dim, is_sigma_lcd
from .cyclotomic import CyclotomicContext
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
        if not _trusted:
            shifted = self.shift_map().apply(self.flat.gen) if self.flat.k else self.flat.gen
            if linalg.sum_dim(field, self.flat.gen, shifted) != self.flat.k:
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

    def block(self, row: np.ndarray, j: int) -> np.ndarray:
        off = self.offsets[j]
        return row[off : off + self.block_lengths[j]]

    def block_polys(self, row: np.ndarray) -> list[np.ndarray]:
        return [poly.trim(self.block(row, j)) for j in range(self.l)]

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
    return CyclotomicContext(code.field, lcm_of(code.block_lengths))


def _check_ctx(code: GqcCode, ctx: CyclotomicContext):
    if ctx.base != code.field:
        raise BadInput("context base field differs from code field")
    if ctx.m != lcm_of(code.block_lengths):
        raise BadInput(f"context modulus {ctx.m} != lcm of blocks")


# cells in one temporary of the evaluator: generators x indices x block length
_EVAL_CELLS = 2**16


def _evaluate(ctx: CyclotomicContext, block_lengths, G: np.ndarray, indices) -> np.ndarray:
    """E[r, j, s] = delta_{j,i} g_{r,j}(xi^i) in the splitting field at
    i = indices[s], for the generators G as flat rows (blocks reduced mod
    x^{m_j} - 1).  Indices go in chunks so that a temporary holds at most
    _EVAL_CELLS cells, or one index's r x m_j when that alone is more."""
    ext, m = ctx.ext, ctx.m
    idx = np.asarray(indices, dtype=np.int64).reshape(-1) % m
    r = G.shape[0]
    E = np.zeros((r, len(block_lengths), idx.size), dtype=np.int16)
    step = max(1, _EVAL_CELLS // max(1, r * max(block_lengths, default=1)))
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
    _check_ctx(code, ctx)
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
    a = a % m
    if math.gcd(a, m) != 1:
        raise BadInput(f"a = {a} not invertible modulo {m}")
    return a


def _dual_pairs(code: GqcCode, ctx: CyclotomicContext, a: int, all_indices: bool = False):
    """(C_i, (C_{-ai})^perp') at every leader i, or at every i in Z_m."""
    _check_ctx(code, ctx)
    a = _norm_a(ctx.m, a)
    get = functools.cache(lambda i: constituent(code, ctx, i))
    for i in range(ctx.m) if all_indices else ctx.leaders:
        yield get(i), v_dual(code, ctx, get((-a * i) % ctx.m))


def is_mua_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1, all_indices: bool = False) -> bool:
    """C_i cap (C_{-ai})^perp' = 0 at every index (leaders suffice by
    conjugation; all_indices checks the whole of Z_m)."""
    return all(
        not (A.dim and B.dim) or linalg.sum_dim(ctx.ext, A.basis, B.basis) == A.dim + B.dim
        for A, B in _dual_pairs(code, ctx, a, all_indices)
    )


def is_mua_self_orthogonal(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """C_i contained in (C_{-ai})^perp' at every leader."""
    return all(
        not A.dim or linalg.sum_dim(ctx.ext, B.basis, A.basis) == B.dim
        for A, B in _dual_pairs(code, ctx, a)
    )


def is_mua_self_dual(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    return all(np.array_equal(A.basis, B.basis) for A, B in _dual_pairs(code, ctx, a))


def trivial_constituent_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """For codes whose constituents are all {0} or V_i: complementary-dual
    for mu_a iff the support set satisfies S = -aS."""
    _check_ctx(code, ctx)
    a = _norm_a(ctx.m, a)
    S: set[int] = set()
    for i in ctx.leaders:
        con = constituent(code, ctx, i)
        if con.dim not in (0, len(con.active)):
            raise BadInput(
                f"constituent at {i} has dim {con.dim} inside V of dim {len(con.active)}"
            )
        if con.dim:
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


def block_projection(code: GqcCode, j: int) -> GqcCode:
    off, mj = code.offsets[j], code.block_lengths[j]
    return GqcCode(code.field, (mj,), code.flat.gen[:, off : off + mj], _trusted=True)


def cross_block_lcd(code: GqcCode, ctx: CyclotomicContext, a: int = -1) -> bool:
    """For pairwise coprime block lengths: mu_a complementary-dual iff every
    block projection is and the joint constituent at i = 0 is
    complementary-dual in F_q^l under sum_j (m / m_j) x_j y_j."""
    _check_ctx(code, ctx)
    a = _norm_a(ctx.m, a)
    bl = code.block_lengths
    for x in range(len(bl)):
        for y in range(x + 1, len(bl)):
            if math.gcd(bl[x], bl[y]) != 1:
                raise BadInput(f"blocks {bl[x]} and {bl[y]} share a factor")
    for j in range(code.l):
        proj = block_projection(code, j)
        ctx_j = CyclotomicContext(code.field, bl[j])
        if not is_mua_lcd(proj, ctx_j, a):
            return False
    con0 = constituent(code, ctx, 0)
    G0 = con0.basis
    gram0 = linalg.mat_mul(ctx.ext, ctx.ext.mul(G0, _form_weights(ctx, bl)), G0.T)
    return con0.dim - linalg.rank(ctx.ext, gram0) == 0


# ---------------------------------------------------------------------------
# one-generator criteria


def one_gen_code(field: Field, block_lengths, cvec) -> GqcCode:
    return GqcCode.from_generators(field, block_lengths, [tuple(cvec)])


def _eval_pairs(ctx: CyclotomicContext, block_lengths, cvec, a: int):
    """v[j, s] = delta c_j(xi^i) at the s-th leader i, and per leader the sum
    over j of (m / m_j) v_j delta c_j(xi^{-ai})."""
    a = _norm_a(ctx.m, a)
    L = np.asarray(ctx.leaders)
    G = _flat_gens(ctx.base, block_lengths, [cvec])
    E = _evaluate(ctx, block_lengths, G, np.concatenate([L, -a * L]))[0]
    v, w = E[:, : L.size], E[:, L.size :]
    vw = ctx.ext.mul(ctx.ext.mul(v, w), _form_weights(ctx, block_lengths)[:, None])
    return v, ctx.ext.sum(vw, axis=0)


def one_gen_lcd_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    """Complementary-dual test straight from the evaluation criterion: at
    every leader with a nonzero evaluation vector,
    sum_j (m / m_j) delta c_j(xi^i) c_j(xi^{-ai}) must be nonzero."""
    v, s = _eval_pairs(ctx, block_lengths, cvec, a)
    return not np.any(np.any(v, axis=0) & (s == 0))


def one_gen_self_orthogonal_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    return not np.any(_eval_pairs(ctx, block_lengths, cvec, a)[1])


def _qc_m(block_lengths) -> int:
    ms = set(block_lengths)
    if len(ms) != 1:
        raise BadInput(f"quasi-cyclic form needs equal blocks, got {block_lengths}")
    return next(iter(ms))


def _qc_reduced(F: Field, block_lengths, cvec):
    m = _qc_m(block_lengths)
    return m, [poly.mod_xm1(F, poly.from_seq(c), m) for c in cvec]


def _qc_sum_poly(F: Field, m: int, cs, a: int) -> np.ndarray:
    s = poly.ZERO
    for c in cs:
        twisted = poly.subst_power_mod(F, c, (-a) % m, m)
        s = poly.add(F, s, poly.mul_mod_xm1(F, c, twisted, m))
    return s


def _module_gcd(F: Field, m: int, cs) -> np.ndarray:
    """gcd(c_1, ..., c_l, x^m - 1)."""
    return functools.reduce(lambda g, c: g if poly.is_zero(c) else poly.gcd(F, g, c), cs, poly.xm1(F, m))


def _lcd_gcd(F: Field, m: int, cs, a: int, module_gcd: np.ndarray) -> bool:
    xm = poly.xm1(F, m)
    s = _qc_sum_poly(F, m, cs, a)
    return poly.equal(xm if poly.is_zero(s) else poly.gcd(F, s, xm), module_gcd)


def one_gen_lcd_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    """Quasi-cyclic form of the criterion:
    gcd(sum_j c_j(x) c_j(x^{-a}), x^m - 1) = gcd(c_1, ..., c_l, x^m - 1)."""
    m, cs = _qc_reduced(F, block_lengths, cvec)
    return _lcd_gcd(F, m, cs, a, _module_gcd(F, m, cs))


def one_gen_self_orthogonal_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    m, cs = _qc_reduced(F, block_lengths, cvec)
    return poly.is_zero(_qc_sum_poly(F, m, cs, a))


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
    for x in range(len(sets)):
        for y in range(x + 1, len(sets)):
            if sets[x] & sets[y]:
                return False
    return True


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
    m, cs = _qc_reduced(F, block_lengths, cvec)
    g = _module_gcd(F, m, cs)
    maximal = poly.degree(g) == 0
    lcd = _lcd_gcd(F, m, cs, a, g)
    canonical = None
    if (a + 1) % m == 0 and F.p == 2 and len(cs) == 2 and m % 2 == 1 and maximal and lcd:
        u = poly.add(F, cs[0], cs[1])
        inv = None if poly.is_zero(u) else poly.inverse_mod(F, u, poly.xm1(F, m))
        if inv is None:
            raise SigmaLcdError("c1 + c2 is not invertible modulo x^m - 1")
        canonical = poly.mul_mod_xm1(F, cs[0], inv, m)
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


def product_lcd_gqc(base: Field, components) -> ProductResult:
    """Glue Euclidean complementary-dual component codes over GF(q^{t_j})
    into one mu_{-1} complementary-dual code on blocks m_j (repeated r_j
    times), via the cyclic embedding through H_j = (x^{m_j}-1)/M_{m-hat_j}.

    components: iterable of (m_j, r_j, LinearCode over GF(q^{t_j}))."""
    comps = [(int(mj), int(rj), comp) for mj, rj, comp in components]
    mjs = [mj for mj, _, _ in comps]
    if len(set(mjs)) != len(mjs):
        raise BadInput(f"component block lengths must be distinct, got {mjs}")
    m = lcm_of(mjs)
    ctx = CyclotomicContext(base, m)
    ext = ctx.ext
    pf = make_field(base.p)

    block_lengths: list[int] = []
    rows: list[np.ndarray] = []
    comp_dims: list[int] = []
    dist_bound = None
    total_dim = 0
    plans = []
    for mj, rj, comp in comps:
        mhat = m // mj
        tj = len(ctx.coset(mhat))
        want = make_field(base.p, base.e * tj)
        if comp.field != want:
            raise BadInput(f"component for m={mj} must live over {want}, got {comp.field}")
        if comp.n != rj:
            raise BadInput(f"component length {comp.n} != r = {rj}")
        if comp.k and hull_dim(comp, None) != 0:
            raise BadInput(f"component for m={mj} is not Euclidean complementary-dual")
        plans.append((mj, rj, comp, mhat, tj))
        block_lengths.extend([mj] * rj)

    off = 0
    for mj, rj, comp, mhat, tj in plans:
        zeta = ctx.eval_point(mhat)
        minp = ctx.minimal_poly(mhat)
        Hj, rem = poly.divmod_(base, poly.xm1(base, mj), minp)
        assert poly.is_zero(rem), "minimal polynomial must divide x^m_j - 1"
        eta = int(_evaluate(ctx, (mj,), _flat_gens(base, (mj,), [(Hj,)]), [mhat])[0, 0, 0])
        assert eta != 0
        comp_emb = embedding(comp.field, ext)
        # GF(p)-basis of F_q[zeta] inside the splitting field: omega^u zeta^s
        cols = []
        for s in range(tj):
            zs = ext.pow(zeta, s)
            for u in range(base.e):
                wu = ctx.emb(base.p**u) if base.e > 1 else 1
                cols.append(ext.digits[ext.mul(zs, wu)])
        Bmat = np.asarray(cols, dtype=np.int16).T  # (ext.e, e*tj) over GF(p)

        def to_block_poly(gamma_ext: int) -> np.ndarray:
            """gamma in F_q[zeta] -> H_j * r(x) with r(zeta) = gamma/eta."""
            target = ext.digits[ext.div(gamma_ext, eta)].astype(np.int16)
            z = linalg.solve_right(pf, Bmat, target)
            assert z is not None, "element must lie in F_q[zeta]"
            coeffs = [
                base.encode(z[s * base.e : (s + 1) * base.e]) for s in range(tj)
            ]
            return poly.mod_xm1(base, poly.mul(base, Hj, poly.from_seq(coeffs)), mj)

        for row in comp.gen:
            emb_row = [int(comp_emb(int(x))) for x in row]
            for s2 in range(tj):
                mult = ext.pow(zeta, s2)
                flat = np.zeros(sum(block_lengths), dtype=np.int16)
                for c, gamma in enumerate(emb_row):
                    if gamma:
                        f = to_block_poly(ext.mul(gamma, mult))
                        pos = off + c * mj
                        flat[pos : pos + f.size] = f
                rows.append(flat)
        comp_k = comp.k * tj
        comp_dims.append(comp_k)
        total_dim += comp_k
        if comp.k:
            from .oracle import brute_min_distance

            d_comp = brute_min_distance(comp)
            h_code = one_gen_code(base, (mj,), (Hj,))
            d_h = brute_min_distance(h_code.flat)
            cand = d_comp * d_h
            dist_bound = cand if dist_bound is None else min(dist_bound, cand)
        off += rj * mj

    code = GqcCode(base, tuple(block_lengths), rows)
    if code.k != total_dim:
        raise RuntimeError(f"embedded dimension {code.k} != expected {total_dim}")
    if not is_mua_lcd(code, ctx, -1):
        raise RuntimeError("product code failed the mu_-1 complementary-dual check")
    return ProductResult(
        code=code,
        ctx=ctx,
        dim=total_dim,
        distance_bound=0 if dist_bound is None else dist_bound,
        component_dims=tuple(comp_dims),
    )


def divisor_cyclic_codes(ctx: CyclotomicContext):
    """All cyclic codes of length m over the base field, one per subset of
    the irreducible factors of x^m - 1 (generator = product of the subset)."""
    from itertools import combinations

    leaders = ctx.leaders
    for r in range(len(leaders) + 1):
        for subset in combinations(leaders, r):
            g = poly.from_seq([1])
            for i in subset:
                g = poly.mul(ctx.base, g, ctx.minimal_poly(i))
            yield subset, one_gen_code(ctx.base, (ctx.m,), (g,))
