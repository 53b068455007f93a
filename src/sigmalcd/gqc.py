"""Generalized quasi-cyclic codes and their root-of-unity constituents.

A code here is an F_q[x]-submodule of prod_j F_q[x]/(x^{m_j} - 1), stored
flat as a LinearCode of length sum(m_j) that is closed under the
simultaneous cyclic shift of every block.  mu_a sends each block c_j(x) to
c_j(x^a); its complementary-dual / self-orthogonality criteria live on the
constituents C_i = {(c_j(xi^i) delta_{j,i})_j} inside V_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg, poly
from .codes import LinearCode, SemiLinearMap, hull_dim, is_sigma_lcd
from .cyclotomic import CyclotomicContext
from .errors import BadInput, SigmaLcdError
from .field import Field, embedding, field as make_field


def lcm_of(values) -> int:
    return reduce(math.lcm, values, 1)


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
        m = lcm_of(block_lengths)
        rows = []
        for g in gens:
            if len(g) != len(block_lengths):
                raise BadInput(f"generator arity {len(g)} != {len(block_lengths)} blocks")
            base = [poly.mod_xm1(field, poly.from_seq(c), mj) for c, mj in zip(g, block_lengths)]
            for sh in range(m):
                row = np.zeros(sum(block_lengths), dtype=np.int16)
                off = 0
                for c, mj in zip(base, block_lengths):
                    for t, cv in enumerate(c):
                        if cv:
                            row[off + (t + sh) % mj] = cv
                    off += mj
                rows.append(row)
        return cls(field, block_lengths, rows, _trusted=True)

    def block(self, row: np.ndarray, j: int) -> np.ndarray:
        off = self.offsets[j]
        return row[off : off + self.block_lengths[j]]

    def block_polys(self, row: np.ndarray) -> list[np.ndarray]:
        return [poly.trim(self.block(row, j)) for j in range(self.l)]

    def shift_map(self) -> SemiLinearMap:
        perm = np.empty(self.n, dtype=np.int32)
        for off, mj in zip(self.offsets, self.block_lengths):
            t = np.arange(mj)
            perm[off + t] = off + (t + 1) % mj
        return SemiLinearMap.permutation(self.field, perm)

    def mu_map(self, a: int) -> SemiLinearMap:
        m = lcm_of(self.block_lengths)
        a = a % m
        if math.gcd(a, m) != 1:
            raise BadInput(f"a = {a} not invertible modulo {m}")
        perm = np.empty(self.n, dtype=np.int32)
        for off, mj in zip(self.offsets, self.block_lengths):
            t = np.arange(mj)
            perm[off + t] = off + (a * t) % mj
        return SemiLinearMap.permutation(self.field, perm)

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
    ext = ctx.ext
    active = tuple(
        j for j, mj in enumerate(code.block_lengths) if ctx.delta(i, mj)
    )
    k = code.k
    rows = np.zeros((k, code.l), dtype=np.int16)
    for j in active:
        off, mj = code.offsets[j], code.block_lengths[j]
        E = ctx.emb(code.flat.gen[:, off : off + mj]) if k else code.flat.gen[:, off : off + mj]
        pws = ctx.xi_pows[(i * np.arange(mj)) % ctx.m]
        if k:
            rows[:, j] = np.asarray(ext.sum(ext.mul(E, pws[None, :]), axis=1), dtype=np.int16)
    return Constituent(i=i, active=active, basis=linalg.row_space(ext, rows))


def v_dual(code: GqcCode, ctx: CyclotomicContext, con: Constituent) -> Constituent:
    """Dual of the constituent inside V_i under the untwisted product."""
    ext = ctx.ext
    act = list(con.active)
    sub = con.basis[:, act] if act else np.zeros((con.dim, 0), dtype=np.int16)
    nb = linalg.nullspace(ext, sub)
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


def _cons_cache(code: GqcCode, ctx: CyclotomicContext):
    cache: dict[int, Constituent] = {}

    def get(i: int) -> Constituent:
        i = i % ctx.m
        if i not in cache:
            cache[i] = constituent(code, ctx, i)
        return cache[i]

    return get


def _norm_a(ctx: CyclotomicContext, a: int) -> int:
    a = a % ctx.m
    if math.gcd(a, ctx.m) != 1:
        raise BadInput(f"a = {a} not invertible modulo {ctx.m}")
    return a


def _dual_pairs(code: GqcCode, ctx: CyclotomicContext, a: int, all_indices: bool = False):
    """(C_i, (C_{-ai})^perp') at every leader i, or at every i in Z_m."""
    _check_ctx(code, ctx)
    a = _norm_a(ctx, a)
    get = _cons_cache(code, ctx)
    for i in range(ctx.m) if all_indices else ctx.leaders:
        yield get(i), v_dual(code, ctx, get(-a * i))


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
    a = _norm_a(ctx, a)
    get = _cons_cache(code, ctx)
    S: set[int] = set()
    for i in ctx.leaders:
        con = get(i)
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
    block projection is and the joint constituent at i = 0 is Euclidean
    complementary-dual in F_q^l."""
    _check_ctx(code, ctx)
    a = _norm_a(ctx, a)
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
    gram0 = linalg.mat_mul(ctx.ext, G0, G0.T)
    return con0.dim - linalg.rank(ctx.ext, gram0) == 0


# ---------------------------------------------------------------------------
# one-generator criteria


def one_gen_code(field: Field, block_lengths, cvec) -> GqcCode:
    return GqcCode.from_generators(field, block_lengths, [tuple(cvec)])


def _eval_blocks(ctx: CyclotomicContext, block_lengths, cvec, i: int) -> list[int]:
    """delta_{j,i} c_j(xi^i) per block, in the splitting field."""
    out = []
    for c, mj in zip(cvec, block_lengths):
        if ctx.delta(i, mj):
            out.append(ctx.emb.eval_poly(poly.from_seq(c), ctx.eval_point(i)))
        else:
            out.append(0)
    return out


def one_gen_lcd_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    """Complementary-dual test straight from the evaluation criterion: at
    every leader with a nonzero evaluation vector, sum_j delta c_j(xi^i)
    c_j(xi^{-ai}) must be nonzero."""
    a = _norm_a(ctx, a)
    ext = ctx.ext
    for i in ctx.leaders:
        v = _eval_blocks(ctx, block_lengths, cvec, i)
        if not any(v):
            continue
        w = _eval_blocks(ctx, block_lengths, cvec, (-a * i) % ctx.m)
        s = 0
        for vj, wj in zip(v, w):
            s = ext.add(s, ext.mul(vj, wj))
        if s == 0:
            return False
    return True


def one_gen_self_orthogonal_eval(ctx: CyclotomicContext, block_lengths, cvec, a: int = -1) -> bool:
    a = _norm_a(ctx, a)
    ext = ctx.ext
    for i in ctx.leaders:
        v = _eval_blocks(ctx, block_lengths, cvec, i)
        w = _eval_blocks(ctx, block_lengths, cvec, (-a * i) % ctx.m)
        s = 0
        for vj, wj in zip(v, w):
            s = ext.add(s, ext.mul(vj, wj))
        if s != 0:
            return False
    return True


def _qc_m(block_lengths) -> int:
    ms = set(block_lengths)
    if len(ms) != 1:
        raise BadInput(f"quasi-cyclic form needs equal blocks, got {block_lengths}")
    return next(iter(ms))


def _qc_sum_poly(F: Field, block_lengths, cvec, a: int) -> np.ndarray:
    m = _qc_m(block_lengths)
    s = poly.ZERO
    for c in cvec:
        c = poly.mod_xm1(F, poly.from_seq(c), m)
        twisted = poly.subst_power_mod(F, c, (-a) % m, m)
        s = poly.add(F, s, poly.mul_mod_xm1(F, c, twisted, m))
    return s


def one_gen_lcd_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    """Quasi-cyclic form of the criterion:
    gcd(sum_j c_j(x) c_j(x^{-a}), x^m - 1) = gcd(c_1, ..., c_l, x^m - 1)."""
    m = _qc_m(block_lengths)
    xm = poly.xm1(F, m)
    s = _qc_sum_poly(F, block_lengths, cvec, a)
    g1 = xm if poly.is_zero(s) else poly.gcd(F, s, xm)
    g2 = xm
    for c in cvec:
        c = poly.mod_xm1(F, poly.from_seq(c), m)
        if not poly.is_zero(c):
            g2 = poly.gcd(F, g2, c)
    return poly.equal(g1, g2)


def one_gen_self_orthogonal_gcd(F: Field, block_lengths, cvec, a: int = -1) -> bool:
    return poly.is_zero(_qc_sum_poly(F, block_lengths, cvec, a))


def support_sets(ctx: CyclotomicContext, block_lengths, cvec) -> list[set[int]]:
    """S_j = {i in Z_m : c_j(xi^i) != 0}; coset-closed by conjugation."""
    m = _qc_m(block_lengths)
    if m != ctx.m:
        raise BadInput(f"context modulus {ctx.m} != block length {m}")
    out = []
    for c in cvec:
        cc = poly.mod_xm1(ctx.base, poly.from_seq(c), m)
        S: set[int] = set()
        for i in ctx.leaders:
            if ctx.emb.eval_poly(cc, ctx.eval_point(i)) != 0:
                S.update(ctx.cosets[i])
        out.append(S)
    return out


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
    """Maximality gcd(c_1,...,c_l, x^m - 1) = 1, the complementary-dual
    verdict, and for q even, l = 2, m odd the unique canonical generator
    c1 (c1+c2)^{-1} of a maximal complementary-dual code."""
    m = _qc_m(block_lengths)
    xm = poly.xm1(F, m)
    cs = [poly.mod_xm1(F, poly.from_seq(c), m) for c in cvec]
    g = xm
    for c in cs:
        if not poly.is_zero(c):
            g = poly.gcd(F, g, c)
    maximal = poly.degree(g) == 0
    lcd = one_gen_lcd_gcd(F, block_lengths, cvec, a)
    canonical = None
    if F.p == 2 and len(cs) == 2 and m % 2 == 1 and maximal and lcd:
        u = poly.add(F, cs[0], cs[1])
        inv = None if poly.is_zero(u) else poly.inverse_mod(F, u, xm)
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
    if not comps:
        empty = GqcCode(base, (), None)
        return ProductResult(
            code=empty,
            ctx=CyclotomicContext(base, 1),
            dim=0,
            distance_bound=0,
            component_dims=(),
        )
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
        eta = ctx.emb.eval_poly(Hj, zeta)
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
        Rb, pivb = linalg.rref(pf, Bmat)

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
