import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import gqc, oracle, poly
from sigmalcd.codes import LinearCode
from sigmalcd.cyclotomic import CyclotomicContext
from sigmalcd.errors import BadInput
from sigmalcd.field import field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F9 = field(3, 2)

ONE = poly.from_seq([1])
X = poly.from_seq([0, 1])
X1 = poly.from_seq([1, 1])


def rand_gqc(F, blocks, rng, ngen=1):
    gens = [
        tuple([int(rng.integers(0, F.q)) for _ in range(mj)] for mj in blocks)
        for _ in range(ngen)
    ]
    return gqc.GqcCode.from_generators(F, blocks, gens)


def coprime_units(m):
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


# ------------------------------------------------------------ construction


def test_block_length_coprime_to_q():
    with pytest.raises(BadInput, match="block length 4 not coprime to q = 2"):
        gqc.GqcCode(F2, (4,), None)
    with pytest.raises(BadInput, match="block length 3 not coprime to q = 3"):
        gqc.GqcCode(F3, (3, 5), None)


def test_from_generators_shift_closure():
    code = gqc.GqcCode.from_generators(F2, (3,), [([1, 1, 0],)])
    # <1+x> in F2[x]/(x^3-1) has dimension 2
    assert code.k == 2
    shifted = code.shift_map().apply(code.flat.gen)
    assert LinearCode(F2, 3, shifted) == code.flat


def test_non_closed_rows_rejected():
    with pytest.raises(BadInput, match="rows are not closed under the simultaneous shift"):
        gqc.GqcCode(F2, (3,), [[1, 1, 0]])


def test_closed_rows_accepted():
    c = gqc.GqcCode(F2, (3,), [[1, 1, 0], [0, 1, 1]])
    assert c.k == 2


def test_mu_map_permutation():
    code = rand_gqc(F2, (7,), np.random.default_rng(0))
    mu = code.mu_map(-1)
    # x^t -> x^{-t}: coordinate t lands at position (-t) mod 7
    for t in range(7):
        assert mu.perm[t] == (-t) % 7


def test_mu_requires_coprime():
    code = rand_gqc(F2, (3, 5), np.random.default_rng(1))
    with pytest.raises(BadInput, match="a = 3 not invertible modulo 15"):
        code.mu_map(3)  # gcd(3, 15) != 1


def test_mu_involution():
    rng = np.random.default_rng(2)
    code = rand_gqc(F3, (4, 4), rng, ngen=2)
    assert code.mu(-1).mu(-1) == code


def test_block_projection():
    rng = np.random.default_rng(3)
    code = rand_gqc(F2, (3, 5), rng)
    p0 = gqc.block_projection(code, 0)
    assert p0.block_lengths == (3,) and p0.flat.n == 3


# ------------------------------------------------------------ constituents


def test_constituent_dims_sum_to_k():
    rng = np.random.default_rng(4)
    for F, blocks in [(F2, (7,)), (F3, (8,)), (F2, (3, 5)), (F3, (4, 4)), (F2, (7, 7, 7))]:
        for _ in range(5):
            code = rand_gqc(F, blocks, rng, ngen=int(rng.integers(1, 3)))
            ctx = gqc.context_for(code)
            total = sum(
                len(ctx.coset(i)) * gqc.constituent(code, ctx, i).dim for i in ctx.leaders
            )
            assert total == code.k


def test_constituent_conjugacy():
    """C_{iq} equals the entrywise q-th power of C_i."""
    rng = np.random.default_rng(5)
    code = rand_gqc(F3, (13,), rng)
    ctx = gqc.context_for(code)
    ext = ctx.ext
    for i in range(13):
        a = gqc.constituent(code, ctx, (i * 3) % 13)
        b = gqc.constituent(code, ctx, i)
        assert a.dim == b.dim
        if b.dim:
            powed = LinearCode(ext, b.basis.shape[1], np.asarray(ext.pow(b.basis, 3), dtype=np.int16))
            assert LinearCode(ext, a.basis.shape[1], a.basis) == powed


def test_dual_decomposition():
    """constituents of (mu_a C)^perp match the V-duals of C_{-ai}."""
    rng = np.random.default_rng(6)
    for blocks in [(7,), (3, 3)]:
        code = rand_gqc(F2, blocks, rng)
        ctx = gqc.context_for(code)
        m = gqc.lcm_of(blocks)
        for a in coprime_units(m):
            dual_flat = code.mu(a).flat.dual()
            dual_code = gqc.GqcCode(F2, blocks, dual_flat.gen, _trusted=True)
            for i in ctx.leaders:
                lhs = gqc.constituent(dual_code, ctx, i)
                rhs = gqc.v_dual(code, ctx, gqc.constituent(code, ctx, (-a * i) % m))
                assert lhs.dim == rhs.dim
                if lhs.dim:
                    assert np.array_equal(lhs.basis, rhs.basis)


def test_hermitian_v_dual_identity():
    rng = np.random.default_rng(7)
    code = rand_gqc(F2, (5, 5), rng, ngen=2)
    ctx = gqc.context_for(code)
    for i in ctx.leaders:
        if len(ctx.coset(i)) % 2:
            continue
        lhs = gqc.hermitian_v_dual(code, ctx, gqc.constituent(code, ctx, i))
        rhs = gqc.v_dual(code, ctx, gqc.constituent(code, ctx, (-i) % 5))
        assert lhs.dim == rhs.dim
        if lhs.dim:
            assert np.array_equal(lhs.basis, rhs.basis)


def test_hermitian_v_dual_odd_degree_rejected():
    code = rand_gqc(F2, (7,), np.random.default_rng(8))
    ctx = gqc.context_for(code)
    with pytest.raises(BadInput, match="coset of 1 has odd size 3"):
        gqc.hermitian_v_dual(code, ctx, gqc.constituent(code, ctx, 1))


# ------------------------------------------------------------ LCD criteria


def test_criterion_matches_oracle_randomized():
    rng = np.random.default_rng(9)
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        F = field(q)
        l = int(rng.integers(1, 4))
        m = int(rng.choice([m for m in range(2, 16) if math.gcd(m, q) == 1]))
        code = rand_gqc(F, (m,) * l, rng, ngen=int(rng.integers(1, 3)))
        ctx = gqc.context_for(code)
        for a in coprime_units(m)[:6]:
            assert gqc.is_mua_lcd(code, ctx, a) == (
                oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0
            )
        # leaders suffice by conjugation: every index of Z_m agrees
        every = gqc._lcd(ctx, code.block_lengths, code.generators, -1, indices=range(m))
        assert every == gqc.is_mua_lcd(code, ctx, -1)


def test_self_orthogonal_and_self_dual():
    # <x - 1> in F3[x]/(x^4 - 1) contains codewords summing to 0; use the
    # oracle containment check as ground truth for both flags
    rng = np.random.default_rng(10)
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        F = field(q)
        m = int(rng.choice([5, 7, 8] if q == 3 else [3, 5, 7]))
        code = rand_gqc(F, (m,), rng)
        ctx = gqc.context_for(code)
        for a in coprime_units(m)[:4]:
            mu_dual = code.mu(a).flat.dual()
            so = mu_dual.contains_code(code.flat)
            sd = mu_dual == code.flat
            assert gqc.is_mua_self_orthogonal(code, ctx, a) == so
            assert gqc.is_mua_self_dual(code, ctx, a) == sd


def test_self_dual_instance():
    # {00, 11} as a cyclic code of length 2 over GF(3): <1+x>
    code = gqc.GqcCode.from_generators(F3, (2,), [([1, 1],)])
    ctx = gqc.context_for(code)
    assert gqc.is_mua_self_orthogonal(code, ctx, 1) == (
        code.flat.dual().contains_code(code.flat)
    )


def test_triple_equivalence_divisor_codes():
    for q, m in [(2, 7), (2, 9), (3, 4), (3, 8)]:
        F = field(q)
        ctx = CyclotomicContext(F, m)
        for subset, code in gqc.divisor_cyclic_codes(ctx):
            for a in coprime_units(m):
                t1 = gqc.trivial_constituent_lcd(code, ctx, a)
                t2 = gqc.mu_fixes_code(code, a)
                t3 = gqc.is_mua_lcd(code, ctx, a)
                assert t1 == t2 == t3


def test_trivial_constituent_requires_trivial():
    # a QC code with a proper nontrivial constituent must be rejected
    rng = np.random.default_rng(11)
    for _ in range(60):
        code = rand_gqc(F2, (7, 7), rng)
        ctx = gqc.context_for(code)
        dims = {i: gqc.constituent(code, ctx, i) for i in ctx.leaders}
        if any(c.dim not in (0, len(c.active)) for c in dims.values()):
            with pytest.raises(BadInput, match="has dim .* inside V of dim"):
                gqc.trivial_constituent_lcd(code, ctx, -1)
            return
    pytest.skip("no nontrivial sample drawn")


def test_reversal_lcd_all_cyclic():
    for q, m in [(2, 7), (3, 8)]:
        F = field(q)
        ctx = CyclotomicContext(F, m)
        for subset, code in gqc.divisor_cyclic_codes(ctx):
            assert gqc.reversal_sigma_lcd(code)
            assert gqc.is_mua_lcd(code, ctx, -1)


def test_reversal_requires_cyclic():
    code = rand_gqc(F2, (3, 3), np.random.default_rng(12))
    with pytest.raises(BadInput, match="reversal criterion needs one block, got 2"):
        gqc.reversal_sigma_lcd(code)


def test_cross_block_lcd():
    rng = np.random.default_rng(13)
    hits = 0
    for _ in range(40):
        code = rand_gqc(F2, (3, 5), rng, ngen=int(rng.integers(1, 3)))
        ctx = gqc.context_for(code)
        assert gqc.cross_block_lcd(code, ctx, -1) == gqc.is_mua_lcd(code, ctx, -1)
        hits += 1
    assert hits == 40


def test_cross_block_requires_coprime():
    code = rand_gqc(F2, (3, 3), np.random.default_rng(14))
    ctx = gqc.context_for(code)
    with pytest.raises(BadInput, match="blocks 3 and 3 share a factor"):
        gqc.cross_block_lcd(code, ctx, -1)


# ------------------------------------------------------------ one-generator


def test_one_gen_worked_example():
    """c = (1+x, 1+x^2), m = 3, a = -1: both gcds equal x+1, so LCD."""
    cvec = (X1, poly.from_seq([1, 0, 1]))
    ctx = CyclotomicContext(F2, 3)
    assert gqc.one_gen_lcd_eval(ctx, (3, 3), cvec, -1)
    assert gqc.one_gen_lcd_gcd(F2, (3, 3), cvec, -1)
    code = gqc.one_gen_code(F2, (3, 3), cvec)
    assert gqc.is_mua_lcd(code, gqc.context_for(code), -1)


def test_one_gen_zero_tuple():
    ctx = CyclotomicContext(F2, 3)
    assert gqc.one_gen_lcd_eval(ctx, (3, 3), (poly.ZERO, poly.ZERO), -1)
    assert gqc.one_gen_lcd_gcd(F2, (3, 3), (poly.ZERO, poly.ZERO), -1)
    assert gqc.one_gen_self_orthogonal_eval(ctx, (3, 3), (poly.ZERO, poly.ZERO), -1)


def test_one_gen_forms_agree_randomized():
    rng = np.random.default_rng(15)
    for _ in range(60):
        q = int(rng.choice([2, 3]))
        F = field(q)
        m = int(rng.choice([m for m in range(2, 16) if math.gcd(m, q) == 1]))
        l = int(rng.integers(1, 4))
        cvec = tuple(
            poly.trim(rng.integers(0, q, size=m).astype(np.int16)) for _ in range(l)
        )
        ctx = CyclotomicContext(F, m)
        code = gqc.one_gen_code(F, (m,) * l, cvec)
        for a in coprime_units(m)[:5]:
            ev = gqc.one_gen_lcd_eval(ctx, (m,) * l, cvec, a)
            gc = gqc.one_gen_lcd_gcd(F, (m,) * l, cvec, a)
            direct = gqc.is_mua_lcd(code, ctx, a)
            hull = oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0
            assert ev == gc == direct == hull
            so_ev = gqc.one_gen_self_orthogonal_eval(ctx, (m,) * l, cvec, a)
            so_gc = gqc.one_gen_self_orthogonal_gcd(F, (m,) * l, cvec, a)
            assert so_ev == so_gc == gqc.is_mua_self_orthogonal(code, ctx, a)
            if code.k:
                assert not (ev and so_ev)  # mutually exclusive for nonzero codes


def test_one_gen_eval_rejects_wrong_context():
    """The evaluation routes check the context modulus like the code routes."""
    cvec = (X1, ONE)
    for ctx in (CyclotomicContext(F2, 3), CyclotomicContext(F2, 7)):
        with pytest.raises(BadInput, match=f"context modulus {ctx.m} != lcm of blocks"):
            gqc.one_gen_lcd_eval(ctx, (5, 5), cvec)
        with pytest.raises(BadInput, match=f"context modulus {ctx.m} != lcm of blocks"):
            gqc.one_gen_self_orthogonal_eval(ctx, (5, 5), cvec)


def test_one_gen_gcd_requires_qc():
    with pytest.raises(BadInput, match="quasi-cyclic form needs equal blocks"):
        gqc.one_gen_lcd_gcd(F2, (3, 5), (ONE, ONE), -1)


# ------------------------------------------------------------ supports


def test_qr_idempotents_m7():
    c1 = poly.from_seq([1, 1, 1, 0, 1])  # 1 + x + x^2 + x^4
    c2 = poly.from_seq([1, 0, 0, 1, 0, 1, 1])  # 1 + x^3 + x^5 + x^6
    ctx = CyclotomicContext(F2, 7)
    assert gqc.disjoint_support_lcd(ctx, (7, 7), (c1, c2))
    assert gqc.one_gen_lcd_eval(ctx, (7, 7), (c1, c2), -1)
    S1, S2 = gqc.support_sets(ctx, (7, 7), (c1, c2))
    assert S1 & S2 == set()
    assert S1 | S2 | {0} == set(range(7)) or S1 | S2 == set(range(7))


def test_disjoint_support_inapplicable():
    ctx = CyclotomicContext(F2, 3)
    assert not gqc.disjoint_support_lcd(ctx, (3, 3), (ONE, ONE))


def test_disjoint_support_single_generator():
    ctx = CyclotomicContext(F2, 3)
    assert gqc.disjoint_support_lcd(ctx, (3,), (X1,))


# ------------------------------------------------------------ maximal QC


def test_maximal_worked_examples():
    r1 = gqc.maximal_one_gen_check(F2, (3, 3), (ONE, X), -1)
    assert r1.maximal and not r1.lcd and r1.canonical is None
    r2 = gqc.maximal_one_gen_check(F2, (3, 3), (X, X1), -1)
    assert r2.lcd and r2.maximal
    assert r2.canonical.tolist() == [0, 1]  # c(x) = x
    # C = F2[x](c, c+1) really is the code generated by (x, x+1)
    code = gqc.one_gen_code(F2, (3, 3), (X, X1))
    canon = gqc.one_gen_code(
        F2, (3, 3), (r2.canonical, poly.add(F2, r2.canonical, ONE))
    )
    assert code == canon


def test_maximal_check_canonical_only_for_a_minus_one():
    # maximal and mu_a-LCD for a = 4 and 7, but c1 + c2 is a zero divisor
    # modulo x^15 - 1, so there is no canonical generator to report
    c1 = poly.from_seq([0, 2, 3, 3, 2, 0, 0, 0, 2, 0, 2])
    c2 = poly.from_seq([0, 3, 1, 0, 0, 0, 1, 3, 3, 2, 0, 1, 2, 2, 0, 1, 2, 3, 1, 3, 1, 0])
    code = gqc.one_gen_code(F4, (15, 15), (c1, c2))
    for a in (4, 7):
        r = gqc.maximal_one_gen_check(F4, (15, 15), (c1, c2), a)
        assert r.maximal and r.lcd and r.canonical is None
        assert oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0


def test_maximal_count_q2_m3():
    found = set()
    pairs = 0
    for i in range(8):
        for j in range(8):
            c1 = poly.from_seq([(i >> t) & 1 for t in range(3)])
            c2 = poly.from_seq([(j >> t) & 1 for t in range(3)])
            r = gqc.maximal_one_gen_check(F2, (3, 3), (c1, c2), -1)
            if r.lcd and r.maximal:
                pairs += 1
                found.add(tuple(r.canonical.tolist()))
    assert len(found) == 8  # q^m = 2^3
    assert pairs == 24


def test_maximal_needs_unit_gcd():
    r = gqc.maximal_one_gen_check(F2, (3, 3), (X1, X1), -1)
    assert not r.maximal


# ------------------------------------------------------------ product


def test_product_single_component():
    comp = LinearCode(F4, 1, np.array([[1]], dtype=np.int16))
    res = gqc.product_lcd_gqc(F2, [(3, 1, comp)])
    assert res.dim == 2 and res.code.flat.n == 3
    assert gqc.is_mua_lcd(res.code, res.ctx, -1)


def test_product_two_components_3_5():
    F16 = field(2, 4)
    c1 = LinearCode(F4, 1, np.array([[1]], dtype=np.int16))
    c2 = LinearCode(F16, 1, np.array([[1]], dtype=np.int16))
    res = gqc.product_lcd_gqc(F2, [(3, 1, c1), (5, 1, c2)])
    assert res.code.flat.n == 8
    assert res.dim == 6 and res.component_dims == (2, 4)
    assert oracle.brute_min_distance(res.code.flat) >= res.distance_bound


def test_product_empty():
    res = gqc.product_lcd_gqc(F2, [])
    assert res.dim == 0 and res.code.flat.n == 0


def test_product_zero_length_component():
    """A component with r = 0 adds no block: the product equals the one
    without it, and the component's dimension reads 0."""
    F16 = field(2, 4)
    c1 = LinearCode(F4, 1, np.array([[1]], dtype=np.int16))
    res = gqc.product_lcd_gqc(F2, [(3, 1, c1), (5, 0, LinearCode(F16, 0))])
    alone = gqc.product_lcd_gqc(F2, [(3, 1, c1)])
    assert res.ctx.m == 3 and res.code == alone.code
    assert (res.dim, res.distance_bound) == (alone.dim, alone.distance_bound)
    assert res.component_dims == alone.component_dims + (0,)


def test_product_rejects_duplicate_blocks():
    comp = LinearCode(F4, 1, np.array([[1]], dtype=np.int16))
    with pytest.raises(BadInput, match="component block lengths must be distinct"):
        gqc.product_lcd_gqc(F2, [(3, 1, comp), (3, 1, comp)])


def test_product_rejects_non_lcd_component():
    # (1, 2) over GF(9) ~ self-orthogonal? use a known non-LCD: over GF(4),
    # span{(1,1)} has gram 1*1+1*1 = 0
    comp = LinearCode(F4, 2, np.array([[1, 1]], dtype=np.int16))
    assert comp.k == 1
    with pytest.raises(BadInput, match="component for m=3 is not Euclidean complementary-dual"):
        gqc.product_lcd_gqc(F2, [(3, 2, comp)])


def test_product_wrong_component_field():
    comp = LinearCode(F2, 1, np.array([[1]], dtype=np.int16))
    with pytest.raises(BadInput, match="component for m=3 must live over GF"):
        gqc.product_lcd_gqc(F2, [(3, 1, comp)])


def test_product_random_components():
    rng = np.random.default_rng(16)
    F16 = field(2, 4)
    for _ in range(5):
        r1, r2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        comps = []
        for mj, r, Fc in [(3, r1, F4), (5, r2, F16)]:
            while True:
                k = int(rng.integers(1, r + 1))
                cand = LinearCode(Fc, r, rng.integers(0, Fc.q, size=(k, r)).astype(np.int16))
                if cand.k and np.all(cand.gen.sum() >= 0):
                    from sigmalcd.codes import hull_dim

                    if hull_dim(cand, None) == 0:
                        comps.append((mj, r, cand))
                        break
        res = gqc.product_lcd_gqc(F2, comps)
        t = {3: 2, 5: 4}
        assert res.dim == sum(c.k * t[mj] for mj, _, c in comps)
        assert oracle.brute_min_distance(res.code.flat) >= res.distance_bound


# ------------------------------------------------------------ evaluator

# per field, moduli whose splitting fields stay small; blocks divide one
EVAL_MODULI = {F2: (7, 9, 15), F3: (8, 10, 13), F4: (9, 15), F9: (8, 10, 13)}


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_evaluate_matches_eval_poly(data):
    """Every entry of _evaluate is delta_{j,i} g_{r,j}(xi^i) by Horner's rule,
    for unreduced and zero blocks, indices anywhere in Z, and any chunking."""
    F = data.draw(st.sampled_from(sorted(EVAL_MODULI, key=repr)))
    M = data.draw(st.sampled_from(EVAL_MODULI[F]))
    blocks = tuple(data.draw(st.lists(st.sampled_from([d for d in range(1, M + 1) if M % d == 0]), max_size=3)))
    ctx = CyclotomicContext(F, gqc.lcm_of(blocks))
    gens = [
        tuple(data.draw(st.lists(st.integers(0, F.q - 1), max_size=2 * mj + 2)) for mj in blocks)
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    indices = data.draw(st.lists(st.integers(-3 * ctx.m, 3 * ctx.m), max_size=8))
    with mock.patch.object(gqc, "_EVAL_CELLS", data.draw(st.sampled_from([1, 5, 2**16]))):
        E = gqc._evaluate(ctx, blocks, gqc._flat_gens(F, blocks, gens), indices)
    assert E.shape == (len(gens), len(blocks), len(indices))
    for g, Eg in zip(gens, E):
        for s, i in enumerate(indices):
            for j, mj in enumerate(blocks):
                want = ctx.emb.eval_poly(g[j], ctx.eval_point(i)) if ctx.delta(i, mj) else 0
                assert Eg[j, s] == want


def test_constituent_from_generators_matches_flat_rows():
    """Constituents read off the r module generators equal those read off
    the k flat RREF rows, byte for byte, and the criteria agree on both; the
    k > l flat rows take the pairing's row cut."""
    rng = np.random.default_rng(17)
    for F, blocks in [(F2, (7,)), (F2, (3, 5, 15)), (F3, (4, 8)), (F4, (3, 5)), (F9, (4, 4))]:
        for ngen in range(3):
            gens = [tuple(rng.integers(0, F.q, size=int(rng.integers(0, 2 * mj + 2))) for mj in blocks)
                    for _ in range(ngen)]
            code = gqc.GqcCode.from_generators(F, blocks, gens)
            assert code.generators.shape == (ngen, code.n)
            flat = gqc.GqcCode(F, blocks, code.flat.gen, _trusted=True)
            ctx = gqc.context_for(code)
            for i in range(ctx.m):
                a, b = gqc.constituent(code, ctx, i), gqc.constituent(flat, ctx, i)
                assert a.active == b.active
                assert a.basis.dtype == b.basis.dtype and a.basis.tobytes() == b.basis.tobytes()
                assert a.basis.shape == b.basis.shape
            for a in coprime_units(ctx.m)[:3] or [1]:
                for test in (gqc.is_mua_lcd, gqc.is_mua_self_orthogonal, gqc.is_mua_self_dual):
                    assert test(code, ctx, a) == test(flat, ctx, a)


def test_one_gen_routes_agree_for_every_unit():
    """Eval, gcd (equal blocks), constituent and oracle verdicts agree for
    every unit a, unequal blocks included."""
    _check_one_gen_routes()


def test_one_gen_routes_agree_one_index_per_chunk():
    """The same with one index per pairing chunk, so a failure found in a
    later chunk ends the walk between chunks."""
    with mock.patch.object(gqc, "_EVAL_CELLS", 1):
        _check_one_gen_routes()


def _check_one_gen_routes():
    rng = np.random.default_rng(18)
    for F, blocks in [(F2, (7, 7)), (F2, (3, 5)), (F2, (3, 9, 9)), (F3, (4, 8)), (F3, (5, 5)),
                      (F4, (3, 3)), (F4, (5, 15)), (F9, (2, 4))]:
        m = gqc.lcm_of(blocks)
        ctx = CyclotomicContext(F, m)
        for _ in range(4):
            cvec = tuple(rng.integers(0, F.q, size=int(rng.integers(0, 2 * mj + 1))) for mj in blocks)
            code = gqc.one_gen_code(F, blocks, cvec)
            for a in coprime_units(m) or [1]:
                lcd = oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0
                assert gqc.one_gen_lcd_eval(ctx, blocks, cvec, a) == gqc.is_mua_lcd(code, ctx, a) == lcd
                so = gqc.is_mua_self_orthogonal(code, ctx, a)
                assert gqc.one_gen_self_orthogonal_eval(ctx, blocks, cvec, a) == so
                if len(set(blocks)) == 1:
                    assert gqc.one_gen_lcd_gcd(F, blocks, cvec, a) == lcd
                    assert gqc.one_gen_self_orthogonal_gcd(F, blocks, cvec, a) == so


def test_evaluator_empty_shapes():
    """No generators, a zero generator and no blocks at all."""
    ctx = CyclotomicContext(F2, 7)
    none = gqc.GqcCode.from_generators(F2, (7,), [])
    assert none.k == 0 and none.generators.shape == (0, 7)
    assert gqc.constituent(none, ctx, 1).dim == 0 and gqc.is_mua_lcd(none, ctx)
    zero = gqc.GqcCode.from_generators(F2, (7, 7), [([0, 0], [])])
    assert zero.k == 0 and gqc.is_mua_lcd(zero, ctx) and gqc.is_mua_self_dual(zero, ctx) is False
    assert gqc._evaluate(ctx, (7,), none.generators, [1, 2]).shape == (0, 1, 2)
    empty = gqc.GqcCode(F2, (), None)
    ctx1 = gqc.context_for(empty)
    assert gqc.constituent(empty, ctx1, 0).basis.shape == (0, 0)
    assert gqc.one_gen_lcd_eval(ctx1, (), ()) and gqc.one_gen_self_orthogonal_eval(ctx1, (), ())


def test_one_gen_lcd_eval_m4095_time_and_memory():
    """m = 4095 over GF(2): 351 leaders and their images in one chunked pass,
    with no temporary beyond _EVAL_CELLS cells."""
    ctx = CyclotomicContext(F2, 4095)
    c1 = poly.trim(np.random.default_rng(19).integers(0, 2, size=4095).astype(np.int16))
    cvec = (c1, poly.add(F2, c1, ONE))  # sum_j c_j(xi^i)^2 = 1 at every i
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = gqc.one_gen_lcd_eval(ctx, (4095, 4095), cvec, -1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict
    assert elapsed < 2, f"{elapsed:.2f} s"
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_unequal_blocks_odd_characteristic_match_flat():
    """Where the m_j differ mod p, V_i pairs with V_-i by sum_j (m/m_j) x_j y_j,
    not by the plain product: every constituent verdict matches the flat code."""
    rng = np.random.default_rng(20)
    for F, blocks in [(F3, (4, 5)), (F3, (2, 5)), (field(5), (2, 3)), (F9, (2, 5))]:
        for _ in range(6):
            gens = [tuple(rng.integers(0, F.q, size=mj) for mj in blocks) for _ in range(int(rng.integers(1, 3)))]
            code = gqc.GqcCode.from_generators(F, blocks, gens)
            ctx = gqc.context_for(code)
            for a in coprime_units(ctx.m)[:4]:
                mu_dual = code.mu(a).flat.dual()
                lcd = oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0
                assert gqc.cross_block_lcd(code, ctx, a) == gqc.is_mua_lcd(code, ctx, a) == lcd
                assert gqc.is_mua_self_orthogonal(code, ctx, a) == mu_dual.contains_code(code.flat)
                assert gqc.is_mua_self_dual(code, ctx, a) == (mu_dual == code.flat)
