import math

import numpy as np
import pytest

from sigmalcd import gqc, poly
from sigmalcd.cyclotomic import (
    CyclotomicContext,
    GammaPartition,
    context,
    gamma_partition,
    mult_order,
)
from sigmalcd.errors import BadInput
from sigmalcd.field import MAX_FIELD_SIZE
from sigmalcd.field import field

F2 = field(2)
F3 = field(3)


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 15) == 4
    assert mult_order(3, 13) == 3
    assert mult_order(2, 1) == 1


def test_mult_order_requires_coprime():
    with pytest.raises(BadInput, match=r"gcd\(2, 4\) != 1"):
        mult_order(2, 4)


@pytest.mark.parametrize("m", [-3, -1, 0])
def test_nonpositive_m_raises_instead_of_looping(m):
    with pytest.raises(BadInput):
        mult_order(2, m)
    with pytest.raises(BadInput):
        CyclotomicContext(field(2), m)


@pytest.mark.parametrize("q,m", [(2, MAX_FIELD_SIZE + 1), (3, MAX_FIELD_SIZE), (2, 1_000_000_007)])
def test_m_beyond_every_field_raises_instead_of_looping(q, m):
    # q^t = 1 mod m needs q^t > m, so no table-backed field holds an
    # m-th root of unity; ord_m(q) for m = 1e9+7 would loop ~1e9 times
    with pytest.raises(BadInput, match=f"m = {m}: a primitive m-th root"):
        mult_order(q, m)
    with pytest.raises(BadInput, match=f"m = {m}: a primitive m-th root"):
        CyclotomicContext(field(q), m)


def test_largest_m_still_reaches_its_field():
    ctx = CyclotomicContext(F2, MAX_FIELD_SIZE - 1)
    assert ctx.ext.q == MAX_FIELD_SIZE and ctx.t == 12


def test_cosets_2_7():
    ctx = CyclotomicContext(F2, 7)
    assert ctx.leaders == [0, 1, 3]
    assert tuple(sorted(ctx.cosets[1])) == (1, 2, 4)
    assert tuple(sorted(ctx.cosets[3])) == (3, 5, 6)
    assert ctx.leader_of[6] == 3


def test_cosets_partition_zm():
    for F, m in [(F2, 7), (F2, 15), (F3, 13), (F3, 8)]:
        ctx = CyclotomicContext(F, m)
        all_idx = sorted(i for lead in ctx.leaders for i in ctx.cosets[lead])
        assert all_idx == list(range(m))


def has_order(F, a, m):
    """a^m = 1 and a^d != 1 for every proper divisor d of m."""
    return F.pow(a, m) == 1 and all(F.pow(a, d) != 1 for d in range(1, m) if m % d == 0)


def test_xi_has_order_m():
    for F, m in [(F2, 7), (F2, 5), (F3, 8), (F3, 13)]:
        ctx = CyclotomicContext(F, m)
        assert has_order(ctx.ext, ctx.xi, m)


def test_eval_point_powers():
    ctx = CyclotomicContext(F2, 7)
    for i in range(7):
        assert ctx.eval_point(i) == ctx.ext.pow(ctx.xi, i)


def test_minimal_poly_has_coset_degree():
    for F, m in [(F2, 7), (F3, 13)]:
        ctx = CyclotomicContext(F, m)
        for i in ctx.leaders:
            mp = ctx.minimal_poly(i)
            assert poly.degree(mp) == len(ctx.cosets[i])
            # xi^i is a root
            assert ctx.emb.eval_poly(mp, ctx.eval_point(i)) == 0


def test_minimal_polys_factor_xm1():
    for F, m in [(F2, 7), (F2, 15), (F3, 13), (field(2, 2), 5)]:
        ctx = CyclotomicContext(F, m)
        acc = poly.from_seq([1])
        for i in ctx.leaders:
            acc = poly.mul(F, acc, ctx.minimal_poly(i))
        assert poly.equal(acc, poly.xm1(F, m))


def test_gamma_partition_frozen_cases():
    gp = gamma_partition(CyclotomicContext(F2, 7))
    assert (gp.g0_plus, gp.g0_minus, gp.g1) == ((0,), (), (1,))
    gp5 = gamma_partition(CyclotomicContext(F2, 5))
    assert (gp5.g0_plus, gp5.g0_minus, gp5.g1) == ((0,), (1,), ())
    gp34 = gamma_partition(CyclotomicContext(F3, 4))
    assert (gp34.g0_plus, gp34.g0_minus, gp34.g1) == ((0, 2), (1,), ())


def test_gamma0_plus_is_real_subgroup_points():
    """leaders whose evaluation point is +1 or -1."""
    for F, m in [(F2, 7), (F2, 9), (F3, 8), (F3, 13), (F3, 4)]:
        ctx = CyclotomicContext(F, m)
        gp = gamma_partition(ctx)
        ext = ctx.ext
        pm1 = {1, ext.neg(1)}
        for i in ctx.leaders:
            if i in gp.g0_plus:
                assert ctx.eval_point(i) in pm1
            else:
                assert ctx.eval_point(i) not in pm1


def test_gamma_tiles_leaders():
    for F, m in [(F2, 7), (F2, 15), (F3, 8), (F3, 13), (F3, 14)]:
        ctx = CyclotomicContext(F, m)
        gp = gamma_partition(ctx)
        tiles = list(gp.g0_plus) + list(gp.g0_minus) + list(gp.g1)
        mirrored = [ctx.leader_of[(-i) % m] for i in gp.g1]
        assert sorted(tiles + mirrored) == sorted(ctx.leaders)
        # g0_minus cosets are self-reciprocal but not fixed points of negation
        for i in gp.g0_minus:
            assert ctx.leader_of[(-i) % m] == i and i not in gp.g0_plus
        for i in gp.g1:
            assert ctx.leader_of[(-i) % m] != i


def test_g0_minus_cosets_have_even_size():
    for F, m in [(F2, 5), (F3, 8), (F2, 9), (F3, 13)]:
        ctx = CyclotomicContext(F, m)
        for i in gamma_partition(ctx).g0_minus:
            assert len(ctx.cosets[i]) % 2 == 0


def test_delta_indicator():
    # one block of length m: delta is 1 for every i
    ctx = CyclotomicContext(F2, 7)
    assert all(ctx.delta(i, 7) for i in range(7))
    # block length 1 inside m=7 context: only i = 0 hits
    assert ctx.delta(0, 1)
    assert not ctx.delta(1, 1)


def test_context_cache_identity():
    a = CyclotomicContext(F2, 7)
    b = CyclotomicContext(F2, 7)
    assert a.leaders == b.leaders and a.xi == b.xi


def test_context_is_interned_and_read_only():
    """One context per (base, m), gqc's included; the shared arrays refuse
    writes, and minimal polynomials still fill in one leader at a time."""
    context.cache_clear()
    ctx = context(F2, 15)
    assert context(field(2), 15) is ctx
    assert context(F2, 7) is not ctx and context(field(2, 2), 15) is not ctx
    assert gqc.context_for(gqc.GqcCode(F2, (15, 5))) is ctx
    for arr in (ctx.xi_pows, ctx.leader_of):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert ctx._minpolys == {}
    M = ctx.minimal_poly(14)
    assert list(ctx._minpolys) == [7] and ctx.minimal_poly(7) is M
    with pytest.raises(ValueError):
        M[0] = 0
    ctx.minimal_poly(1)
    assert sorted(ctx._minpolys) == [1, 7]


def _reference_context(ctx):
    """The order scan and orbit walk the log-table reads replaced: xi is the
    least element of order m found among all N = q^t - 1, its powers are
    taken one product at a time, and each coset is walked from its least
    member."""
    ext, m, q, N = ctx.ext, ctx.m, ctx.base.q, ctx.ext.q - 1
    if m == 1:
        xi = 1
    else:
        idx = np.arange(N, dtype=np.int64)
        xi = int(ext._exp[idx[N // np.gcd(N, idx) == m]].min())
    pows = np.empty(m, dtype=np.int16)
    x = 1
    for i in range(m):
        pows[i] = x
        x = ext.mul(x, xi)
    assert x == 1
    leader_of = np.full(m, -1, dtype=np.int64)
    cosets = {}
    for i in range(m):
        if leader_of[i] >= 0:
            continue
        orbit, j = [], i
        while leader_of[j] < 0:
            leader_of[j] = i
            orbit.append(j)
            j = (j * q) % m
        cosets[i] = tuple(sorted(orbit))
    return xi, pows, leader_of, cosets


def _admissible(F, m):
    """gcd(q, m) = 1 and the splitting field GF(q^ord_m(q)) has a table."""
    return any(pow(F.q, t, m) == 1 % m for t in range(1, 13) if F.q**t <= MAX_FIELD_SIZE)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_context_matches_order_scan_reference(p, e):
    """xi, xi_pows, leader_of, leaders and cosets agree with the reference in
    values, numpy dtypes and Python int types, for every admissible m < 512
    and for m = 4095; every other m is refused."""
    F = field(p, e)
    for m in [*range(1, 512), 4095]:
        if not _admissible(F, m):
            with pytest.raises(BadInput):
                CyclotomicContext(F, m)
            continue
        ctx = CyclotomicContext(F, m)
        xi, pows, leader_of, cosets = _reference_context(ctx)
        assert type(ctx.xi) is int and ctx.xi == xi
        assert has_order(ctx.ext, ctx.xi, m)
        assert ctx.xi_pows.dtype == np.int16 and ctx.xi_pows.tobytes() == pows.tobytes()
        assert ctx.leader_of.dtype == np.int64 and ctx.leader_of.tobytes() == leader_of.tobytes()
        assert list(ctx.cosets.items()) == list(cosets.items()) and ctx.leaders == sorted(cosets)
        assert all(type(i) is int for i in ctx.leaders)
        assert all(type(j) is int for c in ctx.cosets.values() for j in c)


def _necklaces(t):
    """Binary necklaces of length t: (1/t) sum_{d | t} phi(d) 2^(t/d)."""
    phi = lambda d: sum(math.gcd(k, d) == 1 for k in range(1, d + 1))  # noqa: E731
    return sum(phi(d) * 2 ** (t // d) for d in range(1, t + 1) if t % d == 0) // t


@pytest.mark.parametrize("t", range(1, 13))
def test_binary_coset_count_is_necklaces_minus_one(t):
    """Over GF(2) with m = 2^t - 1, i -> 2i rotates the t bits of i, so the
    cosets are the binary necklaces of length t, except that the all-zero
    and all-one words are the same residue 0: 352 - 1 = 351 at t = 12."""
    assert len(CyclotomicContext(F2, 2**t - 1).leaders) == _necklaces(t) - 1
