import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import codes, oracle
from sigmalcd.codes import (
    LcpPair,
    LinearCode,
    SemiLinearMap,
    apply_sigma,
    build_lcp,
    gram,
    hull_dim,
    hull_basis,
    is_sigma_lcd,
    is_sigma_self_dual,
    is_sigma_self_orthogonal,
    make_lcd_sigma,
    normalize_hull,
    sigma_dual,
)
from sigmalcd.errors import BadInput
from sigmalcd.field import field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)


def C(F, n, *rows):
    return LinearCode(F, n, np.array(rows, dtype=np.int16) if rows else None)


def rand_code(F, n, k, rng):
    while True:
        c = LinearCode(F, n, rng.integers(0, F.q, size=(k, n)).astype(np.int16))
        if c.k == k:
            return c


def rand_sigma(F, n, rng):
    perm = rng.permutation(n).astype(np.int32)
    diag = rng.integers(1, F.q, size=n).astype(np.int16)
    frob = int(rng.integers(0, F.e))
    return SemiLinearMap(F, perm=perm, diag=diag, frob=frob)


# ---------------------------------------------------------------- codes


def test_code_canonicalization():
    rep = C(F2, 3, (1, 1, 1))
    assert (rep.n, rep.k) == (3, 1)
    assert rep == C(F2, 3, (1, 1, 1), (1, 1, 1))
    assert C(F3, 2, (1, 2)).gen.tolist() == [[1, 2]]


def test_zero_rows_dropped():
    c = C(F2, 3, (0, 0, 0), (1, 0, 1))
    assert c.k == 1


def test_length_mismatch():
    with pytest.raises(BadInput, match="expected 3 columns, got 2"):
        LinearCode(F2, 3, [[1, 0]])


def test_dual_examples():
    sd = C(F2, 2, (1, 1))
    assert sd.dual() == sd  # {00,11} self-dual
    rep = C(F2, 3, (1, 1, 1))
    even = rep.dual()
    assert (even.n, even.k) == (3, 2)
    assert all(F2.dot(v, [1, 1, 1]) == 0 for v in even.gen)
    full = C(F3, 2, (1, 0), (0, 1))
    assert full.dual().k == 0


def test_dual_involution_random():
    rng = np.random.default_rng(7)
    for F in (F2, F3, F4):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            c = rand_code(F, n, int(rng.integers(1, n)), rng)
            assert c.dual().dual() == c


def test_contains_code():
    big = C(F2, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    small = C(F2, 4, (1, 1, 0, 0))
    assert big.contains_code(small)
    assert not small.contains_code(big)


# ---------------------------------------------------------------- sigma maps


def test_sigma_action_order():
    """frobenius first, then scale, then permute."""
    F = F4
    sg = SemiLinearMap(
        F,
        perm=np.array([1, 0], dtype=np.int32),
        diag=np.array([2, 1], dtype=np.int16),
        frob=1,
    )
    v = np.array([2, 3], dtype=np.int16)  # (omega, omega+1)
    out = sg.apply(v)
    # omega^2 = 3, scaled by 2: mul(3,2)=1 -> goes to slot 1; 3^2=2 stays slot 1->0
    assert out.tolist() == [F.mul(int(F.frob(3, 1)), 1), F.mul(int(F.frob(2, 1)), 2)]


def test_sigma_invalid_perm_rejected():
    with pytest.raises(ValueError):
        SemiLinearMap(F2, perm=np.array([0, 0], dtype=np.int32))


def test_sigma_zero_diag_rejected():
    with pytest.raises(ValueError):
        SemiLinearMap(F3, perm=np.array([0, 1], dtype=np.int32), diag=np.array([1, 0], dtype=np.int16))


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(8)
    for F in (F3, F4):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            s1, s2 = rand_sigma(F, n, rng), rand_sigma(F, n, rng)
            v = rng.integers(0, F.q, size=n).astype(np.int16)
            assert np.array_equal(s1.compose(s2).apply(v), s1.apply(s2.apply(v)))


def test_inverse_roundtrip():
    rng = np.random.default_rng(9)
    for F in (F2, F4, field(3, 2)):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            sg = rand_sigma(F, n, rng)
            v = rng.integers(0, F.q, size=n).astype(np.int16)
            assert np.array_equal(sg.inverse().apply(sg.apply(v)), v)
            assert np.array_equal(sg.apply(sg.inverse().apply(v)), v)


def test_is_permutation_is_monomial():
    sg = SemiLinearMap.reversal(F2, 4)
    assert sg.is_permutation and sg.is_monomial
    d = SemiLinearMap(F3, perm=np.arange(3, dtype=np.int32), diag=np.array([2, 1, 1], dtype=np.int16))
    assert d.is_monomial and not d.is_permutation
    f = SemiLinearMap.frobenius_map(F4, 2, 1)
    assert not f.is_monomial


def test_apply_sigma_examples():
    c = C(F2, 2, (1, 0))
    swap = SemiLinearMap.permutation(F2, np.array([1, 0], dtype=np.int32))
    assert apply_sigma(swap, c) == C(F2, 2, (0, 1))
    assert apply_sigma(SemiLinearMap.identity(F2, 2), c) == c
    # GF(4) frobenius: span{(1, w)} -> span{(1, w+1)}
    cf = C(F4, 2, (1, 2))
    fr = SemiLinearMap.frobenius_map(F4, 2, 1)
    assert apply_sigma(fr, cf) == C(F4, 2, (1, 3))


# ---------------------------------------------------------------- duals/hulls


def test_sigma_dual_specializations():
    c = C(F2, 3, (1, 1, 0))
    assert sigma_dual(c, None) == c.dual()
    sd = C(F2, 2, (1, 1))
    swap = SemiLinearMap.permutation(F2, np.array([1, 0], dtype=np.int32))
    assert sigma_dual(sd, swap) == sd  # sigma(C) = C here


def test_sigma_dual_hermitian_gf4():
    rng = np.random.default_rng(10)
    fr = None
    for _ in range(10):
        c = rand_code(F4, 4, 2, rng)
        fr = SemiLinearMap.frobenius_map(F4, 4, 1)
        d = sigma_dual(c, fr)
        # every pair (b, c): sum b_i c_i^2 = 0
        for b in d.gen:
            for cw in c.gen:
                assert F4.dot(b, F4.frob(cw, 1)) == 0


def test_sigma_dual_dimension():
    rng = np.random.default_rng(11)
    for F in (F2, F3, F4):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n + 1))
            c = rand_code(F, n, k, rng) if k else C(F, n)
            assert sigma_dual(c, rand_sigma(F, n, rng)).k == n - k


def test_hull_dim_examples():
    assert hull_dim(C(F2, 3, (1, 1, 1)), None) == 0
    assert hull_dim(C(F2, 2, (1, 1)), None) == 1
    assert hull_dim(C(F5, 2, (1, 2)), None) == 1


def test_hull_basis_spans_hull():
    c = C(F2, 4, (1, 1, 0, 0), (0, 0, 1, 1))
    H = hull_basis(c, None)
    assert H.shape[0] == hull_dim(c, None) == 2


def _oracle_meet_dual(F, G, H):
    """rowspace(G) cap rowspace(H)^perp by the oracle's own elimination: the
    dual of the stacked duals of rowspace(G) and of rowspace(H)^perp."""
    R, piv = oracle._gauss_jordan(F, oracle._dual(F, np.vstack([oracle._dual(F, G), H])))
    return R[: len(piv)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_meet_dual_matches_oracle(data):
    """hull_basis and _meet_dual give the oracle's canonical basis byte for
    byte, the zero code and the whole space included."""
    F = data.draw(st.sampled_from([F2, F3, F4, field(3, 2)]), label="field")
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c, d = rand_code(F, n, k, rng), rand_code(F, n, int(rng.integers(0, n + 1)), rng)
    sg = rand_sigma(F, n, rng)
    cases = [
        (hull_basis(c, None), c.gen, c.gen),
        (hull_basis(c, sg), c.gen, sg.apply(c.gen)),
        (codes._meet_dual(F, c.gen, d.gen), c.gen, d.gen),
        (codes._meet_dual(F, d.gen, c.gen), d.gen, c.gen),
    ]
    for got, G, H in cases:
        want = _oracle_meet_dual(F, G, H)
        assert got.dtype == want.dtype == np.int16
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("Fc,Fs", [(F4, F2), (F2, F4), (F3, field(3, 2)), (field(3, 2), F3)])
@pytest.mark.parametrize("k", [0, 1])
def test_gram_routes_reject_a_map_over_another_field(Fc, Fs, k):
    c = C(Fc, 3, (1, 1, 0)) if k else C(Fc, 3)
    sigma = SemiLinearMap.identity(Fs, 3)
    for route in (gram, hull_dim, hull_basis, is_sigma_lcd, is_sigma_self_orthogonal, is_sigma_self_dual):
        with pytest.raises(BadInput, match="code and map over different fields"):
            route(c, sigma)


def test_lcd_and_self_dual_flags():
    assert is_sigma_lcd(C(F2, 3, (1, 1, 1)), None)
    assert not is_sigma_lcd(C(F2, 2, (1, 1)), None)
    lam = SemiLinearMap(F5, perm=np.arange(2, dtype=np.int32), diag=np.array([2, 1], dtype=np.int16))
    assert is_sigma_lcd(C(F5, 2, (1, 2)), lam)
    assert is_sigma_self_dual(C(F2, 2, (1, 1)), None)
    assert is_sigma_self_orthogonal(C(F5, 2, (1, 2)), None)
    assert is_sigma_self_dual(C(F5, 2, (1, 2)), None)
    rep = C(F2, 3, (1, 1, 1))
    assert not is_sigma_self_orthogonal(rep, None)
    assert not is_sigma_self_dual(rep, None)


def test_hull_equals_oracle_randomized():
    rng = np.random.default_rng(12)
    for F in (F2, F3, F4):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            c = rand_code(F, n, int(rng.integers(1, n + 1)), rng)
            sg = rand_sigma(F, n, rng)
            assert hull_dim(c, sg) == oracle.brute_hull_dim(c, sg)


# ---------------------------------------------------------------- hull normal form


def test_normalize_hull_lcd_branch():
    c = C(F2, 3, (1, 1, 1))
    pi, g, h = normalize_hull(c)
    assert h == 0
    assert np.array_equal(g, c.gen)
    assert pi.is_permutation and np.array_equal(pi.perm, np.arange(3))


def test_normalize_hull_gf5():
    pi, g, h = normalize_hull(C(F5, 2, (1, 2)))
    assert h == 1
    assert g.tolist() == [[1, 2]]
    # A' = [2]: A'A'^T = 4 = -1 mod 5
    assert F5.dot(g[0, 1:], g[0, 1:]) == F5.neg(1)


def test_normalize_hull_binary_self_dual():
    pi, g, h = normalize_hull(C(F2, 2, (1, 1)))
    assert h == 1 and g.tolist() == [[1, 1]]


def test_normalize_hull_block_identities():
    """[I_h | A'; 0 | A''] with A'A'^T = -I, A'A''^T = 0, rank(A''A''^T) = k-h."""
    rng = np.random.default_rng(13)
    checked = 0
    for F in (F2, F3, F4, F5):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            c = rand_code(F, n, int(rng.integers(1, n + 1)), rng)
            pi, g, h = normalize_hull(c)
            k = c.k
            if h == 0:
                continue
            checked += 1
            assert np.array_equal(g[:h, :h], np.eye(h, dtype=np.int16))
            assert not g[h:, :h].any()
            A1 = g[:h, h:]
            A2 = g[h:, h:]
            AA = np.asarray(F.sum(F.mul(A1[:, None, :], A1[None, :, :]), axis=2))
            assert np.array_equal(AA, F.neg(np.eye(h, dtype=np.int16)))
            if k > h:
                cross = np.asarray(F.sum(F.mul(A1[:, None, :], A2[None, :, :]), axis=2))
                assert not cross.any()
                A22 = np.asarray(F.sum(F.mul(A2[:, None, :], A2[None, :, :]), axis=2))
                from sigmalcd import linalg

                assert linalg.rank(F, A22) == k - h
            # permuted code's generator really is g
            assert apply_sigma(pi, c) == LinearCode(F, n, g)
    assert checked > 30


# ---------------------------------------------------------------- LCD construction


def test_make_lcd_sigma_gf5_example():
    sigma, out = make_lcd_sigma(C(F5, 2, (1, 2)))
    assert out == C(F5, 2, (1, 2))
    assert sigma.diag.tolist() == [2, 1] and sigma.frob == 0
    assert is_sigma_lcd(out, sigma)


def test_make_lcd_sigma_identity_when_lcd():
    c = C(F3, 3, (1, 0, 0))
    sigma, out = make_lcd_sigma(c)
    assert out == c
    assert np.array_equal(sigma.perm, np.arange(3)) and np.all(sigma.diag == 1)


def test_make_lcd_sigma_binary_walkthrough():
    sigma, out = make_lcd_sigma(C(F2, 2, (1, 1)))
    assert out == C(F2, 3, (0, 1, 1))
    assert sigma.is_permutation
    assert sigma.perm.tolist() == [1, 0, 2]
    assert is_sigma_lcd(out, sigma)


def test_make_lcd_sigma_randomized():
    rng = np.random.default_rng(14)
    for F in (F3, F4, F5):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            c = rand_code(F, n, int(rng.integers(1, n + 1)), rng)
            sigma, out = make_lcd_sigma(c)
            assert out == c and out.n == n and sigma.frob == 0
            assert is_sigma_lcd(out, sigma)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = rand_code(F2, n, int(rng.integers(1, n + 1)), rng)
        sigma, out = make_lcd_sigma(c)
        assert out.n == n + 1 and sigma.is_permutation
        assert is_sigma_lcd(out, sigma)


def test_lemma2_duality_property():
    """pi(C1) cap C2-perp = 0  iff  C1 cap (pi^-1 C2)-perp = 0."""
    rng = np.random.default_rng(15)
    for F in (F2, F3):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            c1 = rand_code(F, n, k, rng)
            c2 = rand_code(F, n, n - k, rng)
            pi = SemiLinearMap.permutation(F, rng.permutation(n).astype(np.int32))
            lhs = oracle.brute_intersection_dim(apply_sigma(pi, c1), c2.dual()) == 0
            rhs = (
                oracle.brute_intersection_dim(c1, apply_sigma(pi.inverse(), c2).dual())
                == 0
            )
            assert lhs == rhs


def test_binary_even_like_obstruction():
    """even length + even weights + all-ones word: no permutation gives LCD."""
    rng = np.random.default_rng(16)
    c = C(F2, 4, (1, 1, 0, 0), (0, 0, 1, 1))  # contains 1111
    assert np.array([1, 1, 1, 1]) @ c.gen.T % 2 is not None  # sanity shape
    for _ in range(100):
        perm = rng.permutation(4).astype(np.int32)
        assert hull_dim(c, SemiLinearMap.permutation(F2, perm)) >= 1


# ---------------------------------------------------------------- LCP


def test_build_lcp_euclidean_lcd_passthrough():
    c = C(F3, 3, (1, 0, 0))
    pair = build_lcp(c, c)
    assert pair.c1 == c and pair.c2 == c.dual()
    assert np.all(pair.sigma.diag == 1) and np.array_equal(pair.sigma.perm, np.arange(3))


def test_build_lcp_gf3_self_orthogonal():
    c = C(F3, 3, (1, 1, 1))
    pair = build_lcp(c, c)
    assert pair.params == (3, 1, 3, 3)
    assert pair.sigma.diag.tolist() == [2, 1, 1]
    assert oracle.brute_intersection_dim(pair.c1, pair.c2) == 0
    assert pair.c1.k + pair.c2.k == 3


def test_build_lcp_binary_length_extension():
    c = C(F2, 2, (1, 1))
    pair = build_lcp(c, c)
    assert pair.n == 3 and pair.c1.n == 3
    assert pair.params == (3, 1, 2, 2)
    assert oracle.brute_intersection_dim(pair.c1, pair.c2) == 0


def test_build_lcp_dimension_mismatch():
    with pytest.raises(BadInput, match="dimensions differ: 1 vs 2"):
        build_lcp(C(F3, 3, (1, 0, 0)), C(F3, 3, (1, 0, 0), (0, 1, 0)))


def test_build_lcp_randomized_invariant():
    rng = np.random.default_rng(17)
    for F in (F3, F4):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            pair = build_lcp(rand_code(F, n, k, rng), rand_code(F, n, k, rng))
            assert pair.c1.k + pair.c2.k == pair.n == n
            assert oracle.brute_intersection_dim(pair.c1, pair.c2) == 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        pair = build_lcp(rand_code(F2, n, k, rng), rand_code(F2, n, k, rng))
        assert pair.n == n + 1
        assert pair.c1.k + pair.c2.k == n + 1
        assert oracle.brute_intersection_dim(pair.c1, pair.c2) == 0


def test_lcp_d2_is_distance_of_dual_of_second():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n, k = 5, 2
        pair = build_lcp(rand_code(F3, n, k, rng), rand_code(F3, n, k, rng))
        assert pair.d2 == oracle.brute_min_distance(pair.c2.dual())


# ---------------------------------------------------------------- distance


def test_min_distance_examples():
    assert oracle.brute_min_distance(C(F2, 3, (1, 1, 1))) == 3
    ham = LinearCode(
        F2,
        7,
        [[1, 1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0], [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0, 1]],
    )
    assert oracle.brute_min_distance(ham) == 3
    with pytest.raises(BadInput, match="zero code has no nonzero words"):
        oracle.brute_min_distance(C(F2, 3))


def test_sigma_without_length_is_bad_input():
    with pytest.raises(BadInput, match="need perm, diag or n to fix the length"):
        SemiLinearMap(F2)
