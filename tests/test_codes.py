import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import codes, linalg, oracle
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
    assert all(F2.sum(F2.mul(v, [1, 1, 1])) == 0 for v in even.gen)
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
    assert big.contains_rows(small.gen)
    assert not small.contains_rows(big.gen)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_contains_rows_matches_elimination(data):
    """The pivot product v = v[pivots] G agrees with the elimination
    dim(C + span V) = k, on members and on members with one entry changed;
    the zero code and the whole space included."""
    F = data.draw(st.sampled_from([F2, F3, F4, field(3, 2)]), label="field")
    n = data.draw(st.integers(1, 10), label="n")
    k = data.draw(st.one_of(st.integers(0, n), st.sampled_from([0, n])), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    code = rand_code(F, n, k, rng)
    rows = data.draw(st.integers(1, 4), label="rows")
    V = linalg.mat_mul(F, rng.integers(0, F.q, size=(rows, k)).astype(np.int16), code.gen)
    if data.draw(st.booleans(), label="change one entry"):
        i, j = int(rng.integers(rows)), int(rng.integers(n))
        V[i, j] = (V[i, j] + rng.integers(1, F.q)) % F.q
    want = linalg.sum_dim(F, code.gen, V) == k
    assert code.contains_rows(V) == want
    assert all(code.contains_rows(v) == (linalg.sum_dim(F, code.gen, v[None]) == k) for v in V)


def test_contains_rejects_bad_input():
    """Entries outside 0..q-1 and a wrong length are BadInput, never an
    IndexError or a verdict."""
    c2, c3 = C(F2, 3, (1, 0, 1)), C(F3, 3, (1, 0, 1))
    for code, word in ((c2, [2, 0, 0]), (c2, [0, -1, 0]), (c3, [3, 0, 0])):
        with pytest.raises(BadInput, match="encodings"):
            code.contains_rows(word)
        with pytest.raises(BadInput, match="encodings"):
            code.contains_rows([word, [0, 0, 0]])
    with pytest.raises(BadInput, match="expected 3 columns"):
        c2.contains_rows([1, 0])


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


def test_is_permutation_is_monomial():
    sg = SemiLinearMap.reversal(F2, 4)
    assert sg.is_permutation and sg.is_monomial
    d = SemiLinearMap(F3, perm=np.arange(3, dtype=np.int32), diag=np.array([2, 1, 1], dtype=np.int16))
    assert d.is_monomial and not d.is_permutation
    f = SemiLinearMap.frobenius_map(F4, 2, 1)
    assert not f.is_monomial


@pytest.mark.parametrize("F", [F3, F4, field(3, 2)], ids=repr)
@pytest.mark.parametrize("frob, scaled", [(0, False), (1, False), (0, True), (1, True)])
def test_apply_equals_frobenius_scaling_and_scatter(F, frob, scaled):
    """apply skips the diagonal gather exactly for a pure permutation: an
    all-ones diagonal with frob 0, or frob 1 over GF(3), where it is 0.  One
    diagonal entry other than 1 takes the general path.  Either way the
    result is the three steps done in full, on a word and on rows, and
    stays so when the caller edits the arrays the map was built from."""
    rng = np.random.default_rng(F.q * 4 + frob * 2 + scaled)
    n = 9
    perm, diag = rng.permutation(n).astype(np.int32), np.ones(n, dtype=np.int16)
    if scaled:
        diag[4] = F.q - 1
    sg = SemiLinearMap(F, perm=perm, diag=diag, frob=frob)
    assert sg.is_permutation == (not scaled and sg.frob == 0)
    V = rng.integers(0, F.q, size=(5, n)).astype(np.int16)
    want = np.empty_like(V)
    want[:, perm] = F.mul(diag, F.frob(V, frob))
    assert np.array_equal(sg.apply(V), want) and np.array_equal(sg(V[2]), want[2])
    perm[:], diag[:] = np.arange(n), 2  # the map keeps its own copies
    assert np.array_equal(sg.apply(V), want)


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
                assert F4.sum(F4.mul(b, F4.frob(cw, 1))) == 0


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
    byte, the zero code and the whole space included, and _meet_dual's
    pivots are the basis's own."""
    F = data.draw(st.sampled_from([F2, F3, F4, field(3, 2)]), label="field")
    n = data.draw(st.integers(1, 8), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c, d = rand_code(F, n, k, rng), rand_code(F, n, int(rng.integers(0, n + 1)), rng)
    sg = rand_sigma(F, n, rng)
    cases = [
        (hull_basis(c, None), c.gen, c.gen),
        (hull_basis(c, sg), c.gen, sg.apply(c.gen)),
        (codes._meet_dual(F, c.gen, d.gen)[0], c.gen, d.gen),
        (codes._meet_dual(F, d.gen, c.gen)[0], d.gen, c.gen),
    ]
    for got, G, H in cases:
        want = _oracle_meet_dual(F, G, H)
        assert got.dtype == want.dtype == np.int16
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for G, H in ((c.gen, d.gen), (d.gen, c.gen)):
        B, piv = codes._meet_dual(F, G, H)
        assert piv == linalg.rref(F, B)[1]


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


@pytest.mark.parametrize("F", [F2, F3, F4], ids=repr)
def test_hull_dim_equals_oracle_at_size(F):
    """hull_dim, a packed Gram product and a bit-plane rank, against the
    oracle's explicit intersection on random [n, n/2] codes up to n = 96
    and on [A | ... | A], p copies, whose Euclidean hull is all of it: under
    the identity, the reversal, a monomial map and a semilinear one."""
    rng = np.random.default_rng(96 + F.q)
    for n in (12, 24, 48, 96):
        A = rng.integers(0, F.q, size=(n // (2 * F.p), n // F.p))
        for code in (LinearCode(F, n, rng.integers(0, F.q, size=(n // 2, n))), LinearCode(F, n, np.hstack([A] * F.p))):
            diag = rng.integers(1, F.q, size=n)
            maps = [SemiLinearMap.identity(F, n), SemiLinearMap.reversal(F, n),
                    SemiLinearMap(F, perm=rng.permutation(n), diag=diag),
                    SemiLinearMap(F, perm=rng.permutation(n), diag=diag, frob=1)]
            for sg in maps:
                assert hull_dim(code, sg) == oracle.brute_hull_dim(code, sg)
        # the last code, p copies of A, is Euclidean self-orthogonal
        assert hull_dim(code, maps[0]) == code.k > 0


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
    assert F5.sum(F5.mul(g[0, 1:], g[0, 1:])) == F5.neg(1)


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


def _all_codes(F, n):
    """Every linear code of length n over F, once each, by its RREF."""
    for k in range(n + 1):
        for piv in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(piv[r] + 1, n) if c not in piv]
            for vals in itertools.product(range(F.q), repeat=len(free)):
                G = np.zeros((k, n), dtype=np.int16)
                G[range(k), piv] = 1
                for (r, c), v in zip(free, vals):
                    G[r, c] = v
                yield LinearCode(F, n, G)


def _self_dual_subcode(F, rng):
    """Random subcode of a self-dual code {(x, c x P)} of length 2m <= 14,
    c^2 P P^T = -I, with its coordinates shuffled: c a square root of -1
    and P a permutation matrix, or over GF(3) c = 1 and P = I (x) [[1, 1],
    [1, 2]] for even m."""
    roots = [c for c in range(1, F.q) if F.mul(c, c) == F.neg(1)]
    if roots:
        m = int(rng.integers(1, 8))
        P = np.zeros((m, m), dtype=np.int16)
        P[range(m), rng.permutation(m)] = roots[0]
    else:
        m = 2 * int(rng.integers(1, 4))
        P = np.kron(np.eye(m // 2, dtype=np.int16), np.array([[1, 1], [1, 2]], dtype=np.int16))
    G = np.hstack([np.eye(m, dtype=np.int16), P])[:, rng.permutation(2 * m)]
    y = rng.integers(0, F.q, size=(int(rng.integers(0, m + 1)), m)).astype(np.int16)
    return LinearCode(F, 2 * m, linalg.mat_mul(F, y, G))


def _paper_sigma_rows(code):
    """Images of the identity rows under the map of Theorem 1, built from
    normalize_hull with apply alone: pi^-1 gamma pi for q > 2, gamma
    scaling the first h coordinates by 2; for q = 2, pi1^-1 pi2 pi1 on the
    n + 1 coordinates of {0} x C, pi1 fixing 0 and acting as pi on the
    rest, pi2 rotating the window 0..h."""
    F, n = code.field, code.n
    pi, _, h = normalize_hull(code)
    if F.q > 2:
        diag = np.ones(n, dtype=np.int16)
        diag[:h] = 2
        first, middle = pi, SemiLinearMap.diagonal(F, diag)
    else:
        first = SemiLinearMap.permutation(F, np.concatenate([[0], 1 + pi.perm]))
        window = np.arange(n + 1)
        window[: h + 1] = np.roll(window[: h + 1], 1)
        middle = SemiLinearMap.permutation(F, window)
    rows = np.eye(first.n, dtype=np.int16)
    for step in (first, middle, SemiLinearMap.permutation(F, np.argsort(first.perm))):
        rows = step.apply(rows)
    return rows


def test_make_lcd_sigma_is_the_paper_map():
    """The map read off the hull is the paper's composed map, exhaustively
    on small lengths and on random codes with large hulls."""
    rng = np.random.default_rng(17)
    cases = [c for F, top in ((F2, 5), (F3, 3)) for n in range(top + 1) for c in _all_codes(F, n)]
    for F in (F2, F3, F4, F5, field(3, 2)):
        for _ in range(25):
            cases.append(_self_dual_subcode(F, rng))
            n = int(rng.integers(1, 15))
            cases.append(rand_code(F, n, int(rng.integers(1, n + 1)), rng))
    big_hulls = 0
    for c in cases:
        sigma, out = make_lcd_sigma(c)
        assert out == (c if c.field.q > 2 else c.prepend_zero()) and sigma.frob == 0
        assert np.array_equal(sigma.apply(np.eye(sigma.n, dtype=np.int16)), _paper_sigma_rows(c))
        big_hulls += hull_dim(c) >= 3
    assert big_hulls > 30


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
            pi_inv = SemiLinearMap.permutation(F, np.argsort(pi.perm))
            lhs = oracle.brute_intersection_dim(apply_sigma(pi, c1), c2.dual()) == 0
            rhs = (
                oracle.brute_intersection_dim(c1, apply_sigma(pi_inv, c2).dual())
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



def _padded(F, zeros, *rows):
    return LinearCode(F, zeros + len(rows[0]), [[0] * zeros + [int(c) for c in r] for r in rows])


def test_lcp_construction_needs_no_search():
    """A GF(3) pair whose first good map in the old (q-1)^n diagonal walk lay
    beyond 2^n candidates: the construction yields one map, and it works."""
    c1 = _padded(F3, 30, "1000000", "0100100", "0010100", "0001000", "0000011")
    c2 = _padded(F3, 30, "1000001", "0100002", "0010200", "0001102", "0000012")
    assert len(list(itertools.islice(codes._lcp_candidates_big_q(F3, c1, c2), 2))) == 1
    start = time.perf_counter()
    pair = build_lcp(c1, c2)
    assert time.perf_counter() - start < 1
    assert pair.c1 == c1 and pair.c1.k + pair.c2.k == pair.n == 37
    assert oracle.brute_intersection_dim(pair.c1, pair.c2) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lcp_construction_is_complementary(data):
    """For q > 2 the one constructed map pairs c1 with (sigma(c2))^perp into
    a complementary pair: sigma is monomial on the aligned permutation and
    scales only C2's pivot coordinates; the zero code, the whole space and
    c2 = c1 included."""
    F = data.draw(st.sampled_from([F3, F4, F5, field(7), field(2, 3), field(3, 2)]), label="field")
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c1 = rand_code(F, n, k, rng)
    c2 = c1 if data.draw(st.booleans(), label="c2 = c1") else rand_code(F, n, k, rng)
    (sigma,) = codes._lcp_candidates_big_q(F, c1, c2)
    second = sigma_dual(c2, sigma)
    assert oracle.brute_intersection_dim(c1, second) == 0 and c1.k + second.k == n
    assert sigma.is_monomial and np.array_equal(sigma.perm, codes._aligned_perm(c1, c2)[0])
    off_pivots = np.ones(n, dtype=bool)
    off_pivots[(c2.gen != 0).argmax(axis=1)] = False
    assert np.all(sigma.diag[off_pivots] == 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_binary_lcp_construction_is_complementary(data):
    """For q = 2 the one constructed permutation of the n + 1 coordinates
    pairs {0} x c1 with (sigma({0} x c2))^perp into a complementary pair,
    in at most k transpositions; c2 inside c1^perp, where G1 G2^T = 0 and
    every swap is needed, included."""
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c1 = rand_code(F2, n, k, rng)
    kinds = ["c1", "random"] + (["inside c1^perp"] if 2 * k <= n else [])
    kind = data.draw(st.sampled_from(kinds), label="c2")
    if kind == "c1":
        c2 = c1
    elif kind == "random":
        c2 = rand_code(F2, n, k, rng)
    else:
        dual = c1.dual()
        while True:
            c2 = LinearCode(F2, n, linalg.mat_mul(F2, rng.integers(0, 2, (k, dual.k)), dual.gen))
            if c2.k == k:
                break
    maps = list(itertools.islice(codes._lcp_candidates_binary(F2, c1, c2), 2))
    assert len(maps) == 1
    (sigma,) = maps
    assert sigma.is_permutation and sigma.n == n + 1
    assert np.count_nonzero(sigma.perm != np.arange(n + 1)) <= 2 * k
    a, second = c1.prepend_zero(), sigma_dual(c2.prepend_zero(), sigma)
    assert oracle.brute_intersection_dim(a, second) == 0 and a.k + second.k == n + 1


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
