import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import oracle
from sigmalcd.codes import LinearCode, SemiLinearMap, hull_certificate, hull_dim, make_lcd_sigma
from sigmalcd.errors import BadInput, BudgetExceeded
from sigmalcd.field import field

from linalg_reference import intersect_dim

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F9 = field(3, 2)


def C(F, n, *rows):
    return LinearCode(F, n, np.array(rows, dtype=np.int16) if rows else None)


def test_enumerate_repetition():
    words = {tuple(w) for w in oracle.enumerate_codewords(C(F2, 3, (1, 1, 1)))}
    assert words == {(0, 0, 0), (1, 1, 1)}


def test_enumerate_full_space_count():
    c = C(F3, 2, (1, 0), (0, 1))
    assert sum(1 for _ in oracle.enumerate_codewords(c)) == 9


def test_enumerate_zero_code():
    assert [w.tolist() for w in oracle.enumerate_codewords(C(F2, 2))] == [[0, 0]]


def test_enumerate_distinct_members():
    rng = np.random.default_rng(20)
    for F in (F2, F3, F4):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, n + 1))
            g = rng.integers(0, F.q, size=(k, n)).astype(np.int16)
            c = LinearCode(F, n, g)
            seen = set()
            for w in oracle.enumerate_codewords(c):
                assert c.contains(w)
                seen.add(tuple(int(x) for x in w))
            assert len(seen) == F.q**c.k


def test_budget_exceeded():
    c = LinearCode(F2, 30, np.eye(30))
    with pytest.raises(BudgetExceeded):
        list(oracle.enumerate_codewords(c, 2**10))
    with pytest.raises(BudgetExceeded, match="1073741824 codewords exceed budget 1024"):
        oracle.brute_min_distance(c, 2**10)


def test_min_distance_examples():
    assert oracle.brute_min_distance(C(F2, 3, (1, 1, 1))) == 3
    ham = LinearCode(F2, 7, [[1, 1, 0, 1, 0, 0, 0]])
    # single cyclic shift generator row only: weight-3 word itself
    assert oracle.brute_min_distance(ham) == 3
    with pytest.raises(BadInput, match="zero code has no nonzero words"):
        oracle.brute_min_distance(C(F2, 2))


def test_weight_distribution_sums_to_qk():
    rng = np.random.default_rng(22)
    c = LinearCode(F2, 6, rng.integers(0, 2, size=(3, 6)).astype(np.int16))
    wd = oracle.weight_distribution(c)
    assert wd.sum() == 2**c.k
    assert wd[0] == 1
    nz = [i for i in range(1, 7) if wd[i]]
    assert min(nz) == oracle.brute_min_distance(c)


def test_blocked_enumeration_matches_gray_walk():
    # longer codes over four fields, each against the Gray walk
    rng = np.random.default_rng(24)
    for F, n, k in ((F2, 30, 10), (F3, 20, 6), (F4, 16, 5), (field(3, 2), 12, 3)):
        c = LinearCode(F, n, rng.integers(0, F.q, size=(k, n)).astype(np.int16))
        weights = [int(np.count_nonzero(w)) for w in oracle.enumerate_codewords(c)]
        assert oracle.weight_distribution(c).tolist() == np.bincount(weights, minlength=n + 1).tolist()
        assert oracle.brute_min_distance(c) == min(w for w in weights if w)
    assert oracle.weight_distribution(C(F3, 4)).tolist() == [1, 0, 0, 0, 0]


# (field, n): every branch of the span kernel.  GF(2), GF(4) and GF(8)
# take one, two and three bit planes a digit; GF(3), GF(5), GF(7), GF(9)
# and GF(25) the one-hot rotation, with p >= 5 and with e = 2; GF(17) and
# GF(251) int16 lanes.  GF(2), GF(3) and GF(4) sit on both sides of a
# 64-bit word boundary, where padding coordinates must read as digit 0
SPAN_CASES = (
    [(F2, n) for n in (1, 2, 63, 64, 65, 129)]
    + [(F, n) for F in (F3, F4) for n in (1, 3, 17, 40, 63, 64, 65)]
    + [(F, n) for F in (field(5), F9, field(2, 3), field(7), field(5, 2), field(17)) for n in (1, 3, 17, 40)]
    + [(field(251), n) for n in (1, 3, 17)]
)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_span_kernel_matches_gray_walk(data):
    F, n = data.draw(st.sampled_from(SPAN_CASES), label="field, n")
    k = data.draw(st.integers(0, min(n, int(math.log(600, F.q)))), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    c = LinearCode(F, n, np.random.default_rng(seed).integers(0, F.q, size=(k, n)).astype(np.int16))
    # small low tables put most rows in the high table, one cell none at all
    cells = data.draw(st.sampled_from([1, 40, 300, oracle._BLOCK_ENTRIES]), label="cells")
    weights = [int(np.count_nonzero(w)) for w in oracle.enumerate_codewords(c)]
    with mock.patch.object(oracle, "_BLOCK_ENTRIES", cells):
        assert oracle.weight_distribution(c).tolist() == np.bincount(weights, minlength=n + 1).tolist()
        if c.k == 0:
            with pytest.raises(BadInput, match="zero code has no nonzero words"):
                oracle.brute_min_distance(c)
        else:
            assert oracle.brute_min_distance(c) == min(w for w in weights if w)


@pytest.mark.parametrize("F,n", [(F2, 1), (F2, 9), (F3, 5), (F4, 4), (field(5), 3), (field(3, 2), 3)])
def test_span_kernel_zero_code_and_full_space(F, n):
    full = LinearCode(F, n, np.eye(n, dtype=np.int16))
    expected = [math.comb(n, w) * (F.q - 1) ** w for w in range(n + 1)]
    assert oracle.weight_distribution(full).tolist() == expected
    assert oracle.brute_min_distance(full) == 1
    assert oracle.weight_distribution(C(F, n)).tolist() == [1] + [0] * n


def test_span_kernel_length_zero():
    # a code of length 0 has one word, the empty one, of weight 0
    for F in (F2, F3, F4, field(17)):
        assert oracle.weight_distribution(C(F, 0)).tolist() == [1]


def test_literature_weight_enumerators():
    """The extended ternary Golay code [12, 6, 6], generator [I_6 | A]: A_6 =
    264, A_9 = 440, A_12 = 24.  The hexacode [6, 3, 4] over GF(4), omega
    the encoding 2 and omega-bar 3 under the default modulus x^2 + x + 1:
    1 + 45 z^4 + 18 z^6."""
    A = [[int(c) for c in row] for row in ("011111", "101221", "110122", "121012", "122101", "112210")]
    golay = LinearCode(F3, 12, np.hstack([np.eye(6, dtype=np.int16), np.array(A, dtype=np.int16)]))
    hexacode = C(F4, 6, (1, 0, 0, 1, 3, 2), (0, 1, 0, 1, 2, 3), (0, 0, 1, 1, 1, 1))
    assert F4.modulus == (1, 1, 1)
    for code, spectrum, d in ((golay, {0: 1, 6: 264, 9: 440, 12: 24}, 6), (hexacode, {0: 1, 4: 45, 6: 18}, 4)):
        assert oracle.weight_distribution(code).tolist() == [spectrum.get(w, 0) for w in range(code.n + 1)]
        assert oracle.brute_min_distance(code) == d


@pytest.mark.parametrize("F", [F2, F3, F4, field(5), field(7), field(2, 3), F9, field(17)], ids=str)
def test_low_table_fits_the_block(F):
    """At the enumeration benchmark's sizes, q^k up to 2^15 and n up to 40,
    the low span table holds at most _BLOCK_ENTRIES uint64 words, and the
    tables' product covers every message index."""
    k = int(math.log(2**15, F.q) + 1e-9)
    rng = np.random.default_rng(F.q)
    for n in (k + 10, 40):
        spans = oracle._Spans(F, rng.integers(0, F.q, size=(k, n)).astype(np.int16))
        # the weights read a view of the planes they compare; the whole table is its base
        assert spans._low.base.nbytes <= 8 * oracle._BLOCK_ENTRIES
        assert spans._low.shape[-1] * spans._high.shape[-1] == F.q**k


def test_enumeration_calls_no_linalg():
    from sigmalcd import linalg

    rng = np.random.default_rng(25)
    fields = (F2, F3, F4, field(5), F9, field(17))
    codes = [LinearCode(F, 12, rng.integers(0, F.q, size=(4, 12)).astype(np.int16)) for F in fields]

    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration called linalg")

    names = [n for n, f in vars(linalg).items() if inspect.isfunction(f) and f.__module__ == linalg.__name__]
    with mock.patch.multiple(linalg, **{n: refuse for n in names}):
        for c in codes:
            oracle.weight_distribution(c)
            oracle.brute_min_distance(c)


def test_hull_oracle_calls_no_linalg():
    """The hull and intersection oracles run on their own Gauss-Jordan."""
    from sigmalcd import linalg

    rng = np.random.default_rng(26)
    cases = []
    for F in (F2, F3, F4, field(3, 2)):
        n = 6
        mid = LinearCode(F, n, rng.integers(0, F.q, size=(3, n)).astype(np.int16))
        cs = [C(F, n), mid, LinearCode(F, n, np.eye(n, dtype=np.int16))]
        perm, diag = rng.permutation(n).astype(np.int32), rng.integers(1, F.q, size=n).astype(np.int16)
        maps = [None, SemiLinearMap(F, perm=perm, diag=diag), SemiLinearMap(F, perm=perm, diag=diag, frob=1)]
        for c in cs:
            cases += [(oracle.brute_hull_dim, (c, s), hull_dim(c, s)) for s in maps]
            cases += [(oracle.brute_intersection_dim, (c, d), intersect_dim(F, c.gen, d.gen)) for d in cs]
    assert {c.k for (_, (c, _), _) in cases} >= {0, 6} and any(0 < c.k < 6 for _, (c, _), _ in cases)

    def refuse(*args, **kwargs):
        raise AssertionError("the hull oracle called linalg")

    names = [n for n, f in vars(linalg).items() if inspect.isfunction(f) and f.__module__ == linalg.__name__]
    with mock.patch.multiple(linalg, **{n: refuse for n in names}):
        got = [fn(*args) for fn, args, _ in cases]
    assert got == [want for _, _, want in cases]


def test_intersection_examples():
    c = C(F3, 3, (1, 0, 0), (0, 1, 0))
    assert oracle.brute_intersection_dim(c, c) == 2
    sd = C(F2, 2, (1, 1))
    assert oracle.brute_intersection_dim(sd, sd.dual()) == 1
    a = C(F2, 2, (1, 0))
    b = C(F2, 2, (0, 1))
    assert oracle.brute_intersection_dim(a, b) == 0


def test_hull_agrees_with_formula():
    rng = np.random.default_rng(23)
    for F in (F2, F3, F4):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            c = LinearCode(F, n, rng.integers(0, F.q, size=(k, n)).astype(np.int16))
            perm = rng.permutation(n).astype(np.int32)
            diag = rng.integers(1, F.q, size=n).astype(np.int16)
            sg = SemiLinearMap(F, perm=perm, diag=diag, frob=int(rng.integers(0, F.e)))
            assert oracle.brute_hull_dim(c, sg) == hull_dim(c, sg)


# ------------------------------------------------------ hull certificates


def _maps(F, n, rng):
    """The identity, a monomial map and a semilinear one of length n."""
    perm, diag = rng.permutation(n).astype(np.int32), rng.integers(1, F.q, size=n).astype(np.int16)
    return [None, SemiLinearMap(F, perm=perm, diag=diag), SemiLinearMap(F, perm=perm, diag=diag, frob=1)]


def _cert_cases(seed):
    """(code, sigma) over GF(2), GF(3), GF(4) and GF(9): k = 0, k = n, a
    random code and a self-orthogonal one, under every kind of map."""
    rng = np.random.default_rng(seed)
    cases = []
    for F in (F2, F3, F4, F9):
        n = 6
        mid = LinearCode(F, n, rng.integers(0, F.q, size=(3, n)).astype(np.int16))
        so = C(F, n, [1] * F.p + [0] * (n - F.p))  # <v, v> = p = 0
        for c in (C(F, n), mid, so, LinearCode(F, n, np.eye(n, dtype=np.int16))):
            cases += [(c, s) for s in _maps(F, n, rng)]
    return cases


def test_certified_hull_matches_brute_oracle():
    """The small cases, and a [256, 128] code under reversal per field, whose
    Gram products are long enough for BLAS and for several elimination paths."""
    cases = _cert_cases(27)
    assert {c.k for c, _ in cases} >= {0, 3, 6}
    rng = np.random.default_rng(256)
    for F in (F2, F3, F4, F9):
        big = LinearCode(F, 256, rng.integers(0, F.q, size=(128, 256)).astype(np.int16))
        cases.append((big, SemiLinearMap.reversal(F, 256)))
    for c, s in cases:
        h, cert = hull_certificate(c, s)
        assert h == oracle.brute_hull_dim(c, s)
        assert oracle.check_hull_certificate(c, s, h, cert)


def test_certificate_check_calls_no_linalg():
    from sigmalcd import linalg

    proofs = [(c, s, *hull_certificate(c, s)) for c, s in _cert_cases(28)]

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate check called linalg")

    names = [n for n, f in vars(linalg).items() if inspect.isfunction(f) and f.__module__ == linalg.__name__]
    with mock.patch.multiple(linalg, **{n: refuse for n in names}):
        assert all(oracle.check_hull_certificate(*proof) for proof in proofs)


def test_certificate_check_refuses_malformed_parts():
    c = LinearCode(F3, 4, [[1, 0, 1, 0], [0, 1, 1, 1]])
    h, (cols, Y, N) = hull_certificate(c, None)
    assert h == 0 and oracle.check_hull_certificate(c, None, h, (cols, Y, N))
    bad = [
        (h, ([cols[0]] * len(cols), Y, N)),  # repeated column
        (h, ([-1] + cols[1:], Y, N)),  # column out of range
        (h, (np.array(cols, dtype=float), Y, N)),
        (h, (cols, Y[:, :-1], N)),
        (h, (cols, Y, N + 3)),  # encodings outside GF(3)
        (-1, (cols, Y, N)),
        (c.k + 1, (cols, Y, N)),
    ]
    for claim, cert in bad:
        assert not oracle.check_hull_certificate(c, None, claim, cert)
    # G must carry the identity at the pivots the code records.  With a
    # repeated row, M = G G^T = [[2, 2], [2, 2]] has rank 1, which this
    # certificate proves, but the code it spans is LCD: hull 0, not 1
    forged = LinearCode(F3, 4, [[1, 0, 1, 0], [0, 1, 1, 1]])
    forged.gen = np.array([[1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.int16)
    assert not oracle.check_hull_certificate(forged, None, 1, ([0], np.array([[1, 1]]), np.array([[2, 0]])))


CERT_FIELDS = (F2, F3, F4, F9)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_tampered_certificate_is_rejected_or_still_true(data):
    """One changed entry of h, c, Y or N: the check rejects it, or the
    claim it then proves is still the true hull dimension.  A changed h
    with the rest untouched is always rejected, and so is a wrong h with a
    certificate reshaped to fit it."""
    F = data.draw(st.sampled_from(CERT_FIELDS), label="field")
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(0, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c = LinearCode(F, n, rng.integers(0, F.q, size=(k, n)).astype(np.int16))
    sigma = _maps(F, n, rng)[data.draw(st.integers(0, 2), label="map")]
    h, (cols, Y, N) = hull_certificate(c, sigma)
    truth = oracle.brute_hull_dim(c, sigma)
    assert h == truth and oracle.check_hull_certificate(c, sigma, h, (cols, Y, N))

    other = data.draw(st.integers(-1, c.k + 1).filter(lambda v: v != h), label="changed h")
    assert not oracle.check_hull_certificate(c, sigma, other, (cols, Y, N))
    # a claim one off with every shape to match: one pivot dropped, or one
    # more column with a drawn row of Y and of N
    r = len(cols)
    if r:
        i = data.draw(st.integers(0, r - 1), label="dropped")
        keep = [t for t in range(r) if t != i]
        assert not oracle.check_hull_certificate(c, sigma, h + 1, ([cols[t] for t in keep], Y[keep], N[keep]))
    if h:
        j = data.draw(st.sampled_from([t for t in range(c.k) if t not in cols]), label="added")
        y = np.array(data.draw(st.lists(st.integers(0, F.q - 1), min_size=c.k, max_size=c.k), label="y"))
        y[cols], y[j] = 0, 1
        longer_Y = np.vstack([np.where(np.arange(c.k) == j, 0, Y), y]).astype(np.int16)
        z = data.draw(st.lists(st.integers(0, F.q - 1), min_size=c.k, max_size=c.k), label="z")
        longer_N = np.vstack([N, z]).astype(np.int16)
        assert not oracle.check_hull_certificate(c, sigma, h - 1, ([*cols, j], longer_Y, longer_N))

    part = data.draw(st.sampled_from(["h", "c", "Y", "N"] if cols else ["h"]), label="part")
    claim, cols, Y, N = h, list(cols), Y.copy(), N.copy()
    if part == "h":
        claim = other
    elif part == "c":
        i = data.draw(st.integers(0, len(cols) - 1), label="i")
        cols[i] = data.draw(st.integers(-1, c.k).filter(lambda v: v != cols[i]), label="column")
    else:
        M = Y if part == "Y" else N
        i, j = data.draw(st.integers(0, M.shape[0] - 1), label="i"), data.draw(st.integers(0, M.shape[1] - 1), label="j")
        M[i, j] = data.draw(st.integers(0, F.q).filter(lambda v: v != M[i, j]), label="entry")
    assert not oracle.check_hull_certificate(c, sigma, claim, (cols, Y, N)) or claim == truth


# ------------------------------------------------------ sigma family search


def test_search_identity_first_on_lcd():
    c = C(F2, 3, (1, 0, 0))
    for fam in oracle.SIGMA_FAMILIES:
        sg = oracle.exhaustive_sigma_search(c, fam)
        assert sg is not None
        assert np.array_equal(sg.perm, np.arange(3)) and np.all(sg.diag == 1)


def test_search_diagonal_family_gf5():
    c = C(field(5), 2, (1, 2))
    sg = oracle.exhaustive_sigma_search(c, "diagonal-lambda")
    assert sg is not None
    assert sg.diag.tolist() == make_lcd_sigma(c)[0].diag.tolist() == [2, 1]


def test_search_permutation_family_obstruction():
    # even-like binary code containing the all-ones word: provably no
    # permutation works at the original length (n=4 is fully enumerated)
    c = C(F2, 4, (1, 1, 0, 0), (0, 0, 1, 1))
    assert oracle.exhaustive_sigma_search(c, "permutation-sample") is None


def test_search_unknown_family():
    with pytest.raises(BadInput, match="unknown family 'nope'"):
        oracle.exhaustive_sigma_search(C(F2, 2, (1, 0)), "nope")


def test_search_cyclic_family():
    c = C(F2, 3, (1, 1, 0))
    sg = oracle.exhaustive_sigma_search(c, "cyclic-pi2")
    assert sg is not None and oracle.brute_hull_dim(c, sg) == 0
