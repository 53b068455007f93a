import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import oracle
from sigmalcd.codes import LinearCode, SemiLinearMap, hull_dim, make_lcd_sigma
from sigmalcd.errors import BadInput, BudgetExceeded
from sigmalcd.field import field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


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


# (field, n): GF(2) on both sides of a 64-bit word boundary, and lengths
# short enough that k = n stays enumerable on every field
SPAN_CASES = [(F2, n) for n in (1, 2, 63, 64, 65, 129)] + [
    (F, n) for F in (F3, F4, field(5), field(3, 2)) for n in (1, 3, 17, 40)
]


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


def test_enumeration_calls_no_linalg():
    from sigmalcd import linalg

    rng = np.random.default_rng(25)
    codes = [LinearCode(F, 12, rng.integers(0, F.q, size=(4, 12)).astype(np.int16)) for F in (F2, F3, F4)]

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
            cases += [(oracle.brute_intersection_dim, (c, d), linalg.intersect_dim(F, c.gen, d.gen)) for d in cs]
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
