"""The table-driven field kernel, linalg.mat_mul, linalg.rref, linalg.rank
and the oracle's own product against slow references.

The schoolbook reference knows only p, e and the modulus: an element is its
digit polynomial, a product is the polynomial product reduced by the
modulus, and matrices are multiplied and reduced with plain triple loops.
Larger eliminations are checked against the oracle's own per-column
Gauss-Jordan.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import linalg, oracle
from sigmalcd.errors import DivisionByZero
from sigmalcd.field import field
from sigmalcd.oracle import _gauss_jordan

FIELDS = [field(2), field(3), field(2, 2), field(2, 3), field(3, 2), field(2, 4), field(131)]
# mat_mul packs g < e digits per word on the first three and one on GF(61^2)
PRODUCT_FIELDS = FIELDS + [field(2, 8), field(2, 12), field(3, 7), field(61, 2)]
# the certificate check's products: the CLI's fields, a large prime and two
# extension fields with more digit planes
ORACLE_PRODUCT_FIELDS = [field(2), field(3), field(2, 2), field(3, 2), field(4093), field(61, 2), field(3, 7)]
SETTINGS = settings(max_examples=150, deadline=None, database=None)


# ---------------------------------------------------------------- reference


def ref_digits(F, a):
    return [(a // F.p**i) % F.p for i in range(F.e)]


def ref_encode(F, d):
    return sum(c * F.p**i for i, c in enumerate(d))


def ref_add(F, a, b):
    return ref_encode(F, [(x + y) % F.p for x, y in zip(ref_digits(F, a), ref_digits(F, b))])


def ref_neg(F, a):
    return ref_encode(F, [(-x) % F.p for x in ref_digits(F, a)])


def ref_mul(F, a, b):
    p, e, mod = F.p, F.e, F.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(ref_digits(F, a)):
        for j, y in enumerate(ref_digits(F, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * e - 2, e - 1, -1):  # x^e = -(mod[0] + ... + mod[e-1] x^(e-1))
        c, prod[d] = prod[d], 0
        for i in range(e):
            prod[d - e + i] = (prod[d - e + i] - c * mod[i]) % p
    return ref_encode(F, prod[:e])


def ref_pow(F, a, k):
    if k < 0:
        if a == 0:
            raise ZeroDivisionError
        a, k = ref_pow(F, a, F.q - 2), -k
    out = 1
    while k:
        if k & 1:
            out = ref_mul(F, out, a)
        a = ref_mul(F, a, a)
        k >>= 1
    return out


def ref_inv(F, a):
    return ref_pow(F, a, -1)


def ref_mat_mul(F, A, B, m):
    k, n = len(A), len(B)
    out = [[0] * m for _ in range(k)]
    for i in range(k):
        for j in range(m):
            for t in range(n):
                out[i][j] = ref_add(F, out[i][j], ref_mul(F, A[i][t], B[t][j]))
    return out


def ref_rref(F, M):
    R = [list(row) for row in M]
    m = len(R)
    n = len(R[0]) if R else 0
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        s = ref_inv(F, R[r][c])
        R[r] = [ref_mul(F, s, x) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [ref_add(F, x, ref_neg(F, ref_mul(F, f, y))) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


# ---------------------------------------------------------------- strategies

fields = st.sampled_from(FIELDS)


@st.composite
def field_and_elements(draw, count):
    F = draw(fields)
    return F, [draw(st.integers(0, F.q - 1)) for _ in range(count)]


@st.composite
def matrix(draw, F, rows, cols):
    return [[draw(st.integers(0, F.q - 1)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def product_operands(draw, max_dim=5, fields=PRODUCT_FIELDS):
    """A field and int16 matrices A (k x n), B (n x m), any size 0 included."""
    F = draw(st.sampled_from(fields))
    k, n, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    A = np.array(draw(matrix(F, k, n)), dtype=np.int16).reshape(k, n)
    B = np.array(draw(matrix(F, n, m)), dtype=np.int16).reshape(n, m)
    return F, A, B


def as_array(M, cols):
    return np.array(M, dtype=np.int16).reshape(len(M), cols)


# ---------------------------------------------------------------- field ops


@SETTINGS
@given(field_and_elements(2))
def test_scalar_ops_match_reference(case):
    F, (a, b) = case
    assert F.add(a, b) == ref_add(F, a, b)
    assert F.sub(a, b) == ref_add(F, a, ref_neg(F, b))
    assert F.neg(a) == ref_neg(F, a)
    assert F.mul(a, b) == ref_mul(F, a, b)
    if b:
        assert F.div(a, b) == ref_mul(F, a, ref_inv(F, b))
        assert F.inv(b) == ref_inv(F, b)
    else:
        with pytest.raises(DivisionByZero):
            F.div(a, b)
        with pytest.raises(DivisionByZero):
            F.inv(b)


@SETTINGS
@given(field_and_elements(1), st.integers(-300, 300))
def test_pow_matches_reference(case, k):
    F, (a,) = case
    if a == 0 and k < 0:
        with pytest.raises(DivisionByZero):
            F.pow(a, k)
        with pytest.raises(DivisionByZero):
            F.pow(np.array([a, 1], dtype=np.int16), k)
        return
    want = ref_pow(F, a, k)
    assert F.pow(a, k) == want
    assert F.pow(np.array([a], dtype=np.int16), k).tolist() == [want]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_pow_zero_cases(F):
    assert F.pow(0, 0) == 1
    assert F.pow(0, 1) == 0 and F.pow(0, F.q - 1) == 0
    assert F.pow(np.zeros(3, dtype=np.int16), 0).tolist() == [1, 1, 1]
    assert F.pow(np.arange(F.q, dtype=np.int16), F.q - 1).tolist() == [0] + [1] * (F.q - 1)


@SETTINGS
@given(field_and_elements(12))
def test_array_ops_match_scalar_ops(case):
    F, xs = case
    a = np.array(xs[:6], dtype=np.int16)
    b = np.array(xs[6:], dtype=np.int16)
    for op in ("add", "sub", "mul"):
        got = getattr(F, op)(a, b)
        assert got.dtype == np.int16
        assert got.tolist() == [getattr(F, op)(int(x), int(y)) for x, y in zip(a, b)]
    assert F.neg(a).tolist() == [F.neg(int(x)) for x in a]
    nz = b[b != 0]
    if nz.size:
        assert F.inv(nz).tolist() == [F.inv(int(x)) for x in nz]
        assert F.div(a[: nz.size], nz).tolist() == [F.div(int(x), int(y)) for x, y in zip(a, nz)]
    # a scalar against an array broadcasts; numpy scalars give Python ints
    assert F.mul(int(a[0]), b).tolist() == [F.mul(int(a[0]), int(y)) for y in b]
    assert type(F.mul(a[0], b[0])) is int and type(F.add(a[0], b[0])) is int
    want = 0
    for x in xs:
        want = ref_add(F, want, x)
    assert F.sum(np.array(xs, dtype=np.int16)) == want


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_sum_of_nothing_is_zero(F):
    """An empty list sums to 0 like an empty int16 array, with and without
    an axis; an empty column of a matrix sums to 0 too."""
    for empty in ([], np.zeros(0, dtype=np.int16)):
        assert F.sum(empty) == 0 and type(F.sum(empty)) is int
        assert F.sum(empty, axis=0) == 0
    assert F.sum(np.zeros((0, 3), dtype=np.int16), axis=0).tolist() == [0, 0, 0]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_regular_representation(F):
    """Multiplication by a is the e x e GF(p) matrix whose row j holds the
    digits of a x^j, built here from the schoolbook product.  mat_mul's
    packed words must reproduce it for every a against a sample of b."""
    a = np.arange(F.q, dtype=np.int16)
    b = np.arange(min(F.q, 16), dtype=np.int16)
    regular = np.array([[ref_digits(F, ref_mul(F, int(x), F.p**j)) for j in range(F.e)] for x in a])
    b_digits = np.array([ref_digits(F, int(y)) for y in b])
    want = np.einsum("xje,bj->xbe", regular, b_digits) % F.p
    got = linalg.mat_mul(F, a[:, None], b[None, :])
    assert got.tolist() == [[ref_encode(F, d) for d in row] for row in want.tolist()]


# ---------------------------------------------------------------- linalg


@settings(max_examples=100, deadline=None, database=None)
@given(product_operands())
def test_mat_mul_matches_reference(case):
    F, A, B = case
    got = linalg.mat_mul(F, A, B)
    assert got.dtype == np.int16
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


def chunk(F):
    """The longest inner-dimension chunk mat_mul sums before peeling."""
    g, w = linalg._packing(F)[:2]
    return (2**w - F.p) // (g * (F.p - 1) ** 2)


# a float sum of integer products is exact below 2^mantissa
MANTISSA = {np.float32: 24, np.float64: 53}


@pytest.mark.parametrize("p", [2, 3, 131, 4093])
def test_exactness_bound(p):
    """The packing invariant on every field of characteristic p: a product
    word holds 2g - 1 fields of w bits within its float's mantissa, a field
    sums at most g (p - 1)^2 per term, and a chunk is the longest whose
    field stays below 2^w with p to spare (the reduced sum it is added to
    when g = 1).  g > 1, or a float32 word, only with a chunk of MIN_CHUNK
    terms or more; g gives the fewest digit groups that allow, and the word
    is float64 only where a float32 one is not allowed."""
    e = 1
    while p**e <= 4096:
        F = field(p, e)
        g, w, dtype, tables, fold = linalg._packing(F)
        t, bound, groups = chunk(F), g * (p - 1) ** 2, -(-e // g)
        assert (2 * g - 1) * w <= MANTISSA[dtype]
        assert t * bound + p <= 2**w < (t + 1) * bound + p
        assert (g == 1 and dtype is np.float64) or t >= linalg.MIN_CHUNK
        if dtype is np.float64:
            assert (2 ** (24 // (2 * g - 1)) - p) // bound < linalg.MIN_CHUNK
        assert tables is None if e == 1 else (tables.shape == (F.q, groups) and tables.dtype == dtype)
        assert fold is None if e == 1 else fold.shape == ((2 ** (e - 1),) if p == 2 else (e, (2 * g - 1) * groups**2))
        for h in range(1, e + 1):
            v = 53 // (2 * h - 1)
            if -(-e // h) < groups:
                assert h > 1 and (2**v - p) // (h * (p - 1) ** 2) < linalg.MIN_CHUNK
        e += 1


@pytest.mark.parametrize("F, g", [(field(2), 1), (field(3), 1), (field(2, 2), 2), (field(2, 3), 3), (field(3, 2), 2)], ids=repr)
def test_small_fields_pack_one_word(F, g):
    """GF(2), GF(3), GF(4), GF(8) and GF(9) take one word per entry, so one
    product per chunk: over GF(2) and GF(3) the entry itself."""
    plan = linalg._packing(F)
    assert plan[0] == g and -(-F.e // g) == 1
    assert plan[3] is None if F.e == 1 else plan[3].shape == (F.q, 1)


@pytest.mark.parametrize("p, dtype", [(2, np.float32), (3, np.float32), (131, np.float32), (251, np.float32), (257, np.float64), (4093, np.float64)])
def test_prime_fields_take_float32_while_a_chunk_holds_min_chunk(p, dtype):
    """(2^24 - p) / (p - 1)^2 terms fit a float32 chunk: 268 at p = 251,
    255 at p = 257, so GF(257) on takes float64."""
    assert linalg._packing(field(p))[2] is dtype
    assert ((2**24 - p) // (p - 1) ** 2 >= linalg.MIN_CHUNK) == (dtype is np.float32)


@pytest.mark.parametrize("F", PRODUCT_FIELDS, ids=repr)
def test_mat_mul_top_entries_at_the_longest_chunk(F):
    """All-(q - 1) operands drive every field of a packed product to its
    bound: n terms sum to n (q - 1)^2.  n is one chunk and one past it
    where a chunk is short enough to build, else 4096."""
    top, t = F.q - 1, chunk(F)
    square = ref_mul(F, top, top)
    for n in (t, t + 1) if t < 70_000 else (4096,):
        A = np.full((2, n), top, dtype=np.int16)
        B = np.full((n, 3), top, dtype=np.int16)
        assert linalg.mat_mul(F, A, B).tolist() == [[ref_mul(F, n % F.p, square)] * 3] * 2


@pytest.mark.parametrize("p", [2, 3, 131])
def test_mat_mul_top_entries_at_the_float32_chunk(p):
    """A float32 chunk of t terms sums to t (p - 1)^2 < 2^24 - p, reduced
    before the next adds to it.  GF(131)'s chunk is 992 terms at real size;
    GF(2)'s and GF(3)'s pass 2^22, so they run under a limit of 7 terms.
    All-(p - 1) operands of one chunk, one past it and two past it, all-
    (p - 2) ones, whose odd products make odd partial sums, and large random
    entries against an int64 product: float32 would round an odd sum past
    2^24 in an overlong chunk."""
    F = field(p)
    assert linalg._packing(F)[2] is np.float32
    with pytest.MonkeyPatch.context() as mp:
        if p < 131:
            mp.setattr(linalg, "EXACT_LIMIT", 7 * (p - 1) ** 2 + p)
        t = (min(2**24, linalg.EXACT_LIMIT) - p) // (p - 1) ** 2
        assert t == (992 if p == 131 else 7)
        for n, v in itertools.product((t, t + 1, 2 * t + 1), {p - 1, max(p - 2, 1)}):
            A = np.full((2, n), v, dtype=np.int16)
            B = np.full((3, n), v, dtype=np.int16).T
            assert linalg.mat_mul(F, A, B).tolist() == [[n * v * v % p] * 3] * 2
        # large random entries: sums of an overlong chunk would pass 2^24
        rng = np.random.default_rng(p)
        A, B = rng.integers(p * 3 // 4, p, size=(4, 3 * t + 2)), rng.integers(p * 3 // 4, p, size=(3 * t + 2, 5))
        assert np.array_equal(linalg.mat_mul(F, A, B), A @ B % p)


@settings(max_examples=40, deadline=None, database=None)
@given(product_operands(max_dim=7))
def test_mat_mul_split_inner_dimension(case):
    """With the exactness limit lowered, the inner dimension is summed in
    chunks of three terms, float32 words (GF(2), GF(3), GF(131)) included;
    the result must not change."""
    F, A, B = case
    g = linalg._packing(F)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "EXACT_LIMIT", 3 * g * (F.p - 1) ** 2 + F.p)
        got = linalg.mat_mul(F, A, B)
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


@settings(max_examples=100, deadline=None, database=None)
@given(product_operands(max_dim=7), st.sampled_from(["transpose", "columns", "rows"]))
def test_mat_mul_strided_right_operand(case, layout):
    """gram multiplies by sigma(G).T, a transposed view; the product must
    not depend on the right operand's strides: a transposed copy, every
    other column of a wider matrix, or every other row of a taller one."""
    F, A, B = case
    if layout == "transpose":
        right = np.ascontiguousarray(B.T).T
    elif layout == "columns":
        right = np.repeat(B, 2, axis=1)[:, ::2]
    else:
        right = np.repeat(B, 2, axis=0)[::2]
    assert np.array_equal(right, B)
    assert linalg.mat_mul(F, A, right).tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_rref_and_rank_match_reference(data):
    F = data.draw(fields)
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    M = data.draw(matrix(F, rows, cols))
    R, piv = linalg.rref(F, as_array(M, cols))
    want_R, want_piv = ref_rref(F, M)
    assert piv == want_piv
    assert R.tolist() == want_R
    assert linalg.rank(F, as_array(M, cols)) == len(want_piv)


@st.composite
def elimination_case(draw, max_rows=24, max_cols=30):
    """A field (GF(4093) too) and an int16 matrix up to 24 x 30, any shape
    0 included: each row a random combination of the first r, with r drawn,
    and some columns zeroed."""
    F = draw(st.sampled_from(FIELDS + [field(4093)]))
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.integers(0, F.q, size=(m, n)).astype(np.int16)
    M[:, rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0
    r = draw(st.integers(0, m))
    if r < m:
        coeffs = rng.integers(0, F.q, size=(m, r))
        M = F.sum(F.mul(coeffs[:, :, None], M[None, :r]), axis=1).reshape(m, n)
    return F, M


def assert_rref_is_gauss_jordan(F, M):
    """rref byte-identical to the oracle's Gauss-Jordan, and rank its
    pivot count."""
    R, piv = linalg.rref(F, M)
    want_R, want_piv = _gauss_jordan(F, M)
    assert piv == want_piv
    assert R.dtype == want_R.dtype == np.int16 and R.shape == want_R.shape
    assert R.tobytes() == want_R.tobytes()
    assert linalg.rank(F, M) == len(want_piv)


@settings(max_examples=300, deadline=None, database=None)
@given(elimination_case())
def test_rref_matches_gauss_jordan(case):
    """The whole-slice kernel against the per-column loop: table and
    log/exp products on GF(2^e), lazy runs on GF(p), rank-deficient rows,
    zero columns, one row and empty shapes."""
    assert_rref_is_gauss_jordan(*case)


def inside_the_limits(F, M):
    """Whether rank counts M's pivots on bit planes."""
    m, n = M.shape
    return F.q <= 4 and n <= linalg.PACKED_COLUMNS and m * n < linalg.PACKED_CELLS


def assert_forward_elimination(F, M):
    """rank counts the pivots of the oracle's Gauss-Jordan, and inside the
    limits the bit planes find those pivot columns.  rref's forward loop
    leaves an echelon form of M's row space: a 1 at each pivot with zeros
    left of it, and zero rows below the rank."""
    want_R, want_piv = _gauss_jordan(F, M)
    assert linalg.rank(F, M) == len(want_piv)
    if inside_the_limits(F, M):
        assert linalg._forward_planes(F, M) == want_piv
    E, piv = linalg.rref(F, M, reduced=False)
    assert E.dtype == np.int16 and E.shape == M.shape and ((0 <= E) & (E < F.q)).all()
    assert piv == want_piv and not E[len(piv) :].any()
    for i, c in enumerate(piv):
        assert E[i, c] == 1 and not E[i, :c].any()
    assert _gauss_jordan(F, E)[0].tobytes() == want_R.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(elimination_case())
def test_rank_is_forward_elimination(case):
    """rank's bit planes on GF(2), GF(3) and GF(4) and rref's forward loop
    on every field, against the oracle's Gauss-Jordan."""
    assert_forward_elimination(*case)


# the fields whose forward pass runs on bit planes: one plane, two digit
# planes and the one-hot planes [x = 1], [x = 2]
PLANE_FIELDS = [field(2), field(2, 2), field(3)]


@pytest.mark.parametrize("F", PLANE_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_packed_forward_pass_edges(F, n):
    """Row fields of W = 8, 16, 64 and 72 bits, with n next to W, for 0, 1
    and n + 3 rows: random, all zero, a first column nonzero only in the
    last row (its pivot row is swapped with the lowest field), zero columns
    between pivots, and combinations of the first n // 2 rows."""
    rng = np.random.default_rng(n)
    for m in (0, 1, n + 3):
        assert n <= linalg.PACKED_COLUMNS and m * n < linalg.PACKED_CELLS
        M = rng.integers(0, F.q, size=(m, n)).astype(np.int16)
        last = M.copy()
        last[:, :1] = 0
        last[-1:, :1] = F.q - 1
        gaps = M.copy()
        gaps[:, 1::3] = 0
        k = min(m, n // 2)
        coeffs = rng.integers(0, F.q, size=(m, k))
        low_rank = linalg.mat_mul(F, coeffs, M[:k]) if k else np.zeros_like(M)
        for case in (M, np.zeros_like(M), last, gaps, low_rank):
            assert_forward_elimination(F, case)


@pytest.mark.parametrize("F", PLANE_FIELDS, ids=repr)
@pytest.mark.parametrize("r", [0, 1, 68, 136])
def test_packed_forward_pass_rank_deficient_products(F, r):
    """137 x 137 products through r dimensions, so 137 - r rows end zero."""
    rng = np.random.default_rng(r)
    A, B = rng.integers(0, F.q, size=(137, r)), rng.integers(0, F.q, size=(r, 137))
    M = linalg.mat_mul(F, A, B) if r else np.zeros((137, 137), dtype=np.int16)
    assert linalg.rank(F, M) <= r
    assert_forward_elimination(F, M)


@pytest.mark.parametrize("F", PLANE_FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(16, 300), (256, 128), (200, 200)])
def test_forward_pass_past_the_packed_sizes(F, shape):
    """Past PACKED_COLUMNS or PACKED_CELLS rank takes rref's forward loop;
    with the limits raised it counts the bit planes' pivots, which are
    the loop's."""
    m, n = shape
    M = np.random.default_rng(m + n).integers(0, F.q, size=shape).astype(np.int16)
    M[: m // 2] = M[m // 2 : 2 * (m // 2)]  # rank at most m - m // 2
    assert not inside_the_limits(F, M)
    E, piv = linalg.rref(F, M, reduced=False)
    assert linalg.rank(F, M) == len(piv) <= m - m // 2
    assert E.dtype == np.int16 and not E[len(piv) :].any()
    assert all(E[i, c] == 1 and not E[i, :c].any() for i, c in enumerate(piv))
    assert linalg.row_space(F, E).tobytes() == linalg.row_space(F, M).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PACKED_COLUMNS", n)
        mp.setattr(linalg, "PACKED_CELLS", m * n + 1)
        mp.setattr(linalg, "rref", mock.Mock(side_effect=AssertionError("rref called")))
        assert linalg.rank(F, M) == len(piv)
        assert linalg._forward_planes(F, M) == piv


@pytest.mark.parametrize("F", PLANE_FIELDS, ids=repr)
def test_rank_inside_the_limits_calls_no_rref(F, monkeypatch):
    """Inside the limits rank counts bit-plane pivots and calls no rref;
    past them it calls rref once.  rref(..., reduced=False) is the int16
    loop's echelon form: [[1, 1], [0, 1]] keeps its 1 above the pivot."""
    rng = np.random.default_rng(F.q)
    M = rng.integers(0, F.q, size=(40, 60)).astype(np.int16)
    M[20:] = M[:20]
    wide = rng.integers(0, F.q, size=(2, linalg.PACKED_COLUMNS + 1)).astype(np.int16)
    counted = mock.Mock(side_effect=linalg.rref)
    monkeypatch.setattr(linalg, "rref", counted)
    assert linalg.rank(F, M) == len(_gauss_jordan(F, M)[1]) == 20
    assert linalg.rank(F, np.eye(3, dtype=np.int16)) == 3 and linalg.rank(F, M[:0]) == 0
    assert counted.call_count == 0
    assert linalg.rank(F, wide) == 2 and counted.call_count == 1
    E, piv = linalg.rref(F, np.array([[1, 1], [0, 1]]), reduced=False)
    assert E.dtype == np.int16 and E.tolist() == [[1, 1], [0, 1]] and piv == [0, 1]
    assert_forward_elimination(F, M)


@pytest.mark.parametrize("F", PLANE_FIELDS, ids=repr)
def test_rank_of_the_transpose(F):
    """Row rank is column rank on 137 x 137 matrices, on each of the three
    plane layouts: one random, one a product through 100 dimensions."""
    rng = np.random.default_rng(137)
    thin = [rng.integers(0, F.q, size=shape).astype(np.int16) for shape in ((137, 100), (100, 137))]
    for M in (rng.integers(0, F.q, size=(137, 137)).astype(np.int16), linalg.mat_mul(F, *thin)):
        r = linalg.rank(F, M)
        assert r == linalg.rank(F, M.T) == len(_gauss_jordan(F, M)[1])
    assert r <= 100


def test_rref_dense_gf4093():
    """The worst case of the lazy bound: 200 pivots of GF(4093) move an
    entry by up to 200 * 4092^2, past int32, before the last reduction."""
    F = field(4093)
    M = np.random.default_rng(4093).integers(0, F.q, size=(200, 200)).astype(np.int16)
    assert linalg.rank(F, M) == 200
    assert_rref_is_gauss_jordan(F, M)


@pytest.mark.parametrize("size", [227, 228])
def test_rref_dense_gf13_at_the_int16_edge(size):
    """13 + 227 * 12^2 < 2^15 <= 13 + 228 * 12^2: the lazy GF(13) run is in
    int16 at 227 x 227 and in int32 at 228 x 228."""
    F = field(13)
    assert linalg._lazy_dtype(13, size, size) == (np.int16 if size == 227 else np.int32)
    M = np.random.default_rng(size).integers(0, F.q, size=(size, size)).astype(np.int16)
    assert_rref_is_gauss_jordan(F, M)


def test_rref_reduces_the_pivot_row_before_scaling():
    """At 3 x 5, GF(4093) runs lazily in int32.  After two pivots a row
    holds entries up to 2 * 4092^2, and scaling it by 1 / pv before
    reducing it would wrap int32."""
    F = field(4093)
    assert linalg._lazy_dtype(4093, 3, 5) == np.int32
    rng = np.random.default_rng(4093)
    for _ in range(20):
        assert_rref_is_gauss_jordan(F, rng.integers(1, F.q, size=(3, 5)).astype(np.int16))


@settings(max_examples=100, deadline=None, database=None)
@given(product_operands(max_dim=7, fields=ORACLE_PRODUCT_FIELDS))
def test_oracle_product_matches_reference(case):
    F, A, B = case
    got = oracle._product(F, A, B)
    assert got.dtype == np.int16
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


@settings(max_examples=60, deadline=None, database=None)
@given(product_operands(max_dim=7, fields=ORACLE_PRODUCT_FIELDS))
def test_oracle_product_split_inner_dimension(case):
    """With the exactness limit lowered, the oracle sums three terms per
    chunk, over the stacked digit planes too; the result must not change."""
    F, A, B = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_EXACT", 3 * (F.p - 1) ** 2 + F.p)
        got = oracle._product(F, A, B)
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


def test_oracle_product_reads_the_powers_of_x_once():
    """_product folds by the digits of x^s, s < 2e - 1, cached per field:
    the scalar F.pow calls come with the first product over a field only."""
    F = field(3, 2)
    rng = np.random.default_rng(9)
    A, B = rng.integers(0, F.q, size=(3, 4)), rng.integers(0, F.q, size=(4, 2))
    oracle._x_powers.cache_clear()
    with mock.patch.object(F, "pow", wraps=F.pow) as spy:
        first = oracle._product(F, A, B)
        assert spy.call_count == 2 * F.e - 1
        assert np.array_equal(oracle._product(F, A, B), first) and spy.call_count == 2 * F.e - 1
    assert first.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), 2)


class InnerDims(np.ndarray):
    """An array that records the inner dimension of each product it makes."""

    seen: list = []

    def __matmul__(self, other):
        InnerDims.seen.append(self.shape[1])
        return np.asarray(self) @ np.asarray(other)


@pytest.mark.parametrize("p", [2, 3, 4093])
def test_oracle_chunks_are_the_longest_exact_ones(p):
    """A chunk of t terms sums to at most t (p - 1)^2 on top of a reduced
    sum below p, so with the limit at 3 (p - 1)^2 + p every product takes
    three terms, the last one what is left."""
    rng = np.random.default_rng(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_EXACT", 3 * (p - 1) ** 2 + p)
        for n in range(11):
            A, B = rng.integers(0, p, size=(2, n)), rng.integers(0, p, size=(n, 3))
            InnerDims.seen = []
            got = oracle._dot(A.astype(np.float64).view(InnerDims), B.astype(np.float64), p)
            assert InnerDims.seen == [min(3, n - lo) for lo in range(0, max(n, 1), 3)]
            assert np.array_equal(got, A @ B % p)


@pytest.mark.parametrize("p", [2, 3, 131, 4093])
def test_reduce_is_exact_at_the_top_of_a_piece(p):
    """The values just below the most a GF(p) chunk can reach on top of a
    reduced sum, and the multiples of p there with their neighbours, reduce
    to their exact residues."""
    top = (p - 1) + chunk(field(p)) * (p - 1) ** 2
    assert top < 2**53
    base = top - top % p
    near = {base - j * p + d for j in range(3000) for d in (-1, 0, 1)}
    values = sorted(set(range(top - 3000, top + 1)) | {v for v in near if v <= top})
    got = linalg._reduce(np.array(values, dtype=np.float64), p)
    assert got.tolist() == [v % p for v in values]


@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (4, 1, 5), (1, 1, 1)])
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_mat_mul_edge_shapes(F, shape):
    k, n, m = shape
    rng = np.random.default_rng(k * 100 + n * 10 + m)
    A = rng.integers(0, F.q, size=(k, n)).astype(np.int16)
    B = rng.integers(0, F.q, size=(n, m)).astype(np.int16)
    got = linalg.mat_mul(F, A, B)
    assert got.shape == (k, m) and got.dtype == np.int16
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), m)
