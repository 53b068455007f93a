"""The table-driven field kernel, linalg.mat_mul and linalg.rref against
slow references.

The schoolbook reference knows only p, e and the modulus: an element is its
digit polynomial, a product is the polynomial product reduced by the
modulus, and matrices are multiplied and reduced with plain triple loops.
Larger eliminations are checked against the oracle's own per-column
Gauss-Jordan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import linalg
from sigmalcd.errors import DivisionByZero
from sigmalcd.field import field
from sigmalcd.oracle import _gauss_jordan

FIELDS = [field(2), field(3), field(2, 2), field(2, 3), field(3, 2), field(2, 4), field(131)]
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
def product_operands(draw, max_dim=5):
    """A field and int16 matrices A (k x n), B (n x m), any size 0 included."""
    F = draw(fields)
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
def test_regular_representation(F):
    assert F.regular.shape == (F.q, F.e, F.e) and F.regular.dtype.itemsize <= 2
    a = np.repeat(np.arange(F.q), min(F.q, 16))
    b = np.tile(np.arange(min(F.q, 16)), F.q)
    lhs = F.digits[F.mul(a, b)]
    rhs = np.einsum("nij,nj->ni", F.regular[a].astype(np.int64), F.digits[b]) % F.p
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------- linalg


@settings(max_examples=100, deadline=None, database=None)
@given(product_operands())
def test_mat_mul_matches_reference(case):
    F, A, B = case
    got = linalg.mat_mul(F, A, B)
    assert got.dtype == np.int16
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


@pytest.mark.parametrize("p", [2, 3, 131, 4093])
def test_exactness_bound(p):
    """A piece of the inner dimension plus a reduced partial sum stays
    below 2^53, and the piece is as long as that allows."""
    t = linalg._exact_terms(p)
    assert t * (p - 1) ** 2 + (p - 1) < 2**53 <= (t + 1) * (p - 1) ** 2 + (p - 1)


@settings(max_examples=40, deadline=None, database=None)
@given(product_operands(max_dim=7))
def test_mat_mul_split_inner_dimension(case):
    """With the exactness limit lowered, the inner dimension is summed in
    pieces of three terms; the result must not change."""
    F, A, B = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "EXACT_LIMIT", 3 * (F.p - 1) ** 2 + F.p)
        got = linalg.mat_mul(F, A, B)
    assert got.tolist() == ref_mat_mul(F, A.tolist(), B.tolist(), B.shape[1])


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
    R, piv = linalg.rref(F, M)
    want_R, want_piv = _gauss_jordan(F, M)
    assert piv == want_piv
    assert R.dtype == want_R.dtype == np.int16 and R.shape == want_R.shape
    assert R.tobytes() == want_R.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(elimination_case())
def test_rref_matches_gauss_jordan(case):
    """The whole-slice kernel against the per-column loop: table and
    log/exp products on GF(2^e), lazy runs on GF(p), rank-deficient rows,
    zero columns, one row and empty shapes."""
    assert_rref_is_gauss_jordan(*case)


def test_rref_dense_gf4093():
    """The worst case of the lazy bound: 200 pivots of GF(4093) move an
    entry by up to 200 * 4092^2, past int32, before the last reduction."""
    F = field(4093)
    M = np.random.default_rng(4093).integers(0, F.q, size=(200, 200)).astype(np.int16)
    assert linalg.rank(F, M) == 200
    assert_rref_is_gauss_jordan(F, M)


@pytest.mark.parametrize("p", [2, 3, 131, 4093])
def test_reduce_is_exact_at_the_top_of_a_piece(p):
    """The values just below the most a piece can reach, and the multiples
    of p there with their neighbours, reduce to their exact residues."""
    top = (p - 1) + linalg._exact_terms(p) * (p - 1) ** 2
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
