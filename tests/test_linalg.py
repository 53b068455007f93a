import numpy as np
import pytest

from sigmalcd import linalg
from sigmalcd.codes import LinearCode
from sigmalcd.errors import BadInput
from sigmalcd.field import field

from linalg_reference import intersect_dim, solve_right

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def rand_mat(F, r, c, rng):
    return rng.integers(0, F.q, size=(r, c)).astype(np.int16)


def test_rref_duplicate_rows():
    R, piv = linalg.rref(F2, [[1, 1], [1, 1]])
    assert len(piv) == 1 and piv == [0]


def test_rref_dependent_rows_gf3():
    # (2,1) = 2*(1,2) over GF(3); elimination is authoritative: rank 1
    R, piv = linalg.rref(F3, [[1, 2], [2, 1]])
    assert len(piv) == 1
    assert R[0].tolist() == [1, 2]
    assert not R[1].any()


def test_rref_identity():
    R, piv = linalg.rref(F2, np.eye(3))
    assert piv == [0, 1, 2]
    assert np.array_equal(R, np.eye(3))


def test_rref_idempotent_and_rank_transpose():
    rng = np.random.default_rng(1)
    for F in (F2, F3, F4):
        for _ in range(25):
            M = rand_mat(F, rng.integers(1, 6), rng.integers(1, 6), rng)
            R, piv = linalg.rref(F, M)
            R2, piv2 = linalg.rref(F, R)
            assert np.array_equal(R, R2) and piv == piv2
            assert linalg.rank(F, M) == linalg.rank(F, M.T)


def test_pivots_first():
    assert linalg.pivots_first(6, [1, 4]).tolist() == [1, 4, 0, 2, 3, 5]
    assert linalg.pivots_first(3, []).tolist() == [0, 1, 2]
    assert linalg.pivots_first(2, [0, 1]).tolist() == [0, 1]
    assert linalg.pivots_first(0, []).tolist() == []


def test_nullspace_dimensions():
    N = linalg.nullspace(F2, [[1, 1, 1]])
    assert N.shape[0] == 2
    for v in N:
        assert F2.sum(F2.mul(v, [1, 1, 1])) == 0


def test_nullspace_full_rank_square():
    assert linalg.nullspace(F3, [[1, 0], [0, 1]]).shape[0] == 0


def test_nullspace_zero_matrix():
    assert linalg.nullspace(F2, np.zeros((1, 3))).shape[0] == 3


def test_nullspace_properties_random():
    rng = np.random.default_rng(2)
    for F in (F2, F3, F4):
        for _ in range(25):
            M = rand_mat(F, rng.integers(1, 5), rng.integers(1, 6), rng)
            N = linalg.nullspace(F, M)
            assert N.shape[0] == M.shape[1] - linalg.rank(F, M)
            if N.size:
                assert not np.asarray(linalg.mat_mul(F, M, N.T)).any()
                assert linalg.rank(F, N) == N.shape[0]


def test_mat_mul_matches_naive():
    rng = np.random.default_rng(3)
    A = rand_mat(F4, 3, 4, rng)
    B = rand_mat(F4, 4, 2, rng)
    C = linalg.mat_mul(F4, A, B)
    for i in range(3):
        for j in range(2):
            acc = 0
            for t in range(4):
                acc = F4.add(acc, F4.mul(int(A[i, t]), int(B[t, j])))
            assert C[i, j] == acc


def test_solve_right_consistent_and_inconsistent():
    A = np.array([[1, 1], [0, 1], [1, 0]], dtype=np.int16)  # 3x2 over GF(2)
    x = solve_right(F2, A, np.array([0, 1, 1], dtype=np.int16))
    assert x is not None
    assert np.array_equal(linalg.mat_vec(F2, A, x), [0, 1, 1])
    assert solve_right(F2, A, np.array([1, 1, 1], dtype=np.int16)) is None


def test_intersection_and_sum_dim():
    # span{(1,0,0),(0,1,0)} cap span{(0,1,0),(0,0,1)} = span{(0,1,0)}
    A = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int16)
    B = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int16)
    assert linalg.sum_dim(F2, A, B) == 3
    assert intersect_dim(F2, A, B) == 1


def test_dimension_formula_random():
    """dim(U+V) + dim(U cap V) = dim U + dim V."""
    rng = np.random.default_rng(4)
    for F in (F2, F3):
        for _ in range(40):
            n = rng.integers(2, 7)
            U = linalg.row_space(F, rand_mat(F, rng.integers(1, 4), n, rng))
            V = linalg.row_space(F, rand_mat(F, rng.integers(1, 4), n, rng))
            lhs = linalg.sum_dim(F, U, V) + intersect_dim(F, U, V)
            assert lhs == U.shape[0] + V.shape[0]


def test_in_row_space():
    c = LinearCode(F2, 3, [[1, 0, 1], [0, 1, 1]])
    assert c.contains_rows(np.array([1, 1, 0], dtype=np.int16))
    assert not c.contains_rows(np.array([1, 1, 1], dtype=np.int16))
    with pytest.raises(BadInput, match="expected 3 columns"):
        c.contains_rows(np.array([1, 1], dtype=np.int16))


def test_zero_width_matrix():
    M = linalg.as_matrix([], 0)
    assert M.shape == (0, 0)
