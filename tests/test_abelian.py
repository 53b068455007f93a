import numpy as np
import pytest

from sigmalcd import abelian, linalg, oracle
from sigmalcd.codes import LinearCode, hull_dim
from sigmalcd.errors import BadInput
from sigmalcd.field import field

F2 = field(2)
F3 = field(3)
Z3 = abelian.cyclic_group(3)
Z5 = abelian.cyclic_group(5)


def elem(F, G, coeffs):
    return abelian.ga_element(F, G, coeffs)


# ------------------------------------------------------------ groups


def test_group_indexing_roundtrip():
    G = abelian.AbelianGroup((3, 3))
    assert G.order == 9
    for t in range(9):
        assert G.index(G.tuple_of(t)) == t
    assert G.index((1, 2)) == 5


def test_group_inverse_table():
    G = abelian.AbelianGroup((4,))
    for t in range(4):
        assert G.op[t, G.inv[t]] == 0  # identity is index 0


def test_op_table_is_abelian():
    G = abelian.AbelianGroup((2, 3))
    assert np.array_equal(G.op, G.op.T)


def test_parse_group():
    assert abelian.parse_group("3,3").factors == (3, 3)
    assert abelian.parse_group(" 5 ").factors == (5,)
    with pytest.raises(BadInput, match="bad group spec"):
        abelian.parse_group("3x3")
    with pytest.raises(BadInput, match="empty group spec"):
        abelian.parse_group("")


# ------------------------------------------------------------ algebra arithmetic


def test_mul_unit_and_zero():
    a = elem(F2, Z3, [1, 1, 0])
    one = abelian.ga_one(F2, Z3)
    zero = elem(F2, Z3, [0, 0, 0])
    assert np.array_equal(abelian.ga_mul(a, one).coeffs, a.coeffs)
    assert np.array_equal(abelian.ga_mul(a, zero).coeffs, zero.coeffs)


def test_mul_group_elements():
    # x * x = x^2 in F2[Z3]
    x = elem(F2, Z3, [0, 1, 0])
    assert abelian.ga_mul(x, x).coeffs.tolist() == [0, 0, 1]


def test_idempotent_example():
    e = elem(F2, Z3, [0, 1, 1])  # x + x^2
    assert abelian.is_idempotent(e)
    assert abelian.ga_mul(e, e).coeffs.tolist() == [0, 1, 1]
    assert not abelian.is_idempotent(elem(F2, Z3, [0, 1, 0]))


def test_mul_commutative_randomized():
    rng = np.random.default_rng(0)
    G = abelian.AbelianGroup((2, 4))
    for _ in range(20):
        a = elem(F3, G, rng.integers(0, 3, size=8))
        b = elem(F3, G, rng.integers(0, 3, size=8))
        assert np.array_equal(abelian.ga_mul(a, b).coeffs, abelian.ga_mul(b, a).coeffs)


def test_mixed_group_rejected():
    x = elem(F2, Z3, [0, 1, 0])
    y = elem(F2, Z5, [0, 1, 0, 0, 0])
    with pytest.raises(BadInput, match="different groups"):
        abelian.ga_mul(x, y)
    with pytest.raises(BadInput, match="different groups"):
        abelian.ga_add(x, y)


def _loop_translate_matrix(e):
    """Reference: row i is g_i * e, one group element at a time."""
    G = e.group
    M = np.zeros((G.order, G.order), dtype=np.int16)
    for i in range(G.order):
        M[i, G.op[i]] = e.coeffs
    return M


def _loop_ga_mul(F, G, a, b):
    """Reference: a b = sum_i a_i (g_i b), one term at a time."""
    out = np.zeros(G.order, dtype=np.int16)
    for i in range(G.order):
        if a[i]:
            out[G.op[i]] = F.add(out[G.op[i]], F.mul(int(a[i]), b))
    return out


def test_translate_matrix_agrees_with_mul():
    rng = np.random.default_rng(1)
    for F in (F2, F3, field(2, 2), field(3, 2)):
        for factors in [(1,), (5,), (3, 3), (2, 2, 2), (2, 3), (6,)]:
            G = abelian.AbelianGroup(factors)
            for _ in range(3):
                a = elem(F, G, rng.integers(0, F.q, size=G.order))
                b = elem(F, G, rng.integers(0, F.q, size=G.order))
                assert np.array_equal(abelian.translate_matrix(a), _loop_translate_matrix(a))
                assert np.array_equal(abelian.ga_mul(a, b).coeffs, _loop_ga_mul(F, G, a.coeffs, b.coeffs))


# ------------------------------------------------------------ the inversion map


def test_mu_minus1_sends_g_to_inverse():
    x = elem(F2, Z3, [0, 1, 0])
    assert abelian.mu_minus1_ga(x).coeffs.tolist() == [0, 0, 1]


def test_mu_minus1_involution_and_ring_map():
    rng = np.random.default_rng(2)
    G = abelian.AbelianGroup((4,))
    for _ in range(20):
        a = elem(F3, G, rng.integers(0, 3, size=4))
        b = elem(F3, G, rng.integers(0, 3, size=4))
        m = abelian.mu_minus1_ga
        assert np.array_equal(m(m(a)).coeffs, a.coeffs)
        assert np.array_equal(
            m(abelian.ga_mul(a, b)).coeffs, abelian.ga_mul(m(a), m(b)).coeffs
        )
        assert np.array_equal(
            m(abelian.ga_add(a, b)).coeffs, abelian.ga_add(m(a), m(b)).coeffs
        )


def test_mu_sigma_matches_elementwise_map():
    G = abelian.AbelianGroup((3, 3))
    ms = abelian.mu_sigma(F3, G)
    assert ms.frob == 0 and np.all(ms.diag == 1)
    rng = np.random.default_rng(3)
    a = elem(F3, G, rng.integers(0, 3, size=9))
    assert np.array_equal(ms.apply(a.coeffs.reshape(1, -1))[0], abelian.mu_minus1_ga(a).coeffs)


# ------------------------------------------------------------ ideals


def test_ideal_from_generator_extremes():
    full = abelian.ideal_from_generator(abelian.ga_one(F2, Z3))
    zero = abelian.ideal_from_generator(elem(F2, Z3, [0, 0, 0]))
    assert full.k == 3 and zero.k == 0


def test_ideal_from_generator_proper():
    I = abelian.ideal_from_generator(elem(F2, Z3, [0, 1, 1]))
    assert I.k == 2
    assert abelian.is_ideal(I, Z3)


def test_is_ideal_rejects_plain_subspace():
    c = LinearCode(F2, 3, np.array([[1, 1, 0]], dtype=np.int16))
    assert not abelian.is_ideal(c, Z3)
    with pytest.raises(BadInput, match="not closed under the group action"):
        abelian.find_idempotent_generator(c, Z3)


def test_find_idempotent_generator_known_cases():
    full = abelian.ideal_from_generator(abelian.ga_one(F2, Z3))
    zero = abelian.ideal_from_generator(elem(F2, Z3, [0, 0, 0]))
    assert abelian.find_idempotent_generator(full, Z3).coeffs.tolist() == [1, 0, 0]
    assert abelian.find_idempotent_generator(zero, Z3).coeffs.tolist() == [0, 0, 0]
    I = abelian.ideal_from_generator(elem(F2, Z3, [0, 1, 1]))
    e = abelian.find_idempotent_generator(I, Z3)
    assert e.coeffs.tolist() == [0, 1, 1]
    assert abelian.ideal_from_generator(e) == I


def test_modular_ideal_without_idempotent():
    # F3[Z3] is local away from the augmentation part: the radical ideals
    # admit no idempotent generator
    ideals = abelian.enumerate_ideals(F3, Z3)
    by_dim = {c.k: c for c in ideals}
    assert sorted(by_dim) == [0, 1, 2, 3]
    assert abelian.find_idempotent_generator(by_dim[1], Z3) is None
    assert abelian.find_idempotent_generator(by_dim[2], Z3) is None


def test_idempotents_in_full_algebra():
    full = abelian.ideal_from_generator(abelian.ga_one(F2, Z3))
    idems = {tuple(int(v) for v in e.coeffs) for e in abelian.idempotents_in(full, Z3)}
    assert idems == {(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)}


def test_enumerate_ideals_counts():
    assert len(abelian.enumerate_ideals(F2, Z3)) == 4
    assert len(abelian.enumerate_ideals(F3, Z3)) == 4
    assert len(abelian.enumerate_ideals(F2, abelian.AbelianGroup((4,)))) == 5
    assert len(abelian.enumerate_ideals(F3, abelian.AbelianGroup((4,)))) == 8
    assert len(abelian.enumerate_ideals(F2, Z5)) == 4
    assert len(abelian.enumerate_ideals(F3, Z5)) == 4


def test_ideals_are_group_invariant():
    G = abelian.AbelianGroup((4,))
    for c in abelian.enumerate_ideals(F3, G):
        assert abelian.is_ideal(c, G)


# ------------------------------------------------------------ LCD characterization


def test_lcd_flag_matches_hull():
    for F, G in [(F2, Z3), (F3, Z3), (F2, abelian.AbelianGroup((4,))), (F3, Z5)]:
        sig = abelian.mu_sigma(F, G)
        for c in abelian.enumerate_ideals(F, G):
            assert abelian.is_abelian_mu1_lcd(c, G) == (hull_dim(c, sig) == 0)


@pytest.mark.parametrize(
    "q,factors,n_ideals,n_lcd",
    [
        (2, (3,), 4, 4),
        (3, (3,), 4, 2),
        (2, (4,), 5, 2),
        (3, (4,), 8, 8),
        (2, (5,), 4, 4),
        (3, (5,), 4, 4),
        (2, (3, 3), 32, 32),
    ],
)
def test_lcd_iff_idempotent_generated(q, factors, n_ideals, n_lcd):
    """Both directions, exhaustively, with the counts pinned."""
    F = field(q)
    G = abelian.AbelianGroup(factors)
    ideals = abelian.enumerate_ideals(F, G)
    assert len(ideals) == n_ideals
    lcd_count = 0
    for c in ideals:
        lcd = abelian.is_abelian_mu1_lcd(c, G)
        gen = abelian.find_idempotent_generator(c, G)
        assert lcd == (gen is not None)
        if gen is not None:
            assert abelian.is_idempotent(gen)
            assert abelian.ideal_from_generator(gen) == c
        lcd_count += lcd
    assert lcd_count == n_lcd


def _dual_and_solve_split(code, group):
    """Reference: split 1 = e + f along C (+) (mu C)^perp by building the
    dual and solving the n x n system."""
    F, n = code.field, code.n
    if code.k in (0, n):
        return abelian.find_idempotent_generator(code, group)
    D = LinearCode(F, n, code.gen[:, group.inv]).dual().gen
    if linalg.sum_dim(F, code.gen, D) != n:
        return None
    one = np.zeros(n, dtype=np.int16)
    one[0] = 1
    x = linalg.solve_right(F, linalg.stack(code.gen, D).T, one)
    e = abelian.GroupAlgebraElement(F, group, linalg.mat_vec(F, code.gen.T, x[: code.k]))
    if not abelian.is_idempotent(e) or abelian.ideal_from_generator(e) != code:
        return None
    return e


@pytest.mark.parametrize(
    "q,factors",
    [(2, (3,)), (2, (5,)), (3, (4,)), (2, (3, 3)), (2, (2,)), (3, (3,)), (3, (3, 3)), (2, (4,))],
)
def test_find_idempotent_generator_matches_dual_and_solve(q, factors):
    """Semisimple and modular algebras: the Gram route returns the same
    element, or None, as the explicit split."""
    F, G = field(q), abelian.AbelianGroup(factors)
    for c in abelian.enumerate_ideals(F, G):
        got, want = abelian.find_idempotent_generator(c, G), _dual_and_solve_split(c, G)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.coeffs, want.coeffs)


def test_semisimple_every_ideal_lcd():
    # gcd(|G|, q) = 1 forces the count of LCD ideals to equal the ideal count
    for q, factors in [(2, (3,)), (2, (5,)), (3, (4,)), (3, (5,)), (2, (3, 3))]:
        F = field(q)
        G = abelian.AbelianGroup(factors)
        for c in abelian.enumerate_ideals(F, G):
            assert abelian.is_abelian_mu1_lcd(c, G)


def test_lcd_agrees_with_oracle_intersection():
    G = abelian.AbelianGroup((4,))
    sig = abelian.mu_sigma(F2, G)
    for c in abelian.enumerate_ideals(F2, G):
        from sigmalcd.codes import sigma_dual

        inter = oracle.brute_intersection_dim(c, sigma_dual(c, sig))
        assert abelian.is_abelian_mu1_lcd(c, G) == (inter == 0)
