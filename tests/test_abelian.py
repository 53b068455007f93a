import hashlib
import inspect
import time
import tracemalloc

import numpy as np
import pytest

from sigmalcd import abelian, cyclotomic, linalg, oracle
from sigmalcd.codes import LinearCode, gram, hull_dim
from sigmalcd.errors import BadInput, BudgetExceeded
from sigmalcd.field import field

from linalg_reference import solve_right

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
        assert G.index(tuple(G.digits[t].tolist())) == t
    assert G.index((1, 2)) == 5


def test_group_inverse_table():
    G = abelian.AbelianGroup((4,))
    for t in range(4):
        assert G.op[t, G.inv[t]] == 0  # identity is index 0


def test_op_table_is_abelian():
    G = abelian.AbelianGroup((2, 3))
    assert np.array_equal(G.op, G.op.T)


def test_op_table_refused_beyond_the_limit():
    """|G| = 4097 would take a 128 MiB int64 table; it is refused before
    any of it is allocated, while the order and the inverses stay cheap."""
    G = abelian.AbelianGroup((17, 241))
    assert G.order == abelian.MAX_GROUP_ORDER + 1 and G.inv.shape == (G.order,)
    with pytest.raises(BadInput, match="group order 4097 exceeds table-backed limit 4096"):
        G.op


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
    # closed under the first cyclic generator of C2 x C2, not the second
    G = abelian.AbelianGroup((2, 2))
    c = LinearCode(F2, 4, np.array([[1, 0, 1, 0]], dtype=np.int16))
    assert c.contains_rows(c.gen[:, np.argsort(G.op[G.generators[0]])])
    assert not abelian.is_ideal(c, G)


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


def _closure_ideals(F, G):
    """Reference: the principal ideals of all q^n generators, then pairwise
    sums to closure (each ideal is a finite sum of principal ones)."""
    n = G.order
    seen = {}
    for w in oracle.enumerate_codewords(LinearCode(F, n, np.eye(n, dtype=np.int16))):
        code = abelian.ideal_from_generator(abelian.GroupAlgebraElement(F, G, w.copy()))
        seen.setdefault(code.gen.tobytes(), code)
    frontier = list(seen.values())
    while frontier:
        fresh = []
        items = list(seen.values())
        for a in frontier:
            for b in items:
                s_gen = linalg.row_space(F, linalg.stack(a.gen, b.gen))
                if s_gen.tobytes() not in seen:
                    code = LinearCode(F, n, s_gen)
                    seen[s_gen.tobytes()] = code
                    fresh.append(code)
        frontier = fresh
    return sorted(seen.values(), key=lambda c: (c.k, c.gen.tobytes()))


def _factorizations(n, least=2):
    """Every way to write n as a product of factors >= least, ascending."""
    if n == 1:
        yield ()
    for f in range(least, n + 1):
        if n % f == 0:
            yield from ((f,) + rest for rest in _factorizations(n // f, f))


def _lattice(ideals):
    return [(c.k, c.gen.tobytes()) for c in ideals]


@pytest.mark.parametrize("pe", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_enumerate_ideals_matches_closure(pe):
    """Every algebra F_q[G] with q^n <= 2^12, G written as every product of
    cyclic factors (C_2 x C_3 and C_6 both): the orbit sums and the socle
    walk return the closure's lattice byte for byte."""
    F = field(*pe)
    algebras = [(1,)] + [f for n in range(2, 13) if F.q**n <= 2**12 for f in _factorizations(n)]
    for factors in algebras:
        G = abelian.AbelianGroup(factors)
        assert _lattice(abelian.enumerate_ideals(F, G)) == _lattice(_closure_ideals(F, G)), factors


@pytest.mark.parametrize("pe,factors", [((2, 1), (7,)), ((2, 1), (3, 3)), ((3, 1), (4,)), ((2, 2), (5,)),
                                         ((5, 1), (2, 2)), ((3, 1), (5,))])
def test_walk_matches_orbit_sums_on_semisimple_algebras(monkeypatch, pe, factors):
    """With the orbit idempotents withheld, as when the splitting field is
    out of range, the walk takes its one step from {0} and returns the
    orbit sums' lattice."""
    F, G = field(*pe), abelian.AbelianGroup(factors)
    want = _lattice(abelian.enumerate_ideals(F, G))
    withheld = []
    monkeypatch.setattr(abelian, "orbit_idempotents", lambda F, G: withheld.append(G))
    assert _lattice(abelian.enumerate_ideals(F, G)) == want
    assert withheld == [G]


def test_enumerate_ideals_pinned():
    """One sha256 over the lattices of five algebras, each ideal's k and
    RREF bytes in order, taken from the closure over all q^n generators."""
    h = hashlib.sha256()
    for pe, factors in [((3, 1), (3, 3)), ((3, 1), (9,)), ((2, 1), (3, 5)), ((2, 1), (16,)), ((2, 1), (4, 4))]:
        for c in abelian.enumerate_ideals(field(*pe), abelian.AbelianGroup(factors)):
            h.update(c.k.to_bytes(2, "little") + c.gen.tobytes())
    assert h.hexdigest() == "ae826dcc9f346c0f338e48b7bb18946d2ec57c4d7e2fa7415dc3333f471e92bc"


def test_enumerate_ideals_of_gf4_c3xc5_have_no_hull():
    """The paper's semisimple theorem on the lattice itself: GF(4)[C_3 x C_5],
    whose 4^15 generators no search reaches, has 2^9 ideals, none with a
    mu_{-1}-hull."""
    F, G = field(2, 2), abelian.AbelianGroup((3, 5))
    ideals, sig = abelian.enumerate_ideals(F, G), abelian.mu_sigma(F, G)
    assert len(ideals) == 512 and len({c.gen.tobytes() for c in ideals}) == 512
    assert all(hull_dim(c, sig) == 0 for c in ideals)


@pytest.mark.parametrize("q,factors,count", [
    (2, (47,), 2**47), (2, (3,) * 5, 2**122), (2, (2,) * 5, 2**32), (3, (3,) * 3, 3**27), (2, (3,) * 8, 2**6561),
], ids=["C47", "C3^5", "C2^5", "F3-C3^3", "C3^8"])
def test_enumerate_ideals_over_budget_raises_at_once(q, factors, count):
    """Refused before any ideal is built, in little time and memory:
    F_2[C_47] (splitting field out of range: 2^47 words), F_2[C_3^5]
    (2^122 orbit sums), the modular F_2[C_2^5] and F_3[C_3^3] (2^32 and
    3^27 words; every subspace of rad^2 / rad^3 of F_2[C_2^5], of
    dimension 10, lifts to an ideal, over 2 * 10^8 of them), and F_2[C_3^8],
    whose 3281 orbit idempotents are known to be over budget unbuilt."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"^{count} generators exceed budget 4194304$"):
            abelian.enumerate_ideals(field(q), abelian.AbelianGroup(factors))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2 and peak < 2**21, peak


def test_enumerate_ideals_needs_no_oracle(monkeypatch):
    """The lattice is built without the oracle: with every oracle function
    raising, F_3[C_3 x C_3] still gives its 64 ideals."""
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called")

    for name, _ in inspect.getmembers(oracle, inspect.isfunction):
        monkeypatch.setattr(oracle, name, refuse)
    assert len(abelian.enumerate_ideals(F3, abelian.AbelianGroup((3, 3)))) == 64


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
    x = solve_right(F, linalg.stack(code.gen, D).T, one)
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


def _two_check_split(code, group):
    """Reference: the Gram solve, then the two checks e e = e and
    F_q[G] e = C, each through its own product or elimination."""
    F, n, k = code.field, code.n, code.k
    if k in (0, n):
        return abelian.find_idempotent_generator(code, group)
    M = gram(code, abelian.mu_sigma(F, group))
    R, piv = linalg.rref(F, np.hstack([M.T, code.gen[:, :1]]))
    if piv != list(range(k)):
        return None
    e = abelian.GroupAlgebraElement(F, group, linalg.mat_vec(F, code.gen.T, R[:k, k]))
    if not abelian.is_idempotent(e) or abelian.ideal_from_generator(e) != code:
        return None
    return e


@pytest.mark.parametrize(
    "p,e,factors",
    [(2, 1, (7,)), (2, 1, (3, 3)), (3, 1, (4,)), (2, 1, (2, 2)), (2, 1, (4,)),
     (3, 1, (3,)), (2, 2, (5,)), (2, 1, (6,)), (3, 1, (2, 2)), (2, 1, (9,))],
)
def test_find_idempotent_generator_matches_two_check_route(p, e, factors):
    """The one product at the pivots returns the same element, or None, as
    checking idempotence and F_q[G] e = C separately, on every ideal."""
    F, G = field(p, e), abelian.AbelianGroup(factors)
    for c in abelian.enumerate_ideals(F, G):
        got, want = abelian.find_idempotent_generator(c, G), _two_check_split(c, G)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.coeffs, want.coeffs)


def test_idempotent_route_eliminates_once_and_is_ideal_never(monkeypatch):
    """find_idempotent_generator runs one elimination (the Gram solve) on a
    proper ideal of a modular algebra, none on one of a semisimple algebra
    (the orbit idempotents) and none on {0} or F_q[G]; is_ideal runs none."""
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda F, M: calls.append(1) or rref(F, M))
    outcomes = set()
    for F, factors, modular in [(F2, (7,), False), (F3, (3,), True), (F2, (2, 2), True), (F3, (4,), False),
                                (F2, (6,), True)]:
        G = abelian.AbelianGroup(factors)
        for c in abelian.enumerate_ideals(F, G):
            calls.clear()
            assert abelian.is_ideal(c, G) and not calls
            proper = 0 < c.k < c.n
            found = abelian.find_idempotent_generator(c, G) is not None
            assert len(calls) == (proper and modular)
            outcomes.add((proper, modular, found))
    assert outcomes == {(False, False, True), (False, True, True), (True, False, True),
                        (True, True, True), (True, True, False)}


def test_semisimple_every_ideal_lcd():
    # gcd(|G|, q) = 1 forces the count of LCD ideals to equal the ideal count
    for q, factors in [(2, (3,)), (2, (5,)), (3, (4,)), (3, (5,)), (2, (3, 3))]:
        F = field(q)
        G = abelian.AbelianGroup(factors)
        for c in abelian.enumerate_ideals(F, G):
            assert abelian.is_abelian_mu1_lcd(c, G)


SEMISIMPLE = [((2, 2), (3, 5), 9), ((3, 1), (2, 4), 6), ((3, 2), (4,), 4), ((2, 1), (117,), 12)]


def _q_orbits(q, group):
    """Reference: the orbits of u -> q u on G, one element at a time."""
    seen, orbits = set(), []
    for u in range(group.order):
        if u in seen:
            continue
        orbit, v = [], tuple(group.digits[u].tolist())
        while group.index(v) not in orbit:
            orbit.append(group.index(v))
            v = tuple(q * x for x in v)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("pe,factors,count", SEMISIMPLE)
def test_orbit_idempotents_are_a_complete_orthogonal_set(pe, factors, count):
    """Pairwise orthogonal nonzero idempotents summing to 1, one per q-orbit:
    the primitive idempotents, since F_q[G] has one minimal ideal per orbit."""
    F, G = field(*pe), abelian.AbelianGroup(factors)
    V = abelian.orbit_idempotents(F, G)
    assert len(V) == len(_q_orbits(F.q, G)) == count
    assert V.any(axis=1).all()
    assert np.array_equal(F.sum(V, axis=0), abelian.ga_one(F, G).coeffs)
    for j, e in enumerate(V):
        products = linalg.mat_mul(F, V, abelian.translate_matrix(elem(F, G, e)))
        want = np.zeros_like(V)
        want[j] = e
        assert np.array_equal(products, want)


@pytest.mark.parametrize("pe,factors,count", SEMISIMPLE)
def test_orbit_route_matches_two_check_split_on_random_ideals(pe, factors, count):
    """Random ideals F_q[G] a e_S, e_S a random sum of orbit idempotents:
    the orbit route returns the Gram route's element byte for byte."""
    F, G = field(*pe), abelian.AbelianGroup(factors)
    V, rng = abelian.orbit_idempotents(F, G), np.random.default_rng(count)
    dims = set()
    for _ in range(12):
        e_S = elem(F, G, F.sum(V[rng.random(len(V)) < 0.5], axis=0))
        c = abelian.ideal_from_generator(abelian.ga_mul(elem(F, G, rng.integers(0, F.q, size=G.order)), e_S))
        got, want = abelian.find_idempotent_generator(c, G), _two_check_split(c, G)
        assert got is not None and np.array_equal(got.coeffs, want.coeffs)
        dims.add(c.k)
    assert len(dims) > 2


def _subset_sum(F, rows, S):
    """The sum of the rows whose bits are set in S."""
    return F.sum(rows[[S >> i & 1 == 1 for i in range(len(rows))]], axis=0)


def test_every_ideal_of_gf4_c3xc5_is_lcd_with_its_orbit_idempotent():
    """The paper's semisimple theorem on all 2^9 ideals of GF(4)[C_3 x C_5],
    whose 4^15 generators no enumeration reaches: each ideal is F_q[G] e for
    a sum e of orbit idempotents, has no mu_{-1}-hull, and e is what
    find_idempotent_generator returns."""
    F, G = field(2, 2), abelian.AbelianGroup((3, 5))
    V, sig = abelian.orbit_idempotents(F, G), abelian.mu_sigma(F, G)
    seen = set()
    for S in range(2 ** len(V)):
        e = elem(F, G, _subset_sum(F, V, S))
        c = abelian.ideal_from_generator(e)
        assert hull_dim(c, sig) == 0
        assert np.array_equal(abelian.find_idempotent_generator(c, G).coeffs, e.coeffs)
        seen.add(c.gen.tobytes())
    assert len(seen) == 512


def _qr_ideals_of_c47():
    """The 8 ideals of F_2[C_47], one per sum of 1, e_Q and e_N: 2 is a
    quadratic residue mod 47, so x -> x^2 fixes e_Q = sum_{r in Q} x^r and
    e_N alike, and every F_2-combination of them is idempotent."""
    G = abelian.cyclic_group(47)
    Q = sorted({r * r % 47 for r in range(1, 47)})
    basis = np.zeros((3, 47), dtype=np.int16)
    basis[0, 0] = 1
    basis[1, Q] = 1
    basis[2, [i for i in range(1, 47) if i not in Q]] = 1
    return G, [abelian.ideal_from_generator(elem(F2, G, _subset_sum(F2, basis, S))) for S in range(8)]


def test_gram_fallback_out_of_range_and_modular(monkeypatch):
    """F_2[C_47], whose splitting field GF(2^23) is out of range, and the
    modular F_2[C_6] take the Gram solve, one elimination per proper ideal,
    agree with hull_dim and with the two-check route, and raise nothing."""
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda F, M, **kw: calls.append(1) or rref(F, M, **kw))
    G47, ideals47 = _qr_ideals_of_c47()
    G6 = abelian.cyclic_group(6)
    cases = [(G47, ideals47), (G6, abelian.enumerate_ideals(F2, G6))]
    assert len({c.gen.tobytes() for c in ideals47}) == 8
    for G, ideals in cases:
        assert abelian.orbit_idempotents(F2, G) is None
        for c in ideals:
            want, hull = _two_check_split(c, G), hull_dim(c, abelian.mu_sigma(F2, G))
            calls.clear()
            got = abelian.find_idempotent_generator(c, G)
            assert len(calls) == (0 < c.k < c.n)
            assert (got is None) == (want is None) == (hull > 0)
            assert got is None or np.array_equal(got.coeffs, want.coeffs)


def test_orbit_idempotents_peak_memory_within_the_group_table():
    """F_2[C_3^5] has 122 orbits of 243 elements: the (orbits x |G|) pairing
    and its products stay within twice the |G| x |G| group table."""
    F, G = F2, abelian.AbelianGroup((3,) * 5)
    abelian.orbit_idempotents(F, G)  # interns the splitting field and its embedding
    abelian._orbit_idempotents.cache_clear()  # so the trace sees a build, not a cache hit
    cyclotomic.context.cache_clear()
    tracemalloc.start()
    try:
        V = abelian.orbit_idempotents(F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.shape == (122, 243)
    assert peak <= 2 * G.op.nbytes, f"peak {peak / G.op.nbytes:.1f}x the table"


def test_orbit_idempotents_are_shared_read_only():
    """One result per (field, group factors), of a fixed number kept, and
    it refuses writes."""
    F = field(2, 2)
    V = abelian.orbit_idempotents(F, abelian.AbelianGroup((3, 5)))
    assert abelian.orbit_idempotents(F, abelian.AbelianGroup((3, 5))) is V
    with pytest.raises(ValueError):
        V[0, 0] = 1
    assert abelian._orbit_idempotents.cache_info().maxsize == abelian._CACHED_ALGEBRAS


def test_lcd_agrees_with_oracle_intersection():
    G = abelian.AbelianGroup((4,))
    sig = abelian.mu_sigma(F2, G)
    for c in abelian.enumerate_ideals(F2, G):
        from sigmalcd.codes import sigma_dual

        inter = oracle.brute_intersection_dim(c, sigma_dual(c, sig))
        assert abelian.is_abelian_mu1_lcd(c, G) == (inter == 0)


def test_group_table_peak_memory_is_a_few_tables():
    """op sums one digit at a time, so no temporary is r times the table:
    the (2,)*10 table is 8 MB, and summing a 10-digit cube peaked at 21x."""
    G = abelian.AbelianGroup((2,) * 10)
    G.digits  # built before the trace starts
    tracemalloc.start()
    try:
        table = G.op
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1024, 1024) and table.dtype == np.int64
    assert np.array_equal(table, np.bitwise_xor.outer(np.arange(1024), np.arange(1024)))
    assert peak <= 4 * table.nbytes, f"peak {peak / table.nbytes:.1f}x the table"
