import hashlib
import math
import sys

import numpy as np
import pytest

from sigmalcd.errors import BadInput, DivisionByZero
from sigmalcd.field import Field, _is_irreducible, default_modulus, embedding, field, is_prime


def test_prime_field_construction():
    F = field(2)
    assert (F.p, F.e, F.q) == (2, 1, 2)
    assert field(3).q == 3
    assert field(5).q == 5


def test_default_modulus_gf4():
    # least monic irreducible of degree 2 over GF(2), constant-major order
    assert tuple(default_modulus(2, 2)) == (1, 1, 1)  # x^2 + x + 1


def test_default_modulus_gf8_gf9():
    assert tuple(default_modulus(2, 3)) == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert tuple(default_modulus(3, 2)) == (1, 0, 1)  # x^2 + 1


# every extension field with p^e <= 4096: its modulus, the least monic
# irreducible in constant-major order, and its least generator
PINNED = {
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 0, 1, 1), 2),
    (2, 4): ((1, 0, 0, 1, 1), 2),
    (2, 5): ((1, 0, 0, 1, 0, 1), 2),
    (2, 6): ((1, 0, 0, 0, 0, 1, 1), 2),
    (2, 7): ((1, 0, 0, 0, 0, 0, 1, 1), 2),
    (2, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    (2, 9): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 7),
    (2, 10): ((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 2),
    (2, 11): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1), 2),
    (2, 12): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 6),
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 0, 2, 1), 3),
    (3, 4): ((1, 0, 1, 1, 1), 10),
    (3, 5): ((1, 0, 0, 0, 2, 1), 3),
    (3, 6): ((1, 0, 0, 0, 1, 1, 1), 4),
    (3, 7): ((1, 0, 0, 0, 0, 1, 2, 1), 3),
    (5, 2): ((1, 1, 1), 7),
    (5, 3): ((1, 0, 1, 1), 7),
    (5, 4): ((1, 0, 1, 1, 1), 30),
    (5, 5): ((1, 0, 0, 0, 4, 1), 7),
    (7, 2): ((1, 0, 1), 9),
    (7, 3): ((1, 0, 1, 1), 9),
    (7, 4): ((1, 0, 0, 1, 1), 13),
    (11, 2): ((1, 0, 1), 15),
    (11, 3): ((1, 0, 4, 1), 12),
    (13, 2): ((1, 3, 1), 18),
    (13, 3): ((1, 0, 4, 1), 18),
    (17, 2): ((1, 1, 1), 20),
    (19, 2): ((1, 0, 1), 22),
    (23, 2): ((1, 0, 1), 25),
    (29, 2): ((1, 1, 1), 35),
    (31, 2): ((1, 0, 1), 35),
    (37, 2): ((1, 3, 1), 41),
    (41, 2): ((1, 1, 1), 44),
    (43, 2): ((1, 0, 1), 45),
    (47, 2): ((1, 0, 1), 49),
    (53, 2): ((1, 1, 1), 58),
    (59, 2): ((1, 0, 1), 62),
    (61, 2): ((1, 5, 1), 67),
}


def _times_generator(F, xs):
    """Encodings xs times F.generator by schoolbook digit products reduced
    by the modulus, a reference that reads neither the tables nor poly."""
    p, e = F.p, F.e
    a = F.digits[xs].astype(np.int64)
    g = F.digits[F.generator].astype(np.int64)
    prod = np.zeros((len(xs), 2 * e - 1), dtype=np.int64)
    for j in range(e):
        prod[:, j : j + e] += a * g[j]
    for d in range(2 * e - 2, e - 1, -1):
        prod[:, d - e : d + 1] -= (prod[:, d] % p)[:, None] * np.array(F.modulus)
    return (prod[:, :e] % p) @ F.digit_weights


def test_pins_cover_every_extension_field():
    expected = {(p, e) for p in range(2, 65) if is_prime(p) for e in range(2, 13) if p**e <= 4096}
    assert set(PINNED) == expected and len(PINNED) == 40


@pytest.mark.parametrize("p,e", sorted(PINNED))
def test_extension_field_modulus_generator_and_exp_pinned(p, e):
    modulus, g = PINNED[p, e]
    assert default_modulus(p, e) == modulus
    F = field(p, e)
    assert (F.modulus, F.generator) == (modulus, g)
    # exp walks the powers of g under that modulus through every unit
    exp = np.array(F._exp.tolist()[: F.q - 1])
    assert exp[0] == 1 and sorted(exp.tolist()) == list(range(1, F.q))
    assert np.array_equal(_times_generator(F, exp), np.roll(exp, -1))


def _mobius(n):
    primes = [k for k in range(2, n + 1) if n % k == 0 and is_prime(k)]
    return 0 if any(n % (k * k) == 0 for k in primes) else (-1) ** len(primes)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 6), (2, 8), (3, 4), (3, 5), (5, 3), (7, 2), (31, 2)])
def test_irreducible_count_matches_gauss_formula(p, d):
    # the monic irreducibles of degree d over GF(p) number
    # (1/d) sum over k | d of mu(d/k) p^k
    expected = sum(_mobius(d // k) * p**k for k in range(1, d + 1) if d % k == 0) // d
    found = sum(_is_irreducible([(i // p**j) % p for j in range(d)] + [1], p) for i in range(p**d))
    assert found == expected


def _primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    return np.flatnonzero(sieve).tolist()


def test_is_prime_matches_sieve():
    assert [n for n in range(-3, 4097) if is_prime(n)] == _primes_below(4097)


def test_prime_field_generator_is_least_primitive_root():
    primes = _primes_below(4096)
    for p in primes:
        divisors = [d for d in primes if d < p and (p - 1) % d == 0]
        least = next(g for g in range(1, p) if all(pow(g, (p - 1) // d, p) != 1 for d in divisors))
        assert Field(p).generator == least, p


def test_prime_field_named_modulus_is_the_prime_field():
    # a degree-1 modulus changes no table
    assert field(2, 1, (1, 1)) == field(2) and hash(field(3, 1, (2, 1))) == hash(field(3))
    assert field(3, 1, (2, 1)).modulus == (0, 1)
    with pytest.raises(BadInput, match="must be monic of degree 1"):
        field(3, 1, (1, 2))


def test_not_prime_rejected():
    with pytest.raises(BadInput, match="p = 4 is not prime"):
        field(4, 1)
    with pytest.raises(BadInput, match="p = 1 is not prime"):
        field(1)


def test_reducible_modulus_rejected():
    with pytest.raises(BadInput, match="is reducible over GF"):
        field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2
    with pytest.raises(BadInput, match="must be monic of degree 2"):
        field(2, 2, modulus=[1, 1])


def test_gf4_omega_times_omega():
    """omega^2 = omega + 1 under x^2 + x + 1."""
    F = field(2, 2)
    omega = 2  # encoding of x
    assert F.mul(omega, omega) == 3  # 1 + x
    assert F.mul(omega, 3) == 1  # omega^3 = 1


def test_prime_field_arith():
    F3 = field(3)
    assert F3.add(2, 2) == 1
    assert field(2).div(1, 1) == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        field(3).inv(0)
    with pytest.raises(DivisionByZero):
        field(2, 2).div(1, 0)


def test_frobenius_gf4():
    F = field(2, 2)
    omega = 2
    assert F.frob(omega, 1) == 3  # omega^2 = omega + 1
    assert F.frob(omega, 0) == omega
    assert F.frob(F.frob(omega, 1), 1) == omega  # order e = 2


def test_frobenius_identity_at_e():
    for p, e in [(2, 2), (2, 3), (3, 2)]:
        F = field(p, e)
        for a in range(F.q):
            assert F.frob(a, e) == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    F = field(p, e)
    els = range(F.q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_array_ops_match_scalar():
    F = field(3, 2)
    rng = np.random.default_rng(0)
    a = rng.integers(0, F.q, size=50).astype(np.int16)
    b = rng.integers(0, F.q, size=50).astype(np.int16)
    for i in range(50):
        assert F.add(a, b)[i] == F.add(int(a[i]), int(b[i]))
        assert F.mul(a, b)[i] == F.mul(int(a[i]), int(b[i]))
        assert F.sub(a, b)[i] == F.sub(int(a[i]), int(b[i]))


SCALAR_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 12), (61, 2)]


def test_scalar_ops_return_python_int():
    """Int and numpy-integer arguments give a Python int, equal to the
    int16 array op's entry; a zero inverse, divisor or negative power
    raises DivisionByZero."""
    for p, e in SCALAR_FIELDS:
        _check_scalar_ops(field(p, e))


def _check_scalar_ops(F):
    rng = np.random.default_rng(q := F.q)
    xs = np.unique(np.concatenate([[0, 1, q - 1], rng.integers(0, q, 6)])).astype(np.int16)
    ys = np.roll(xs, 1)
    ops = [
        ("add", F.add, 2, set()), ("sub", F.sub, 2, set()), ("mul", F.mul, 2, set()),
        ("neg", F.neg, 1, set()), ("inv", F.inv, 1, {0}), ("div", F.div, 2, {0}),
        *[(f"pow {k}", lambda a, k=k: F.pow(a, k), 1, {0} if k < 0 else set()) for k in (-2, 0, 1, q - 1, q + 2)],
    ]
    for name, op, arity, refused in ops:
        args = (xs, ys)[:arity]
        for i in range(xs.size):
            for cast in (int, np.int16, np.int64):
                scalars = [cast(a[i]) for a in args]
                if int(args[-1][i]) in refused:
                    with pytest.raises(DivisionByZero):
                        op(*scalars)
                    continue
                r = op(*scalars)
                assert type(r) is int and r == int(op(*[a[i : i + 1] for a in args])[0]), (name, scalars)
        if refused:
            with pytest.raises(DivisionByZero):
                op(*args)
    assert type(F.sum(xs)) is int and type(F.sum(xs[:0])) is int
    assert F.sum(xs) == F.sum(xs.reshape(-1, 1), axis=0)[0]
    assert type(F.sum(xs.reshape(-1, 1), axis=0)) is np.ndarray


def _horner(emb, coeffs, alpha):
    acc = 0
    for c in reversed(list(coeffs)):
        acc = emb.big.add(emb.big.mul(acc, alpha), emb(int(c)))
    return acc


def test_eval_poly_matches_horner():
    F2, F4, F4096 = field(2), field(2, 2), field(2, 12)
    for small, big in [(F2, F4), (F4, F4), (F2, F4096), (field(3), field(3, 2))]:
        emb = embedding(small, big)
        for alpha in (0, 1, big.generator, big.q - 1):
            for coeffs in ([], [0], [1], [small.q - 1], [0, 1], [1, 0, small.q - 1, 1]):
                got = emb.eval_poly(coeffs, alpha)
                assert type(got) is int and got == _horner(emb, coeffs, alpha)
    emb = embedding(F2, F4096)
    rng = np.random.default_rng(12)
    for deg in range(128):
        coeffs = rng.integers(0, 2, deg + 1)
        coeffs[-1] = 1
        alpha = int(rng.integers(0, F4096.q))
        assert emb.eval_poly(coeffs, alpha) == _horner(emb, coeffs, alpha)


def test_generator_has_full_order():
    for p, e in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        F = field(p, e)
        g = F.generator
        seen = set()
        x = 1
        for _ in range(F.q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == F.q - 1


# the base fields of the tests and every splitting field GF(p^t) <= 4096 their
# cyclotomic contexts can reach
TABLE_FIELDS = (
    [(2, e) for e in range(1, 13)] + [(3, e) for e in range(1, 8)]
    + [(5, e) for e in range(1, 6)] + [(7, e) for e in range(1, 5)] + [(131, 1), (257, 1)]
)


@pytest.mark.parametrize("p,e", TABLE_FIELDS)
def test_doubled_tables_match_stepwise_build(p, e):
    # exp, log and inv as a walk of schoolbook products by the generator builds them
    F = field(p, e)
    N = F.q - 1
    exp = [1]
    for _ in range(N - 1):
        exp.append(int(_times_generator(F, [exp[-1]])[0]))
    log = [2 * N] * F.q
    for i, x in enumerate(exp):
        log[x] = i
    table = F._exp.tolist()
    assert table[:N] == exp and table[N : 2 * N] == exp
    assert F._log.tolist() == log
    assert F._inv.tolist() == [0] + [exp[-log[a] % N] for a in range(1, F.q)]


def test_extension_fields_build_without_polynomial_products(monkeypatch):
    # the generator and exp come from the companion matrix of the modulus
    from sigmalcd import poly

    def refuse(*args):
        raise AssertionError("poly.mul called while building a field")

    monkeypatch.setattr(poly, "mul", refuse)
    for p, e in [(2, 12), (3, 7), (7, 4), (61, 2)]:
        F = Field(p, e)
        assert (F.modulus, F.generator) == PINNED[p, e]


def test_tables_of_every_field_pinned():
    # generator, modulus and exp/log/inv/neg, as lists and as int16 arrays, of
    # all 604 fields with q <= 4096, prime fields included
    orders = [(p, e) for p in _primes_below(4097) for e in range(1, 13) if p**e <= 4096]
    assert len(orders) == 604
    h = hashlib.sha256()
    for p, e in orders:
        F = Field(p, e)
        lists = [t.tolist() for t in (F._exp, F._log, F._inv, F._neg)]
        h.update(repr((p, e, F.generator, F.modulus, *lists)).encode())
        for table in (F._exp, F._log, F._inv, F._neg):
            h.update(table.tobytes())
    assert h.hexdigest() == "b347e9c4b305da650079c71087ddb203f0a71bda669c4f07f6cc687daae4951b"


@pytest.mark.parametrize("p,e", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 7)])
def test_add_matches_digit_pass_sum(p, e):
    # every pair as arrays, and 200 as Python ints, against the sum as e
    # digit passes over q x q temporaries
    F = field(p, e)
    ref = np.zeros((F.q, F.q), dtype=np.int16)
    for i, w in enumerate(F.digit_weights):
        d = F.digits[:, i]
        ref += ((d[:, None] + d[None, :]) % p) * np.int16(w)
    a = np.arange(F.q, dtype=np.int16)
    total = F.add(a[:, None], a[None, :])
    assert total.dtype == np.int16
    assert np.array_equal(total, ref)
    for x, y in np.random.default_rng(F.q).integers(0, F.q, size=(200, 2)).tolist():
        s = F.add(x, y)
        assert type(s) is int and s == ref[x, y]


def test_no_table_of_any_field_is_quadratic():
    # an odd-p extension field adds through (2p - 1)^e < 2^e q entries, not a
    # q x q table; a prime field's doubled exp with its zero tail has 4q - 3
    orders = [(p, e) for p in _primes_below(4097) for e in range(1, 13) if p**e <= 4096]
    assert len(orders) == 604
    for p, e in orders:
        F = Field(p, e)
        for name, table in vars(F).items():
            if isinstance(table, np.ndarray):
                assert table.size <= max(2**e, 4) * F.q, (p, e, name)


def test_only_a_named_modulus_is_tested_for_irreducibility(monkeypatch):
    # default_modulus proves its own result, so Field runs Ben-Or only on a
    # modulus the caller names, reducible or not
    field_module = sys.modules[Field.__module__]  # the package's `field` is the factory
    orders = [(3, 7), (61, 2), (2, 12)]
    for p, e in orders:
        default_modulus(p, e)
    real, tested = field_module._is_irreducible, []

    def refuse(f, p):
        raise AssertionError("Ben-Or run on the default modulus")

    monkeypatch.setattr(field_module, "_is_irreducible", refuse)
    for p, e in orders:
        assert Field(p, e).modulus == PINNED[p, e][0]
    monkeypatch.setattr(field_module, "_is_irreducible", lambda f, p: tested.append(f) or real(f, p))
    assert Field(3, 2, (2, 1, 1)).modulus == (2, 1, 1)  # x^2 + x + 2, not the default x^2 + 1
    assert tested == [(2, 1, 1)]
    with pytest.raises(BadInput, match="is reducible over GF"):
        Field(3, 2, (0, 0, 1))


def test_element_order_divides_group_order():
    F = field(2, 3)
    for a in range(1, F.q):
        o = next(o for o in range(1, F.q) if F.pow(a, o) == 1)
        assert (F.q - 1) % o == 0


def encode(F, coeffs) -> int:
    """The encoding sum(c_i p^i) of the element with coefficients coeffs."""
    coeffs = list(coeffs)
    assert len(coeffs) <= F.e
    return sum((int(c) % F.p) * F.p**i for i, c in enumerate(coeffs))


def test_encode_digits_roundtrip():
    F = field(3, 2)
    for a in range(F.q):
        assert encode(F, F.digits[a]) == a == F.digits[a] @ F.digit_weights


def test_field_identity_cached():
    assert field(2, 2) is field(2, 2)
    assert field(2) is not field(3)


def test_field_interned_however_the_modulus_is_spelled():
    """A modulus the field would store anyway builds no second copy."""
    assert field(2, 1, (1, 1)) is field(2) is field(2, 1, [0, 1])
    assert field(3, 1, (2, 1)) is field(3, 1, (5, 4)) is field(3)
    assert field(2, 2, default_modulus(2, 2)) is field(2, 2) is field(2, 2, (3, 1, 1))
    assert field(3, 2, (1, 0, 1)) is field(3, 2)
    other = field(2, 3, (1, 1, 0, 1))  # x^3 + x + 1, not the default
    assert other is field(2, 3, (3, 1, 2, 1)) and other is not field(2, 3) and other != field(2, 3)
    for args, message in [
        ((3, 1, (1, 2)), "modulus must be monic of degree 1"),
        ((2, 1, (1, 1, 1)), "modulus must be monic of degree 1"),
        ((2, 2, (1, 0, 1)), "is reducible over GF\\(2\\)"),
        ((6, 1, (0, 1)), "p = 6 is not prime"),
        ((2, 13, (1,) * 14), "field size 8192 exceeds"),
    ]:
        with pytest.raises(BadInput, match=message):
            field(*args)


def test_embedding_gf2_to_gf8():
    F2, F8 = field(2), field(2, 3)
    emb = embedding(F2, F8)
    assert emb(0) == 0 and emb(1) == 1


def test_embedding_gf4_to_gf16():
    """The embedding must be a field homomorphism."""
    F4, F16 = field(2, 2), field(2, 4)
    emb = embedding(F4, F16)
    for a in range(4):
        for b in range(4):
            assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))
            assert emb(F4.add(a, b)) == F16.add(emb(a), emb(b))


def test_embedding_respects_frobenius_tower():
    # GF(4) sits inside GF(16) as the fixed field of x -> x^4
    F4, F16 = field(2, 2), field(2, 4)
    emb = embedding(F4, F16)
    for a in range(4):
        img = emb(a)
        assert F16.pow(img, 4) == img


def test_missing_embeddings_are_bad_input():
    with pytest.raises(BadInput, match="different characteristic"):
        embedding(field(2), field(3))
    with pytest.raises(BadInput, match="2 does not divide 3"):
        embedding(field(2, 2), field(2, 3))
    emb = embedding(field(2, 2), field(2, 4))
    outside = next(y for y in range(16) if y not in emb.table)
    assert emb.lift(emb.table).tolist() == [0, 1, 2, 3]
    with pytest.raises(BadInput, match="value outside the embedded subfield"):
        emb.lift(outside)
    with pytest.raises(BadInput, match="value outside the embedded subfield"):
        emb.lift(np.array([0, outside], dtype=np.int16))


@pytest.mark.parametrize("p", [131, 257])
def test_primes_above_int8(p):
    F = field(p)
    assert F.digits.dtype == np.int16 and int(F.digits[p - 1, 0]) == p - 1
    a = np.arange(p, dtype=np.int16)
    assert np.array_equal(F.mul(a, a), a.astype(np.int64) ** 2 % p)
    assert np.array_equal(F.mul(a[1:], F.inv(a[1:])), np.ones(p - 1))
    assert np.array_equal(F.add(a, a[::-1]), np.full(p, p - 1))
    assert F.add(p - 1, 2) == 1 and F.neg(1) == p - 1 and F.sub(0, 1) == p - 1
    assert F.pow(F.generator, (p - 1) // 2) == p - 1
    assert F.div(1, 2) == (p + 1) // 2


def _reference_embedding_table(small, big):
    """The three-branch construction the one rule replaced: the identity
    into itself and from a prime field, else sum d_i root^i with root the
    least root of the small modulus."""
    if small == big or small.e == 1:
        return np.arange(small.q, dtype=np.int16)
    z = np.arange(big.q, dtype=np.int16)
    acc = np.full(big.q, small.modulus[-1], dtype=np.int16)
    for c in reversed(small.modulus[:-1]):
        acc = big.add(big.mul(acc, z), int(c))
    root = int(np.where(np.asarray(acc) == 0)[0].min())
    acc = np.zeros(small.q, dtype=np.int16)
    pw = 1
    for i in range(small.e):
        acc = big.add(acc, big.mul(small.digits[:, i].astype(np.int16), pw))
        pw = big.mul(pw, root)
    return np.asarray(acc, dtype=np.int16)


EMBEDDING_PAIRS = [
    (p, a, b)
    for p, top in [(2, 4096), (3, 2401), (5, 2401), (7, 2401)]
    for b in range(1, 13)
    if p**b <= top
    for a in range(1, b + 1)
    if b % a == 0
]


@pytest.mark.parametrize("p,a,b", EMBEDDING_PAIRS)
def test_embedding_matches_three_branch_reference(p, a, b):
    """table and lift agree with the reference on every subfield pair; root
    is the image of x, and 0 for a prime field, whose modulus is x."""
    small, big = field(p, a), field(p, b)
    emb, want = embedding(small, big), _reference_embedding_table(small, big)
    assert emb.table.dtype == np.int16 and emb.table.tobytes() == want.tobytes()
    assert np.array_equal(emb.lift(want), np.arange(small.q))
    outside = np.setdiff1d(np.arange(big.q), want)
    if outside.size:
        with pytest.raises(BadInput, match="outside the embedded subfield"):
            emb.lift(outside[:1])
    assert emb.root == (0 if a == 1 else int(emb.table[p]))
