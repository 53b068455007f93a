import numpy as np
import pytest

from sigmalcd import poly
from sigmalcd.errors import BadInput, DivisionByZero
from sigmalcd.field import embedding, field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def P(*coeffs):
    return poly.from_seq(coeffs)


def test_trim_and_degree():
    assert poly.degree(P(1, 1, 0)) == 1
    assert poly.degree(poly.ZERO) == -1
    assert poly.is_zero(poly.from_seq([0, 0]))


def test_gcd_known_values_gf2():
    # x + x^2 and x^3 + 1 share the factor x + 1
    g = poly.gcd(F2, P(0, 1, 1), P(1, 0, 0, 1))
    assert g.tolist() == [1, 1]


def test_gcd_with_zero_is_monic():
    g = poly.gcd(F3, P(0, 2), poly.ZERO)
    assert g.tolist() == [0, 1]  # monic(2x) = x


def test_gcd_gf3():
    g = poly.gcd(F3, P(2, 0, 1), P(2, 1))  # x^2 - 1, x - 1
    assert g.tolist() == [2, 1]


def test_gcd_both_zero():
    with pytest.raises(BadInput, match="gcd of two zero polynomials"):
        poly.gcd(F2, poly.ZERO, poly.ZERO)


def test_gcd_divides_both_random():
    rng = np.random.default_rng(5)
    for F in (F2, F3, F4):
        for _ in range(40):
            f = poly.trim(rng.integers(0, F.q, size=rng.integers(1, 7)).astype(np.int16))
            g = poly.trim(rng.integers(0, F.q, size=rng.integers(1, 7)).astype(np.int16))
            if poly.is_zero(f) and poly.is_zero(g):
                continue
            d = poly.gcd(F, f, g)
            for h in (f, g):
                if poly.is_zero(h):
                    continue
                _, r = poly.divmod_(F, h, d)
                assert poly.is_zero(r)


def test_egcd_bezout():
    rng = np.random.default_rng(6)
    for _ in range(30):
        f = poly.trim(rng.integers(0, 3, size=5).astype(np.int16))
        g = poly.trim(rng.integers(0, 3, size=4).astype(np.int16))
        if poly.is_zero(f) and poly.is_zero(g):
            continue
        d, u, v = poly.egcd(F3, f, g)
        lhs = poly.add(F3, poly.mul(F3, u, f), poly.mul(F3, v, g))
        assert poly.equal(lhs, d)


def test_divmod_reconstructs():
    f = P(1, 0, 1, 1)
    g = P(1, 1)
    q, r = poly.divmod_(F2, f, g)
    assert poly.equal(poly.add(F2, poly.mul(F2, q, g), r), f)
    with pytest.raises(DivisionByZero):
        poly.divmod_(F2, f, poly.ZERO)


def test_inverse_mod():
    # x is invertible mod x^3 - 1 (gcd = 1); inverse is x^2
    inv = poly.inverse_mod(F2, P(0, 1), poly.xm1(F2, 3))
    assert inv.tolist() == [0, 0, 1]


def test_eval_at_root_of_own_minimal_poly():
    F8 = field(2, 3)
    emb = embedding(F2, F8)
    # x^3 + x + 1 has three roots in GF(8); each must evaluate to 0
    f = P(1, 1, 0, 1)
    roots = [a for a in range(8) if emb.eval_poly(f, a) == 0]
    assert len(roots) == 3


def test_eval_constant_and_identity():
    emb = embedding(F2, field(2, 2))
    assert emb.eval_poly(P(1), 2) == 1
    assert emb.eval_poly(P(0, 1), 2) == 2


def test_eval_at_prime_field():
    assert embedding(F3, F3).eval_poly(P(1, 1, 1), 2) == (1 + 2 + 4) % 3


def test_xm1_and_mod_xm1():
    assert poly.xm1(F2, 3).tolist() == [1, 0, 0, 1]
    # x^4 mod x^3 - 1 = x
    r = poly.mod_xm1(F2, P(0, 0, 0, 0, 1), 3)
    assert r.tolist() == [0, 1]


def test_subst_power_mod():
    # f(x) = x, substitute x -> x^2 mod x^3-1: result x^2
    r = poly.subst_power_mod(F2, P(0, 1), 2, 3)
    assert r.tolist() == [0, 0, 1]
    # and x^2 -> x^4 = x
    r2 = poly.subst_power_mod(F2, P(0, 0, 1), 2, 3)
    assert r2.tolist() == [0, 1]


def test_monic_normalizes_leading():
    m = poly.monic(F3, P(1, 2))
    assert m.tolist() == [2, 1]  # 2^-1 = 2 mod 3; (1+2x)*2 = 2+4x = 2+x
