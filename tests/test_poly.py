"""The polynomial core against the array reference below.

The reference keeps a polynomial an int16 array throughout: division
subtracts one scaled row per shift and builds the quotient the core never
needs, extended Euclid carries the Bezout coefficients the core replaces by
powers of a unit, a product adds one scaled row per
coefficient, and the reductions modulo x^m - 1 fold one coefficient at a
time, all with the Field's own vectorised ops.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalcd import poly
from sigmalcd.errors import BadInput, DivisionByZero
from sigmalcd.field import embedding, field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)

# one-bit digits, 1 to 4 and 12 per coefficient, in characteristic 2; for odd
# p, narrow digits with one, two, three and seven per coefficient, and the
# wide single digits of GF(131) and GF(4093): GF(2^12), GF(3^7) and GF(4093)
# are the widest slot, most-digit and widest-digit packings of any splitting
# field
CORE_FIELDS = [
    F2, F3, F4, field(2, 3), field(3, 2), field(2, 4), field(5, 3), field(131),
    field(2, 12), field(3, 7), field(4093),
]


# ---------------------------------------------------------------- reference


def ref_trim(a):
    a = np.asarray(a, dtype=np.int16).reshape(-1)
    nz = np.nonzero(a)[0]
    return a[: int(nz[-1]) + 1] if nz.size else np.zeros(0, dtype=np.int16)


def ref_add(F, a, b):
    a, b = ref_trim(a), ref_trim(b)
    out = np.zeros(max(a.size, b.size), dtype=np.int16)
    out[: a.size] = a
    out[: b.size] = F.add(out[: b.size], b)
    return ref_trim(out)


def ref_sub(F, a, b):
    return ref_add(F, a, F.neg(ref_trim(b)))


def ref_scale(F, c, a):
    return ref_trim(F.mul(int(c), ref_trim(a)))


def ref_mul(F, a, b):
    a, b = ref_trim(a), ref_trim(b)
    if a.size == 0 or b.size == 0:
        return ref_trim([])
    out = np.zeros(a.size + b.size - 1, dtype=np.int16)
    prods = F.mul(a[:, None], b[None, :])
    for i in range(a.size):
        out[i : i + b.size] = F.add(out[i : i + b.size], prods[i])
    return ref_trim(out)


def ref_divmod(F, a, b):
    a, b = ref_trim(a), ref_trim(b)
    if b.size == 0:
        raise DivisionByZero("polynomial division by zero")
    if a.size < b.size:
        return ref_trim([]), a
    rem = np.array(a, copy=True)
    quo = np.zeros(a.size - b.size + 1, dtype=np.int16)
    inv_lead = F.inv(int(b[-1]))
    for sh in range(a.size - b.size, -1, -1):
        c = F.mul(int(rem[sh + b.size - 1]), inv_lead)
        if c:
            quo[sh] = c
            rem[sh : sh + b.size] = F.sub(rem[sh : sh + b.size], F.mul(c, b))
    return ref_trim(quo), ref_trim(rem)


def ref_monic(F, a):
    a = ref_trim(a)
    return a if a.size == 0 else ref_scale(F, F.inv(int(a[-1])), a)


def ref_gcd(F, a, b):
    a, b = ref_trim(a), ref_trim(b)
    if a.size == 0 and b.size == 0:
        raise BadInput("gcd of two zero polynomials")
    while b.size:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_monic(F, a)


def ref_egcd(F, a, b):
    r0, r1 = ref_trim(a), ref_trim(b)
    u0, u1 = ref_trim([1]), ref_trim([])
    v0, v1 = ref_trim([]), ref_trim([1])
    while r1.size:
        q, r = ref_divmod(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, ref_sub(F, u0, ref_mul(F, q, u1))
        v0, v1 = v1, ref_sub(F, v0, ref_mul(F, q, v1))
    if r0.size == 0:
        raise BadInput("gcd of two zero polynomials")
    c = F.inv(int(r0[-1]))
    return ref_scale(F, c, r0), ref_scale(F, c, u0), ref_scale(F, c, v0)


def ref_subst_power_mod(F, a, k, m):
    a = ref_trim(a)
    out = np.zeros(m, dtype=np.int16)
    for i, c in enumerate(a):
        if c:
            j = (i * k) % m
            out[j] = F.add(int(out[j]), int(c))
    return ref_trim(out)


def ref_mod_xm1(F, a, m):
    return ref_subst_power_mod(F, a, 1, m)


REFERENCE = {
    "add": ref_add,
    "sub": ref_sub,
    "mul": ref_mul,
    "mod": lambda F, a, b: ref_divmod(F, a, b)[1],
    "gcd": ref_gcd,
}
REFERENCE_XM1 = {
    "mod_xm1": lambda F, a, b, k, m: ref_mod_xm1(F, a, m),
}
CORE = {name: getattr(poly, name) for name in REFERENCE}
CORE_XM1 = {
    "mod_xm1": lambda F, a, b, k, m: poly.mod_xm1(F, a, m),
}


def outcome(fn, *args):
    """The result, or the type and message of what was raised."""
    try:
        return fn(*args)
    except (BadInput, DivisionByZero) as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif want is None:
        assert got is None
    else:
        # a trimmed 1-D int16 array
        assert isinstance(got, np.ndarray) and got.dtype == np.int16 and got.ndim == 1
        assert got.size == 0 or got[-1] != 0
        assert got.tolist() == want.tolist()


@st.composite
def core_cases(draw, min_len=0, max_len=12):
    F = draw(st.sampled_from(CORE_FIELDS))
    # untrimmed: trailing zeros are drawn as often as any coefficient
    coeffs = st.lists(st.integers(0, F.q - 1), min_size=min_len, max_size=max_len)
    a, b = draw(coeffs), draw(coeffs)
    a = np.array(a, dtype=draw(st.sampled_from([np.int16, np.int64])))
    return F, a, np.array(b, dtype=np.int16), draw(st.integers(-6, 12)), draw(st.integers(1, 9))


@settings(max_examples=400, deadline=None, database=None)
@given(core_cases())
def test_core_matches_array_reference(case):
    F, a, b, k, m = case
    for name, ref in REFERENCE.items():
        assert_same(outcome(CORE[name], F, a, b), outcome(ref, F, a, b))
    for name, ref in REFERENCE_XM1.items():
        assert_same(outcome(CORE_XM1[name], F, a, b, k, m), outcome(ref, F, a, b, k, m))
    assert_same(poly.trim(a), ref_trim(a))
    assert poly.degree(a) == ref_trim(a).size - 1
    assert poly.equal(a, b) == (ref_trim(a).tolist() == ref_trim(b).tolist())


@settings(max_examples=40, deadline=None, database=None)
@given(core_cases(min_len=65, max_len=300))
def test_core_matches_array_reference_long(case):
    # past 64 coefficients the slot packing splits in halves
    F, a, b, k, m = case
    m = 1 + m * 37
    for name in ("mul", "mod", "gcd"):
        assert_same(outcome(CORE[name], F, a, b), outcome(REFERENCE[name], F, a, b))
    for name, ref in REFERENCE_XM1.items():
        assert_same(outcome(CORE_XM1[name], F, a, b, k, m), outcome(ref, F, a, b, k, m))


@pytest.mark.parametrize("F", CORE_FIELDS, ids=repr)
def test_gcd_with_xm1_matches_array_reference(F):
    """gcd(c, x^m - 1) both ways round, the quasi-cyclic forms' gcd, for m up
    to 127: c zero, random up to 2m coefficients, and a random multiple of
    x^d - 1 for the largest proper divisor d of m, whose gcd is not 1."""
    rng = np.random.default_rng(F.q)
    for m in (1, 2, 3, 12, 45, 64, 105, 127):
        xm = poly.xm1(F, m)
        d = max((d for d in range(1, m) if m % d == 0), default=1)
        r = rng.integers(0, F.q, size=int(rng.integers(1, m + 1)))
        for c in (poly.ZERO, rng.integers(0, F.q, size=int(rng.integers(m, 2 * m + 1))),
                  poly.mul(F, r, poly.xm1(F, d))):
            want = ref_gcd(F, c, xm)
            assert_same(poly.gcd(F, c, xm), want)
            assert_same(poly.gcd(F, xm, c), want)


@pytest.mark.parametrize("F", CORE_FIELDS, ids=repr)
def test_core_edge_cases(F):
    zero, one, top = poly.ZERO, poly.from_seq([1]), np.array([0, 0, F.q - 1, 0, 0], dtype=np.int16)
    for a in (zero, one, top, np.array([0, 0, 0], dtype=np.int16)):
        for b in (zero, one, top):
            for name, ref in REFERENCE.items():
                assert_same(outcome(CORE[name], F, a, b), outcome(ref, F, a, b))
            for name, ref in REFERENCE_XM1.items():
                assert_same(outcome(CORE_XM1[name], F, a, b, 3, 1), outcome(ref, F, a, b, 3, 1))


def test_core_errors_keep_their_messages():
    with pytest.raises(DivisionByZero, match="polynomial division by zero"):
        poly.mod(F4, poly.from_seq([1, 2]), [0, 0])
    for F in (F2, F3):
        with pytest.raises(BadInput, match="gcd of two zero polynomials"):
            poly.gcd(F, [0], poly.ZERO)
        for fn in (
            lambda m: poly.xm1(F, m),
            lambda m: poly.mod_xm1(F, [1, 1], m),
        ):
            for m in (0, -3):
                with pytest.raises(BadInput, match=f"x\\^m - 1 needs m >= 1, got m = {m}"):
                    fn(m)


@pytest.mark.parametrize("F", [F2, F3, F4, field(3, 2)], ids=repr)
def test_core_rejects_non_encodings(F):
    # a negative coefficient would pack into a negative int
    calls = [CORE[name] for name in ("mul", "mod", "gcd")]
    calls += [lambda F, a, b: poly.mod_xm1(F, a, 3)]
    for bad in ([-1, 1], [1, F.q]):
        for fn in calls:
            with pytest.raises(BadInput, match=f"coefficients must be encodings in 0..{F.q - 1}"):
                fn(F, bad, [1, 1])
        with pytest.raises(BadInput, match="coefficients must be encodings"):
            poly.gcd(F, [1, 1], bad)


@pytest.mark.parametrize("F", [F2, F4, field(2, 3), field(2, 4)], ids=repr)
def test_inv_xm1_matches_extended_euclid(F):
    """The inverse modulo x^m - 1 by powers of u, for p = 2 and odd m, against
    the reference's Bezout coefficient: u is a unit exactly when
    gcd(u, x^m - 1) = 1, and a non-unit gives 0.  Random words are units
    about half the time; a multiple of x + 1, which divides x^m - 1, and 0
    never are."""
    rng, core, units, non_units = np.random.default_rng(F.q), poly._core(F), 0, 0
    for m in (1, 3, 5, 7, 9, 15, 21, 31, 45, 63, 127):
        xm = poly.xm1(F, m)
        words = [rng.integers(0, F.q, size=m) for _ in range(6)] + [poly.ZERO, poly.from_seq([1])]
        words.append(ref_mod_xm1(F, ref_mul(F, words[0], [1, 1]), m))
        for u in words:
            g, want, _ = ref_egcd(F, u, xm)
            got = poly._array(core, core.inv_xm1(poly._load(core, u), m))
            if g.tolist() == [1]:
                units += 1
                assert_same(got, want)
            else:
                non_units += 1
                assert got.size == 0
    assert units >= 20 and non_units >= 20


def test_gf2_gcd_with_x4095_minus_1_is_fast():
    # the array reference needs about 4 s for these 20 gcds
    rng = np.random.default_rng(4095)
    xm = poly.xm1(F2, 4095)
    fs = [np.append(rng.integers(0, 2, 4093), 1).astype(np.int16) for _ in range(20)]
    start = time.perf_counter()
    gs = [poly.gcd(F2, f, xm) for f in fs]
    assert time.perf_counter() - start < 1.5
    for f, g in zip(fs[:2], gs):
        assert poly.mod(F2, f, g).size == poly.mod(F2, xm, g).size == 0


def test_odd_p_gcd_with_x1093_minus_1_is_fast():
    # 3^7 = 1 mod 1093, so m = 1093 is a block length over GF(3) and GF(9);
    # the array reference needs about 0.8 s for these 10 gcds
    rng = np.random.default_rng(1093)
    cases = []
    for F in (F3, field(3, 2)):
        xm = poly.xm1(F, 1093)
        cases += [(F, np.append(rng.integers(0, F.q, 1092), 1).astype(np.int16), xm) for _ in range(5)]
    start = time.perf_counter()
    gs = [poly.gcd(F, f, xm) for F, f, xm in cases]
    assert time.perf_counter() - start < 0.75
    for (F, f, xm), g in zip(cases[4:6], gs[4:6]):
        assert poly.mod(F, f, g).size == poly.mod(F, xm, g).size == 0


def test_char2_extension_gcds_are_fast():
    # 4^5 = 1 mod 1023 and 16^2 = 1 mod 255; the array reference needs about
    # 0.27 s for these 10 gcds
    rng = np.random.default_rng(255)
    cases = []
    for F, m in ((F4, 1023), (field(2, 4), 255)):
        xm = poly.xm1(F, m)
        cases += [(F, np.append(rng.integers(0, F.q, m - 1), 1).astype(np.int16), xm) for _ in range(5)]
    start = time.perf_counter()
    gs = [poly.gcd(F, f, xm) for F, f, xm in cases]
    assert time.perf_counter() - start < 0.15
    for (F, f, xm), g in zip(cases[4:6], gs[4:6]):
        assert poly.mod(F, f, g).size == poly.mod(F, xm, g).size == 0


def test_xm1_reductions_of_short_inputs_do_not_grow_with_m():
    # a polynomial below degree m is already reduced; building anything m
    # long made these take seconds
    one_plus_x = poly.from_seq([1, 1])
    start = time.perf_counter()
    square = poly.mod_xm1(field(3, 2), poly.mul(field(3, 2), one_plus_x, one_plus_x), 10**8)
    short = poly.mod_xm1(F2, one_plus_x, 10**7)
    assert time.perf_counter() - start < 0.1
    assert square.tolist() == [1, 2, 1] and short.tolist() == [1, 1]


@pytest.mark.parametrize("F", [F2, F4, F3, field(3, 2)], ids=repr)
def test_long_mod_xm1_matches_scalar_fold(F):
    # mod_xm1 folds the packed int in halves, the reference one coefficient
    # at a time; odd block counts leave a short upper half
    rng = np.random.default_rng(F.q)
    for n, m in ((20_000, 1), (20_000, 2), (50_001, 7), (50_001, 1023), (3 * 4096 + 5, 4096)):
        a = rng.integers(0, F.q, n).astype(np.int16)
        assert np.array_equal(poly.mod_xm1(F, a, m), ref_subst_power_mod(F, a, 1, m))


def test_predicates_agree_on_int16_wraparound():
    # every predicate reads its argument as int16, as trim does
    for a in ([65536], [0, 65536], [1, 65536]):
        a = np.array(a, dtype=np.int64)
        assert (poly.degree(a) == -1) == poly.equal(a, poly.ZERO)


def P(*coeffs):
    return poly.from_seq(coeffs)


def test_trim_and_degree():
    assert poly.degree(P(1, 1, 0)) == 1
    assert poly.degree(poly.ZERO) == -1
    assert poly.from_seq([0, 0]).size == 0


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
            if f.size == g.size == 0:
                continue
            d = poly.gcd(F, f, g)
            for h in (f, g):
                if h.size:
                    assert poly.mod(F, h, d).size == 0


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

