"""The four benchmark workloads: seeded instance lists, the timed op for each
instance, and an independent expected answer for verification.

Every workload returns a list of `Op`.  `call()` is the timed part and goes
through the public API of `sigmalcd` only; `answer(raw)` turns its result
into a comparable value off the clock; `expected()` computes the verified
answer by a route that does not share the timed path (the brute-force
oracle, the benchmark's own enumerator below, or a published value).

Instance sizes come from a fine grid spread over the whole range, with a
small seeded jitter, and the seed draws the contents (generator matrices,
maps, polynomials, units).  Cost depends mostly on size, so this keeps the
per-pass cost and the percentiles from moving much with the seed, while no
percentile sits on the boundary between a few size classes.

Each full-size list holds a number of ops ending in 5 (35, 65, 15, 85).
Then half and nine tenths of it fall in the middle of one op, so p50 and
p90, taken over the repeated passes, read the middle of that op's samples
rather than the edge between two ops of different cost.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sigmalcd import abelian, cli, codes, formats, gqc, oracle, poly
from sigmalcd.codes import LinearCode, SemiLinearMap
from sigmalcd.cyclotomic import CyclotomicContext, mult_order
from sigmalcd.field import field

@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    expected: Callable[[], Any]
    answer: Callable[[Any], Any] = lambda raw: raw
    # structured-criteria only: the flat hull route on the same instance,
    # timed in its own pass for the gqc.route.flat_ms comparison
    flat: Callable[[], Any] | None = None
    # a malformed-input probe: counted in ok_rate, not in `correct`
    probe: bool = False


def _jitter(rng, width: float = 0.15) -> float:
    return float(rng.uniform(-width, width))


def _grid(count: int, rng, width: float = 0.15) -> list[float]:
    """count points in (0, 1), one per stratum, near the stratum centres."""
    return [(j + 0.5 + _jitter(rng, width)) / count for j in range(count)]


# ---------------------------------------------------------------------------
# known-answer anchors from the literature


# binary Golay [23,12,7]: g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
GOLAY_GEN = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
# cyclic Hamming [7,4,3]: g(x) = 1 + x + x^3
HAMMING_GEN = (1, 1, 0, 1)


def cyclic_code(F, n: int, gen) -> LinearCode:
    """Cyclic code of length n generated by gen, built from its shifts."""
    rows = np.zeros((n - len(gen) + 1, n), dtype=np.int16)
    for s in range(rows.shape[0]):
        rows[s, s : s + len(gen)] = gen
    return LinearCode(F, n, rows)


def negation_map(F, n: int) -> SemiLinearMap:
    """mu_{-1} on a cyclic code: coordinate t goes to -t mod n."""
    return SemiLinearMap.permutation(F, (-np.arange(n)) % n)


# ---------------------------------------------------------------------------
# an enumerator of the benchmark's own, sharing no code with sigmalcd


def _gf_tables(p: int, e: int, modulus) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(p^e) on integer encodings
    sum(c_i p^i), by schoolbook polynomial arithmetic mod the modulus."""
    q = p**e

    def digits(x):
        return [(x // p**i) % p for i in range(e)]

    def enc(ds):
        return sum(int(d) * p**i for i, d in enumerate(ds))

    add = np.zeros((q, q), dtype=np.int16)
    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        da = digits(a)
        for b in range(q):
            db = digits(b)
            add[a, b] = enc([(x + y) % p for x, y in zip(da, db)])
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for d in range(2 * e - 2, e - 1, -1):
                c = prod[d]
                if c:
                    prod[d] = 0
                    for i in range(e):
                        prod[d - e + i] = (prod[d - e + i] - c * int(modulus[i])) % p
            mul[a, b] = enc(prod[:e])
    return add, mul


def own_min_distance(code: LinearCode) -> int:
    """Minimum weight over all nonzero codewords, by table lookups."""
    F, G = code.field, code.gen
    add, mul = _gf_tables(F.p, F.e, F.modulus)
    q, k = F.q, G.shape[0]
    best = code.n
    step = 1 << 14
    for lo in range(1, q**k, step):
        idx = np.arange(lo, min(lo + step, q**k), dtype=np.int64)
        acc = np.zeros((idx.size, code.n), dtype=np.int16)
        for j in range(k):
            d = ((idx // q**j) % q).astype(np.int16)
            acc = add[acc, mul[d[:, None], G[j][None, :]]]
        best = min(best, int(np.count_nonzero(acc, axis=1).min()))
    return best


def coset_sizes(q: int, m: int) -> dict[int, int]:
    """Least element of each q-cyclotomic coset of Z_m -> coset size."""
    seen, out = set(), {}
    for i in range(m):
        if i in seen:
            continue
        orbit, j = set(), i
        while j not in orbit:
            orbit.add(j)
            j = (j * q) % m
        seen |= orbit
        out[i] = len(orbit)
    return out


# ---------------------------------------------------------------------------
# flat-hull: codes.hull_dim over GF(2), GF(3), GF(4)


def _random_code(F, n: int, k: int, rng) -> LinearCode:
    return LinearCode(F, n, rng.integers(0, F.q, size=(k, n)))


def _sigmas(F, n: int, j: int, rng):
    """The identity and one more map per code, cycling through the
    reversal, a random monomial map and, on GF(4), a random semilinear map.
    Two maps per code keep neighbouring costs close: with more, each size
    becomes a plateau of equal costs and p90 lands on its edge."""
    kinds = ["reversal", "monomial"] + (["semilinear"] if F.e > 1 else [])
    kind = kinds[j % len(kinds)]
    perm = rng.permutation(n)
    diag = rng.integers(1, F.q, size=n)
    other = {
        "reversal": lambda: SemiLinearMap.reversal(F, n),
        "monomial": lambda: SemiLinearMap(F, perm=perm, diag=diag),
        "semilinear": lambda: SemiLinearMap(F, perm=perm, diag=diag, frob=1),
    }[kind]()
    return [("id", SemiLinearMap.identity(F, n)), (kind, other)]


def _hull_op(name, code, sigma, known=None) -> Op:
    return Op(
        name=name,
        call=lambda: codes.hull_dim(code, sigma),
        expected=(lambda: known) if known is not None else (lambda: oracle.brute_hull_dim(code, sigma)),
    )


def flat_hull(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    fields = (field(2), field(3), field(2, 2))
    per_field, n_lo, n_hi = (10, 48, 256) if scale == "full" else (1, 12, 24)
    ops = []
    for j, u in enumerate(_grid(per_field * len(fields), rng)):
        F = fields[j % len(fields)]
        n = round(n_lo * (n_hi / n_lo) ** u)
        ratio = 0.45 + 0.1 * ((j * 0.6180339887) % 1.0) + _jitter(rng, 0.01)
        code = _random_code(F, n, round(n * ratio), rng)
        for kind, sigma in _sigmas(F, n, j // len(fields), rng):
            ops.append(_hull_op(f"GF({F.q})[{n},{code.k}] {kind}", code, sigma))
    F2 = field(2)
    golay = cyclic_code(F2, 23, GOLAY_GEN)
    ham = cyclic_code(F2, 7, HAMMING_GEN)
    ops += [
        _hull_op("golay[23,12] id (hull 11)", golay, SemiLinearMap.identity(F2, 23), known=11),
        _hull_op("golay[23,12] mu_-1 (LCD)", golay, negation_map(F2, 23), known=0),
        _hull_op("hamming[7,4] id (hull 3)", ham, SemiLinearMap.identity(F2, 7), known=3),
        _hull_op("hamming[7,4] reversal (LCD)", ham, SemiLinearMap.reversal(F2, 7), known=0),
        _hull_op("golay[23,12] reversal", golay, SemiLinearMap.reversal(F2, 23)),
    ]
    return ops


# ---------------------------------------------------------------------------
# enum-oracle: oracle.brute_min_distance over about 2^10 .. 2^15 words


def _mindist_op(name, code, known=None) -> Op:
    return Op(
        name=name,
        call=lambda: oracle.brute_min_distance(code),
        expected=(lambda: known) if known is not None else (lambda: own_min_distance(code)),
    )


def enum_oracle(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    if scale == "full":
        # (field, k): q^k from 2^10 to 2^15 on each field
        plan = [(field(2), k) for k in (10, 11, 12, 12, 13, 14, 15)]
        plan += [(field(3), k) for k in (7, 8, 9)] + [(field(2, 2), k) for k in (5, 6, 7)]
    else:
        plan = [(field(2), 4), (field(3), 3), (field(2, 2), 2)]
    ops = []
    for j, (F, k) in enumerate(plan):
        # n spread over [k + 10, 40] independently of the word count; no
        # jitter here, because the largest digit cube sets peak RSS
        lo = k + 10 if scale == "full" else k + 3
        hi = 40 if scale == "full" else k + 8
        n = round(lo + (hi - lo) * ((j * 0.6180339887) % 1.0))
        code = _random_code(F, n, k, rng)
        while code.k < k:  # keep the word count exact
            code = _random_code(F, n, k, rng)
        ops.append(_mindist_op(f"GF({F.q})[{n},{k}] words={F.q**k}", code))
    F2 = field(2)
    ops.append(_mindist_op("golay[23,12] (d=7)", cyclic_code(F2, 23, GOLAY_GEN), known=7))
    ops.append(_mindist_op("hamming[7,4] (d=3)", cyclic_code(F2, 7, HAMMING_GEN), known=3))
    return ops


# ---------------------------------------------------------------------------
# structured-criteria: every structured route on one-generator GQC codes


def _units(m: int) -> list[int]:
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def _eligible_m(q: int, lo: int, hi: int) -> list[int]:
    """Odd m coprime to q whose splitting field GF(q^t) has <= 4096 elements."""
    return [m for m in range(lo, hi + 1, 2) if math.gcd(m, q) == 1 and q ** mult_order(q, m) <= 4096]


def _divisor_block(m: int) -> int | None:
    ds = [d for d in range(3, m) if m % d == 0]
    return ds[-1] if ds else None


def _random_cvec(F, blocks, rng):
    out = []
    for mj in blocks:
        c = poly.from_seq(rng.integers(0, F.q, size=mj))
        while c.size == 0:
            c = poly.from_seq(rng.integers(0, F.q, size=mj))
        out.append(c)
    return tuple(out)


def _cyclic_cvec(F, m: int, rng):
    """(x - 1) r(x) with r coprime to x^m - 1: the cyclic code then has
    dimension m - 1 whatever the seed.  A random generator is coprime to
    x^m - 1 about half the time, and its code is the whole space, which the
    idempotent test decides at once; that alone moved one op's cost by 10x
    from seed to seed."""
    xm1 = poly.xm1(F, m)
    x_minus_1 = poly.sub(F, poly.from_seq([0, 1]), poly.from_seq([1]))
    while True:
        r = poly.from_seq(rng.integers(0, F.q, size=m - 1))
        if poly.degree(poly.gcd(F, r, xm1)) == 0:
            return (poly.mul(F, x_minus_1, r),)


def _structured_op(F, blocks, cvec, a, code) -> Op:
    equal = len(set(blocks)) == 1
    m = gqc.lcm_of(blocks)
    group = abelian.AbelianGroup((m,)) if len(blocks) == 1 and a % m == m - 1 else None

    def call():
        ctx = gqc.context_for(code)
        out = [gqc.is_mua_lcd(code, ctx, a), gqc.one_gen_lcd_eval(ctx, blocks, cvec, a)]
        out.append(gqc.one_gen_lcd_gcd(F, blocks, cvec, a) if equal else None)
        if group is not None:
            out.append(abelian.find_idempotent_generator(code.flat, group) is not None)
        else:
            out.append(None)
        return tuple(out)

    def expected():
        truth = oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0
        return (truth, truth, truth if equal else None, truth if group is not None else None)

    return Op(
        name=f"GF({F.q}) blocks={','.join(map(str, blocks))} a={a}",
        call=call,
        expected=expected,
        flat=lambda: codes.hull_dim(code.flat, code.mu_map(a)) == 0,
    )


def structured_criteria(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    if scale == "full":
        plan = [(field(2), m) for m in _eligible_m(2, 15, 127)]
        plan += [(field(2, 2), m) for m in _eligible_m(4, 15, 105)]
    else:
        plan = [(field(2), 7), (field(2, 2), 5), (field(2), 9)]
    plan.sort(key=lambda fm: (fm[1], fm[0].q))
    ops = []
    multi = 0
    for idx, (F, m) in enumerate(plan):
        l = 1 + idx % 3
        blocks = (m,) * l
        if l > 1 and idx % 4 == 1 and _divisor_block(m):
            blocks = (m,) + (_divisor_block(m),) * (l - 1)
        equal = len(set(blocks)) == 1
        if l == 1:
            # every cyclic code is mu_{-1}-LCD, and a = -1 is where the
            # idempotent test applies
            want = True
        else:
            # with the l = 1 instances, about half of all are LCD-true
            want = multi % 4 == 0
            multi += 1
        ctx = CyclotomicContext(F, m)
        units = _units(m) if equal else [u for u in _units(m) if u != m - 1]
        for _ in range(60):  # rejection-sample the wanted verdict
            a = -1 if l == 1 else int(rng.choice(units))
            a = -1 if a == m - 1 else a
            if want:
                cvec = _cyclic_cvec(F, m, rng) if l == 1 else _random_cvec(F, blocks, rng)
                if gqc.one_gen_lcd_eval(ctx, blocks, cvec, a):
                    break
            else:
                cvec, leader = _non_lcd_cvec(F, ctx, blocks, a, rng)
                if leader is not None and _first_failing_leader(ctx, blocks, cvec, a) == leader:
                    break
        code = gqc.one_gen_code(F, blocks, cvec)
        ops.append(_structured_op(F, blocks, cvec, a, code))
    return ops


def _non_lcd_cvec(F, ctx, blocks, a, rng):
    """A generator likely to fail the evaluation criterion at one leader i:
    sum_j c_j(xi^i) c_j(xi^{-ai}) = 0 with the evaluation vector at i nonzero.
    Random generators are almost always LCD once the cosets are large."""
    m = ctx.m
    # candidate failing leaders from the middle of the walk outwards, so the
    # routes that stop at the first failing leader do a steady share of work
    mid = len(ctx.leaders) // 2
    leaders = sorted((int(i) for i in ctx.leaders if i), key=lambda i: abs(ctx.leaders.index(i) - mid))

    def times_random(M, mj):
        r = poly.from_seq(rng.integers(0, F.q, size=max(1, mj - poly.degree(M))))
        return poly.mod_xm1(F, poly.mul(F, M, r), mj)

    if a % m == m - 1:
        # characteristic 2: sum_j c_j(xi^i)^2 = (sum_j c_j(xi^i))^2, so make
        # the blocks sum to a multiple of M_i (equal blocks only)
        cs = list(_random_cvec(F, blocks[:-1], rng))
        last = times_random(ctx.minimal_poly(leaders[0]), m)
        for c in cs:
            last = poly.add(F, last, c)
        return (tuple(cs + [last]), leaders[0]) if last.size else (_random_cvec(F, blocks, rng), None)
    for i in leaders:
        target = ctx.leader(-a * i)
        if target != ctx.leader(i):
            # every block vanishes at xi^{-ai}, while block 0 need not at xi^i
            M = ctx.minimal_poly(target)
            out = []
            for mj in blocks:
                c = times_random(M, mj) if (target * mj) % m == 0 else poly.ZERO
                out.append(c if c.size else _random_cvec(F, (mj,), rng)[0])
            return tuple(out), i
    return _random_cvec(F, blocks, rng), None


def _first_failing_leader(ctx, blocks, cvec, a):
    """The leader where the evaluation criterion first fails, or None."""
    ext, m = ctx.ext, ctx.m

    def evals(i):
        return [ctx.emb.eval_poly(c, ctx.eval_point(i)) if ctx.delta(i, mj) else 0 for c, mj in zip(cvec, blocks)]

    for i in ctx.leaders:
        v = evals(i)
        if any(v):
            s = 0
            for vj, wj in zip(v, evals((-a * i) % m)):
                s = ext.add(s, ext.mul(vj, wj))
            if s == 0:
                return i
    return None


# ---------------------------------------------------------------------------
# cli-mix: in-process cmd_dispatch calls on files written in set-up


def _parse_machine(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key] = val
    return out


def _flag(v: bool) -> str:
    return "true" if v else "false"


def _cli_op(name: str, argv: list[str], keys: tuple, expected: Callable[[], Any], probe: bool = False) -> Op:
    """keys are the report fields compared; the answer is (exit code,
    those fields, whether stderr stayed empty).  A probe's answer is (exit
    code, whether stdout stayed empty, whether stderr is one `error:` line)."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.cmd_dispatch(["--format", "machine"] + argv)
        return rc, out.getvalue(), err.getvalue()

    def answer(raw):
        rc, out, err = raw
        if probe:
            lines = err.splitlines()
            return (rc, out == "", len(lines) == 1 and lines[0].startswith("error:"))
        fields = _parse_machine(out)
        return (rc, tuple((k, fields.get(k)) for k in keys), err == "")

    return Op(name=name, call=call, expected=expected, answer=answer, probe=probe)


def _malformed_op(name: str, argv: list[str]) -> Op:
    """Bad input must exit 2 with exactly one `error:` line and no report."""
    return _cli_op(name, argv, (), lambda: (2, True, True), probe=True)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _gqc_text(F, blocks, cvec) -> str:
    return (
        f"{formats.field_str(F)} {len(blocks)}\n"
        + " ".join(map(str, blocks))
        + "\n"
        + ";".join(formats.poly_str(c) for c in cvec)
        + "\n"
    )


def cli_mix(seed: int, scale: str, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    full = scale == "full"
    fields = (field(2), field(3), field(2, 2))
    F2 = field(2)
    ops: list[Op] = []
    counter = iter(range(10**6))

    def code_file(F, n, k):
        code = _random_code(F, n, k, rng)
        return code, _write(workdir, f"c{next(counter)}.code", formats.dump_code(code))

    # lcd check and lcd hull over a spread of small sizes and every sigma form
    for verb, count in (("check", 19), ("hull", 10)):
        count = count if full else 2
        for j, u in enumerate(_grid(count, rng)):
            F = fields[j % 3]
            n = round(8 * (40 / 8) ** u)
            code, path = code_file(F, n, max(1, round(n * (0.35 + 0.3 * ((j * 0.618) % 1)))))
            kinds = ["id", "reversal", "file"] + (["frobenius:1"] if F.e > 1 else [])
            spec = kinds[j % len(kinds)]
            if spec == "file":
                sigma = SemiLinearMap(F, perm=rng.permutation(n), diag=rng.integers(1, F.q, size=n))
                spec = _write(workdir, f"s{next(counter)}.sigma", formats.dump_sigma(sigma))
            else:
                sigma = formats.sigma_from_spec(spec, F, n)

            def exp(code=code, sigma=sigma, verb=verb):
                h = oracle.brute_hull_dim(code, sigma)
                if verb == "check":
                    return (0 if h == 0 else 1, (("hull_dim", str(h)), ("verdict", _flag(h == 0)), ("verification", "agree")), True)
                return (0, (("hull_dim", str(h)), ("verification", "agree")), True)

            keys = ("hull_dim", "verdict", "verification") if verb == "check" else ("hull_dim", "verification")
            ops.append(_cli_op(f"lcd {verb} GF({F.q})[{n},{code.k}] {spec if '/' not in spec else 'sigma-file'}",
                               ["lcd", verb, "--code", path, "--sigma", spec], keys, exp))

    # lcd make
    for j, u in enumerate(_grid(6 if full else 1, rng)):
        F = fields[j % 3]
        n = round(6 + 14 * u)
        code, path = code_file(F, n, max(1, n // 2))
        out = os.path.join(workdir, f"m{next(counter)}.sigma")
        n_out = n + 1 if F.q == 2 else n
        ops.append(_cli_op(
            f"lcd make GF({F.q})[{n},{code.k}]", ["lcd", "make", "--code", path, "--out", out],
            ("out_params", "verdict", "verification"),
            lambda n_out=n_out, k=code.k: (0, (("out_params", f"[{n_out},{k}]"), ("verdict", "true"), ("verification", "agree")), True),
        ))

    # lcp build at small n
    for j in range(4 if full else 1):
        F = (F2, field(3))[j % 2]
        n = (6 + j) if F.q == 2 else 4
        k = n // 2
        c1, p1 = code_file(F, n, k)
        c2, p2 = code_file(F, n, k)
        while c1.k != k or c2.k != k:
            c1, p1 = code_file(F, n, k)
            c2, p2 = code_file(F, n, k)
        n_out = n + 1 if F.q == 2 else n
        ops.append(_cli_op(
            f"lcp build GF({F.q})[{n},{k}]", ["lcp", "build", "--code1", p1, "--code2", p2],
            ("n", "k", "d1", "verification"),
            lambda n_out=n_out, k=k, c1=c1: (0, (("n", str(n_out)), ("k", str(k)), ("d1", str(own_min_distance(c1))), ("verification", "agree")), True),
        ))

    # gqc check / onegen / constituents on one-generator files
    gqc_plan = [(F2, (7, 7)), (F2, (9, 9)), (F2, (15, 15)), (field(2, 2), (5, 5)), (F2, (15, 5)), (field(3), (4, 4)),
                (F2, (21, 7)), (field(2, 2), (15, 15))]

    def gqc_file(idx):
        F, blocks = gqc_plan[idx % len(gqc_plan)]
        cvec = _random_cvec(F, blocks, rng)
        path = _write(workdir, f"g{next(counter)}.gqc", _gqc_text(F, blocks, cvec))
        return F, blocks, cvec, gqc.one_gen_code(F, blocks, cvec), path

    for j in range(9 if full else 3):
        F, blocks, cvec, code, path = gqc_file(j)
        test = ("lcd", "so", "sd")[j % 3]
        m = gqc.lcm_of(blocks)
        a = -1 if j % 2 == 0 else int(rng.choice(_units(m)))

        def exp(code=code, a=a, test=test):
            h = oracle.brute_hull_dim(code.flat, code.mu_map(a))
            verdict = {"lcd": h == 0, "so": h == code.k, "sd": h == code.k and 2 * code.k == code.n}[test]
            return (0 if verdict else 1, (("verdict", _flag(verdict)), ("verification", "agree")), True)

        ops.append(_cli_op(f"gqc check {test} GF({F.q}) blocks={blocks} a={a}",
                           ["gqc", "check", path, "--a", str(a), "--test", test], ("verdict", "verification"), exp))
    for j in range(9 if full else 1):
        F, blocks, cvec, code, path = gqc_file(j + 3)
        m = gqc.lcm_of(blocks)
        a = -1 if j % 2 == 0 else int(rng.choice(_units(m)))
        equal = len(set(blocks)) == 1

        def exp(code=code, a=a, equal=equal):
            v = _flag(oracle.brute_hull_dim(code.flat, code.mu_map(a)) == 0)
            return (0 if v == "true" else 1,
                    (("eval_form", v), ("gcd_form", v if equal else None), ("verification", "agree")), True)

        ops.append(_cli_op(f"gqc onegen GF({F.q}) blocks={blocks} a={a}",
                           ["gqc", "onegen", path, "--a", str(a)], ("eval_form", "gcd_form", "verification"), exp))
    for j in range(5 if full else 1):
        F, blocks, cvec, code, path = gqc_file(j + 1)
        m = gqc.lcm_of(blocks)
        sizes = coset_sizes(F.q, m)

        def answer(raw, sizes=sizes):
            rc, out, err = raw
            fields_ = _parse_machine(out)
            total = sum(sizes[i] * int(fields_.get(f"constituent.{i}.dim", -10**6)) for i in sizes)
            return (rc, fields_.get("k"), total, err == "")

        op = _cli_op(f"gqc constituents GF({F.q}) blocks={blocks}", ["gqc", "constituents", path], (),
                     lambda code=code: (0, str(code.k), code.k, True))
        op.answer = answer  # sum over leaders of |coset| * dim C_i must equal k
        ops.append(op)

    # abelian check on ideals of F_q[G]
    groups = [(F2, (7,)), (F2, (3, 3)), (field(3), (4,)), (F2, (15,)), (field(2, 2), (5,)), (F2, (5, 3))]
    for j in range(6 if full else 1):
        F, factors = groups[j % len(groups)]
        G = abelian.AbelianGroup(factors)
        e = abelian.ga_element(F, G, rng.integers(0, F.q, size=G.order))
        code = abelian.ideal_from_generator(e)
        path = _write(workdir, f"a{next(counter)}.code", formats.dump_code(code))
        perm = np.asarray(G.inv)

        def exp(code=code, perm=perm, F=F):
            v = oracle.brute_hull_dim(code, SemiLinearMap.permutation(F, perm)) == 0
            return (0 if v else 1, (("idempotent_found", _flag(v)), ("verdict", _flag(v)), ("verification", "agree")), True)

        ops.append(_cli_op(f"abelian check GF({F.q}) G={factors} k={code.k}",
                           ["abelian", "check", "--group", ",".join(map(str, factors)), "--code", path],
                           ("idempotent_found", "verdict", "verification"), exp))

    # oracle mindist with small q^k
    for j, u in enumerate(_grid(9 if full else 1, rng)):
        F = fields[j % 3]
        k = {2: 6, 3: 4, 4: 3}[F.q] + (j // 3)
        n = round(k + 6 + 18 * u)
        code, path = code_file(F, n, k)
        ops.append(_cli_op(f"oracle mindist GF({F.q})[{n},{code.k}]", ["oracle", "mindist", path],
                           ("min_distance",), lambda code=code: (0, (("min_distance", str(own_min_distance(code))),), True)))

    # the four repro suites, with published answers where there are some
    repro = {
        "golay23": (("params", "[23,12,7]"), ("euclidean_hull", "11"), ("mu1_lcd", "true")),
        "qr-idempotent-7": (("disjoint_support", "true"),),
        "theorem1-binary": (("input_params", "[7,4]"), ("input_hull", "3"), ("out_params", "[8,4]")),
        "maximal-qc-count": (("count", "8"), ("expected", "8")),
    }
    for suite, known in repro.items():
        keys = tuple(k for k, _ in known) + ("verdict", "verification")
        want = known + (("verdict", "true"), ("verification", "agree"))
        ops.append(_cli_op(f"repro {suite}", ["repro", suite], keys, lambda want=want: (0, want, True)))

    # malformed inputs: each must exit 2 with one error: line
    bad_code = _write(workdir, "bad.code", "2 4 2\n1 0 x 1\n0 1 1 0\n")
    good, good_path = code_file(F2, 6, 3)
    bad_perm = _write(workdir, "bad.sigma", "perm: 0 0 1 2 3 4\n")
    ops += [
        _malformed_op("malformed: non-integer in .code", ["lcd", "check", "--code", bad_code]),
        _malformed_op("malformed: --sigma frobenius:x", ["lcd", "check", "--code", good_path, "--sigma", "frobenius:x"]),
        _malformed_op("malformed: non-permutation perm:", ["lcd", "check", "--code", good_path, "--sigma", bad_perm]),
        _malformed_op("malformed: gqc cosets 2 0", ["gqc", "cosets", "2", "0"]),
    ]
    # spread the malformed and heavy ops through the pass
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


BUILDERS = {
    "flat-hull": flat_hull,
    "enum-oracle": enum_oracle,
    "structured-criteria": structured_criteria,
    "cli-mix": cli_mix,
}


def describe_exception(exc: BaseException) -> str:
    """One line: exception type and message, then the innermost frames."""
    frames = traceback.extract_tb(exc.__traceback__)[-3:]
    where = " <- ".join(f"{os.path.basename(f.filename)}:{f.lineno} {f.name}" for f in reversed(frames))
    return f"uncaught {type(exc).__name__}: {exc} [{where}]"
