"""Command surface: parse code / sigma / GQC / group files, run the
formula-based checks with an oracle cross-check, and reproduce the worked
examples end to end.

Every subcommand is one row of `_COMMANDS`: its group and name, its
arguments and its handler.  The argparse tree is built from that table once
per process, on the first dispatch, and reused.  `--budget`, the most
codewords an exact enumeration may visit, is taken only by `lcp build`,
`gqc product` and `oracle mindist`.  Every handler and repro suite that
compares a formula with an oracle ends in `_settle`.  Each hull dimension a
command uses comes from `_hull`, with the certificate that
`codes.hull_certificate` builds, and `_settle` has
`oracle.check_hull_certificate` check every one with products alone: that
check, not a second elimination, backs `verification: agree`.

Exit codes: 0 for success or a true verdict, 1 for a false verdict, 2 for
input errors (any SigmaLcdError, printed as one `error:` line) or a
formula/oracle discrepancy.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import abelian, codes, gqc, oracle, poly
from .cyclotomic import CyclotomicContext, context, gamma_partition
from .errors import BadInput, SigmaLcdError
from .field import field as make_field
from .formats import (
    dump_sigma,
    field_str,
    parse_code,
    parse_field,
    parse_gqc_raw,
    parse_product_spec,
    poly_str,
    sigma_from_spec,
)


@dataclass
class RunReport:
    command: str
    inputs: dict = dc_field(default_factory=dict)
    result: dict = dc_field(default_factory=dict)
    verification: str | None = None
    elapsed: float = 0.0
    # (code, sigma, h, certificate) of each hull the command used, not printed
    hulls: list = dc_field(default_factory=list)

    def lines(self, fmt: str) -> list[str]:
        sep, input_prefix, unit = _LAYOUTS[fmt]
        rows = [("command", self.command)]
        rows += [(input_prefix + k, _flat(v)) for k, v in self.inputs.items()]
        rows += [(k, _flat(v)) for k, v in self.result.items()]
        if self.verification is not None:
            rows.append(("verification", self.verification))
        rows.append(("elapsed", f"{self.elapsed:.3f}{unit}"))
        return [f"{k}{sep}{v}" for k, v in rows]


# per output format: key/value separator, prefix of input keys, elapsed unit
_LAYOUTS = {"human": (": ", "  ", "s"), "machine": ("=", "input.", "")}


def _flat(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return " ".join(_flat(x) for x in v)
    if isinstance(v, np.ndarray):
        return " ".join(str(int(x)) for x in v)
    return str(v)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _settle(report: RunReport, agree: bool, verdict: bool | None = None) -> int:
    """The epilogue of every formula/oracle cross-check: the oracle checks
    each hull certificate the report holds, then the agreement is recorded,
    and the verdict if the command gives one.  Exit 2 on a disagreement or
    a rejected certificate, else 0, or 1 for a false verdict."""
    if all(oracle.check_hull_certificate(*hull) for hull in report.hulls):
        report.verification = "agree" if agree else "disagree"
    else:
        agree, report.verification = False, "disagree (certificate rejected)"
    if verdict is not None:
        report.result["verdict"] = verdict
    if not agree:
        return 2
    return 0 if verdict is None or verdict else 1


def _hull(report: RunReport, code, sigma) -> int:
    """dim Hull_sigma(C), its certificate kept for `_settle` to check."""
    h, cert = codes.hull_certificate(code, sigma)
    report.hulls.append((code, sigma, h, cert))
    return h


def _load_code(report: RunReport, path: str):
    code = parse_code(_read(path))
    report.inputs["code"] = path
    report.inputs["params"] = f"[{code.n},{code.k}] over GF({code.field.q})"
    return code


def _put_sigma(report: RunReport, sigma, parts=("perm", "diag", "frob")) -> None:
    for part in parts:
        report.result[f"sigma_{part}"] = getattr(sigma, part)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_lcd_hull(args, report: RunReport) -> int:
    """`lcd hull` reports dim Hull_sigma(C); `lcd check` adds the verdict
    that the hull is zero."""
    code = _load_code(report, args.code)
    sigma = sigma_from_spec(args.sigma, code.field, code.n)
    report.inputs["sigma"] = args.sigma
    h = _hull(report, code, sigma)
    report.result["hull_dim"] = h
    return _settle(report, True, h == 0 if args.sub == "check" else None)


def _cmd_lcd_make(args, report: RunReport) -> int:
    code = _load_code(report, args.code)
    sigma, out_code = codes.make_lcd_sigma(code)
    ok = _hull(report, out_code, sigma) == 0
    report.result["out_params"] = f"[{out_code.n},{out_code.k}]"
    _put_sigma(report, sigma)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_sigma(sigma))
        report.result["written"] = args.out
    return _settle(report, True, ok)


def _cmd_lcp_build(args, report: RunReport) -> int:
    c1 = parse_code(_read(args.code1))
    c2 = parse_code(_read(args.code2))
    report.inputs["code1"] = args.code1
    report.inputs["code2"] = args.code2
    pair = codes.build_lcp(c1, c2, args.budget)
    report.result["params"] = pair.params
    report.result["n"] = pair.n
    report.result["k"] = pair.k
    report.result["d1"] = "unknown" if pair.d1 is None else pair.d1
    report.result["d2"] = "unknown" if pair.d2 is None else pair.d2
    _put_sigma(report, pair.sigma, ("perm", "diag"))
    # a zero intersection whose dimensions sum to n is a direct sum, F_q^n
    inter = oracle.brute_intersection_dim(pair.c1, pair.c2)
    return _settle(report, inter == 0 and pair.c1.k + pair.c2.k == pair.n)


def _cyclotomic(args, report: RunReport) -> CyclotomicContext:
    F = parse_field(args.q)
    ctx = context(F, args.m)
    report.inputs["q"] = field_str(F)
    report.inputs["m"] = args.m
    return ctx


def _cmd_gqc_cosets(args, report: RunReport) -> int:
    ctx = _cyclotomic(args, report)
    report.result["count"] = len(ctx.leaders)
    for i in ctx.leaders:
        report.result[f"coset.{i}"] = list(ctx.cosets[i])
    return 0


def _cmd_gqc_gamma(args, report: RunReport) -> int:
    gp = gamma_partition(_cyclotomic(args, report))
    report.result["gamma0_plus"] = list(gp.g0_plus)
    report.result["gamma0_minus"] = list(gp.g0_minus)
    report.result["gamma1"] = list(gp.g1)
    return 0


def _load_gqc(report: RunReport, path: str):
    """A .gqc file's field, blocks and generators, and the cyclotomic
    context of its blocks.  The context comes first: it rejects a block
    length that no field reaches before the generators are expanded into
    lcm(blocks) rows each."""
    F, blocks, gens = parse_gqc_raw(_read(path))
    report.inputs["file"] = path
    return F, blocks, gens, context(F, gqc.lcm_of(blocks))


def _cmd_gqc_constituents(args, report: RunReport) -> int:
    F, blocks, gens, ctx = _load_gqc(report, args.file)
    code = gqc.GqcCode.from_generators(F, blocks, gens)
    report.inputs["blocks"] = code.block_lengths
    report.result["k"] = code.k
    for i in ctx.leaders:
        con = gqc.constituent(code, ctx, i)
        report.result[f"constituent.{i}.dim"] = con.dim
        report.result[f"constituent.{i}.active"] = list(con.active)
    return 0


def _cmd_gqc_check(args, report: RunReport) -> int:
    """The constituent test against one oracle, h = dim Hull_{mu_a}:
    LCD iff h = 0, self-orthogonal iff h = k, self-dual iff also 2k = n."""
    F, blocks, gens, ctx = _load_gqc(report, args.file)
    code = gqc.GqcCode.from_generators(F, blocks, gens)
    report.inputs["a"] = args.a
    report.inputs["test"] = args.test
    sigma = code.mu_map(args.a)
    test = {"lcd": gqc.is_mua_lcd, "so": gqc.is_mua_self_orthogonal, "sd": gqc.is_mua_self_dual}[args.test]
    verdict = test(code, ctx, args.a)
    h = _hull(report, code.flat, sigma)
    holds = {"lcd": h == 0, "so": h == code.k, "sd": h == code.k and 2 * code.k == code.n}[args.test]
    return _settle(report, holds == verdict, verdict)


def _cmd_gqc_onegen(args, report: RunReport) -> int:
    F, blocks, gens, ctx = _load_gqc(report, args.file)
    if len(gens) != 1:
        raise BadInput("onegen needs exactly one generator line")
    cvec = gens[0]
    report.inputs["a"] = args.a
    verdict = gqc.one_gen_lcd_eval(ctx, blocks, cvec, args.a)
    report.result["eval_form"] = verdict
    agree = True
    if len(set(blocks)) == 1:
        report.result["gcd_form"] = gqc.one_gen_lcd_gcd(F, blocks, cvec, args.a)
        agree = report.result["gcd_form"] == verdict
    code = gqc.one_gen_code(F, blocks, cvec)
    lcd = _hull(report, code.flat, code.mu_map(args.a)) == 0
    return _settle(report, agree and lcd == verdict, verdict)


def _cmd_gqc_product(args, report: RunReport) -> int:
    base, comps = parse_product_spec(_read(args.spec))
    report.inputs["spec"] = args.spec
    res = gqc.product_lcd_gqc(base, comps)
    report.result["blocks"] = res.code.block_lengths
    report.result["n"] = res.code.n
    report.result["dim"] = res.dim
    report.result["component_dims"] = list(res.component_dims)
    report.result["distance_bound"] = res.distance_bound
    report.result["mu1_lcd"] = True
    if not res.dim or base.q**res.dim > args.budget:
        report.verification = "skipped"
        return 0
    d = oracle.brute_min_distance(res.code.flat, args.budget)
    report.result["min_distance"] = d
    return _settle(report, d >= res.distance_bound)


def _group_and_code(args, report: RunReport):
    group = abelian.parse_group(args.group)
    code = _load_code(report, args.code)
    report.inputs["group"] = repr(group)
    return group, code


def _cmd_abelian_check(args, report: RunReport) -> int:
    """The certified hull gives the verdict; the idempotent, found exactly for
    an LCD ideal, cross-checks it, and its route refuses a non-ideal first."""
    group, code = _group_and_code(args, report)
    e = abelian.find_idempotent_generator(code, group)
    report.result["idempotent_found"] = e is not None
    verdict = _hull(report, code, abelian.mu_sigma(code.field, group)) == 0
    return _settle(report, verdict == (e is not None), verdict)


def _cmd_abelian_idempotent(args, report: RunReport) -> int:
    group, code = _group_and_code(args, report)
    e = abelian.find_idempotent_generator(code, group)
    report.result["found"] = e is not None
    if e is None:
        return 1
    report.result["coeffs"] = e.coeffs
    return _settle(report, abelian.is_idempotent(e))


def _cmd_oracle_mindist(args, report: RunReport) -> int:
    code = _load_code(report, args.file)
    report.result["min_distance"] = oracle.brute_min_distance(code, args.budget)
    return 0


def _cmd_oracle_intersect(args, report: RunReport) -> int:
    c1 = parse_code(_read(args.file1))
    c2 = parse_code(_read(args.file2))
    report.inputs["file1"] = args.file1
    report.inputs["file2"] = args.file2
    report.result["intersection_dim"] = oracle.brute_intersection_dim(c1, c2)
    return 0


def _cmd_oracle_search(args, report: RunReport) -> int:
    code = _load_code(report, args.file)
    report.inputs["family"] = args.family
    sigma = oracle.exhaustive_sigma_search(code, family=args.family)
    report.result["found"] = sigma is not None
    if sigma is None:
        return 1
    _put_sigma(report, sigma)
    return 0


# ---------------------------------------------------------------------------
# repro suites


# g(x) = 1 + x + x^5 + x^6 + x^7 + x^9 + x^11, the divisor of x^23 - 1 of
# degree 11 with the least coefficient encoding: the binary Golay code
_GOLAY_GEN = (1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1)
# 1 + the sum of x^i over the squares mod 7, and over the non-squares
_QR7 = ((1, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1, 1))


def _repro_golay23(report: RunReport) -> int:
    code = gqc.one_gen_code(make_field(2), (23,), (poly.from_seq(_GOLAY_GEN),))
    ctx = gqc.context_for(code)
    d = oracle.brute_min_distance(code.flat)
    report.result["params"] = f"[23,{code.k},{d}]"
    mu_ok = gqc.is_mua_lcd(code, ctx, -1)
    report.result["mu1_lcd"] = mu_ok
    group = abelian.cyclic_group(23)
    e = abelian.find_idempotent_generator(code.flat, group)
    report.result["idempotent_found"] = e is not None
    eh = _hull(report, code.flat, None)
    report.result["euclidean_hull"] = eh
    agree = (_hull(report, code.flat, code.mu_map(-1)) == 0) == mu_ok
    return _settle(report, agree, mu_ok and e is not None and eh == 11 and d == 7 and code.k == 12)


def _repro_qr7(report: RunReport) -> int:
    F2 = make_field(2)
    ctx = context(F2, 7)
    cvec = tuple(poly.from_seq(c) for c in _QR7)
    blocks = (7, 7)
    disjoint = gqc.disjoint_support_lcd(ctx, blocks, cvec)
    report.result["disjoint_support"] = disjoint
    ev = gqc.one_gen_lcd_eval(ctx, blocks, cvec, -1)
    gc = gqc.one_gen_lcd_gcd(F2, blocks, cvec, -1)
    code = gqc.one_gen_code(F2, blocks, cvec)
    con_ok = gqc.is_mua_lcd(code, gqc.context_for(code), -1)
    lcd = _hull(report, code.flat, code.mu_map(-1)) == 0
    report.result["eval_form"] = ev
    report.result["gcd_form"] = gc
    report.result["constituent_route"] = con_ok
    return _settle(report, ev == gc == con_ok == lcd, disjoint and ev and gc and con_ok and lcd)


def _repro_theorem1_binary(report: RunReport) -> int:
    F2 = make_field(2)
    g = poly.from_seq([1, 1, 0, 1])
    ham = gqc.one_gen_code(F2, (7,), (g,)).flat
    report.result["input_params"] = f"[{ham.n},{ham.k}]"
    report.result["input_hull"] = _hull(report, ham, None)
    sigma, out = codes.make_lcd_sigma(ham)
    ok = _hull(report, out, sigma) == 0
    report.result["out_params"] = f"[{out.n},{out.k}]"
    report.result["pure_permutation"] = sigma.is_permutation
    return _settle(report, True, ok and out.n == ham.n + 1 and sigma.is_permutation)


def _repro_maximal_qc(report: RunReport) -> int:
    F2 = make_field(2)
    m = 3
    seen: dict = {}
    for enc1 in range(2**m):
        for enc2 in range(2**m):
            c1 = poly.from_seq([(enc1 >> t) & 1 for t in range(m)])
            c2 = poly.from_seq([(enc2 >> t) & 1 for t in range(m)])
            chk = gqc.maximal_one_gen_check(F2, (m, m), (c1, c2), -1)
            if not (chk.lcd and chk.maximal):
                continue
            code = gqc.one_gen_code(F2, (m, m), (c1, c2))
            key = code.flat.gen.tobytes()
            canon = poly_str(chk.canonical)
            if key in seen and seen[key] != canon:
                return _settle(report, False, False)
            seen[key] = canon
    count = len(seen)
    report.result["count"] = count
    report.result["expected"] = 2**m
    distinct = len(set(seen.values()))
    report.result["distinct_canonicals"] = distinct
    return _settle(report, count == 2**m == distinct, count == 2**m)


_SUITES = {
    "golay23": _repro_golay23,
    "qr-idempotent-7": _repro_qr7,
    "theorem1-binary": _repro_theorem1_binary,
    "maximal-qc-count": _repro_maximal_qc,
}


def _cmd_repro(args, report: RunReport) -> int:
    report.inputs["suite"] = args.suite
    return _SUITES[args.suite](report)


# ---------------------------------------------------------------------------
# the command table and its parser


def _arg(*flags, **kwargs):
    return flags, kwargs


_CODE = _arg("--code", required=True)
_SIGMA = _arg("--sigma", default="id")
_GROUP = _arg("--group", required=True)
_FILE = _arg("file")
_A = _arg("--a", type=int, default=-1)
_Q_M = (_arg("q"), _arg("m", type=int))
_BUDGET = _arg("--budget", type=int, default=codes.DEFAULT_MAX_WORDS)

# (group, name, arguments, handler); a name of None makes the group itself
# the command
_COMMANDS = (
    ("lcd", "check", (_CODE, _SIGMA), _cmd_lcd_hull),
    ("lcd", "make", (_CODE, _arg("--out", default=None)), _cmd_lcd_make),
    ("lcd", "hull", (_CODE, _SIGMA), _cmd_lcd_hull),
    ("lcp", "build", (_arg("--code1", required=True), _arg("--code2", required=True), _BUDGET), _cmd_lcp_build),
    ("gqc", "cosets", _Q_M, _cmd_gqc_cosets),
    ("gqc", "gamma", _Q_M, _cmd_gqc_gamma),
    ("gqc", "constituents", (_FILE,), _cmd_gqc_constituents),
    ("gqc", "check", (_FILE, _A, _arg("--test", choices=("lcd", "so", "sd"), default="lcd")), _cmd_gqc_check),
    ("gqc", "onegen", (_FILE, _A), _cmd_gqc_onegen),
    ("gqc", "product", (_arg("spec"), _BUDGET), _cmd_gqc_product),
    ("abelian", "check", (_GROUP, _CODE), _cmd_abelian_check),
    ("abelian", "idempotent", (_GROUP, _CODE), _cmd_abelian_idempotent),
    ("oracle", "mindist", (_FILE, _BUDGET), _cmd_oracle_mindist),
    ("oracle", "intersect", (_arg("file1"), _arg("file2")), _cmd_oracle_intersect),
    ("oracle", "search-sigma", (_FILE, _arg("--family", choices=oracle.SIGMA_FAMILIES, default="permutation-sample")),
     _cmd_oracle_search),
    ("repro", None, (_arg("suite", choices=sorted(_SUITES)),), _cmd_repro),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree of `_COMMANDS`, built on the first dispatch."""
    top = argparse.ArgumentParser(prog="sigmalcd")
    top.add_argument("--format", choices=tuple(_LAYOUTS), default="human")
    sub = top.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for group, name, arguments, handler in _COMMANDS:
        if name is None:
            p = sub.add_parser(group)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group).add_subparsers(dest="sub", required=True)
            p = groups[group].add_parser(name)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=handler)
    return top


def cmd_dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    name = args.command if not getattr(args, "sub", None) else f"{args.command} {args.sub}"
    report = RunReport(command=name)
    t0 = time.perf_counter()
    try:
        rc = args.fn(args, report)
    except (SigmaLcdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - t0
    print("\n".join(report.lines(args.format)))
    return rc


def entry() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
