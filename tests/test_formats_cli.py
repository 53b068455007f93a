import argparse
import contextlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sigmalcd import abelian, cli, codes, formats, linalg, oracle, poly
from sigmalcd.codes import LinearCode, SemiLinearMap, hull_dim
from sigmalcd.errors import BadInput
from sigmalcd.field import field

SRC = Path(__file__).resolve().parent.parent / "src"
F2 = field(2)
F3 = field(3)
F4 = field(2, 2)

HAMMING = (
    "2 7 4\n"
    "1 0 0 0 1 1 0\n"
    "0 1 0 0 0 1 1\n"
    "0 0 1 0 1 1 1\n"
    "0 0 0 1 1 0 1\n"
)


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cmd_dispatch(list(argv))
    return rc, buf.getvalue()


def kv(out):
    """machine-format lines as a dict, elapsed dropped"""
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
    pairs.pop("elapsed", None)
    return pairs


# ------------------------------------------------------------ field / poly text


def test_parse_field_forms():
    assert formats.parse_field("2").q == 2
    assert formats.parse_field("2^2").q == 4
    assert formats.parse_field("4").q == 4 and formats.parse_field("4").p == 2
    assert formats.parse_field("9").p == 3 and formats.parse_field("9").e == 2
    assert (formats.parse_field("4096").p, formats.parse_field("4096").e) == (2, 12)
    assert (formats.parse_field("49").p, formats.parse_field("49").e) == (7, 2)
    f = formats.parse_field("2^2:1,1,1")
    assert f.q == 4 and tuple(f.modulus) == (1, 1, 1)


def test_parse_field_rejects_non_prime_power():
    with pytest.raises(BadInput, match="6 is not a prime power"):
        formats.parse_field("6")
    with pytest.raises(BadInput, match="1 is not a prime power"):
        formats.parse_field("1")
    with pytest.raises(BadInput, match="-3 is not a prime power"):
        formats.parse_field("-3")


def test_field_str_roundtrip():
    for F in [F2, F3, F4, field(5), field(3, 2)]:
        assert formats.parse_field(formats.field_str(F)).q == F.q


def test_poly_text_roundtrip():
    c = formats.parse_poly("1,0,1")
    assert c.tolist() == [1, 0, 1]
    assert formats.poly_str(c) == "1,0,1"
    assert formats.poly_str(poly.ZERO) == "0"
    assert formats.poly_str(np.array([1, 1, 0], dtype=np.int16)) == "1,1"  # trims


# ------------------------------------------------------------ code files


def test_parse_code_hamming():
    c = formats.parse_code(HAMMING)
    assert (c.n, c.k) == (7, 4) and c.field.q == 2


def test_code_dump_is_stable():
    c = formats.parse_code(HAMMING)
    d1 = formats.dump_code(c)
    assert formats.parse_code(d1) == c
    assert formats.dump_code(formats.parse_code(d1)) == d1


def test_parse_code_ignores_comments_and_blanks():
    text = "# a comment\n\n2 3 1\n\n1 1 0\n# trailing\n"
    assert formats.parse_code(text).k == 1


def test_parse_code_errors():
    with pytest.raises(BadInput, match="empty code file"):
        formats.parse_code("")
    with pytest.raises(BadInput, match="header must be 'q n k'"):
        formats.parse_code("2 3\n1 1 0\n")  # header too short
    with pytest.raises(BadInput, match="expected 2 generator rows, got 1"):
        formats.parse_code("2 3 2\n1 1 0\n")  # missing a row
    with pytest.raises(BadInput, match="row 0 has 2 entries, expected 3"):
        formats.parse_code("2 3 1\n1 1\n")  # short row
    # LinearCode makes the range check
    with pytest.raises(BadInput, match=r"entries must be encodings in 0\.\.1"):
        formats.parse_code("2 3 1\n1 2 0\n")  # entry not in GF(2)
    with pytest.raises(BadInput, match=r"entries must be encodings in 0\.\.1"):
        formats.parse_code("2 3 1\n1 -1 0\n")


# ------------------------------------------------------------ sigma files


def test_sigma_text_roundtrip():
    s = SemiLinearMap(F4, perm=[2, 0, 1], diag=[1, 2, 3], frob=1)
    text = formats.dump_sigma(s)
    back = formats.parse_sigma(text, F4, 3)
    assert np.array_equal(back.perm, s.perm)
    assert np.array_equal(back.diag, s.diag)
    assert back.frob == 1
    assert formats.dump_sigma(back) == text


def test_parse_sigma_defaults():
    s = formats.parse_sigma("frob: 1\n", F4, 2)
    assert s.perm.tolist() == [0, 1] and s.diag.tolist() == [1, 1] and s.frob == 1


def test_parse_sigma_errors():
    with pytest.raises(BadInput, match="bad sigma line 'nonsense'"):
        formats.parse_sigma("nonsense\n", F2, 2)
    with pytest.raises(BadInput, match="perm needs 2 entries"):
        formats.parse_sigma("perm: 0\n", F2, 2)
    with pytest.raises(BadInput, match="unknown sigma field 'weird'"):
        formats.parse_sigma("weird: 1\n", F2, 2)


def test_sigma_from_spec_named(tmp_path):
    assert formats.sigma_from_spec("id", F2, 3).perm.tolist() == [0, 1, 2]
    assert formats.sigma_from_spec("reversal", F2, 4).perm.tolist() == [3, 2, 1, 0]
    fr = formats.sigma_from_spec("frobenius:1", F4, 2)
    assert fr.frob == 1
    p = tmp_path / "s.sigma"
    p.write_text("perm: 1 0\n")
    assert formats.sigma_from_spec(str(p), F2, 2).perm.tolist() == [1, 0]


# ------------------------------------------------------------ gqc / product files


def test_parse_gqc_single_generator():
    code = formats.parse_gqc("2 1\n7\n1,1,0,1\n")
    assert code.block_lengths == (7,) and code.k == 4  # <1+x+x^3> | x^7-1


def test_parse_gqc_two_blocks():
    code = formats.parse_gqc("2 2\n7 7\n1,1,1,0,1;1,0,0,1,0,1,1\n")
    assert code.block_lengths == (7, 7) and code.flat.n == 14


def test_parse_gqc_errors():
    with pytest.raises(BadInput, match="needs header, block lengths, and generators"):
        formats.parse_gqc("2 1\n7\n")  # no generators
    with pytest.raises(BadInput, match="expected 2 block lengths, got 1"):
        formats.parse_gqc("2 2\n7\n1,1\n")  # block count mismatch
    with pytest.raises(BadInput, match="has 1 blocks, expected 2"):
        formats.parse_gqc("2 2\n3 3\n1,1\n")  # generator missing a block


def test_parse_product_spec():
    base, comps = formats.parse_product_spec("2\n3 1 1\n1\n5 1 1\n1\n")
    assert base.q == 2 and len(comps) == 2
    (m1, r1, c1), (m2, r2, c2) = comps
    assert (m1, r1, c1.field.q) == (3, 1, 4)
    assert (m2, r2, c2.field.q) == (5, 1, 16)
    assert c1.k == 1 and c2.k == 1


# ------------------------------------------------------------ command surface


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "ham.code").write_text(HAMMING)
    (tmp_path / "ham.gqc").write_text("2 1\n7\n1,1,0,1\n")
    (tmp_path / "rep3.code").write_text("3 3 1\n1 1 1\n")
    (tmp_path / "oth3.code").write_text("3 3 1\n1 0 2\n")
    (tmp_path / "z3.code").write_text("2 3 2\n1 1 0\n0 1 1\n")
    (tmp_path / "qr7.gqc").write_text("2 2\n7 7\n1,1,1,0,1;1,0,0,1,0,1,1\n")
    (tmp_path / "prod.spec").write_text("2\n3 1 1\n1\n5 1 1\n1\n")
    return tmp_path


def test_cli_lcd_check_verdicts(files):
    rc, out = run_cli("lcd", "check", "--code", str(files / "ham.code"), "--sigma", "reversal")
    assert rc == 0 and "verdict: true" in out and "verification: agree" in out
    rc, out = run_cli("lcd", "check", "--code", str(files / "ham.code"), "--sigma", "id")
    assert rc == 1 and "verdict: false" in out and "hull_dim: 3" in out


def test_cli_machine_format_stable(files):
    args = ("--format", "machine", "lcd", "check", "--code", str(files / "ham.code"))
    rc1, out1 = run_cli(*args)
    rc2, out2 = run_cli(*args)
    assert rc1 == rc2 == 1
    assert kv(out1) == kv(out2)
    assert kv(out1)["hull_dim"] == "3" and kv(out1)["verdict"] == "false"


def test_cli_lcd_make_output_reapplies(files, tmp_path):
    out_path = tmp_path / "made.sigma"
    rc, out = run_cli(
        "lcd", "make", "--code", str(files / "ham.code"), "--out", str(out_path)
    )
    assert rc == 0 and "out_params: [8,4]" in out
    # the written map must make the zero-extended input LCD under it
    text = out_path.read_text()
    sigma = formats.parse_sigma(text, F2, 8)
    base = formats.parse_code(HAMMING)
    ext = LinearCode(
        F2, 8, np.hstack([base.gen, np.zeros((base.k, 1), dtype=np.int16)])
    )
    assert hull_dim(ext, sigma) == 0


def test_cli_lcd_hull(files):
    rc, out = run_cli("lcd", "hull", "--code", str(files / "ham.code"), "--sigma", "reversal")
    assert rc == 0 and "hull_dim: 0" in out


def test_cli_lcp_build(files):
    rc, out = run_cli(
        "lcp", "build", "--code1", str(files / "rep3.code"), "--code2", str(files / "oth3.code")
    )
    assert rc == 0
    assert "params: [3,1,3,3]" in out or "n: 3" in out


def test_cli_gqc_cosets_and_gamma():
    rc, out = run_cli("gqc", "cosets", "2", "7")
    assert rc == 0
    assert "coset.1: 1 2 4" in out and "coset.3: 3 5 6" in out
    rc, out = run_cli("gqc", "gamma", "3", "4")
    assert rc == 0
    assert "gamma0_plus: 0 2" in out and "gamma0_minus: 1" in out


def test_cli_gqc_check_and_constituents(files):
    rc, out = run_cli("gqc", "check", str(files / "ham.gqc"), "--a", "-1")
    assert rc == 0 and "verification: agree" in out
    rc, out = run_cli("gqc", "constituents", str(files / "ham.gqc"))
    assert rc == 0
    assert "constituent.0.dim: 1" in out
    assert "constituent.1.dim: 1" in out
    assert "constituent.3.dim: 0" in out


def test_cli_gqc_onegen_and_product(files):
    rc, out = run_cli("gqc", "onegen", str(files / "qr7.gqc"))
    assert rc == 0 and "eval_form: true" in out and "gcd_form: true" in out
    rc, out = run_cli("gqc", "product", str(files / "prod.spec"))
    assert rc == 0
    assert "n: 8" in out and "dim: 6" in out and "component_dims: 2 4" in out
    assert "mu1_lcd: true" in out and "min_distance: 2" in out


def test_cli_gqc_product_zero_length_component(tmp_path):
    """A component with r = 0 adds no block and no dimension."""
    rc, out = run_cli("gqc", "product", _write(tmp_path, "r0.spec", "2\n3 0 0\n"))
    assert rc == 0 and "dim: 0" in out


def test_cli_abelian(files):
    rc, out = run_cli("abelian", "check", "--group", "3", "--code", str(files / "z3.code"))
    assert rc == 0 and "idempotent_found: true" in out
    rc, out = run_cli("abelian", "idempotent", "--group", "3", "--code", str(files / "z3.code"))
    assert rc == 0 and "coeffs: 0 1 1" in out


def test_cli_abelian_check_splitting_field_out_of_range(tmp_path):
    """F_2[C_47] splits only in GF(2^23), past every field: `abelian check`
    on its quadratic-residue ideal takes the Gram solve, finds the
    idempotent of this complementary-dual ideal, and the oracle agrees."""
    G = abelian.cyclic_group(47)
    e = np.zeros(47, dtype=np.int16)
    e[sorted({r * r % 47 for r in range(1, 47)})] = 1
    code = abelian.ideal_from_generator(abelian.ga_element(F2, G, e))
    path = _write(tmp_path, "qr47.code", formats.dump_code(code))
    rc, out = run_cli("--format", "machine", "abelian", "check", "--group", "47", "--code", path)
    assert rc in (0, 1) and kv(out)["verification"] == "agree"
    assert kv(out)["idempotent_found"] == kv(out)["verdict"] == "true"


def _eliminations(monkeypatch, argv):
    """rref and rank calls of one dispatch, a rank's own pass through rref
    counted as the rank."""
    calls = []
    rref, rank = linalg.rref, linalg.rank

    def counted_rank(F, M):
        calls.append("rank")
        n = len(calls)
        r = rank(F, M)
        del calls[n:]
        return r

    with monkeypatch.context() as m:
        m.setattr(linalg, "rref", lambda *a, **kw: calls.append("rref") or rref(*a, **kw))
        m.setattr(linalg, "rank", counted_rank)
        rc, out = run_cli(*argv)
    assert "verification: agree" in out
    return rc, sorted(calls)


def test_cli_eliminations_per_command(tmp_path, monkeypatch):
    """`abelian check` settles on the certified hull: the parse and the
    certificate, with no rank of its own, and the idempotent cross-check of
    the semisimple F_2[C_3 x C_3] sums orbit idempotents, with no solve.  `lcd
    make` reads the hull's pivots off the RREF that builds it: the parse,
    the nullspace, the hull basis, the output's rank and its certificate.
    `lcp build` ranks its pair once, in `build_lcp`, beside the two parses
    and the kernel of sigma(G2) with its canonical form."""
    ideal = LinearCode(F2, 9, np.hstack([np.eye(8, dtype=np.int16), np.ones((8, 1), dtype=np.int16)]))
    code = LinearCode(F3, 20, np.random.default_rng(0).integers(0, 3, size=(10, 20)))
    assert ideal.k == 8 and code.k == 10 and hull_dim(code) > 0
    argv = ("abelian", "check", "--group", "3,3", "--code", _write(tmp_path, "aug.code", formats.dump_code(ideal)))
    assert _eliminations(monkeypatch, argv) == (0, ["rref"] * 2)
    argv = ("lcd", "make", "--code", _write(tmp_path, "g3.code", formats.dump_code(code)))
    assert _eliminations(monkeypatch, argv) == (0, ["rank"] + ["rref"] * 4)
    rng = np.random.default_rng(1)
    c1, c2 = (LinearCode(F3, 8, rng.integers(0, 3, size=(4, 8))) for _ in range(2))
    assert c1.k == c2.k == 4
    argv = ("lcp", "build", "--code1", _write(tmp_path, "c1.code", formats.dump_code(c1)),
            "--code2", _write(tmp_path, "c2.code", formats.dump_code(c2)))
    assert _eliminations(monkeypatch, argv) == (0, ["rank"] + ["rref"] * 4)


CERTIFIED = [
    ("lcd", "check", "--code", "@ham.code", "--sigma", "reversal"),
    ("lcd", "hull", "--code", "@ham.code", "--sigma", "reversal"),
    ("lcd", "make", "--code", "@ham.code"),
    ("gqc", "check", "@ham.gqc", "--a", "-1"),
    ("gqc", "onegen", "@qr7.gqc"),
    ("abelian", "check", "--group", "3", "--code", "@z3.code"),
    ("repro", "golay23"),
    ("repro", "qr-idempotent-7"),
    ("repro", "theorem1-binary"),
]


@pytest.mark.parametrize("argv", CERTIFIED, ids=lambda argv: "-".join(argv[:2]))
def test_cli_forged_hull_certificate_is_a_disagreement(files, monkeypatch, capsys, argv):
    """Every hull these commands report passes the oracle's certificate
    check; a forged one (the whole code claimed as hull, with an empty
    rank witness) exits 2 with one disagreement line and no traceback."""

    def forged(code, sigma=None):
        k = code.k
        return k, ([], np.zeros((0, k), dtype=np.int16), np.zeros((0, k), dtype=np.int16))

    argv = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
    rc, out = run_cli("--format", "machine", *argv)
    assert rc in (0, 1) and kv(out)["verification"] == "agree"
    capsys.readouterr()
    monkeypatch.setattr(codes, "hull_certificate", forged)
    rc, out = run_cli("--format", "machine", *argv)
    assert rc == 2 and capsys.readouterr().err == ""
    assert [line for line in out.splitlines() if "disagree" in line] == ["verification=disagree (certificate rejected)"]


def test_cli_oracle(files):
    rc, out = run_cli("oracle", "mindist", str(files / "ham.code"))
    assert rc == 0 and "min_distance: 3" in out
    rc, out = run_cli(
        "oracle", "intersect", str(files / "ham.code"), str(files / "ham.code")
    )
    assert rc == 0 and "intersection_dim: 4" in out
    rc, out = run_cli("oracle", "search-sigma", str(files / "ham.code"))
    assert rc == 0 and "found: true" in out and "sigma_perm:" in out


def test_cli_prime_field_named_modulus_shares_gf2(tmp_path):
    """A degree-1 modulus changes no table, so `2:1,1` is GF(2) itself."""
    a = _write(tmp_path, "a.code", "2 4 2\n1 1 0 0\n0 0 1 1\n")
    b = _write(tmp_path, "b.code", "2:1,1 4 2\n1 0 1 0\n0 1 0 1\n")
    rc, out = run_cli("oracle", "intersect", a, b)
    assert rc == 0 and "intersection_dim: 1" in out
    rc, out = run_cli("lcp", "build", "--code1", a, "--code2", b)
    assert rc == 0 and "verification: agree" in out


def test_cli_oracle_search_not_found(files):
    # no diagonal rescaling exists over GF(2), so this family fails on a
    # non-LCD input
    rc, out = run_cli(
        "oracle", "search-sigma", str(files / "ham.code"), "--family", "diagonal-lambda"
    )
    assert rc == 1 and "found: false" in out


def test_cli_error_exits(files, tmp_path):
    rc, _ = run_cli("lcd", "check", "--code", str(tmp_path / "missing.code"))
    assert rc == 2
    bad = tmp_path / "bad.code"
    bad.write_text("2 3\n1 1 0\n")
    rc, _ = run_cli("lcd", "check", "--code", str(bad))
    assert rc == 2
    rc, _ = run_cli("gqc", "check", str(files / "ham.gqc"), "--a", "7")
    assert rc == 2  # a not invertible mod 7
    rc, _ = run_cli("lcd", "nonsense")
    assert rc == 2


def test_cli_non_unit_a_reports_the_a_given(tmp_path):
    # 3 is 0 modulo 3; the error names the 3 on the command line
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.cmd_dispatch(["gqc", "check", _write(tmp_path, "b3.gqc", "2 1\n3\n1,1\n"), "--a", "3"])
    assert rc == 2 and err.getvalue() == "error: a = 3 not invertible modulo 3\n"


MALFORMED = {
    "non-integer in .code": lambda d: ["lcd", "check", "--code", _write(d, "bad.code", "2 4 2\n1 0 x 1\n0 1 1 0\n")],
    "--sigma frobenius:x": lambda d: ["lcd", "check", "--code", str(d / "ham.code"), "--sigma", "frobenius:x"],
    "non-permutation perm:": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                        "--sigma", _write(d, "bad.sigma", "perm: 0 0 1 2 3 4 5\n")],
    "zero diag: entry": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                   "--sigma", _write(d, "zero.sigma", "diag: 1 0 1 1 1 1 1\n")],
    "gqc cosets 2 0": lambda d: ["gqc", "cosets", "2", "0"],
    "splitting field too large": lambda d: ["gqc", "cosets", "2", "47"],
    "oracle intersect, lengths differ": lambda d: ["oracle", "intersect", str(d / "ham.code"), str(d / "z3.code")],
    "negative n in .code header": lambda d: ["lcd", "check", "--code", _write(d, "neg.code", "2 -3 0\n")],
    "gqc block length 0, check": lambda d: ["gqc", "check", _write(d, "zero.gqc", "2 1\n0\n1,1\n")],
    "gqc block length 0, constituents": lambda d: ["gqc", "constituents", _write(d, "zero.gqc", "2 2\n7 0\n1;1\n")],
    "gqc block length -7, onegen": lambda d: ["gqc", "onegen", _write(d, "neg.gqc", "2 1\n-7\n1,1\n")],
    "product spec, negative r": lambda d: ["gqc", "product", _write(d, "neg_r.spec", "2\n3 -1 0\n")],
    "product spec, negative m": lambda d: ["gqc", "product", _write(d, "neg_m.spec", "2\n-3 1 1\n1\n")],
    "product spec, entry outside GF(4)": lambda d: ["gqc", "product", _write(d, "big.spec", "2\n3 1 1\n4\n")],
    "onegen with two generators": lambda d: ["gqc", "onegen", _write(d, "two.gqc", "2 1\n7\n1,1,0,1\n1,1\n")],
    "sigma file, bad line": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                       "--sigma", _write(d, "line.sigma", "nonsense\n")],
    ".code entry beyond int16": lambda d: ["lcd", "check", "--code", _write(d, "wide.code", "2 2 1\n1 40000\n")],
    ".gqc coefficient beyond int16": lambda d: ["gqc", "check", _write(d, "wide.gqc", "2 1\n7\n1,40000\n")],
    ".gqc coefficient 2 over GF(2), check": lambda d: ["gqc", "check", _write(d, "two.gqc", "2 1\n7\n1,2,0,1\n")],
    ".gqc coefficient -1, onegen": lambda d: ["gqc", "onegen", _write(d, "neg.gqc", "2 2\n7 7\n1,1;1,-1\n")],
    ".gqc coefficient 4 over GF(4), constituents": lambda d: ["gqc", "constituents",
                                                              _write(d, "four.gqc", "4 1\n5\n1,4\n")],
    "product spec, entry beyond int16": lambda d: ["gqc", "product", _write(d, "wide.spec", "2\n3 1 1\n40000\n")],
    "perm: entry beyond int32": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                           "--sigma", _write(d, "wide.sigma", "perm: 0 99999999999 2 3 4 5 6\n")],
    "diag: entry beyond int16": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                           "--sigma", _write(d, "wide.sigma", "diag: 1 40000 1 1 1 1 1\n")],
    ".code header length 10^11, short row": lambda d: ["lcd", "check", "--code",
                                                      _write(d, "long.code", "2 100000000000 1\n1 1\n")],
}


def _write(d, name, text):
    (d / name).write_text(text)
    return str(d / name)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_input_exits_2(files, case):
    """Bad input exits 2 with one `error:` line and no report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cmd_dispatch(MALFORMED[case](files))
    assert rc == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# the error each case must reach, and its command line
HEADERS_AND_COUNTS = {
    "field size 6000 exceeds table-backed limit 4096":
        lambda d: ["lcd", "check", "--code", _write(d, "big.code", "6000 3 1\n1 1 1\n")],
    "diag needs 7 entries": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                       "--sigma", _write(d, "short.sigma", "diag: 1 1\n")],
    "frob needs one entry": lambda d: ["lcd", "check", "--code", str(d / "ham.code"),
                                       "--sigma", _write(d, "frob.sigma", "frob: 1 2\n")],
    "header must be 'q l', got '2'": lambda d: ["gqc", "check", _write(d, "head.gqc", "2\n7\n1,1,0,1\n")],
    "empty product spec": lambda d: ["gqc", "product", _write(d, "empty.spec", "")],
    "component header must be 'm r k', got '3 1'": lambda d: ["gqc", "product", _write(d, "head.spec", "2\n3 1\n1\n")],
    "component row needs 2 entries, got 1": lambda d: ["gqc", "product", _write(d, "width.spec", "2\n3 2 1\n1\n")],
    "component m=3 expected 2 rows": lambda d: ["gqc", "product", _write(d, "count.spec", "2\n3 1 2\n1\n")],
}


@pytest.mark.parametrize("message", sorted(HEADERS_AND_COUNTS))
def test_cli_malformed_headers_and_counts_exit_2(files, message):
    """Field sizes, sigma counts, GQC and product-spec headers, row widths
    and row counts: each exits 2 with its one `error:` line, no traceback
    and no report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cmd_dispatch(HEADERS_AND_COUNTS[message](files))
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().splitlines() == [f"error: {message}"]


def test_cli_failed_self_check_exits_2(files, monkeypatch):
    """A construction that fails its own complementary-dual check is an
    internal fault: exit 2 with one `error:` line, never 1 (a false
    verdict) and never a traceback."""
    monkeypatch.setattr(codes, "hull_dim", lambda code, sigma=None: 1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cmd_dispatch(["lcd", "make", "--code", str(files / "ham.code")])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().splitlines() == ["error: constructed map failed the complementary-dual check"]


def _cli_error_at_once(argv: str) -> str:
    """Run the CLI in a fresh interpreter; assert exit 2 with one `error:`
    line within 2 s and return that line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sigmalcd.cli", *argv.split()],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert elapsed < 2, f"{argv} took {elapsed:.2f} s"
    return lines[0]


@pytest.mark.parametrize("argv", [
    "gqc cosets 2 1000000007",
    "gqc constituents {d}/big.gqc",
    "gqc check {d}/big.gqc",
    "gqc onegen {d}/big.gqc",
    "gqc product {d}/big.spec",
])
def test_cli_m_beyond_every_field_exits_2_at_once(files, argv):
    """An m >= MAX_FIELD_SIZE is rejected before ord_m(q) is searched and
    before any generator is expanded into m shifted rows."""
    (files / "big.gqc").write_text("2 1\n4097\n1,1\n")
    (files / "big.spec").write_text("2\n4097 1 1\n1\n")
    line = _cli_error_at_once(argv.format(d=files))
    assert line.startswith("error: m = ") and "fields stop at 4096" in line


@pytest.mark.parametrize("argv", [
    "gqc cosets 1000000000000000003 3",
    "gqc cosets 1000000000000000003^1 3",
    "gqc cosets 1000000016000000063 3",
    "lcd check --code {d}/huge_q.code",
])
def test_cli_q_beyond_every_field_exits_2_at_once(files, argv):
    """A field size beyond MAX_FIELD_SIZE is rejected before p is tested
    for primality or a prime power is factored: trial division up to the
    square root of 1000000000000000003, a prime, and the factor search of
    1000000016000000063 = 1000000007 * 1000000009 would never finish."""
    (files / "huge_q.code").write_text("1000000000000000003 3 1\n1 0 0\n")
    line = _cli_error_at_once(argv.format(d=files))
    assert line.startswith("error: field size ") and "exceeds table-backed limit 4096" in line


@pytest.mark.parametrize("group,order", [("3000", 3000), ("30000", 30000), ("100,300", 30000)])
def test_cli_group_order_checked_before_its_tables(files, group, order):
    """|G| is compared with the code length before the |G| x |G| product
    table is built: at |G| = 30000 that table alone would take 7.2 GB."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.cmd_dispatch(["abelian", "check", "--group", group, "--code", str(files / "ham.code")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.getvalue().splitlines() == [f"error: code length 7 != |G| = {order}"]
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("command", ["check", "idempotent"])
@pytest.mark.parametrize("group", ["30000", "100,300"])
def test_cli_group_beyond_the_table_limit_exits_2(tmp_path, command, group):
    """A [30000,1] repetition code matches |G| = 30000, so the group table
    itself is refused: 7.2 GB of int64 used to end in a MemoryError and
    exit 1.  It exits 2 with one `error:` line and allocates little."""
    path = _write(tmp_path, "rep.code", "2 30000 1\n" + " ".join(["1"] * 30000) + "\n")
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.cmd_dispatch(["abelian", command, "--group", group, "--code", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().splitlines() == ["error: group order 30000 exceeds table-backed limit 4096"]
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("argv", [
    "lcd check --code {d}/ham.code --jobs 2",
    "lcd hull --code {d}/ham.code --budget 10",
    "gqc check {d}/ham.gqc --jobs 1",
    "oracle search-sigma {d}/ham.code --budget 10",
    "repro qr-idempotent-7 --jobs 2",
    "gqc product {d}/prod.spec --jobs 1",
    "oracle mindist {d}/ham.code --jobs 1",
])
def test_cli_jobs_budget_only_where_read(files, argv):
    """--budget is an unknown option on commands that never read it (the
    golden cases pass it where it is read), and --jobs on every command."""
    rc, out = run_cli(*argv.format(d=files).split())
    assert rc == 2 and out == ""


def test_cli_parser_built_once(monkeypatch):
    """A second dispatch in the same process reuses the parser."""
    run_cli("gqc", "cosets", "2", "7")
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    rc, out = run_cli("gqc", "cosets", "2", "7")
    assert rc == 0 and "coset.1: 1 2 4" in out
    assert calls == []


def test_entries_beyond_int16_are_refused_not_wrapped():
    """65537 would wrap to 1 in an int16 matrix and build the code [[1, 1]]."""
    with pytest.raises(BadInput, match="entry 65537 out of range"):
        LinearCode(field(2), 2, np.array([[1, 65537]]))
    with pytest.raises(BadInput, match="entry -40000 out of range"):
        SemiLinearMap(field(3), diag=np.array([1, -40000]))
    assert LinearCode(field(2), 2, np.array([[1, 1]], dtype=np.int64)).gen.tolist() == [[1, 1]]


def test_malformed_input_errors_keep_value_error_base():
    with pytest.raises(ValueError):
        formats.parse_code("2 2 1\n1 y\n")
    with pytest.raises(ValueError):
        formats.sigma_from_spec("frobenius:x", F4, 3)
    with pytest.raises(ValueError):
        SemiLinearMap(F2, perm=[0, 0, 1])
    with pytest.raises(ValueError):
        LinearCode(F2, 2, [[0, 2]])


def test_cli_prime_field_above_int8(tmp_path):
    # <v, v> = 1 + 4 + 130^2 = 6 mod 131, so the code is LCD
    (tmp_path / "p131.code").write_text("131 3 1\n1 2 130\n")
    rc, out = run_cli("--format", "machine", "lcd", "check", "--code", str(tmp_path / "p131.code"), "--sigma", "id")
    assert rc == 0
    assert kv(out)["hull_dim"] == "0" and kv(out)["verification"] == "agree"


ZERO_CODES = {"z": "2 1000000 0", "f2_len0": "2 0 0", "f3_len0": "3 0 0", "f3_len5": "3 5 0"}


@pytest.mark.parametrize("argv", [
    ("lcd", "check", "--code", "{z}"),
    ("lcd", "hull", "--code", "{z}"),
    ("lcd", "make", "--code", "{z}"),
    ("oracle", "intersect", "{z}", "{z}"),
    pytest.param(("lcd", "make", "--code", "{f2_len0}"), id="lcd-make-2-0-0"),
    pytest.param(("lcd", "make", "--code", "{f3_len0}"), id="lcd-make-3-0-0"),
    pytest.param(("lcd", "make", "--code", "{f3_len5}"), id="lcd-make-3-5-0"),
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_zero_code_of_huge_length(tmp_path, capsys, argv):
    """The zero code of length 10^6 has a 10^6 x 10^6 dual (1.8 TiB of
    int16); no route may build it.  Zero codes of length 0 and 5 have a
    zero hull too, so `lcd make` returns the identity on them."""
    paths = {name: _write(tmp_path, f"{name}.code", text + "\n") for name, text in ZERO_CODES.items()}
    rc, out = run_cli("--format", "machine", *(a.format(**paths) for a in argv))
    assert rc == 0 and capsys.readouterr().err == ""
    got = kv(out)
    if argv[0] == "lcd":
        assert got["verification"] == "agree"
    if argv[1] != "make":
        assert got.get("hull_dim", got.get("intersection_dim")) == "0"
    elif argv[3] != "{z}":
        n = int(got["out_params"][1:].split(",")[0])
        assert got["sigma_perm"] == " ".join(map(str, range(n)))
        assert got["sigma_diag"] == " ".join(["1"] * n) and got["sigma_frob"] == "0"


def test_cli_repro_suites():
    rc, out = run_cli("repro", "golay23")
    assert rc == 0
    assert "params: [23,12,7]" in out
    assert "mu1_lcd: true" in out
    assert "euclidean_hull: 11" in out
    rc, out = run_cli("repro", "qr-idempotent-7")
    assert rc == 0 and "disjoint_support: true" in out
    rc, out = run_cli("repro", "theorem1-binary")
    assert rc == 0 and "out_params: [8,4]" in out and "pure_permutation: true" in out
    rc, out = run_cli("repro", "maximal-qc-count")
    assert rc == 0 and "count: 8" in out and "distinct_canonicals: 8" in out


def test_repro_theorem1_binary_certifies_both_hulls(monkeypatch):
    """The input Hamming code's hull and the output's hull are each checked
    against their certificate."""
    checked = []
    check = oracle.check_hull_certificate
    monkeypatch.setattr(oracle, "check_hull_certificate", lambda *hull: checked.append(hull[2]) or check(*hull))
    rc, out = run_cli("repro", "theorem1-binary")
    assert rc == 0 and "input_hull: 3" in out and "verification: agree" in out
    assert checked == [3, 0]
