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

from sigmalcd import cli, formats, poly
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
    f = formats.parse_field("2^2:1,1,1")
    assert f.q == 4 and tuple(f.modulus) == (1, 1, 1)


def test_parse_field_rejects_non_prime_power():
    with pytest.raises(BadInput, match="6 is not a prime power"):
        formats.parse_field("6")
    with pytest.raises(BadInput, match="1 is not a prime power"):
        formats.parse_field("1")


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


def test_parse_code_field_hint_conflict():
    with pytest.raises(BadInput, match="header field 2 != 3"):
        formats.parse_code(HAMMING, field_hint=F3)


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


def test_gqc_dump_roundtrip():
    code = formats.parse_gqc("2 2\n3 3\n1,1;0,1\n")
    text = formats.dump_gqc(code)
    assert formats.parse_gqc(text) == code
    assert formats.dump_gqc(formats.parse_gqc(text)) == text


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


def test_cli_oracle(files):
    rc, out = run_cli("oracle", "mindist", str(files / "ham.code"))
    assert rc == 0 and "min_distance: 3" in out
    rc, out = run_cli(
        "oracle", "intersect", str(files / "ham.code"), str(files / "ham.code")
    )
    assert rc == 0 and "intersection_dim: 4" in out
    rc, out = run_cli("oracle", "search-sigma", str(files / "ham.code"))
    assert rc == 0 and "found: true" in out and "sigma_perm:" in out


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sigmalcd.cli", *argv.format(d=files).split()],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("error: m = ") and "fields stop at 4096" in lines[0]
    assert elapsed < 2, f"{argv} took {elapsed:.2f} s"


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


@pytest.mark.parametrize("argv", [
    ("lcd", "check", "--code", "{z}"),
    ("lcd", "hull", "--code", "{z}"),
    ("lcd", "make", "--code", "{z}"),
    ("oracle", "intersect", "{z}", "{z}"),
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_zero_code_of_huge_length(tmp_path, capsys, argv):
    """The zero code of length 10^6 has a 10^6 x 10^6 dual (1.8 TiB of
    int16); no route may build it."""
    z = _write(tmp_path, "zero.code", "2 1000000 0\n")
    rc, out = run_cli("--format", "machine", *(a.format(z=z) for a in argv))
    assert rc == 0 and capsys.readouterr().err == ""
    got = kv(out)
    if argv[0] == "lcd":
        assert got["verification"] == "agree"
    if argv[1] != "make":
        assert got.get("hull_dim", got.get("intersection_dim")) == "0"


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
