"""Golden output of every subcommand and every repro suite.

`cli_golden.txt` holds one block per command: a `$ <argv>` line, an
`rc=<exit code>` line, then the exact stdout with the `elapsed` line
dropped.  `<tmp>` in the argv and in the output stands for the directory
that holds the input files written below.
"""

import contextlib
import io
from pathlib import Path

import pytest

from sigmalcd import cli

GOLDEN = Path(__file__).with_name("cli_golden.txt")

INPUTS = {
    "ham.code": "2 7 4\n1 0 0 0 1 1 0\n0 1 0 0 0 1 1\n0 0 1 0 1 1 1\n0 0 0 1 1 0 1\n",
    "rep3.code": "3 3 1\n1 1 1\n",
    "oth3.code": "3 3 1\n1 0 2\n",
    "z3.code": "2 3 2\n1 1 0\n0 1 1\n",
    "z2.code": "2 2 1\n1 1\n",
    "f4.code": "4 4 2\n1 2 3 0\n0 1 1 2\n",
    "f4.sigma": "perm: 1 0 3 2\ndiag: 1 2 3 1\nfrob: 1\n",
    "ham.gqc": "2 1\n7\n1,1,0,1\n",
    "qr7.gqc": "2 2\n7 7\n1,1,1,0,1;1,0,0,1,0,1,1\n",
    "rep.gqc": "2 2\n3 3\n1,1,1;1,1,1\n",
    "sd.gqc": "2 2\n1 1\n1;1\n",
    "unequal.gqc": "2 2\n7 1\n1,1,0,1;1\n",
    "prod.spec": "2\n3 1 1\n1\n5 1 1\n1\n",
}


def _cases():
    blocks = ("\n" + GOLDEN.read_text()).split("\n$ ")[1:]
    return [block.splitlines() for block in blocks]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.cmd_dispatch(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, text in INPUTS.items():
        (d / name).write_text(text)
    return d


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_cli_output_matches_golden(workdir, case):
    argv_line, rc_line, *expected = case
    argv = argv_line.replace("<tmp>", str(workdir)).split()
    rc, out = _run(argv)
    got = [
        line.replace(str(workdir), "<tmp>")
        for line in out.splitlines()
        if not line.startswith(("elapsed=", "elapsed: "))
    ]
    assert (f"rc={rc}", got) == (rc_line, expected)
