"""Text formats for codes, semi-linear maps, polynomials, and GQC inputs.

All dumps are byte-stable for identical inputs so golden-file comparisons
work.  Blank lines and lines starting with '#' are ignored on parse.
"""

from __future__ import annotations

import numpy as np

from . import linalg, poly
from .codes import LinearCode, SemiLinearMap
from .errors import BadInput
from .field import MAX_FIELD_SIZE, Field, field, prime_factors
from .gqc import GqcCode


def _lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise BadInput(f"expected an integer, got {token.strip()!r}") from None


def parse_field(text: str) -> Field:
    """`p`, `p^e`, a composite prime power like `4`, or `p^e:c0,c1,...`
    with an explicit little-endian modulus."""
    text = text.strip()
    modulus = None
    if ":" in text:
        text, mtext = text.split(":", 1)
        modulus = tuple(_int(t) for t in mtext.split(","))
    if "^" in text:
        ptext, etext = text.split("^", 1)
        p, e = _int(ptext), _int(etext)
    else:
        v = _int(text)
        if v < 2:
            raise BadInput(f"{v} is not a prime power")
        # before the factor search, which a huge v would never finish
        if v > MAX_FIELD_SIZE:
            raise BadInput(f"field size {v} exceeds table-backed limit {MAX_FIELD_SIZE}")
        primes = prime_factors(v)
        if len(primes) != 1:
            raise BadInput(f"{v} is not a prime power")
        p = primes[0]
        e = next(e for e in range(1, v) if p**e == v)
    return field(p, e, modulus)


def field_str(F: Field) -> str:
    return str(F.p) if F.e == 1 else f"{F.p}^{F.e}"


def parse_poly(text: str) -> np.ndarray:
    """Comma-separated little-endian coefficients, `1,0,1` = 1 + x^2."""
    parts = [t.strip() for t in text.split(",")]
    return poly.trim(linalg.narrow([_int(t) for t in parts if t]))


def poly_str(c: np.ndarray) -> str:
    c = poly.trim(c)
    if c.size == 0:
        return "0"
    return ",".join(str(int(v)) for v in c)


def parse_code(text: str) -> LinearCode:
    lines = _lines(text)
    if not lines:
        raise BadInput("empty code file")
    head = lines[0].split()
    if len(head) != 3:
        raise BadInput(f"header must be 'q n k', got {lines[0]!r}")
    F = parse_field(head[0])
    n, k = _int(head[1]), _int(head[2])
    if n < 0 or k < 0:
        raise BadInput(f"code length and dimension must be nonnegative, got n = {n}, k = {k}")
    if len(lines) != 1 + k:
        raise BadInput(f"expected {k} generator rows, got {len(lines) - 1}")
    rows = []
    for t, line in enumerate(lines[1:]):
        rows.append([_int(v) for v in line.split()])
        if len(rows[-1]) != n:
            raise BadInput(f"row {t} has {len(rows[-1])} entries, expected {n}")
    return LinearCode(F, n, rows)


def dump_code(code: LinearCode) -> str:
    lines = [f"{field_str(code.field)} {code.n} {code.k}"]
    for row in code.gen:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_sigma(text: str, F: Field, n: int) -> SemiLinearMap:
    """Three labeled lines: `perm: i0 ... i_{n-1}`, `diag: d0 ... d_{n-1}`,
    `frob: s`.  Missing lines default to the identity part."""
    perm = np.arange(n, dtype=np.int32)
    diag = np.ones(n, dtype=np.int16)
    frob = 0
    for line in _lines(text):
        if ":" not in line:
            raise BadInput(f"bad sigma line {line!r}")
        key, val = line.split(":", 1)
        key = key.strip().lower()
        vals = val.split()
        if key == "perm":
            if len(vals) != n:
                raise BadInput(f"perm needs {n} entries")
            perm = [_int(v) for v in vals]
        elif key == "diag":
            if len(vals) != n:
                raise BadInput(f"diag needs {n} entries")
            diag = [_int(v) for v in vals]
        elif key == "frob":
            if len(vals) != 1:
                raise BadInput("frob needs one entry")
            frob = _int(vals[0])
        else:
            raise BadInput(f"unknown sigma field {key!r}")
    return SemiLinearMap(F, perm, diag, frob)


def dump_sigma(sigma: SemiLinearMap) -> str:
    return (
        "perm: " + " ".join(str(int(v)) for v in sigma.perm) + "\n"
        "diag: " + " ".join(str(int(v)) for v in sigma.diag) + "\n"
        f"frob: {sigma.frob}\n"
    )


def sigma_from_spec(spec: str, F: Field, n: int) -> SemiLinearMap:
    """`id`, `reversal`, `frobenius:<s>`, or a path to a sigma file."""
    s = spec.strip()
    if s == "id":
        return SemiLinearMap.identity(F, n)
    if s == "reversal":
        return SemiLinearMap.reversal(F, n)
    if s.startswith("frobenius:"):
        return SemiLinearMap.frobenius_map(F, n, _int(s.split(":", 1)[1]))
    with open(s, "r", encoding="utf-8") as fh:
        return parse_sigma(fh.read(), F, n)


def parse_gqc_raw(text: str):
    """(field, block lengths, generator tuples) without building the code."""
    lines = _lines(text)
    if len(lines) < 3:
        raise BadInput("GQC file needs header, block lengths, and generators")
    head = lines[0].split()
    if len(head) != 2:
        raise BadInput(f"header must be 'q l', got {lines[0]!r}")
    F = parse_field(head[0])
    l = _int(head[1])
    blocks = tuple(_int(v) for v in lines[1].split())
    if len(blocks) != l:
        raise BadInput(f"expected {l} block lengths, got {len(blocks)}")
    if any(m < 1 for m in blocks):
        raise BadInput(f"block lengths must be positive, got {' '.join(map(str, blocks))}")
    gens = []
    for line in lines[2:]:
        parts = line.split(";")
        if len(parts) != l:
            raise BadInput(f"generator {line!r} has {len(parts)} blocks, expected {l}")
        gens.append(tuple(parse_poly(p) for p in parts))
    return F, blocks, gens


def parse_gqc(text: str) -> GqcCode:
    F, blocks, gens = parse_gqc_raw(text)
    return GqcCode.from_generators(F, blocks, gens)


def parse_product_spec(text: str):
    """Product-construction input: line 1 the base field, then per
    component a `m r k` header followed by k rows of r integer-encoded
    elements of GF(q^t) (t = splitting degree of the m-th roots over the
    base, with the default modulus)."""
    from .cyclotomic import mult_order

    lines = _lines(text)
    if not lines:
        raise BadInput("empty product spec")
    base = parse_field(lines[0])
    raw = []
    pos = 1
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 3:
            raise BadInput(f"component header must be 'm r k', got {lines[pos]!r}")
        m, r, k = _int(head[0]), _int(head[1]), _int(head[2])
        if m < 1 or r < 0 or k < 0:
            raise BadInput(f"component needs m >= 1 and r, k >= 0, got {lines[pos]!r}")
        rows = []
        for line in lines[pos + 1 : pos + 1 + k]:
            vals = [_int(v) for v in line.split()]
            if len(vals) != r:
                raise BadInput(f"component row needs {r} entries, got {len(vals)}")
            rows.append(vals)
        if len(rows) != k:
            raise BadInput(f"component m={m} expected {k} rows")
        raw.append((m, r, rows))
        pos += 1 + k
    comps = []
    for m, r, rows in raw:
        t = mult_order(base.q, m)  # coset size of m-hat equals ord_m(q)
        comp_field = field(base.p, base.e * t)
        comps.append((m, r, LinearCode(comp_field, r, rows)))
    return base, comps
