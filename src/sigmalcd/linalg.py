"""Exact vectorized linear algebra over GF(p^e) integer encodings.

Matrices are 2-D numpy int16 arrays of field encodings; every function takes
the Field first.

rref is Gauss-Jordan and returns R with its pivot rows in pivot order.
Over GF(2), GF(3) and GF(4) inside the limits below it walks bit planes;
else, and for the forward elimination of reduced=False, it runs one
elimination loop with one whole-slice update per pivot,
R[first:, c:] -= f (x) R[r, c:], f the pivot column.  The RREF is
Gauss-Jordan: first = 0 and f[r] = 0.  With reduced=False it is forward
elimination, the echelon form without back-substitution: first = r + 1.
Row r stays the pivot row when its entry is nonzero, and is written
back only if scaled.  Over GF(p), p odd, the update is a plain integer
subtract, and only what is read (the pivot column, the pivot row, f) is
reduced mod p, the rest once at the end; the pivot row is reduced before
it is scaled.  A pivot moves an entry by at most (p - 1)^2, so |entry| <
p + min(m, n) (p - 1)^2, and R is the narrowest of int16, int32 and int64
that holds that: int16 for GF(3) up to 8191 pivots, for GF(13) up to 227.
GF(2) is `^= f & row` on uint8.  GF(2^e) XORs in products: for q <=
min(m, 256), the q multiples of the pivot row and its normalisation are
gathers from a cached q x q product table, else one log/exp product.  The
RREF is unique, so the pivot row chosen does not show.  `oracle` keeps the
plain per-column loop as its own kernel.

The bit planes cover GF(2), GF(3) and GF(4) (Boothby and Bradshaw,
arXiv:0901.1413): plane j, one Python int, holds bit j of every entry, row
i in the W-bit field at bit i W, W the multiple of 8 above n.
GF(2) has one plane, GF(4) two digit planes, GF(3) the one-hot [x = 1] and
[x = 2].  The pivot row r for column c, the lowest candidate field with
bit c set, is scaled by planes read off F.div (a plane swap negates in
GF(3), a plane shuffle divides by y in GF(4)).  A product s r writes r
into each field s selects, carry-free as fields do not overlap; a row with
plane i set adds -(2^i) r.  rank is a count of pivots, by a forward
pass: every row is a candidate, and the pivot row is swapped into the
lowest field and shifted out, so only the pivot columns are kept.  rref's
walk keeps every row in its field: the candidates are the rows not yet
pivots (a `free` mask), the pivot row clears column c from every other
row, with no product when it is the column's only nonzero entry, and is
written back scaled.  One unpackbits gives R, the pivot rows first and the
rest, all zero, after them.  Over GF(3) and GF(4) both kernels clear a
column by `_clear(F)`.  A product costs O(m n^2) bit operations, the int16
update O(m n), so larger shapes stay on the loop, as do larger fields
(more planes and products); so do matrices of fewer than PACKED_ROWS
rows, whose packing costs more than the loop's whole run.

mat_mul is Kronecker substitution on float words (Dumas, Fousse and
Salvy, J. Symb. Comput. 2011).  An entry's e base-p digits split into
ceil(e / g) groups of g, each packed into one word as sum d_s 2^(w s).  The
product of two words is a polynomial in 2^w whose 2g - 1 fields are digit
convolutions; a field sums at most g (p - 1)^2 per term, so with the inner
dimension cut into chunks of at most (2^w - p) / (g (p - 1)^2) terms every
field stays below 2^w, and (2g - 1) w within the mantissa, 24 bits in
float32 and 53 in float64, keeps every partial sum exact (Dumas, Giorgi and
Pernet, ACM TOMS 2008).  A chunk is one matrix product of every pair of
digit groups.  Per field, g gives the fewest groups whose chunk holds
MIN_CHUNK terms, in float32 where that chunk does too.  A GF(p) word is the
entry itself, cast: float32 up to p = 251 (GF(131) chunks of 992 terms),
float64 past it.  Each chunk's sum is reduced mod p before the next adds to
it, for p = 2 by XOR on int32 and a final & 1.  GF(p^e) words are one
gather from a table.  For odd p the fields are peeled off the int64 word by
shift and mask, x^t for t >= e folded by the modulus and the digits taken
mod p.  Over GF(2^e) a field counts by its parity, bit w u of the word: one
multiply packs those bits into c(x), the product mod 2 (XORed over digit
group blocks), and c mod the modulus is c's low e bits XOR a table of
x^e h(x) at h = c >> e.  The odd-p tails are exact for p = 2 too, but
cost structured-criteria about 1% (GF(2)) and 2% (GF(2^e)) of its
verdicts/s on a 2-core host.  GF(p^2) for p <= 13 and GF(8) take one word,
GF(2^4) and GF(p^3) for 3 <= p <= 13 two, GF(2^12) and GF(3^7) four.

No subspace intersection lives here: `codes` reads every meet of a code
with a dual off the kernel of a small Gram product.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BadInput
from .field import Field


def narrow(values, dtype=np.int16) -> np.ndarray:
    """values as a dtype array; an entry the cast would wrap is BadInput."""
    A = np.asarray(values)
    if A.size and A.dtype != dtype:
        info, lo, hi = np.iinfo(dtype), A.min(), A.max()
        if lo < info.min or hi > info.max:
            raise BadInput(f"entry {hi if hi > info.max else lo} out of range")
    return A.astype(dtype, copy=False)


def as_matrix(rows, n: int | None = None) -> np.ndarray:
    M = narrow(rows)
    if M.ndim == 1:
        M = M.reshape(1, -1) if M.size else M.reshape(0, 0 if n is None else n)
    if M.ndim != 2:
        raise BadInput(f"expected a matrix, got ndim {M.ndim}")
    if n is not None and M.shape[1] != n and M.size:
        raise BadInput(f"expected {n} columns, got {M.shape[1]}")
    if M.size == 0 and n is not None:
        M = M.reshape(-1, n) if n else M.reshape(0, 0)
    return M


# a float sum of integer products is exact below 2^24 in float32, 2^53 in float64
MANTISSA = {np.float32: 24, np.float64: 53}
EXACT_LIMIT = 2**53
# g > 1 digits per word, or float32 words, only if a chunk of the inner
# dimension then sums at least this many terms
MIN_CHUNK = 256


@functools.lru_cache(maxsize=None)
def _packing(F: Field):
    """How mat_mul packs F: (g, w, dtype, tables, fold).

    The e digits of an entry split into ceil(e / g) groups of g, and group a
    of c packs into one word, sum d_s 2^(w s), of the float dtype: the
    fewest groups, then the narrowest float, then the widest fields.  Over
    GF(p) the word is the entry, tables and fold None; else tables[c, a] is
    group a's word.  For odd p, column (u, a, b) of fold holds the digits of
    x^(g (a + b) + u), the power that field u of the product of group a by
    group b multiplies.  For p = 2, fold[h] is x^e h(x), so c(x) mod the
    modulus is the low e bits of c XOR fold[c >> e]."""
    p, e = F.p, F.e
    groups, _, g, w, dtype = min(
        (-(-e // g), bits, g, bits // (2 * g - 1), dtype) for g in range(1, e + 1) for dtype, bits in MANTISSA.items()
        if (2 ** (bits // (2 * g - 1)) - p) // (g * (p - 1) ** 2) >= MIN_CHUNK or (g, bits) == (1, 53))
    if e == 1:
        return g, w, dtype, None, None
    spread = np.zeros((F.q, groups * g))
    spread[:, :e] = F.digits
    tables = (spread.reshape(F.q, groups, g) @ (2.0 ** (w * np.arange(g)))).astype(dtype)
    if p == 2:
        return g, w, dtype, tables, F.mul(np.arange(2 ** (e - 1)), F.pow(p, e))
    powers = F.digits[[F.pow(p, t) for t in range(2 * g * groups - 1)]]  # p encodes x
    a = g * np.arange(groups)
    fold = powers[np.arange(2 * g - 1)[:, None, None] + np.add.outer(a, a)]
    return g, w, dtype, tables, fold.reshape(-1, e).T.astype(np.float64)


def _reduce(acc: np.ndarray, p: int) -> np.ndarray:
    """acc mod p in place, for float integers 0 <= acc < 2^b, b = 24 in
    float32 and 53 in float64: acc / p is at least 1/p below the next
    integer, more than its rounding error acc / (p 2^b), so its floor is the
    exact quotient.  One scratch array: each fresh one costs page faults on
    the first touch."""
    quot = acc / p
    np.floor(quot, out=quot)
    quot *= p
    acc -= quot
    return acc


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.int16)
    B = np.asarray(B, dtype=np.int16)
    if A.shape[1] != B.shape[0]:
        raise BadInput(f"cannot multiply {A.shape} by {B.shape}")
    (k, n), m, p, e = A.shape, B.shape[1], F.p, F.e
    g, w, dtype, tables, fold = _packing(F)
    fields, groups = 2 * g - 1, -(-e // g)
    if tables is None:  # the word is the entry
        left, right = A.astype(dtype), B.astype(dtype)
    else:  # rows (i, a) by columns (j, b): group a of A[i] by group b of B[:, j]
        left = tables.take(A.T, axis=0).reshape(n, k * groups).T
        right = tables.take(B, axis=0).reshape(n, m * groups)
    # a field sums at most g (p - 1)^2 per term and must stay below 2^w;
    # a lower EXACT_LIMIT cuts every chunk
    step = (min(2**w, EXACT_LIMIT) - p) // (g * (p - 1) ** 2)
    for lo in range(0, n or 1, step):
        word = left[:, lo : lo + step] @ right[lo : lo + step]
        if p == 2:  # bit w u of the word is field u's parity, so chunks XOR
            word = word.astype(np.int32 if e == 1 else np.int64)
        elif e > 1:  # field u is bits w u.. of the word
            word = word.astype(np.int64) >> np.arange(0, w * fields, w).reshape(-1, 1, 1)
            word[:-1] &= 2**w - 1
        if lo:
            (np.bitwise_xor if p == 2 else np.add)(word, acc, out=word)
        acc = _reduce(word, p) if p > 2 and e == 1 else word  # odd p: the field is the word, reduced per chunk
    del left, right, word  # the rest reuses their pages rather than faulting in fresh ones
    if e == 1:
        return (np.bitwise_and(acc, 1, out=acc) if p == 2 else acc).astype(np.int16)
    if p > 2:  # x^t, t >= e, folded by the modulus, then the digits packed
        if groups > 1:  # column (u, a, b) of fold
            acc = acc.reshape(fields, k, groups, m, groups).transpose(0, 2, 4, 1, 3)
        # a field sums to n g (p - 1)^2 at most, so the fold's sums are exact
        acc = _reduce(fold @ acc.astype(np.float64, order="C").reshape(fields * groups**2, k * m), p)
        return (F.digit_weights @ acc).reshape(k, m).astype(np.int16)
    # field u's parity to bit u of c: the multiplier takes bit w u to bit K + u, K = (fields - 1) w,
    # no two of its products share a bit, and those past bit 63 wrap away
    acc &= (2 ** (w * fields) - 1) // (2**w - 1)
    acc *= 2 ** (fields - 1) * (2 ** ((w - 1) * fields) - 1) // (2 ** (w - 1) - 1)
    acc >>= (fields - 1) * w
    acc &= 2**fields - 1
    if groups > 1:  # block (a, b) multiplies x^(g (a + b)); the blocks laid out first XOR fast
        a, blocks = g * np.arange(groups), acc.reshape(k, groups, m, groups).transpose(1, 3, 0, 2)
        acc = np.bitwise_xor.reduce(np.left_shift(blocks, np.add.outer(a, a)[..., None, None], order="C"), axis=(0, 1))
    out = fold.take(np.right_shift(acc, e, dtype=np.int32))  # c < 2^(2 e - 1)
    acc &= F.q - 1
    out ^= acc
    return out


def mat_vec(F: Field, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(F, A, np.asarray(v, dtype=np.int16).reshape(-1, 1))[:, 0]


# rref reads the multiples of a pivot row over GF(2^e), q at most this
# and at most the row count, from one gather of the cached q x q products
SMALL_TABLE = 256


@functools.lru_cache(maxsize=None)
def _products(F: Field) -> np.ndarray:
    a = np.arange(F.q, dtype=np.int16)
    return F.mul(a[:, None], a)


def _lazy_dtype(p: int, m: int, n: int):
    """The narrowest integer type holding p + min(m, n) (p - 1)^2: each
    pivot moves an unreduced entry by at most (p - 1)^2."""
    bound = p + min(m, n) * (p - 1) ** 2
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


# rank and rref run on bit planes from PACKED_ROWS rows and up to
# PACKED_COLUMNS columns, rank below PACKED_CELLS cells.  Past them the int16
# loop was faster: rank at GF(3) 256 x 128 and 16 x 512, rref at GF(2)
# 4 x 1024, and both on one row over GF(2), where packing costs more than
# the loop's whole run (1 x 8: rank 5.0, rref 8.3 against 2.5 us)
PACKED_COLUMNS = 256
PACKED_CELLS = 2**15
PACKED_ROWS = 2
# rref walks the bit planes up to this many cells, in every plane field.
# At 64 x 64 the walk took random inputs in 117 / 304 / 317 us against the
# loop's 416 / 684 / 537 (GF(2) / GF(3) / GF(4)), and inputs already in
# RREF in 87 / 155 / 138 against 73 / 179 / 119.  At 100 x 200 the loop
# was faster on random GF(3) and GF(4) inputs (1,702 against 1,874 us,
# 1,274 against 1,756) and on every input already in RREF.
WALK_CELLS = 2**12


# bit j of an entry is in plane j
_PLANE_BITS = np.array([1, 2], dtype=np.uint8).reshape(-1, 1, 1)


def _pack_planes(F: Field, M: np.ndarray):
    """(e, W, A, B): M's e bit planes for q <= 4, row i in bits i W.. of
    each, and B = 0 over GF(2)."""
    m, n = M.shape
    e, W = 1 + (F.q > 2), 8 * (n // 8 + 1)
    bits = np.zeros((e, m, W), dtype=np.uint8)
    bits[:, :, :n] = M.astype(np.uint8) & _PLANE_BITS[:e]
    raw = np.packbits(bits, axis=-1, bitorder="little").tobytes()
    size = len(raw) // e
    return e, W, int.from_bytes(raw[:size], "little"), int.from_bytes(raw[size:], "little")


@functools.lru_cache(maxsize=None)
def _clear(F: Field):
    """The step both plane kernels take per pivot over GF(3) or GF(4):
    clear(A, B, s0, s1, a, b, low, c), where s0, s1 select the rows with
    plane 0, 1 set at column c, low is the pivot row's bit and a, b are its
    planes, shifted to field 0.  It returns (A, B, r0, r1): every other
    selected row less its entry times r, r0, r1 the planes of r, the pivot
    row scaled to 1 at column c.  The pivot row itself is left as it is.

    scale[v][2 j + k] = -(bit j of 2^k / v), and (ux, uy, ut), (wx, wy, wt)
    weigh X = s0 r0, Y = s1 r1 and T = (s0 ^ s1) (r0 ^ r1) in planes 0 and 1
    of the update, the XOR of s_i r_k over bit j of -(2^i 2^k), symmetric
    in i, k."""
    scale = {v: [-(F.div(1 << k, v) >> j & 1) for j in (0, 1) for k in (0, 1)] for v in range(1, F.q)}
    d = [[F.neg(F.mul(1 << i, 1 << k)) >> j & 1 for i, k in ((0, 0), (1, 1), (0, 1))] for j in (0, 1)]
    (ux, uy, ut), (wx, wy, wt) = [(x ^ t, y ^ t, t) for x, y, t in d]
    one_hot = F.p == 3

    def clear(A: int, B: int, s0: int, s1: int, a: int, b: int, low: int, c: int):
        v = (1 if s0 & low else 0) | (2 if s1 & low else 0)
        t00, t01, t10, t11 = scale[v]
        r0, r1 = t00 & a ^ t01 & b, t10 & a ^ t11 & b
        s0, s1 = (s0 ^ low if v & 1 else s0), (s1 ^ low if v & 2 else s1)
        if s0 | s1:
            X, Y, T = s0 * (r0 >> c), s1 * (r1 >> c), (s0 ^ s1) * ((r0 ^ r1) >> c)
            u, w = (ux and X) ^ (uy and Y) ^ (ut and T), (wx and X) ^ (wy and Y) ^ (wt and T)
            if one_hot:  # the one-hot sum
                x = (A | w) ^ (B | u)
                A, B = (B | w) ^ x, (A | u) ^ x
            else:
                A, B = A ^ u, B ^ w
        return A, B, r0, r1

    return clear


def _forward_planes(F: Field, M: np.ndarray) -> list[int]:
    """M's pivot columns for q <= 4, forward on bit planes A, B; see the module docstring."""
    m, n = M.shape
    e, W, A, B = _pack_planes(F, M)
    field = (1 << W) - 1
    on = ((1 << m * W) - 1) // field  # bit c of every field, here c = 0
    pivots = []
    clear = _clear(F) if e == 2 else None
    for c in range(n):
        s0, s1 = A & on, B & on
        sel = s0 | s1 if e == 2 else s0
        if not sel:
            on <<= 1
            continue
        # the pivot row: the lowest field with a set bit
        i = 0 if sel & 1 << c else (sel & -sel).bit_length() - 1 - c
        low = 1 << i + c
        a, b = A >> i & field, B >> i & field
        if e == 1:
            A ^= (sel ^ low) * (a >> c)
        else:
            A, B, _, _ = clear(A, B, s0, s1, a, b, low, c)
        # swap the pivot row into the lowest field and shift it out
        A = A >> W ^ ((A & field) ^ a) << i - W if i else A >> W
        B = B >> W ^ ((B & field) ^ b) << i - W if i else B >> W
        on >>= W - 1
        pivots.append(c)
    return pivots


def _walk_planes(F: Field, M: np.ndarray):
    """rref(F, M) for q <= 4, Gauss-Jordan on bit planes A, B; see the module docstring."""
    m, n = M.shape
    e, W, A, B = _pack_planes(F, M)
    field = (1 << W) - 1
    on = ((1 << m * W) - 1) // field  # bit c of every field, here c = 0
    free = on  # bit c of the fields that are not pivot rows yet
    rows, pivots = [], []
    clear = _clear(F) if e == 2 else None
    for c in range(n):
        s0, s1 = A & on, B & on
        sel = s0 | s1 if e == 2 else s0
        low = sel & free
        if low:
            low &= -low  # the pivot row: the lowest free field with bit c set
            i = low.bit_length() - 1 - c
            rows.append(i // W)
            pivots.append(c)
            free ^= low
            a, b = A >> i & field, B >> i & field
            if e == 1:
                if sel ^ low:
                    A ^= (sel ^ low) * (a >> c)
            else:
                A, B, r0, r1 = clear(A, B, s0, s1, a, b, low, c)
                A ^= (a ^ r0) << i  # the scaled pivot row, in place
                B ^= (b ^ r1) << i
            if not free:
                break
        on <<= 1
        free <<= 1
    # the pivot rows in pivot order, then the rest, all zero
    taken = set(rows)
    rows += [i for i in range(m) if i not in taken]
    size = m * W // 8
    raw = np.frombuffer(A.to_bytes(size, "little") + B.to_bytes(size * (e - 1), "little"), dtype=np.uint8)
    planes = np.unpackbits(raw.reshape(e, m, W // 8).take(rows, axis=1), axis=-1, count=n, bitorder="little")
    return (planes[0] if e == 1 else planes[1] << 1 | planes[0]).astype(np.int16), pivots


def rref(F: Field, M: np.ndarray, reduced: bool = True):
    """Reduced row echelon form; returns (R, pivot_columns).  With reduced
    False, R is the row echelon form of forward elimination: each pivot
    clears only the rows below it."""
    m, n = np.shape(M)
    if reduced and F.q <= 4 and m >= PACKED_ROWS and n <= PACKED_COLUMNS and m * n <= WALK_CELLS:
        return _walk_planes(F, np.asarray(M))
    return _eliminate(F, M, reduced)


def _eliminate(F: Field, M: np.ndarray, reduced: bool):
    """rref's int16 loop, for every field; see the module docstring."""
    m, n = np.shape(M)
    p, q = F.p, F.q
    lazy = F.e == 1 and p > 2
    table = _products(F) if p == 2 and 2 < q <= min(m, SMALL_TABLE) else None
    R = np.array(M, dtype=_lazy_dtype(p, m, n) if lazy else np.uint8 if q == 2 else np.int16)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        f = R[:, c] % p if lazy else R[:, c].copy()
        # row r stays the pivot when it can: a swap moves two whole rows
        pr = r if f[r] else r + int(f[r:].argmax())
        pv = int(f[pr])
        if pv == 0:
            continue
        if pr != r:  # rows r.. are 0 mod p left of column c
            R[r, c:], R[pr, c:] = R[pr, c:], R[r, c:].copy()
            f[pr] = f[r]
        # reduced before it is scaled: an unreduced entry times 1 / pv may
        # overflow the lazy dtype.  An unscaled row stays as it is in R.
        row = R[r, c:] % p if lazy else R[r, c:]
        # multiples[a] = a * row; the update for factor x is multiples[x / pv]
        # and the pivot row is multiples[1 / pv]
        multiples = None if table is None else table.take(row, axis=1)
        if pv != 1:
            inv = F.inv(pv)
            if table is not None:
                row, f = multiples[inv], table[inv].take(f)
            else:
                row = row * inv % p if lazy else F.mul(inv, row)
            R[r, c:] = row
        pivots.append(c)
        r += 1
        if reduced:  # every row but the pivot row
            first, f[r - 1] = 0, 0
        else:
            first, f = r, f[r:]
        if not np.count_nonzero(f):
            continue
        # the rows are zero left of column c, so only columns c.. change
        if lazy:
            R[first:, c:] -= np.multiply.outer(f, row)
        elif q == 2:
            R[first:, c:] ^= np.bitwise_and.outer(f, row)
        elif table is not None:
            R[first:, c:] ^= multiples.take(f, axis=0)
        else:
            R[first:, c:] = F.sub(R[first:, c:], F.mul(f[:, None], row))
    if lazy:
        R %= p
    return R.astype(np.int16), pivots


def rank(F: Field, M: np.ndarray) -> int:
    m, n = np.shape(M)
    if F.q <= 4 and m >= PACKED_ROWS and n <= PACKED_COLUMNS and m * n < PACKED_CELLS:
        return len(_forward_planes(F, np.asarray(M)))
    return len(rref(F, M, reduced=False)[1])


def row_space(F: Field, M: np.ndarray) -> np.ndarray:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    R, piv = rref(F, M)
    return R[: len(piv)]


def pivots_first(n: int, pivots) -> np.ndarray:
    """Columns 0..n-1 with the pivots first; the free columns follow in
    order, read off a boolean mask rather than an O(n r) scan of pivots."""
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return np.concatenate([np.asarray(pivots, dtype=np.intp), np.flatnonzero(free)])


def nullspace(F: Field, M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : M v^T = 0}, one row per free column."""
    M = np.asarray(M, dtype=np.int16)
    n = M.shape[1]
    R, piv = rref(F, M)
    r = len(piv)
    free = pivots_first(n, piv)[r:]
    B = np.zeros((free.size, n), dtype=np.int16)
    B[np.arange(free.size), free] = 1
    B[:, piv] = F.neg(R[:r][:, free].T)
    return B


def stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.vstack([np.asarray(A, dtype=np.int16), np.asarray(B, dtype=np.int16)])


def sum_dim(F: Field, A: np.ndarray, B: np.ndarray) -> int:
    return rank(F, stack(A, B))
