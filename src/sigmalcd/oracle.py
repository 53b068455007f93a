"""Brute-force ground truth, kept independent of the formula-based routes.

Everything here works by explicit enumeration or explicit subspace
intersection so it can cross-check the rank shortcuts elsewhere in the
package.  The minimum distance and the weight distribution visit all q^k
codewords through two span tables of the GF(p)-rows y^s g_i (y the class
of x), every word one low-table word plus one high-table word.  A word is
a stack of planes: bit planes packed into uint64, the digit bits in
characteristic 2 and one one-hot plane per residue of each digit for odd
p <= 13, and past that one int16 lane per digit, since one-hot planes grow
with p.  A word's weight against another counts the coordinates set in
the OR over planes of their XOR (a popcount; on lanes, of their
inequality).  Each table is filled in place by doubling, and the
enumeration never calls linalg.  The minimum distance is one min over the
weights of message indices 1..q^k-1, on one thread: the table walk is many
short numpy calls, so threads only contend for the interpreter lock.
`enumerate_codewords` is the slow reference walk.  Every enumeration first
checks q^k against a budget of codewords and raises BudgetExceeded beyond
it.

The hull and intersection dimensions call no linalg either: they eliminate
with `_gauss_jordan`, the plain per-column loop, on sigma(C)'s rows from
SemiLinearMap.apply, and build no LinearCode for sigma(C) or its dual.

`check_hull_certificate` checks a claimed hull dimension with products
alone, no elimination: G carries the identity at the code's pivots, so the
hull has dimension k - rank M, M = G sigma(G)^T, and a certificate (c, Y,
N) with M = M[:, c] Y and N M[:, c] = I proves rank M = |c|.  Its products
are its own: float64 products of residues mod p, never linalg's packed ones.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# sigma_dual is no longer called here; it stays bound because perfbench's
# self-test checks that the tracer wraps this module's copy
from .codes import DEFAULT_MAX_WORDS, LinearCode, SemiLinearMap, _check_pair, sigma_dual  # noqa: F401
from .errors import BadInput, BudgetExceeded


def _check_budget(code: LinearCode, budget: int) -> int:
    total = code.field.q**code.k
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}")
    return total


def enumerate_codewords(code: LinearCode, budget: int = DEFAULT_MAX_WORDS):
    """Yield all q^k codewords exactly once, message digits in reflected
    Gray order so successive words differ by one scaled generator row."""
    _check_budget(code, budget)
    F, G, k = code.field, code.gen, code.k
    word = np.zeros(code.n, dtype=np.int16)
    yield word.copy()
    if k == 0:
        return
    q = F.q
    a = [0] * k
    d = [1] * k
    f = list(range(k + 1))
    while True:
        j = f[0]
        f[0] = 0
        if j == k:
            return
        old = a[j]
        a[j] += d[j]
        new = a[j]
        word = np.asarray(F.add(word, F.mul(F.sub(new, old), G[j])), dtype=np.int16)
        if a[j] == 0 or a[j] == q - 1:
            d[j] = -d[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
        yield word.copy()


# uint64 words of the low span table, planes and padding included: at most
# 128 KiB, glibc's default mmap threshold, so the table and the same-sized
# temporaries of each weight pass stay reused heap blocks.  At 2^16 words a
# pass over the enumeration benchmark's codes took 17% longer in-process
_BLOCK_ENTRIES = 1 << 14

# one-hot digits take p bits a coordinate, past 16 more than an int16 lane,
# and their tables and weight passes grow as p: a GF(251) [8, 2] code took
# 25 s and a 637 MB peak one-hot, and 2 ms in lanes
_ONE_HOT_MAX_P = 16


@functools.lru_cache(maxsize=None)
def _rotation(p: int) -> np.ndarray:
    """c (u - r) mod p at (u, r, c - 1), c = 1..p-1, read-only.  Block c of a
    row's doubling adds the multiple row / c, whose one-hot plane u - r is
    the row's plane c (u - r).  One array per odd p <= 13."""
    u = np.arange(p)
    shift = (u[:, None, None] - u[:, None]) * u[1:] % p
    shift.setflags(write=False)
    return shift


@functools.lru_cache(maxsize=None)
def _x_powers(F) -> np.ndarray:
    """The digits of x^s, s < 2e - 1, by which _product folds."""
    return F.digits[[F.pow(F.p, s) for s in range(2 * F.e - 1)]]


class _Spans:
    """The weights of all q^k codewords, by message index.

    The GF(q)-span of the k generator rows is the GF(p)-span of the e k
    prime-field rows y^s g_i, y the class of x and s < e, whose sums add
    coordinates digit by digit mod p.  A word is a (planes, words) block.
    Over GF(2^e) it is the e digit planes of bits.  Over odd p <= 13 it is
    one one-hot plane per residue u of each digit d, residue-major: bit j
    of plane (u, d) is set where digit d of coordinate j is u.  Over wider p
    it is one int16 lane per coordinate of each digit.  Bits are packed into
    uint64 words, and padding coordinates read as digit 0 in every word,
    the zero word included.

    The low table spans the first a prime rows and the high table the
    rest, so message index low + p^a * high (base-p digits, least
    significant first) is the word low_table[low] + high_table[high].  Each
    table is allocated once and filled in place by doubling: a row writes,
    for its p - 1 nonzero multiples at once, the table so far plus that
    multiple.  Over GF(2^e) that is one XOR.  On one-hot planes, plane u of
    a sum is the OR over r of (the table's plane r AND the multiple's plane
    u - r mod p).  The multiples' planes are gathered at (u - r) mod p when
    the rows are packed, so a row takes one AND and one OR-reduce over r
    whatever p is.  Lanes add, then subtract p where the sum reaches it.

    A weight counts the coordinates where two table words differ: the
    popcount of the OR over planes of their XOR, on lanes the count of the
    OR over planes of their inequality.  Two one-hot digits that differ differ in a plane of residue
    below p - 1, so only those planes are kept for the weights.  The weight
    is that of low - high, the word with the same low digits and negated
    high digits; over the whole index range it still visits every codeword
    once, and index 0 is still the zero word.  Only field multiples and
    digits build the tables, never linalg."""

    def __init__(self, F, G):
        p, e, (k, n) = F.p, F.e, G.shape
        # (row, digit, coordinate): the digits of y^s g_i, rows s-major
        if e == 1:
            rows = G[:, None]
        else:
            rows = F.digits[F.mul(F.digit_weights[:, None, None], G).reshape(e * k, n)].transpose(0, 2, 1)
        wt = np.min_scalar_type(n)  # the narrowest uint holding n
        compared = e  # the leading planes that tell two words apart
        if p > _ONE_HOT_MAX_P:
            zero = np.zeros((e, n), dtype=np.int16)
            # (row, digit, coordinate, multiple, 1)
            adds = (rows[..., None] * np.arange(1, p) % p).astype(np.int16)[..., None]

            def add(table, s, row):
                out = table[..., s : p * s].reshape(e, n, p - 1, s)
                np.add(table[:, :, None, :s], row, out=out)
                np.subtract(out, p, out=out, where=out >= p)

            self._differ, self._count = np.not_equal, lambda x: x.sum(axis=0, dtype=wt)
        else:
            words = max(-(-n // 64), 1)  # a code of length 0 still has a word
            pad = np.zeros((e * k, e, 64 * words), dtype=np.uint8)
            pad[..., :n] = rows

            def pack(bits):
                return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

            if p == 2:
                zero, adds = np.zeros((e, words), dtype=np.uint64), pack(pad)[..., None]

                def add(table, s, row):
                    np.bitwise_xor(table[..., :s], row, out=table[..., s : 2 * s])

            else:
                # planes residue-major, so the last e hold residue p - 1
                zero = np.zeros((p * e, words), dtype=np.uint64)
                zero[:e] = ~np.uint64(0)
                planes = pack(pad[:, None] == np.arange(p)[:, None, None])  # (row, residue, digit, word)
                # the multiples' planes u - r by (row, u, r, digit, word, c, 1)
                adds = planes[:, _rotation(p)].transpose(0, 1, 2, 4, 5, 3)[..., None]
                # two digits differ in one of their planes 0..p - 2
                compared = e * (p - 1)

                # columns a call takes: its AND holds p (p - 1) times their
                # planes, at most (p - 1) _BLOCK_ENTRIES words
                step = max(1, _BLOCK_ENTRIES // (e * p * p * words))

                def add(table, s, row):
                    low = table[..., :s].reshape(1, p, e, words, 1, s)
                    out = table[..., s : p * s].reshape(p, e, words, p - 1, s)
                    for j in range(0, s, step):
                        np.bitwise_or.reduce(low[..., j : j + step] & row, axis=1, out=out[..., j : j + step])

            self._differ = np.bitwise_xor
            self._count = lambda x: np.bitwise_count(x).sum(axis=0, dtype=wt) if len(x) > 1 else np.bitwise_count(x[0])

        a = 0
        while a < e * k and p ** (a + 1) * zero.nbytes <= 8 * _BLOCK_ENTRIES:
            a += 1
        self._size = p**a

        def span(rs):
            table = np.empty(zero.shape + (p ** len(rs),), dtype=zero.dtype)
            table[..., 0] = zero
            for i, row in enumerate(rs):
                add(table, p**i, row)
            return table

        self._low, self._high = span(adds[:a])[:compared], span(adds[a:])[:compared]

    def weights(self, lo: int, hi: int):
        """The weights of the words of message indices lo..hi-1, one array
        per high index the range meets."""
        L = self._size
        for h in range(lo // L, (hi - 1) // L + 1):
            low = self._low[..., max(lo - h * L, 0) : min(hi - h * L, L)]
            x = self._differ(low, self._high[..., h : h + 1])
            yield self._count(np.bitwise_or.reduce(x, axis=0) if len(x) > 1 else x[0])


def brute_min_distance(code: LinearCode, budget: int = DEFAULT_MAX_WORDS) -> int:
    """Exact minimum Hamming weight over all nonzero codewords."""
    total = _check_budget(code, budget)
    if code.k == 0:
        raise BadInput("zero code has no nonzero words")
    return min(int(w.min()) for w in _Spans(code.field, code.gen).weights(1, total))


def weight_distribution(code: LinearCode, budget: int = DEFAULT_MAX_WORDS) -> np.ndarray:
    total = _check_budget(code, budget)
    out = np.zeros(code.n + 1, dtype=np.int64)
    for w in _Spans(code.field, code.gen).weights(0, total):
        out += np.bincount(w, minlength=code.n + 1)
    return out


def _gauss_jordan(F, M: np.ndarray):
    """(RREF, pivot columns), one column at a time over the rows nonzero in
    it; the reference that linalg.rref is tested against."""
    R = np.array(M, dtype=np.int16, copy=True)
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        pv = int(R[r, c])
        if pv != 1:
            R[r] = F.mul(F.inv(pv), R[r])
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            # row r is zero left of column c, so only columns c.. change
            R[others, c:] = F.sub(R[others, c:], F.mul(R[others, c][:, None], R[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def _dual(F, M: np.ndarray) -> np.ndarray:
    """Basis of {v : M v^T = 0}, one row per free column of M's RREF."""
    R, piv = _gauss_jordan(F, M)
    free = np.ones(M.shape[1], dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    B = np.zeros((free.size, M.shape[1]), dtype=np.int16)
    B[np.arange(free.size), free] = 1
    B[:, piv] = F.neg(R[: len(piv)][:, free].T)
    return B


def _intersection_dim(F, A: np.ndarray, B: np.ndarray) -> int:
    """dim(rowspace A cap rowspace B), the dual of the sum of the duals; a
    zero space meets everything in 0, and its dual, F_q^n, is not built."""
    if len(A) == 0 or len(B) == 0:
        return 0
    return len(_dual(F, np.vstack([_dual(F, A), _dual(F, B)])))


def brute_intersection_dim(c1: LinearCode, c2: LinearCode) -> int:
    """dim(C1 cap C2) via stacked-nullspace subspace arithmetic."""
    if c1.field != c2.field:
        raise BadInput("codes must share their field")
    if c1.n != c2.n:
        raise BadInput(f"codes of lengths {c1.n} and {c2.n}")
    return _intersection_dim(c1.field, c1.gen, c2.gen)


def brute_hull_dim(code: LinearCode, sigma: SemiLinearMap | None = None) -> int:
    """dim(C cap (sigma(C))^perp) by explicit intersection, no rank formula."""
    if sigma is not None:
        _check_pair(code, sigma)
    if code.k == 0:
        return 0
    image = code.gen if sigma is None else sigma.apply(code.gen)
    return _intersection_dim(code.field, code.gen, _dual(code.field, image))


_EXACT = 2**53  # a float64 sum of integer products is exact below this


def _dot(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A B mod p in int64 for float64 residue matrices, summed over chunks of
    at most (_EXACT - p) / (p - 1)^2 terms of the inner dimension, so exact."""
    step = (_EXACT - p) // (p - 1) ** 2
    if A.shape[1] <= step:
        return (A @ B).astype(np.int64) % p
    acc = 0
    for lo in range(0, A.shape[1], step):
        acc = (acc + A[:, lo : lo + step] @ B[lo : lo + step]).astype(np.int64) % p
    return acc


def _product(F, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B over F from float64 products of residues mod p.  Over GF(p^e),
    x^s's coefficient sums digit plane i of A times plane s - i of B: one
    product per s, A's planes side by side and B's stacked in reverse.  The
    digits of x^s, from the field's own power, fold it into e digits."""
    p, e = F.p, F.e
    (k, n), m = A.shape, B.shape[1]
    if e == 1:
        return _dot(A.astype(np.float64), B.astype(np.float64), p).astype(np.int16)
    left = F.digits[A].transpose(0, 2, 1).reshape(k, e * n).astype(np.float64)
    # B's planes in reverse, so x^(e - 1 + u) pairs e - |u| planes of each
    right = F.digits[B][:, :, ::-1].transpose(2, 0, 1).reshape(e * n, m).astype(np.float64)
    windows = [(max(u, 0) * n, max(-u, 0) * n, (e - abs(u)) * n) for u in range(1 - e, e)]
    coeffs = np.stack([_dot(left[:, a : a + w], right[b : b + w], p) for a, b, w in windows], axis=-1)
    return (coeffs @ _x_powers(F) % p @ F.digit_weights).astype(np.int16)


def _is_matrix(X: np.ndarray, shape, q: int) -> bool:
    return X.shape == shape and X.dtype.kind in "iu" and (not X.size or (X.min() >= 0 and X.max() < q))


def check_hull_certificate(code: LinearCode, sigma: SemiLinearMap | None, h: int, cert) -> bool:
    """True when cert = (c, Y, N) proves dim(C cap (sigma(C))^perp) = h.

    G equal to I_k at the code's pivots has rank k, so the hull, the words
    y G with y M = 0, has dimension k - rank M for M = G sigma(G)^T.  With
    r = k - h columns c, M = M[:, c] Y gives rank M <= r and N M[:, c] = I_r
    gives rank M >= r.  Y must carry I_r at c, as an RREF does, which also
    makes the columns distinct, so only M's other columns take a product."""
    if sigma is not None:
        _check_pair(code, sigma)
    F, G, k = code.field, code.gen, code.k
    c, Y, N = (np.asarray(part) for part in cert)
    r = k - h
    if not (0 <= r <= k and c.shape == (r,) and (c.dtype.kind in "iu" or not r) and np.all((0 <= c) & (c < k))):
        return False
    c, eye = c.astype(np.intp), np.eye(r, dtype=np.int16)
    if not (_is_matrix(Y, (r, k), F.q) and _is_matrix(N, (r, k), F.q) and np.array_equal(Y[:, c], eye)):
        return False
    if not np.array_equal(G[:, code.pivots], np.eye(k, dtype=np.int16)):
        return False
    # so the pivot columns add H[:, pivots]^T to M = G H^T, H = sigma(G)
    H, free = (G if sigma is None else sigma.apply(G)), np.ones(code.n, dtype=bool)
    free[code.pivots] = False
    M = F.add(H[:, code.pivots].T, _product(F, G[:, free], H[:, free].T))
    Mc, rest = M[:, c], np.ones(k, dtype=bool)
    rest[c] = False
    return np.array_equal(_product(F, Mc, Y[:, rest]), M[:, rest]) and np.array_equal(_product(F, N, Mc), eye)


SIGMA_FAMILIES = ("diagonal-lambda", "cyclic-pi2", "permutation-sample")

# full enumeration of S_n is feasible up to 7! = 5040 candidates; past
# that, the reversal and then this many seeded random permutations
_PERM_EXHAUST_LIMIT = 7
_PERM_SAMPLE = 2000
_PERM_SEED = 0xA5


def exhaustive_sigma_search(code: LinearCode, family: str = "permutation-sample") -> SemiLinearMap | None:
    """First map in a deterministic family order making the code
    complementary-dual, or None once the family is exhausted.

    Families (identity always tried first):
      "diagonal-lambda"    scale a coordinate prefix by a constant != 0, 1
      "cyclic-pi2"         rotate a coordinate window starting at 0
      "permutation-sample" every permutation for n <= 7, seeded samples after
    """
    F, n = code.field, code.n

    def candidates():
        yield SemiLinearMap.identity(F, n)
        if family == "diagonal-lambda":
            for t in range(1, n + 1):
                for lam in range(2, F.q):
                    diag = np.ones(n, dtype=np.int16)
                    diag[:t] = lam
                    yield SemiLinearMap(F, diag=diag)
        elif family == "cyclic-pi2":
            for w in range(2, n + 1):
                perm = np.arange(n, dtype=np.int32)
                perm[:w] = (np.arange(w) + 1) % w
                yield SemiLinearMap.permutation(F, perm)
        else:
            if n <= _PERM_EXHAUST_LIMIT:
                for p in itertools.permutations(range(n)):
                    yield SemiLinearMap.permutation(F, np.asarray(p, dtype=np.int32))
            else:
                rng = np.random.default_rng(_PERM_SEED)
                yield SemiLinearMap.reversal(F, n)
                for _ in range(_PERM_SAMPLE):
                    perm = rng.permutation(n).astype(np.int32)
                    yield SemiLinearMap.permutation(F, perm)

    if family not in SIGMA_FAMILIES:
        raise BadInput(f"unknown family {family!r}")
    for cand in candidates():
        if brute_hull_dim(code, cand) == 0:
            return cand
    return None
