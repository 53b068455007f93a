"""Brute-force ground truth, kept independent of the formula-based routes.

Everything here works by explicit enumeration or explicit subspace
intersection so it can cross-check the rank shortcuts elsewhere in the
package.  The minimum distance and the weight distribution visit all q^k
codewords through two span tables built from the generator rows: every
word is one low-table word plus one high-table word, so its weight takes
one elementwise pass over two table words (an XOR and a popcount of
bit-packed words on GF(2)), and the enumeration never calls linalg.  The
minimum distance is one min over the weights of message indices 1..q^k-1,
on one thread: the table walk is many short numpy calls, so threads only
contend for the interpreter lock.  `enumerate_codewords` is the slow
reference walk.  Every enumeration first checks q^k against a budget of
codewords and raises BudgetExceeded beyond it.

The hull and intersection dimensions call no linalg either: they eliminate
with `_gauss_jordan`, the plain per-column loop, on sigma(C)'s rows from
SemiLinearMap.apply, and build no LinearCode for sigma(C) or its dual.
"""

from __future__ import annotations

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


# cells of the low span table: n x q^a int16 entries, or on GF(2)
# ceil(n/64) x 2^a uint64 words, so the table and the temporaries built from
# it stay in cache (at most 128 KiB of int16 or 512 KiB of uint64) whatever k is.
_BLOCK_ENTRIES = 1 << 16


class _Spans:
    """The weights of all q^k codewords, by message index.

    The low table spans the first a generator rows and the high table the
    rest, so message index low + q^a * high (base-q digits, least
    significant first) is the word low_table[low] + high_table[high].  Each
    table is built by doubling: a row appends, for each nonzero multiple of
    it, the table so far plus that multiple.

    GF(2) words are bit-packed into uint64, so a sum is an XOR and a weight
    a popcount.  On other fields a weight counts the coordinates where the
    two table words differ: the weight of low - high, the word with the
    same low digits and negated high digits.  Over the whole index range
    that still visits every codeword once, and index 0 is still the zero
    word.  The low table holds one word per column, so weights sum over its
    first axis.  Only field adds and multiples build the tables, never
    linalg."""

    def __init__(self, F, G):
        q, (k, n) = F.q, G.shape
        if q == 2:
            bits = np.zeros((k, -(-n // 64) * 64), dtype=np.uint8)
            bits[:, :n] = G
            rows = np.packbits(bits, axis=1).view(np.uint64)
            add, multiples = np.bitwise_xor, lambda row: [row]
            self._differ = lambda low, high: np.bitwise_count(low ^ high)
        else:
            rows = G
            add, multiples = F.add, lambda row: [F.mul(c, row) for c in range(1, q)]
            self._differ = np.not_equal
        width = rows.shape[1]
        a = 0
        while a < k and q ** (a + 1) * width <= _BLOCK_ENTRIES:
            a += 1
        self._size = q**a
        self._weight_type = np.min_scalar_type(n)  # the narrowest uint holding n

        def span(rs):  # one word per column
            table = np.zeros((width, 1), dtype=rows.dtype)
            for row in rs:
                table = np.concatenate([table] + [add(table, m[:, None]) for m in multiples(row)], axis=1)
            return table

        self._low, self._high = span(rows[:a]), np.ascontiguousarray(span(rows[a:]).T)

    def weights(self, lo: int, hi: int):
        """The weights of the words of message indices lo..hi-1, one array
        per high index the range meets."""
        L = self._size
        for h in range(lo // L, (hi - 1) // L + 1):
            low = self._low[:, max(lo - h * L, 0) : min(hi - h * L, L)]
            yield self._differ(low, self._high[h][:, None]).sum(axis=0, dtype=self._weight_type)


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
    free = [c for c in range(M.shape[1]) if c not in piv]
    B = np.zeros((len(free), M.shape[1]), dtype=np.int16)
    B[np.arange(len(free)), free] = 1
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


SIGMA_FAMILIES = ("diagonal-lambda", "cyclic-pi2", "permutation-sample")

# full enumeration of S_n is feasible up to 7! = 5040 candidates
_PERM_EXHAUST_LIMIT = 7


def exhaustive_sigma_search(
    code: LinearCode,
    family: str = "permutation-sample",
    sample: int = 2000,
    seed: int = 0xA5,
) -> SemiLinearMap | None:
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
                rng = np.random.default_rng(seed)
                yield SemiLinearMap.reversal(F, n)
                for _ in range(sample):
                    perm = rng.permutation(n).astype(np.int32)
                    yield SemiLinearMap.permutation(F, perm)

    if family not in SIGMA_FAMILIES:
        raise BadInput(f"unknown family {family!r}")
    for cand in candidates():
        if brute_hull_dim(code, cand) == 0:
            return cand
    return None
