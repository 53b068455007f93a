"""Brute-force ground truth, kept independent of the formula-based routes.

Everything here works by explicit enumeration or explicit subspace
intersection so it can cross-check the rank shortcuts elsewhere in the
package.  Results are deterministic; --jobs style parallelism only splits
the enumeration into chunks whose min-reduction is order independent.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import LinearCode, SemiLinearMap, sigma_dual
from .errors import BudgetExceeded, FieldMismatch, LengthMismatch, NoNonzeroWords

DEFAULT_MAX_WORDS = 2**22


@dataclass(frozen=True)
class EnumerationBudget:
    max_words: int = DEFAULT_MAX_WORDS


def _check_budget(code: LinearCode, budget: EnumerationBudget | None) -> int:
    budget = budget or EnumerationBudget()
    total = code.field.q**code.k
    if total > budget.max_words:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget.max_words}")
    return total


def enumerate_codewords(code: LinearCode, budget: EnumerationBudget | None = None):
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


# entries of one block's k x n product cube: its int16 temporaries take at
# most 128 KiB, so they stay in cache and the allocator hands the same heap
# memory back block after block.  A cube per 2^16-word chunk would take tens
# of MB per temporary, mapped and faulted in afresh for every chunk, at a cost
# that moves with whether the kernel backs it with huge pages.
_BLOCK_ENTRIES = 1 << 16


def _word_blocks(F, G, lo: int, hi: int):
    """The codewords of message indices lo..hi-1 (base-q digits, least
    significant first), in blocks of rows."""
    q, (k, n) = F.q, G.shape
    powers = q ** np.arange(k, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, k * n))
    for start in range(lo, hi, step):
        idx = np.arange(start, min(start + step, hi), dtype=np.int64)
        digits = (idx[:, None] // powers % q).astype(np.int16)
        yield np.asarray(F.sum(F.mul(digits[:, :, None], G[None, :, :]), axis=1), dtype=np.int16)


def _chunk_min_weight(F, G, lo: int, hi: int) -> int:
    return min(int(np.count_nonzero(words, axis=1).min()) for words in _word_blocks(F, G, lo, hi))


def brute_min_distance(
    code: LinearCode,
    budget: EnumerationBudget | None = None,
    jobs: int | None = 1,
    chunk: int = 1 << 16,
) -> int:
    """Exact minimum Hamming weight over all nonzero codewords."""
    total = _check_budget(code, budget)
    if code.k == 0:
        raise NoNonzeroWords("zero code has no nonzero words")
    F, G = code.field, code.gen
    jobs = jobs or 1
    ranges = [(lo, min(lo + chunk, total)) for lo in range(1, total, chunk)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            mins = list(pool.map(lambda r: _chunk_min_weight(F, G, *r), ranges))
    else:
        mins = [_chunk_min_weight(F, G, lo, hi) for lo, hi in ranges]
    return min(mins)


def weight_distribution(code: LinearCode, budget: EnumerationBudget | None = None) -> np.ndarray:
    total = _check_budget(code, budget)
    F, G = code.field, code.gen
    out = np.zeros(code.n + 1, dtype=np.int64)
    for words in _word_blocks(F, G, 0, total):
        out += np.bincount(np.count_nonzero(words, axis=1), minlength=code.n + 1)
    return out


def brute_intersection_dim(c1: LinearCode, c2: LinearCode) -> int:
    """dim(C1 cap C2) via stacked-nullspace subspace arithmetic."""
    if c1.field != c2.field:
        raise FieldMismatch("codes must share their field")
    if c1.n != c2.n:
        raise LengthMismatch(f"codes of lengths {c1.n} and {c2.n}")
    return linalg.intersection(c1.field, c1.gen, c2.gen).shape[0]


def brute_hull_dim(code: LinearCode, sigma: SemiLinearMap | None = None) -> int:
    """dim(C cap (sigma(C))^perp) by explicit intersection, no rank formula."""
    return brute_intersection_dim(code, sigma_dual(code, sigma))


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
        raise ValueError(f"unknown family {family!r}")
    for cand in candidates():
        if brute_hull_dim(code, cand) == 0:
            return cand
    return None
