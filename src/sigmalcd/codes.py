"""Linear codes and semi-linear coordinate maps.

A LinearCode stores its canonical reduced-row-echelon generator matrix.  A
SemiLinearMap acts as permutation after diagonal scaling after entrywise
Frobenius; for such a map the twisted product <w, c>_sigma = <w, sigma(c)>
defines the sigma-dual (sigma(C))^perp, the sigma-hull C cap C^perp_sigma,
and the complementary-dual (hull zero) property.  Every hull comes from
one Gram product: rowspace(G) cap rowspace(H)^perp is {y G : y G H^T = 0},
so its dimension is k - rank(G H^T) and its basis the kernel of H G^T
times G, with H = sigma(G) for the sigma-hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadInput, SigmaLcdError
from .field import Field

# the most codewords an exact enumeration may visit: the oracle's default
# budget, and build_lcp's for the distances of the pair
DEFAULT_MAX_WORDS = 2**22


class LinearCode:
    """[n, k] linear code over a Field, canonicalized to RREF."""

    def __init__(self, field: Field, n: int, rows=None):
        self.field = field
        self.n = int(n)
        M = linalg.as_matrix([] if rows is None else rows, self.n)
        if M.size and (M.min() < 0 or M.max() >= field.q):
            raise BadInput(f"entries must be encodings in 0..{field.q - 1}")
        if M.shape[1] != self.n:
            raise BadInput(f"rows of length {M.shape[1]}, code length {self.n}")
        self.gen = linalg.row_space(field, M)

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def dual(self) -> "LinearCode":
        return LinearCode(self.field, self.n, linalg.nullspace(self.field, self.gen))

    def contains(self, v) -> bool:
        return linalg.sum_dim(self.field, self.gen, linalg.as_matrix(v, self.n)) == self.k

    def contains_code(self, other: "LinearCode") -> bool:
        return linalg.sum_dim(self.field, self.gen, other.gen) == self.k

    def prepend_zero(self) -> "LinearCode":
        z = np.zeros((self.k, 1), dtype=np.int16)
        return LinearCode(self.field, self.n + 1, np.hstack([z, self.gen]))

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.field == other.field
            and self.n == other.n
            and np.array_equal(self.gen, other.gen)
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen.tobytes()))

    def __repr__(self):
        return f"LinearCode({self.field}, n={self.n}, k={self.k})"


class SemiLinearMap:
    """Coordinate map v -> P(D(v^(p^s))): Frobenius, then scaling, then the
    permutation sending input coordinate i to output coordinate perm[i]."""

    def __init__(self, field: Field, perm=None, diag=None, frob: int = 0, n: int | None = None):
        self.field = field
        if perm is None and diag is None and n is None:
            raise BadInput("need perm, diag or n to fix the length")
        if perm is not None:
            perm = linalg.narrow(perm, np.int32)
            n = perm.shape[0]
        if diag is not None:
            diag = linalg.narrow(diag)
            n = diag.shape[0] if n is None else n
        self.n = int(n)
        self.perm = np.arange(self.n, dtype=np.int32) if perm is None else perm
        self.diag = np.ones(self.n, dtype=np.int16) if diag is None else diag
        if self.perm.shape != (self.n,) or sorted(self.perm.tolist()) != list(range(self.n)):
            raise BadInput("perm must be a permutation of 0..n-1")
        if self.diag.shape != (self.n,):
            raise BadInput("diag length differs from map length")
        if np.any(self.diag == 0) or np.any(self.diag >= field.q):
            raise BadInput("diag entries must be nonzero field encodings")
        self.frob = int(frob) % field.e

    @classmethod
    def identity(cls, field: Field, n: int) -> "SemiLinearMap":
        return cls(field, n=n)

    @classmethod
    def permutation(cls, field: Field, perm) -> "SemiLinearMap":
        return cls(field, perm=perm)

    @classmethod
    def diagonal(cls, field: Field, diag) -> "SemiLinearMap":
        return cls(field, diag=diag)

    @classmethod
    def reversal(cls, field: Field, n: int) -> "SemiLinearMap":
        return cls(field, perm=np.arange(n - 1, -1, -1))

    @classmethod
    def frobenius_map(cls, field: Field, n: int, s: int = 1) -> "SemiLinearMap":
        return cls(field, n=n, frob=s)

    @property
    def is_permutation(self) -> bool:
        return self.frob == 0 and bool(np.all(self.diag == 1))

    @property
    def is_monomial(self) -> bool:
        return self.frob == 0

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int16)
        if v.shape[-1] != self.n:
            raise BadInput(f"vector length {v.shape[-1]}, map length {self.n}")
        w = self.field.frob(v, self.frob) if self.frob else v
        w = np.asarray(self.field.mul(self.diag, w), dtype=np.int16)
        out = np.empty_like(w)
        out[..., self.perm] = w
        return out

    def __call__(self, v):
        return self.apply(v)

    def compose(self, other: "SemiLinearMap") -> "SemiLinearMap":
        """self after other."""
        if self.field != other.field or self.n != other.n:
            raise BadInput("cannot compose maps on different spaces")
        F = self.field
        perm = self.perm[other.perm]
        diag = F.mul(F.frob(other.diag, self.frob), self.diag[other.perm])
        return SemiLinearMap(F, perm=perm, diag=np.asarray(diag, dtype=np.int16),
                             frob=self.frob + other.frob)

    def inverse(self) -> "SemiLinearMap":
        F = self.field
        inv_perm = np.argsort(self.perm).astype(np.int32)
        s_inv = (-self.frob) % F.e
        d = np.empty(self.n, dtype=np.int16)
        d[self.perm] = F.inv(F.frob(self.diag, s_inv))
        return SemiLinearMap(F, perm=inv_perm, diag=d, frob=s_inv)

    def __eq__(self, other):
        if not isinstance(other, SemiLinearMap):
            return NotImplemented
        return (
            self.field == other.field
            and np.array_equal(self.perm, other.perm)
            and np.array_equal(self.diag, other.diag)
            and self.frob == other.frob
        )

    def __repr__(self):
        kind = "perm" if self.is_permutation else ("monomial" if self.is_monomial else "semilinear")
        return f"SemiLinearMap({self.field}, n={self.n}, {kind}, frob={self.frob})"


# ---------------------------------------------------------------------------


def _check_pair(code: LinearCode, sigma: SemiLinearMap):
    if code.field != sigma.field:
        raise BadInput("code and map over different fields")
    if code.n != sigma.n:
        raise BadInput(f"code length {code.n}, map length {sigma.n}")


def apply_sigma(sigma: SemiLinearMap, code: LinearCode) -> LinearCode:
    """Image code sigma(C); always linear for this map family (defensively
    verified when the Frobenius part is nontrivial)."""
    _check_pair(code, sigma)
    F = code.field
    M = sigma.apply(code.gen) if code.k else code.gen
    image = LinearCode(F, code.n, M)
    if sigma.frob % F.e and code.k:
        scaled = np.asarray(F.mul(F.generator, M), dtype=np.int16)
        if linalg.sum_dim(F, image.gen, scaled) != image.k:
            raise SigmaLcdError("image not closed under scalar multiplication")
    if image.k != code.k:
        raise SigmaLcdError("semi-linear image dropped rank")
    return image


def sigma_dual(code: LinearCode, sigma: SemiLinearMap | None = None) -> LinearCode:
    """(sigma(C))^perp; Euclidean dual when sigma is None."""
    if sigma is None:
        return code.dual()
    return apply_sigma(sigma, code).dual()


def _image_rows(code: LinearCode, sigma: SemiLinearMap | None) -> np.ndarray:
    """sigma(G), rows spanning sigma(C); G itself when sigma is None."""
    if sigma is None:
        return code.gen
    _check_pair(code, sigma)
    return sigma.apply(code.gen)


def _meet_dual(F: Field, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Canonical basis of rowspace(G) cap rowspace(H)^perp, G of full row
    rank: the words y G with y (G H^T) = 0."""
    return linalg.row_space(F, linalg.mat_mul(F, linalg.nullspace(F, linalg.mat_mul(F, H, G.T)), G))


def gram(code: LinearCode, sigma: SemiLinearMap | None = None) -> np.ndarray:
    return linalg.mat_mul(code.field, code.gen, _image_rows(code, sigma).T)


def hull_dim(code: LinearCode, sigma: SemiLinearMap | None = None) -> int:
    """dim(C cap C^perp_sigma) = k - rank(G (G^sigma)^T)."""
    return code.k - linalg.rank(code.field, gram(code, sigma))


def hull_basis(code: LinearCode, sigma: SemiLinearMap | None = None) -> np.ndarray:
    return _meet_dual(code.field, code.gen, _image_rows(code, sigma))


def is_sigma_lcd(code: LinearCode, sigma: SemiLinearMap | None = None) -> bool:
    return hull_dim(code, sigma) == 0


def is_sigma_self_orthogonal(code: LinearCode, sigma: SemiLinearMap | None = None) -> bool:
    return not np.any(gram(code, sigma))


def is_sigma_self_dual(code: LinearCode, sigma: SemiLinearMap | None = None) -> bool:
    return is_sigma_self_orthogonal(code, sigma) and 2 * code.k == code.n


def normalize_hull(code: LinearCode):
    """Permutation pi, generator [I_h A'; 0 A''] of pi(C) with the Euclidean
    hull spanned by the first h rows, and h itself."""
    F = code.field
    n = code.n
    hull = hull_basis(code, None)
    h = hull.shape[0]
    if h == 0:
        return SemiLinearMap.identity(F, n), code.gen.copy(), 0
    _, piv = linalg.rref(F, hull)
    others = [c for c in range(n) if c not in piv]
    cols_order = list(piv) + others
    perm = np.empty(n, dtype=np.int32)
    perm[cols_order] = np.arange(n)
    pi = SemiLinearMap.permutation(F, perm)
    hull_p = hull[:, cols_order]
    # hull_p = [I_h A'], so these words of pi(C) vanish on the first h
    # coordinates and span a complement of the hull
    G = code.gen[:, cols_order]
    tail = linalg.row_space(F, F.sub(G, linalg.mat_mul(F, G[:, :h], hull_p)))
    return pi, linalg.stack(hull_p, tail), h


def make_lcd_sigma(code: LinearCode):
    """Equivalence carrying the code to a complementary-dual one.

    q > 2: sigma = pi^-1 gamma pi with gamma scaling the h hull coordinates
    by the least encoding outside {0, 1}; output is the original code.
    q = 2: output is {0} x C of length n+1 and sigma is the pure permutation
    pi1^-1 pi2 pi1 rotating the prefix window of the hull coordinates.
    """
    F = code.field
    n = code.n
    if F.q > 2:
        pi, _, h = normalize_hull(code)
        if h == 0:
            return SemiLinearMap.identity(F, n), code
        diag = np.ones(n, dtype=np.int16)
        diag[:h] = 2
        gamma = SemiLinearMap.diagonal(F, diag)
        sigma = pi.inverse().compose(gamma).compose(pi)
        out = code
    else:
        out = code.prepend_zero()
        pi, _, h = normalize_hull(code)
        if h == 0:
            sigma = SemiLinearMap.identity(F, n + 1)
        else:
            perm1 = np.empty(n + 1, dtype=np.int32)
            perm1[0] = 0
            perm1[1:] = 1 + pi.perm
            pi1 = SemiLinearMap.permutation(F, perm1)
            perm2 = np.arange(n + 1, dtype=np.int32)
            perm2[0] = h
            perm2[1 : h + 1] = np.arange(h)
            pi2 = SemiLinearMap.permutation(F, perm2)
            sigma = pi1.inverse().compose(pi2).compose(pi1)
    if hull_dim(out, sigma) != 0:
        raise RuntimeError("constructed map failed the complementary-dual check")
    return sigma, out


@dataclass(frozen=True)
class LcpPair:
    """Complementary pair (c1, c2): c1 + c2 direct and all of F_q^n."""

    c1: LinearCode
    c2: LinearCode
    sigma: SemiLinearMap
    n: int
    k: int
    d1: int | None
    d2: int | None

    @property
    def params(self):
        return (self.n, self.k, self.d1, self.d2)


def _pair_rank(F: Field, G1: np.ndarray, G2s: np.ndarray) -> int:
    return linalg.rank(F, linalg.mat_mul(F, G1, G2s.T))


def _aligned_perm(F: Field, G1: np.ndarray, G2: np.ndarray, n: int) -> np.ndarray:
    """Stable permutation sending pivot columns of G2 onto pivot columns of
    G1 and non-pivots onto non-pivots, preserving order."""
    _, piv1 = linalg.rref(F, G1)
    _, piv2 = linalg.rref(F, G2)
    non1 = [c for c in range(n) if c not in piv1]
    non2 = [c for c in range(n) if c not in piv2]
    perm = np.empty(n, dtype=np.int32)
    for src, dst in zip(list(piv2) + non2, list(piv1) + non1):
        perm[src] = dst
    return perm


def _lcp_candidates_big_q(F: Field, c1: LinearCode, c2: LinearCode):
    n = c1.n
    yield SemiLinearMap.identity(F, n)
    rel = _meet_dual(F, c1.gen, c2.gen)
    if rel.shape[0]:
        _, piv = linalg.rref(F, rel)
        for lam in range(2, F.q):
            diag = np.ones(n, dtype=np.int16)
            diag[list(piv)] = lam
            yield SemiLinearMap.diagonal(F, diag)
    perm = _aligned_perm(F, c1.gen, c2.gen, n)
    base = q1 = F.q - 1
    for count in range(q1**n):
        diag = np.empty(n, dtype=np.int16)
        c = count
        for i in range(n):
            diag[i] = 1 + c % base
            c //= base
        yield SemiLinearMap(F, perm=perm, diag=diag)


def _lcp_candidates_binary(F: Field, c1: LinearCode, c2: LinearCode, sample: int = 20000):
    n = c1.n
    N = n + 1
    yield SemiLinearMap.identity(F, N)

    def window_maps(pi1: SemiLinearMap):
        inv1 = pi1.inverse()
        for j in range(1, N):
            for r in range(1, j + 1):
                perm2 = np.arange(N, dtype=np.int32)
                # rotate window {0..j} left by r: out position i gets input i+r
                w = j + 1
                perm2[: w] = (np.arange(w) - r) % w
                yield inv1.compose(SemiLinearMap.permutation(F, perm2)).compose(pi1)

    variants = [np.arange(N, dtype=np.int32)]
    for rel in (_meet_dual(F, c1.gen, c2.gen), _meet_dual(F, c2.gen, c1.gen)):
        if rel.shape[0]:
            _, piv = linalg.rref(F, rel)
            others = [c for c in range(n) if c not in piv]
            perm = np.empty(n, dtype=np.int32)
            perm[list(piv) + others] = np.arange(n)
            p1 = np.empty(N, dtype=np.int32)
            p1[0] = 0
            p1[1:] = 1 + perm
            variants.append(p1)
    for p1 in variants:
        yield from window_maps(SemiLinearMap.permutation(F, p1))
    for t in range(1, N):
        perm = np.arange(N, dtype=np.int32)
        perm[[0, t]] = perm[[t, 0]]
        yield SemiLinearMap.permutation(F, perm)
    rng = np.random.default_rng(0xC0DE)
    for _ in range(sample):
        yield SemiLinearMap.permutation(F, rng.permutation(N).astype(np.int32))


def build_lcp(c1: LinearCode, c2: LinearCode, budget: int = DEFAULT_MAX_WORDS) -> LcpPair:
    """Linear complementary pair from two same-dimension codes.

    For q > 2 the pair is (c1, (sigma(c2))^perp) with sigma monomial; for
    q = 2 both codes are first extended by a zero coordinate and sigma is a
    pure permutation of length n+1.
    """
    from .oracle import brute_min_distance

    if c1.field != c2.field:
        raise BadInput("codes over different fields")
    if c1.n != c2.n:
        raise BadInput(f"lengths differ: {c1.n} vs {c2.n}")
    if c1.k != c2.k:
        raise BadInput(f"dimensions differ: {c1.k} vs {c2.k}")
    F = c1.field
    if F.q > 2:
        a, b = c1, c2
        candidates = _lcp_candidates_big_q(F, c1, c2)
    else:
        a, b = c1.prepend_zero(), c2.prepend_zero()
        candidates = _lcp_candidates_binary(F, c1, c2)
    k = a.k
    sigma = None
    for cand in candidates:
        if _pair_rank(F, a.gen, cand.apply(b.gen) if b.k else b.gen) == k:
            sigma = cand
            break
    if sigma is None:
        raise RuntimeError("no complementary map found in the documented family")
    second = sigma_dual(b, sigma)
    assert linalg.sum_dim(F, a.gen, second.gen) == a.n, "pair must span the space"
    d1 = brute_min_distance(a, budget) if 0 < k else None
    d2 = brute_min_distance(b, budget) if 0 < k else None
    return LcpPair(c1=a, c2=second, sigma=sigma, n=a.n, k=k, d1=d1, d2=d2)
