"""Linear codes and semi-linear coordinate maps.

A LinearCode stores its canonical reduced-row-echelon generator matrix.  A
SemiLinearMap acts as permutation after diagonal scaling after entrywise
Frobenius; for such a map the twisted product <w, c>_sigma = <w, sigma(c)>
defines the sigma-dual (sigma(C))^perp, the sigma-hull C cap C^perp_sigma,
and the complementary-dual (hull zero) property.  Every hull comes from
one Gram product: rowspace(G) cap rowspace(H)^perp is {y G : y G H^T = 0},
so its dimension is k - rank(G H^T) and its basis the kernel of H G^T
times G, with H = sigma(G) for the sigma-hull.  `hull_certificate` adds a
witness of that rank which `oracle.check_hull_certificate` checks with
products alone.

Membership needs no elimination: G is in RREF with an identity at its pivot
columns, so a word v lies in C exactly when v = v[pivots] G.
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
        R, self.pivots = linalg.rref(field, self._rows([] if rows is None else rows))
        self.gen = R[: len(self.pivots)]

    def _rows(self, rows) -> np.ndarray:
        """rows as a matrix of length-n words with entries in 0..q-1."""
        M = linalg.as_matrix(rows, self.n)
        if M.size and (M.min() < 0 or M.max() >= self.field.q):
            raise BadInput(f"entries must be encodings in 0..{self.field.q - 1}")
        return M

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def dual(self) -> "LinearCode":
        return LinearCode(self.field, self.n, linalg.nullspace(self.field, self.gen))

    def contains_rows(self, V) -> bool:
        """Every row v of V lies in C: v = v[pivots] G, one product."""
        V = self._rows(V)
        return np.array_equal(linalg.mat_mul(self.field, V[:, self.pivots], self.gen), V)

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
            perm = linalg.narrow(perm, np.int32).copy()  # copies: no later edit outdates is_permutation
            n = perm.shape[0]
        if diag is not None:
            diag = linalg.narrow(diag).copy()
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
        self.is_permutation = self.frob == 0 and bool(np.all(self.diag == 1))

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
    def is_monomial(self) -> bool:
        return self.frob == 0

    def apply(self, v) -> np.ndarray:
        """sigma(v) on a word or on rows: Frobenius, the diagonal gather, the
        column scatter; a pure permutation, fixed at construction, scatters."""
        v = np.asarray(v, dtype=np.int16)
        if v.shape[-1] != self.n:
            raise BadInput(f"vector length {v.shape[-1]}, map length {self.n}")
        w = v
        if not self.is_permutation:
            w = self.field.mul(self.diag, self.field.frob(v, self.frob) if self.frob else v)
        out = np.empty_like(w)
        out[..., self.perm] = w
        return out

    def __call__(self, v):
        return self.apply(v)

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
    """Image code sigma(C), spanned by sigma(G): a semi-linear bijection
    keeps both linearity and dimension."""
    return LinearCode(code.field, code.n, _image_rows(code, sigma))


def sigma_dual(code: LinearCode, sigma: SemiLinearMap | None = None) -> LinearCode:
    """(sigma(C))^perp; Euclidean dual when sigma is None."""
    return LinearCode(code.field, code.n, linalg.nullspace(code.field, _image_rows(code, sigma)))


def _image_rows(code: LinearCode, sigma: SemiLinearMap | None) -> np.ndarray:
    """sigma(G), rows spanning sigma(C); G itself when sigma is None."""
    if sigma is None:
        return code.gen
    _check_pair(code, sigma)
    return sigma.apply(code.gen)


def _meet_dual(F: Field, G: np.ndarray, H: np.ndarray):
    """Canonical basis of rowspace(G) cap rowspace(H)^perp, G of full row
    rank: the words y G with y (G H^T) = 0, in RREF, and its pivots."""
    R, piv = linalg.rref(F, linalg.mat_mul(F, linalg.nullspace(F, linalg.mat_mul(F, H, G.T)), G))
    return R[: len(piv)], piv


def gram(code: LinearCode, sigma: SemiLinearMap | None = None) -> np.ndarray:
    return linalg.mat_mul(code.field, code.gen, _image_rows(code, sigma).T)


def hull_dim(code: LinearCode, sigma: SemiLinearMap | None = None) -> int:
    """dim(C cap C^perp_sigma) = k - rank(G (G^sigma)^T)."""
    return code.k - linalg.rank(code.field, gram(code, sigma))


def hull_certificate(code: LinearCode, sigma: SemiLinearMap | None = None):
    """dim Hull_sigma(C) = h with a witness (c, Y, N) that rank M = k - h,
    M = G (G^sigma)^T, from one RREF R of [M | I_k]: c is M's pivot
    columns, Y = R[:r, :k] and N = R[:r, k:] with r = |c|, so that
    M = M[:, c] Y (rank M <= r) and N M[:, c] = I_r (rank M >= r)."""
    M = gram(code, sigma)
    k = code.k
    R, piv = linalg.rref(code.field, np.hstack([M, np.eye(k, dtype=np.int16)]))
    c = [j for j in piv if j < k]
    r = len(c)
    return k - r, (c, R[:r, :k], R[:r, k:])


def hull_basis(code: LinearCode, sigma: SemiLinearMap | None = None) -> np.ndarray:
    return _meet_dual(code.field, code.gen, _image_rows(code, sigma))[0]


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
    hull, piv = _meet_dual(F, code.gen, code.gen)
    h = hull.shape[0]
    if h == 0:
        return SemiLinearMap.identity(F, n), code.gen.copy(), 0
    cols_order = linalg.pivots_first(n, piv)
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
    """Map carrying the code to a complementary-dual one, read off the hull.

    C is sigma-LCD exactly when (C, (sigma(C))^perp) is a complementary
    pair, so this is the LCP construction with C1 = C2 = C.
    q > 2: sigma scales the pivot coordinates of the Euclidean hull's RREF
    basis by 2, the least encoding outside {0, 1}; output is the original
    code.  The Gram matrix of the hull rows becomes (lambda - 1) I, lambda
    the element encoded 2, and a complement of the hull vanishing on those
    pivots keeps its nonsingular Gram matrix.
    q = 2: output is {0} x C of length n+1 and sigma is the pure
    permutation _lcp_candidates_binary constructs for the pair (C, C).
    """
    F = code.field
    if F.q > 2:
        diag = np.ones(code.n, dtype=np.int16)
        diag[_meet_dual(F, code.gen, code.gen)[1]] = 2
        sigma, out = SemiLinearMap.diagonal(F, diag), code
    else:
        (sigma,) = _lcp_candidates_binary(F, code, code)
        out = code.prepend_zero()
    if hull_dim(out, sigma) != 0:
        raise SigmaLcdError("constructed map failed the complementary-dual check")
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


def _aligned_perm(c1: LinearCode, c2: LinearCode):
    """Stable permutation sending pivot columns of c2 onto pivot columns of
    c1 and non-pivots onto non-pivots, preserving order; and c2's pivots."""
    n, piv2 = c1.n, c2.pivots
    perm = np.empty(n, dtype=np.int32)
    perm[linalg.pivots_first(n, piv2)] = linalg.pivots_first(n, c1.pivots)
    return perm, piv2


def _lcp_candidates_big_q(F: Field, c1: LinearCode, c2: LinearCode):
    """One map, constructed: sigma = perm o diag with the aligned perm,
    G1 sigma(G2)^T = G1[:, perm] D G2^T = S + Lambda, S = G1[:, perm] G2^T - I
    and Lambda = diag(lambda_t) read at G2's pivots (both carry I there).
    Eliminating S + Lambda row by row, pivot t is s_t + lambda_t where s_t
    depends on earlier lambdas only, so the least nonzero lambda_t with
    s_t + lambda_t != 0 leaves every pivot nonzero (q > 2 leaves a choice)."""
    n, k = c1.n, c1.k
    perm, piv = _aligned_perm(c1, c2)
    M = F.sub(linalg.mat_mul(F, c1.gen[:, perm], c2.gen.T), np.eye(k, dtype=np.int16))
    diag = np.ones(n, dtype=np.int16)
    for t in range(k):
        lam = 1 if F.add(M[t, t], 1) else 2
        M[t, t] = F.add(M[t, t], lam)
        below = F.div(M[t + 1 :, t], M[t, t])
        M[t + 1 :] = F.sub(M[t + 1 :], F.mul(below[:, None], M[t]))
        diag[piv[t]] = lam
    yield SemiLinearMap(F, perm=perm, diag=diag)


def _lcp_candidates_binary(F: Field, c1: LinearCode, c2: LinearCode):
    """One pure permutation of the n + 1 coordinates of A = [0 | G1] and
    B = [0 | G2], constructed: M = A[:, perm] B^T starts at the identity,
    and while M is singular, with Y and Z spanning {y : y M = 0} and
    {z : M z = 0}, perm[c] and perm[d] swap for some c, d whose signatures
    alpha = Y A[:, perm] and beta = Z B differ at both.  The swap adds
    u v^T = (a_x + a_y)(b_c + b_d)^T, x, y = perm[c], perm[d], with u
    outside col M and v outside row M, so the rank rises by one: at most k
    swaps.  Column 0 of A and B is zero, so neither signature is constant:
    c with beta_c != 0 has such a partner d, or else every d with alpha_d
    != alpha_c has beta_d = beta_c, and any one of them pairs with column 0."""
    A, B = (np.pad(c.gen, ((0, 0), (1, 0))) for c in (c1, c2))
    perm = np.arange(c1.n + 1, dtype=np.int32)
    while True:
        Ap = A[:, perm]
        M = linalg.mat_mul(F, Ap, B.T)
        Z = linalg.nullspace(F, M)
        if not Z.shape[0]:
            break
        alpha = linalg.mat_mul(F, linalg.nullspace(F, M.T), Ap)
        beta = linalg.mat_mul(F, Z, B)
        c = int(np.any(beta, axis=0).argmax())
        new_a = np.any(alpha != alpha[:, [c]], axis=0)
        both = new_a & np.any(beta != beta[:, [c]], axis=0)
        c, d = (c, int(both.argmax())) if both.any() else (int(new_a.argmax()), 0)
        perm[[c, d]] = perm[[d, c]]
    yield SemiLinearMap.permutation(F, perm)


def build_lcp(c1: LinearCode, c2: LinearCode, budget: int = DEFAULT_MAX_WORDS) -> LcpPair:
    """Linear complementary pair from two same-dimension codes: (a,
    (sigma(b))^perp) with sigma the one map a construction gives, no search.
    For q > 2, (a, b) = (c1, c2) and _lcp_candidates_big_q gives a monomial
    sigma; for q = 2, a and b are c1 and c2 extended by a zero coordinate and
    _lcp_candidates_binary gives a pure permutation of length n + 1.
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
        (sigma,) = _lcp_candidates_big_q(F, c1, c2)
    else:
        a, b = c1.prepend_zero(), c2.prepend_zero()
        (sigma,) = _lcp_candidates_binary(F, c1, c2)
    second = sigma_dual(b, sigma)
    if linalg.sum_dim(F, a.gen, second.gen) != a.n:
        raise SigmaLcdError("constructed map failed the complementary-pair check")
    k = a.k
    d1 = brute_min_distance(a, budget) if 0 < k else None
    d2 = brute_min_distance(b, budget) if 0 < k else None
    return LcpPair(c1=a, c2=second, sigma=sigma, n=a.n, k=k, d1=d1, d2=d2)
