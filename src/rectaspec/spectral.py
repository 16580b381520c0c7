"""Exact spectral certificates and arithmetic feasibility filters.

A certificate is only issued after the defining polynomial identity has been
verified entry-for-entry in integer arithmetic (A^2 = t*I, A^3 = t*A, or
(A^2 - t1*I)(A^2 - t2*I) = 0), A^2 being the graph's cached ``square``.
No floating eigensolver runs here; the tests compare the certificates with
numpy's eigenvalues on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .core import SignedGraph, StructureError, _check_counts, _codegrees
from .exactlinalg import charpoly, exact_matmul


@dataclass(frozen=True)
class Refusal:
    """A certificate request that failed, with the reason and a witness."""

    reason: str
    witness: tuple[int, int, int] | None = None  # (row, col, offending value)

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SpectralCertificate:
    kind: str  # "TwoSym" | "ThreeSym" | "FourSym"
    lambda_sq: int
    m: int
    mu_sq: int | None = None  # FourSym only
    d: int | None = None  # ThreeSym nullity

    def __bool__(self):
        return True


def _first_violation(diff: np.ndarray) -> tuple[int, int, int]:
    rows, cols = np.nonzero(diff)
    i, j = int(rows[0]), int(cols[0])
    return (i, j, int(diff[i, j]))


def certify_two_sym(g: SignedGraph):
    """Certificate that the spectrum is exactly {-sqrt(r), +sqrt(r)}.

    Holds iff A^2 = r*I with r the (common) vertex degree; a non-regular
    graph is refused outright since the identity forces regularity.
    """
    degs = set(g.degrees)
    if len(degs) > 1:
        return Refusal("not regular: a two-eigenvalue symmetric spectrum forces "
                       f"a constant degree, found degrees {sorted(degs)}")
    r = g.degrees[0]
    if r == 0:
        return Refusal("degree 0: the spectrum {0} has one eigenvalue, not two")
    sq = g.square
    target = r * np.eye(g.n, dtype=np.int64)
    if not np.array_equal(sq, target):
        return Refusal("A^2 != r*I", witness=_first_violation(sq - target))
    return SpectralCertificate(kind="TwoSym", lambda_sq=r, m=g.n // 2)


def certify_three_sym(g: SignedGraph):
    """Certificate for spectrum {[-lam]^m, [0]^d, [lam]^m} with d >= 1.

    The unique candidate lam^2 is tr(A^4)/tr(A^2); the certificate is issued
    only if A^3 = lam^2 * A holds exactly and A^2 != lam^2 * I.  The identity
    leaves the eigenvalues 0 and +-lam, and tr A = 0 splits +-lam evenly, so
    tr(A^2) = 2*m*lam^2 fixes m and d = n - 2m.  tr(A^4) is the sum of
    the squared entries of the symmetric A^2, so it costs no second product.
    """
    sq = g.square
    t2, t4 = int(np.trace(sq)), int((sq * sq).sum())
    if t2 == 0:
        return Refusal("empty graph: no nonzero eigenvalue pair")
    if t4 % t2:
        return Refusal(f"tr(A^4)/tr(A^2) = {t4}/{t2} is not an integer")
    lam_sq = t4 // t2
    a = np.asarray(g.adj, dtype=np.int64)  # lam^2 * A overflows int8 from 128
    diff = exact_matmul(sq, a) - lam_sq * a
    if np.any(diff):
        return Refusal(f"A^3 != {lam_sq}*A", witness=_first_violation(diff))
    if np.array_equal(sq, lam_sq * np.eye(g.n, dtype=np.int64)):
        return Refusal("A^2 = lam^2*I: two eigenvalues, not three")
    m = t2 // (2 * lam_sq)
    return SpectralCertificate(kind="ThreeSym", lambda_sq=lam_sq, m=m,
                               d=g.n - 2 * m)


def certify_four_sym(g: SignedGraph):
    """Certificate for spectrum {[-lam]^m, [-mu]^1, [mu]^1, [lam]^m}, 1 <= mu < lam.

    lam^2 and mu^2 are recovered from tr(A^2), tr(A^4) and n, then the
    identity (A^2 - lam^2 I)(A^2 - mu^2 I) = 0 is verified.  It fixes the
    multiplicities: if lam^2 has multiplicity k in A^2, then
    k*lam^2 + (n - k)*mu^2 = tr(A^2) = 2*m*lam^2 + 2*mu^2 forces k = 2m, and
    tr A = 0 splits each pair +-lam, +-mu evenly.
    """
    n = g.n
    if n < 4 or n % 2:
        return Refusal(f"order {n} cannot carry the four-eigenvalue shape")
    m = (n - 2) // 2
    sq = g.square
    # tr A^2 = 2|E| and tr A^4 = sum deg^2 + an even part, so both are even
    s, t = int(np.trace(sq)) // 2, int((sq * sq).sum()) // 2
    # m*lam^2 + mu^2 = s and m*lam^4 + mu^4 = t give a quadratic for lam^2.
    aa = m * m + m
    bb = -2 * s * m
    cc = s * s - t
    # disc = m*(n*tr A^4 - (tr A^2)^2) >= 0 by Cauchy-Schwarz on the eigenvalues
    disc = bb * bb - 4 * aa * cc
    root = isqrt(disc)
    if root * root != disc:
        return Refusal("no integer eigenvalue pair fits the trace moments")
    for sign in (1, -1):
        num = -bb + sign * root
        if num % (2 * aa):
            continue
        lam_sq = num // (2 * aa)
        mu_sq = s - m * lam_sq
        if not (1 <= mu_sq < lam_sq):
            continue
        prod = exact_matmul(sq - lam_sq * np.eye(n, dtype=np.int64),
                            sq - mu_sq * np.eye(n, dtype=np.int64))
        if np.any(prod):
            continue
        return SpectralCertificate(kind="FourSym", lambda_sq=lam_sq, m=m,
                                   mu_sq=mu_sq)
    return Refusal("no integer pair lam^2 > mu^2 >= 1 satisfies the identities")


def strongest_certificate(g: SignedGraph):
    """TwoSym, ThreeSym or FourSym certificate, else None; the three share
    the one A^2 of ``g.square``."""
    for fn in (certify_two_sym, certify_three_sym, certify_four_sym):
        cert = fn(g)
        if cert:
            return cert
    return None


def char_poly(g: SignedGraph) -> list[int]:
    """Exact characteristic polynomial of the signed adjacency matrix."""
    return charpoly(g.adj)


def sum_of_two_squares(k: int) -> bool:
    """True iff k = a^2 + b^2 for some integers a, b >= 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    for a in range(isqrt(k) + 1):
        b = k - a * a
        r = isqrt(b)
        if r * r == b:
            return True
    return False


@dataclass(frozen=True)
class FilterVerdict:
    passed: bool
    failures: tuple[str, ...]

    def __bool__(self):
        return self.passed


def filter_sr2se(n: int, r: int, bipartite: bool = False) -> FilterVerdict:
    """Arithmetic necessary conditions for a connected (n, r) signed
    rectagraph with spectrum {-sqrt(r), +sqrt(r)} to exist.

    The "bound" conditions include Mulder's: a connected (0,2)-graph of
    valency r has at most 2^r vertices, with equality only for the r-cube
    (Mulder, (0,lambda)-graphs and n-cubes, Discrete Math. 1979).  Violated
    condition names are collected rather than short-circuited, so a verdict
    lists everything wrong with the parameter pair.
    """
    n, r = _check_counts(None, n=n, r=r)
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    failures = []
    if not comb(r + 1, 2) + 1 <= n <= 2 ** r:
        failures.append("bound")
    if (n * comb(r, 2)) % 4:
        failures.append("quadrangle-integrality")
    if n % 4 == 2:
        if not sum_of_two_squares(r):
            failures.append("sum-of-two-squares")
        if (r * (r - 1)) % 4:
            failures.append("mod-4")
    if bipartite:
        if n % 2:
            failures.append("bound")  # bipartite regular needs equal sides
        else:
            half = n // 2
            if half < comb(r, 2) + 1:
                failures.append("bound")
            if half % 2 == 1:
                if isqrt(r) ** 2 != r:
                    failures.append("square")
                if half > (half - r) ** 2 + (half - r) + 1:
                    failures.append("bound")
                if (r * (r - 1)) % 4:
                    failures.append("mod-4")
            elif half % 4 == 2 and not sum_of_two_squares(r):
                failures.append("sum-of-two-squares")
    seen = tuple(dict.fromkeys(failures))
    return FilterVerdict(passed=not seen, failures=seen)


def trace_identities(g: SignedGraph) -> tuple[int, int, int]:
    """(tr A_G^3, tr A_G^4, n*r*(3r-2)) for the underlying graph.

    The last value is what tr(A_G^4) must equal when the graph underlies a
    two-eigenvalue signed rectagraph; tr(A_G^3) must then vanish.
    """
    if len(set(g.degrees)) != 1:
        raise StructureError("trace identities need a regular graph")
    r = g.degrees[0]
    sq = _codegrees(g)
    # tr(A^2 A) sums the symmetric A^2 over the edges of A
    t3 = int(sq[g.adj != 0].sum())
    t4 = int((sq * sq).sum())
    return t3, t4, g.n * r * (3 * r - 2)
