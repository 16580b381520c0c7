"""Exact integer linear algebra: characteristic polynomials, ranks, exact products.

Everything in here is tolerance-free.  Matrix products use float64 BLAS only
inside a proven-exact range (entries and all partial sums stay far below
2**53, so no rounding can occur) and are converted back to int64; products
that could leave the int64 range are taken over Python integers; elimination
routines are fraction-free over the integers.
"""

from __future__ import annotations

import numpy as np

# float64 holds every integer of magnitude < 2**53 exactly; a product of two
# matrices with |entries| <= b has |partial sums| <= n*b*b, so BLAS is exact
# whenever n*b*b < 2**53, and int64 arithmetic cannot wrap while n*b*b < 2**63.
_EXACT_F64_BOUND = 1 << 53
_INT64_BOUND = 1 << 63


def _magnitude(m: np.ndarray) -> int:
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product of two integer matrices.

    The result is int64 when n * max|a| * max|b| < 2**63, which bounds every
    entry and partial sum; otherwise it is an object array of Python ints.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    bound = a.shape[1] * _magnitude(a) * _magnitude(b)
    if bound < _EXACT_F64_BOUND:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64)
    if bound < _INT64_BOUND:
        return a @ b
    return a.astype(object) @ b.astype(object)


def charpoly(a) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Returns the monic coefficient list [1, c1, ..., cn] with
    p(x) = x^n + c1*x^(n-1) + ... + cn.  Uses the Faddeev-LeVerrier
    recurrence on an object array of Python integers; every division is
    exact.
    """
    a = np.asarray(a).astype(object)
    n = len(a)
    coeffs = [1]
    m = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        am = a @ m
        trace = am.trace()
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        ck = -(trace // k)
        coeffs.append(ck)
        am.flat[::n + 1] += ck
        m = am
    return coeffs


def rank(a) -> int:
    """Exact rank of an integer matrix via fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in np.asarray(a)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    col = 0
    while r < nrows and col < ncols:
        pivot_row = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        for i in range(r + 1, nrows):
            head = m[i][col]
            for j in range(col, ncols):
                m[i][j] = (pivot * m[i][j] - head * m[r][j]) // prev
        prev = pivot
        r += 1
        col += 1
    return r


# -- small dense polynomial helpers (integer coefficients, highest power first)


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def poly_eval_at_poly(p: list[int], arg: list[int]) -> list[int]:
    """Compose p(arg(x)) where both are coefficient lists, highest power first."""
    result = [0]
    for c in p:
        result = poly_mul(result, arg)
        result[-1] += c
    first = next((i for i, c in enumerate(result) if c), len(result) - 1)
    return result[first:]


def poly_compose_negate(p: list[int]) -> list[int]:
    """p(-x): flip the sign of odd-degree coefficients."""
    n = len(p) - 1
    return [c if (n - i) % 2 == 0 else -c for i, c in enumerate(p)]
