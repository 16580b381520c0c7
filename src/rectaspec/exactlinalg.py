"""Exact integer linear algebra: the one exactness rule for integer
products, characteristic polynomials, ranks and small polynomial helpers.

Everything in here is tolerance-free.  ``exact_matmul`` is the only place
that chooses the arithmetic of an integer or boolean matrix product: float32
or float64 BLAS inside the range where no partial sum can round, int64 past
that while nothing can wrap, Python integers beyond.  Elimination routines
are fraction-free over the integers.
"""

from __future__ import annotations

import numpy as np

# (float type, limit): BLAS in that type is exact while every partial sum is
# an integer below 2**p, p the significand width (24 and 53 bits), the bound
# FFLAS-FFPACK uses.  A product of matrices with |entries| <= x and <= y over
# an inner dimension k has |partial sums| <= k*x*y.  The narrowest exact type
# wins: float32 halves float64's transient matrices, and an integer matmul
# skips BLAS (12 s against 0.03 s at n = 1024, one BLAS thread on a 2-CPU
# x86-64 machine).
_FLOAT_RULES = ((np.float32, 1 << 24), (np.float64, 1 << 53))
_INT64_BOUND = 1 << 63


def _magnitude(m: np.ndarray) -> int:
    if m.dtype == bool:
        return 1
    return max(int(m.max(initial=0)), -int(m.min(initial=0)))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer or boolean matrices or vectors.

    With bound = inner dimension * max|a| * max|b|, which bounds every entry
    and partial sum, the product runs in the first float type of
    ``_FLOAT_RULES`` whose limit exceeds the bound, else in int64 below
    2**63, else over Python ints.  The result is int64, or an object array
    of Python ints past 2**63.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    bound = a.shape[-1] * _magnitude(a) * _magnitude(b)
    for exact, limit in _FLOAT_RULES:
        if bound < limit:
            return (a.astype(exact) @ b.astype(exact)).astype(np.int64)
    if bound < _INT64_BOUND:
        return a.astype(np.int64) @ b.astype(np.int64)
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
