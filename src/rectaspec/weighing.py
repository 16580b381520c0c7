"""Weighing matrices: verification, intersection numbers, properness,
equivalence, the row normal form, and the correspondence with bipartite
two-eigenvalue signed rectagraphs.

An (n, r) weighing matrix is an n x n {0, +-1} matrix M with M^T M = r I.
Equivalence means M = P N Q for signed permutation matrices P and Q; that is
exactly a side-preserving switching isomorphism of the signed bipartite
support graphs.  The switching module's sign-propagating matcher
(``switching._sign_match``) finds one, given the column/row side split: it
backtracks over the support bitmasks in a vertex order fixed in advance,
propagating the switching signs from vertex to vertex as it places them, so
that every partial map is checked on edges, non-edges and signs at once.
Each support vertex goes only to one of its own colour (side, degree and
signed quadrangle counts), so two matrices whose rows meet in different
patterns, such as W(8,4) and H4 + H4, are told apart before any search;
on supports with intersection numbers in {0, 2} the colours are uniform.
The row normal form is read off the same graph (the biadjacency block of its
star normal form at a column vertex), and one translation turns a switching
isomorphism of support graphs into the witness (P, Q) for both.  Every
witness is re-checked before it is returned, by applying P and Q to rows and
columns as index maps (``core._signed_permute``), without a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SignedGraph, StructureError, _exact_copy, _permutation, _require,
                   _signed_permute, bipartition, is_connected, structure_report)
from .exactlinalg import exact_matmul
from .spectral import Refusal, _first_violation, certify_two_sym
from .switching import _sign_match, schem_normal_form, scheme_prefix
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps this name
from .switching import solve_switch_for_perm  # noqa: F401


@dataclass(frozen=True)
class WeighingMatrix:
    entries: np.ndarray  # int8, a read-only copy of the input

    def __post_init__(self):
        arr = _exact_copy(self.entries, np.int8)
        object.__setattr__(self, "entries", arr)
        refusal = _gram_refusal(arr)
        if refusal is not None:
            raise ValueError(refusal.reason)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return int(np.abs(self.entries[:, 0]).sum())

    def __eq__(self, other):
        return (isinstance(other, WeighingMatrix)
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash(self.entries.tobytes())


def _gram_refusal(arr: np.ndarray) -> Refusal | None:
    """Refusal naming the first inner product of two columns of the square
    integer matrix ``arr`` that breaks M^T M = r I (r the weight of column
    0), or weight 0; None for a weighing matrix."""
    gram = exact_matmul(arr.T, arr)
    r = int(gram[0, 0]) if len(gram) else 0
    off = gram - r * np.eye(len(gram), dtype=np.int64)
    if np.any(off):
        i, j, _ = _first_violation(off)
        return Refusal(f"columns {i} and {j} have inner product {int(gram[i, j])}, "
                       f"expected {r if i == j else 0}", witness=(i, j, int(gram[i, j])))
    if r == 0:
        return Refusal("zero matrix has weight 0")
    return None


def verify_weighing(matrix):
    """WeighingMatrix on success, else a Refusal: for input that is not
    numeric or holds non-integers, a non-square matrix, the first entry
    outside {-1, 0, +1}, or the first violating inner product."""
    try:
        arr = _exact_copy(matrix, np.int64)
    except ValueError as err:
        return Refusal(str(err))
    if np.any(np.abs(arr) > 1):
        return Refusal("entries must lie in {-1, 0, +1}",
                       witness=_first_violation(np.where(np.abs(arr) > 1, arr, 0)))
    # the constructor runs the Gram check; only a refusal pays for a second
    # product, to name the witness
    try:
        return WeighingMatrix(arr)
    except ValueError:  # the Gram check is the only one left to fail
        return _gram_refusal(arr)


def intersection_numbers(w: WeighingMatrix) -> set[int]:
    """Counts of shared support positions over all row pairs."""
    support = w.entries != 0
    overlap = exact_matmul(support, support.T)
    return set(overlap[np.triu_indices(w.n, 1)].tolist())


def is_proper(w: WeighingMatrix) -> bool:
    """True iff the matrix is not equivalent to a direct sum of two weighing
    matrices.

    Signed row/column permutations act on the support only by permuting it,
    and block-diagonalisability of the support is exactly disconnectedness of
    the bipartite row/column incidence graph, so connectivity decides.
    """
    return is_connected(_support_bipartite(w))


def _support_bipartite(w: WeighingMatrix) -> SignedGraph:
    """Signed bipartite graph: column vertices 0..n-1, row vertices n..2n-1."""
    n = w.n
    adj = np.zeros((2 * n, 2 * n), dtype=np.int8)
    adj[:n, n:] = w.entries.T
    adj[n:, :n] = w.entries
    return SignedGraph(adj)


def to_bipartite_sr2se(w: WeighingMatrix) -> SignedGraph:
    """Connected bipartite (2n, r) signed rectagraph with A^2 = r I.

    Requires a proper matrix (otherwise the graph disconnects) whose row
    intersection numbers lie in {0, 2} (otherwise some vertex pair has four
    or more common neighbours).
    """
    inter = intersection_numbers(w)
    if not inter <= {0, 2}:
        raise StructureError(
            f"intersection numbers {sorted(inter)} violate the zero-two property")
    if not is_proper(w):
        raise StructureError("matrix is improper: the bipartite graph disconnects")
    g = _support_bipartite(w)
    cert = certify_two_sym(g)
    if not (cert and cert.lambda_sq == w.r):
        raise RuntimeError("bipartite graph failed its A^2 = r I certificate")
    return g


def from_bipartite_sr2se(g: SignedGraph) -> WeighingMatrix:
    """Biadjacency block of a connected bipartite two-eigenvalue signed
    rectagraph: a proper (n/2, r) weighing matrix with intersection numbers
    in {0, 2}."""
    cert = certify_two_sym(g)
    if not cert:
        raise StructureError(f"not a two-eigenvalue graph: {cert.reason}")
    rep = structure_report(g)
    if not (rep.connected and rep.triangle_free and rep.zero_two):
        raise StructureError("graph is not a connected signed rectagraph")
    parts = bipartition(g)
    if parts is None:
        raise StructureError("graph is not bipartite")
    cols, rows = parts  # equal sides: the certificate forced regularity
    b = g.adj[np.ix_(rows, cols)]
    w = WeighingMatrix(b)
    if not (intersection_numbers(w) <= {0, 2} and is_proper(w)):
        raise RuntimeError("biadjacency block is not a proper zero-two weighing matrix")
    return w


# -- equivalence --------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceWitness:
    """M = P N Q; both factors stored as (perm, signs) with
    matrix[i, perm[i]] = signs[i]."""

    p_perm: tuple[int, ...]
    p_signs: tuple[int, ...]
    q_perm: tuple[int, ...]
    q_signs: tuple[int, ...]

    def verify(self, m: WeighingMatrix, n: WeighingMatrix) -> bool:
        """True iff M = P N Q, checked by indexing, not by products: M's
        entry (i, q_perm[j]) must be p_signs[i] * q_signs[j] times N's entry
        (p_perm[i], j).  ValueError unless both perms are permutations of
        range(n).  P N Q is built from N's rows in ``p_perm`` order, so
        neither perm is inverted."""
        rows = n.entries[_permutation(self.p_perm, n.n)]
        return np.array_equal(
            _signed_permute(rows, range(n.n), self.p_signs, self.q_perm, self.q_signs),
            m.entries)


def _witness_from_transform(n: int, perm, eps) -> EquivalenceWitness:
    """Witness for M = P N Q from a switching isomorphism of M's support
    graph onto N's (vertex v goes to perm[v] with sign eps[v]): row i of M
    is row perm[n+i]-n of N times eps[n+i], column j is column perm[j]
    times eps[j]."""
    q_perm = sorted(range(n), key=perm.__getitem__)  # column perm[j] of N -> j
    return EquivalenceWitness(p_perm=tuple(perm[n + i] - n for i in range(n)),
                              p_signs=tuple(eps[n + i] for i in range(n)),
                              q_perm=tuple(q_perm), q_signs=tuple(eps[j] for j in q_perm))


def equivalent(m: WeighingMatrix, n: WeighingMatrix):
    """Decide M = P N Q for signed permutation matrices P, Q.

    Reduces to a side-preserving switching isomorphism of the signed
    bipartite support graphs, which the switching matcher ``_sign_match``
    decides by backtracking with sign propagation, given the split between
    the column vertices 0..n-1 and the row vertices n..2n-1.  Returns
    (bool, witness-or-None); a returned witness has been re-verified by
    ``EquivalenceWitness.verify``.  Raises TypeError unless
    both arguments are ``WeighingMatrix``.
    """
    _require(WeighingMatrix, "equivalent", m, n)
    found = _sign_match(_support_bipartite(m), _support_bipartite(n), split=m.n)
    if found is None:
        return False, None
    witness = _witness_from_transform(m.n, *found)
    if not witness.verify(m, n):
        raise RuntimeError("equivalence witness failed re-verification")
    return True, witness


# -- row normal form ----------------------------------------------------------


def scheme_two_prefix(r: int, n: int) -> np.ndarray:
    """First r rows of the normal form for weight-r weighing matrices with
    intersection numbers in {0, 2}: row 0 carries r leading +1s, row i
    (1 <= i < r) meets row 0 in column 0 (same sign) and column i (opposite
    sign), and rows a < b (a >= 1) meet in column 0 and one block column
    holding +1 in row a and -1 in row b.  That is ``scheme_prefix`` taken
    at a column vertex: its rows 1..r against the base and the r(r-1)/2
    pair columns, padded with zero columns to n.  ValueError when n is
    below those 1 + r(r-1)/2 columns."""
    width = r * (r - 1) // 2 + 1
    if n < width:
        raise ValueError(f"the weight-{r} prefix needs order at least {width}, got {n}")
    star = scheme_prefix(r, r + width)
    rows = np.zeros((r, n), dtype=np.int8)
    rows[:, :width] = star[1:, [0, *range(r + 1, r + width)]]
    return rows


def schem2_normal_form(w: WeighingMatrix):
    """Equivalent matrix whose first r rows match ``scheme_two_prefix``,
    plus the witness; needs intersection numbers within {0, 2}.

    Two columns then meet in 0 or 2 rows too (count quadrangles both
    ways), so the support graph has a star normal form at the first column
    of row 0; the result is its biadjacency block in the new order.
    """
    inter = intersection_numbers(w)
    if not inter <= {0, 2}:
        raise StructureError(
            f"normal form needs intersection numbers in {{0, 2}}, got {sorted(inter)}")
    sz = w.n
    anchor = int(np.flatnonzero(w.entries[0])[0])
    cls = schem_normal_form(_support_bipartite(w), base=anchor)
    cols, rows = np.sort(cls.permutation[:sz]), np.sort(cls.permutation[sz:])
    result = WeighingMatrix(cls.representative.adj[np.ix_(rows, cols)])
    if not np.array_equal(result.entries[:w.r], scheme_two_prefix(w.r, sz)):
        raise RuntimeError("normalisation failed to reach the scheme prefix")
    place = np.argsort(np.concatenate([cols, rows]))  # new label -> result's vertex
    witness = _witness_from_transform(
        sz, [int(place[v]) for v in cls.permutation],
        [-1 if v in cls.switch_set else 1 for v in cls.permutation])
    if not witness.verify(w, result):
        raise RuntimeError("normal-form witness failed re-verification")
    return result, witness


# -- text format ---------------------------------------------------------------

_CHAR_TO_VAL = {"+": 1, "-": -1, "0": 0}
_VAL_TO_CHAR = {1: "+", -1: "-", 0: "0"}


class WeighingFormatError(ValueError):
    pass


def parse_weighing_text(text: str) -> WeighingMatrix:
    """Parse the 'n r' header plus n rows of n characters from {+, -, 0}."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise WeighingFormatError("empty input")
    head = lines[0].split()
    # ASCII digits only, as in the sg1 header: no sign, no "²"
    if len(head) != 2 or not all(p.isascii() and p.isdigit() for p in head):
        raise WeighingFormatError(f"header must be 'n r', got {lines[0]!r}")
    n, r = int(head[0]), int(head[1])
    if n == 0:
        raise WeighingFormatError("order must be positive")
    if len(lines) - 1 != n:
        raise WeighingFormatError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != n:
            raise WeighingFormatError(f"row {ln!r} must have {n} characters")
        try:
            rows.append([_CHAR_TO_VAL[ch] for ch in ln])
        except KeyError as err:
            raise WeighingFormatError(f"bad character {err.args[0]!r} in row {ln!r}")
    try:
        w = WeighingMatrix(np.asarray(rows, dtype=np.int8))
    except ValueError as err:
        raise WeighingFormatError(str(err))
    if w.r != r:
        raise WeighingFormatError(f"declared weight {r} but matrix has weight {w.r}")
    return w


def write_weighing_text(w: WeighingMatrix) -> str:
    lines = [f"{w.n} {w.r}"]
    for row in w.entries:
        lines.append("".join(_VAL_TO_CHAR[int(v)] for v in row))
    return "\n".join(lines) + "\n"
