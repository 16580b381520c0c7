"""Weighing matrices: verification, intersection numbers, properness,
equivalence, the row normal form, and the correspondence with bipartite
two-eigenvalue signed rectagraphs.

An (n, r) weighing matrix is an n x n {0, +-1} matrix M with M^T M = r I.
Equivalence means M = P N Q for signed permutation matrices P and Q; that is
exactly a side-preserving switching isomorphism of the signed bipartite
support graphs, which is how the decision procedure below works.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import SignedGraph, StructureError, bipartition, is_connected, structure_report
from .spectral import Refusal, certify_two_sym
from .switching import (DEFAULT_SIZE_CAP, SizeCapError, solve_switch_for_perm,
                        underlying_isomorphisms)


@dataclass(frozen=True)
class WeighingMatrix:
    entries: np.ndarray  # int8, read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("weighing matrix must be square")
        if np.any(np.abs(arr) > 1):
            raise ValueError("entries must lie in {-1, 0, +1}")
        gram = np.asarray(arr, dtype=np.int64)
        gram = gram.T @ gram
        r = int(gram[0, 0])
        if not np.array_equal(gram, r * np.eye(self.n, dtype=np.int64)):
            raise ValueError("M^T M is not a multiple of the identity")
        if r == 0:
            raise ValueError("weight must be at least 1")

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


def verify_weighing(matrix):
    """WeighingMatrix on success, else a Refusal naming the first violating
    inner product."""
    arr = np.asarray(matrix, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return Refusal("matrix is not square")
    if np.any(np.abs(arr) > 1):
        rows, cols = np.nonzero(np.abs(arr) > 1)
        i, j = int(rows[0]), int(cols[0])
        return Refusal("entries must lie in {-1, 0, +1}", witness=(i, j, int(arr[i, j])))
    gram = arr.T @ arr
    r = int(gram[0, 0])
    off = gram - r * np.eye(arr.shape[0], dtype=np.int64)
    if np.any(off):
        rows, cols = np.nonzero(off)
        i, j = int(rows[0]), int(cols[0])
        return Refusal(f"columns {i} and {j} have inner product {int(gram[i, j])}, "
                       f"expected {r if i == j else 0}", witness=(i, j, int(gram[i, j])))
    if r == 0:
        return Refusal("zero matrix has weight 0")
    return WeighingMatrix(np.asarray(matrix, dtype=np.int8))


def intersection_numbers(w: WeighingMatrix) -> set[int]:
    """Counts of shared support positions over all row pairs."""
    support = (w.entries != 0).astype(np.int64)
    overlap = support @ support.T
    return {int(overlap[i, j]) for i, j in combinations(range(w.n), 2)}


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
    cols, rows = parts
    if len(cols) != len(rows):
        raise StructureError("bipartition sides differ in size")
    b = g.adj[np.ix_(rows, cols)]
    w = WeighingMatrix(b)
    if not (intersection_numbers(w) <= {0, 2} and is_proper(w)):
        raise RuntimeError("biadjacency block is not a proper zero-two weighing matrix")
    return w


# -- equivalence --------------------------------------------------------------


def _sp_pairs_from_matrix(p: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(perm, signs) with p[i, perm[i]] = signs[i]."""
    perm, signs = [], []
    for i in range(p.shape[0]):
        j = int(np.flatnonzero(p[i])[0])
        perm.append(j)
        signs.append(int(p[i, j]))
    return tuple(perm), tuple(signs)


def sp_matrix(perm, signs) -> np.ndarray:
    n = len(perm)
    p = np.zeros((n, n), dtype=np.int64)
    for i, (j, s) in enumerate(zip(perm, signs)):
        p[i, j] = s
    return p


@dataclass(frozen=True)
class EquivalenceWitness:
    """M = P N Q; both factors stored as (perm, signs) with
    matrix[i, perm[i]] = signs[i]."""

    p_perm: tuple[int, ...]
    p_signs: tuple[int, ...]
    q_perm: tuple[int, ...]
    q_signs: tuple[int, ...]

    def p_matrix(self) -> np.ndarray:
        return sp_matrix(self.p_perm, self.p_signs)

    def q_matrix(self) -> np.ndarray:
        return sp_matrix(self.q_perm, self.q_signs)

    def verify(self, m: WeighingMatrix, n: WeighingMatrix) -> bool:
        prod = self.p_matrix() @ np.asarray(n.entries, dtype=np.int64) @ self.q_matrix()
        return np.array_equal(prod, np.asarray(m.entries, dtype=np.int64))


def _witness_from_transform(rperm, rsigns, cperm, csigns) -> EquivalenceWitness:
    """Witness for m = P norm Q given norm[i, j] =
    rsigns[i] * csigns[j] * m[rperm[i], cperm[j]]."""
    p0 = sp_matrix(rperm, rsigns)
    q0 = sp_matrix(cperm, csigns).T
    pp, ps = _sp_pairs_from_matrix(p0.T)
    qp, qs = _sp_pairs_from_matrix(q0.T)
    return EquivalenceWitness(p_perm=pp, p_signs=ps, q_perm=qp, q_signs=qs)


def equivalent(m: WeighingMatrix, n: WeighingMatrix,
               cap: int = DEFAULT_SIZE_CAP):
    """Decide M = P N Q for signed permutation matrices P, Q.

    Reduces to switching isomorphism of the signed bipartite support graphs
    with the two sides kept apart by a vertex colouring; every candidate
    isomorphism is completed by spanning-forest sign propagation.  Returns
    (bool, witness-or-None); a returned witness re-verifies by
    multiplication.
    """
    if (m.n, m.r) != (n.n, n.r):
        return False, None
    if 2 * m.n > cap:
        raise SizeCapError(
            f"order exceeds the decision cap ({cap}); screen with "
            "intersection numbers and support invariants instead")
    gm, gn = _support_bipartite(m), _support_bipartite(n)
    colours = [0] * m.n + [1] * m.n
    for perm in underlying_isomorphisms(gm, gn, colours, colours):
        eps = solve_switch_for_perm(gm, gn, perm)
        if eps is None:
            continue
        sz = m.n
        # column i of m sits at column perm[i] of n's frame, sign eps[i];
        # row j of m sits at row perm[n+j]-n, sign eps[n+j].
        rperm = [0] * sz
        rsigns = [0] * sz
        cperm = [0] * sz
        csigns = [0] * sz
        for i in range(sz):
            cperm[perm[i]] = i  # build n = transform(m) frame first
        for i in range(sz):
            csigns[perm[i]] = eps[i]
        for j in range(sz):
            rperm[perm[sz + j] - sz] = j
            rsigns[perm[sz + j] - sz] = eps[sz + j]
        witness = _witness_from_transform(rperm, rsigns, cperm, csigns)
        if not witness.verify(m, n):
            raise RuntimeError("equivalence witness failed re-verification")
        return True, witness
    return False, None


# -- row normal form ----------------------------------------------------------


def scheme_two_prefix(r: int, n: int) -> np.ndarray:
    """First r rows of the normal form for weight-r weighing matrices with
    intersection numbers in {0, 2}: row 0 carries r leading +1s, row i
    (1 <= i < r) meets row 0 in column 0 (same sign) and column i (opposite
    sign), and rows a < b (a >= 1) meet in column 0 and one block column
    holding +1 in row a and -1 in row b."""
    rows = np.zeros((r, n), dtype=np.int8)
    rows[0, :r] = 1
    for i in range(1, r):
        rows[i, 0] = 1
        rows[i, i] = -1
    col = r
    for a in range(1, r):
        for b in range(a + 1, r):
            rows[a, col] = 1
            rows[b, col] = -1
            col += 1
    return rows


def schem2_normal_form(w: WeighingMatrix):
    """Equivalent matrix whose first r rows match ``scheme_two_prefix``,
    plus the witness; needs intersection numbers within {0, 2}."""
    inter = intersection_numbers(w)
    if not inter <= {0, 2}:
        raise StructureError(
            f"normal form needs intersection numbers in {{0, 2}}, got {sorted(inter)}")
    ent = np.asarray(w.entries, dtype=np.int64)
    sz, r = w.n, w.r
    row0 = 0
    support0 = np.flatnonzero(ent[row0]).tolist()
    anchor = support0[0]
    sharing = [i for i in np.flatnonzero(ent[:, anchor]).tolist() if i != row0]
    assert len(sharing) == r - 1
    row_order = [row0] + sharing
    # row i's second meeting column with row 0 becomes column i
    col_order = [anchor]
    for i in row_order[1:]:
        both = [c for c in support0 if c != anchor and ent[i, c]]
        assert len(both) == 1
        col_order.append(both[0])
    for a_pos in range(1, r):
        for b_pos in range(a_pos + 1, r):
            a, b = row_order[a_pos], row_order[b_pos]
            shared = [c for c in np.flatnonzero(ent[a]).tolist()
                      if c != anchor and ent[b, c]]
            assert len(shared) == 1
            col_order.append(shared[0])
    col_order += [c for c in range(sz) if c not in set(col_order)]
    row_order += [i for i in range(sz) if i not in set(row_order)]

    rsigns = [1] * sz
    csigns = [1] * sz
    # row 0 all-positive on its support, every prefix row positive at column 0
    for pos, c in enumerate(col_order):
        if pos < r and ent[row0, c] != 0:
            csigns[pos] = int(ent[row0, c])
    for pos in range(1, r):
        i = row_order[pos]
        rsigns[pos] = int(ent[i, anchor]) * csigns[0]
    # block columns: positive in their upper row
    pos = r
    for a_pos in range(1, r):
        for b_pos in range(a_pos + 1, r):
            a = row_order[a_pos]
            csigns[pos] = rsigns[a_pos] * int(ent[a, col_order[pos]])
            pos += 1

    norm = np.zeros_like(ent)
    for i in range(sz):
        for j in range(sz):
            norm[i, j] = rsigns[i] * csigns[j] * ent[row_order[i], col_order[j]]
    if not np.array_equal(norm[:r], scheme_two_prefix(r, sz)):
        raise AssertionError("normalisation failed to reach the scheme prefix")
    witness = _witness_from_transform(tuple(row_order), tuple(rsigns),
                                      tuple(col_order), tuple(csigns))
    result = WeighingMatrix(norm.astype(np.int8))
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
    if len(head) != 2 or not all(p.lstrip("-").isdigit() for p in head):
        raise WeighingFormatError(f"header must be 'n r', got {lines[0]!r}")
    n, r = int(head[0]), int(head[1])
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
