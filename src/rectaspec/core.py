"""Signed graphs as exact integer matrices, plus the structural predicates.

A signed graph is stored as a symmetric n x n matrix with entries in
{-1, 0, +1} and zero diagonal: the entry carries the edge sign, zero means
non-edge.  The underlying (unsigned) graph is the entrywise absolute value.
Both graph types share one base class.  Connectivity, the components and
bipartiteness read the per-row bitmasks of the support (``row_bits``) and
the one breadth-first spanning forest built from them (``spanning_forest``);
triangle-freeness, the zero-two property, the common-neighbour profile and
the quadrangles read the codegree product of the support.  Every predicate
reads only the support, so it accepts either type and never builds an
underlying graph first.  The package builds every row bitmask with
``_row_masks``, reads a bitmask back into an array with ``_mask_bits``,
applies every switching, equivalence or Gram witness with
``_signed_permute``, reads every integer argument with ``_check_counts``
and squares an adjacency matrix only in the cached ``square``.  Every
matrix enters through ``_exact_copy``, which refuses one that is not square
or a sign matrix with an entry outside {-1, 0, +1}; every decider checks
its argument types with ``_require``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlinalg import exact_matmul


class StructureError(ValueError):
    """A structural precondition (regular / triangle-free / ...) failed."""


def _exact_copy(values, dtype) -> np.ndarray:
    """A private, C-contiguous, read-only copy of ``values`` in the integer
    ``dtype``: the one way a graph, weighing or residual matrix enters.
    ValueError when the input is not a square 2-D numeric matrix, the cast
    would change an entry (int8 wraps 257 to 1, an integer cast truncates
    0.5 to 0) or, the int8 copies being the sign matrices, an entry lies
    outside {-1, 0, +1}."""
    src = np.asarray(values)
    if src.dtype.kind not in "biuf":
        raise ValueError(f"matrix entries must be numbers, not {src.dtype}")
    if src.ndim != 2 or src.shape[0] != src.shape[1]:
        raise ValueError("matrix must be square")
    if src.dtype == dtype:
        out = np.array(src, dtype=dtype, order="C")
    else:
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
            out = np.array(src, dtype=dtype, order="C")
        if not np.array_equal(out, src):
            raise ValueError(f"matrix entries must be integers within the {out.dtype} range")
    if out.dtype == np.int8 and (out.min(initial=0) < -1 or out.max(initial=0) > 1):
        raise ValueError("entries must lie in {-1, 0, +1}")
    out.setflags(write=False)
    return out


def _require(kind: type, name: str, *args) -> None:
    """TypeError unless every argument is a ``kind``: the deciders' one
    type check."""
    for arg in args:
        if not isinstance(arg, kind):
            raise TypeError(f"{name} takes two {kind.__name__}, not {type(arg).__name__}")


def _check_counts(low: int | None = 0, **counts) -> tuple:
    """Each count, order, degree, dimension, lambda^2, vertex index or edge
    sign as an int (``operator.index``), None staying None: the package's
    one integer rule.  TypeError naming the first that is a bool or not an
    integer, ValueError the first below ``low`` (None: the caller checks
    bounds)."""
    out = []
    for name, value in counts.items():
        if value is not None:
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not a bool")
            try:
                value = operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
            if low is not None and value < low:
                raise ValueError(f"{name} must not be negative, got {value}" if low == 0
                                 else f"{name} must be >= {low}")
        out.append(value)
    return tuple(out)


def _row_masks(matrix: np.ndarray) -> list[int]:
    """Each row of the 2-D boolean ``matrix`` as a Python int: bit j set iff
    entry j is."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _mask_bits(masks, size: int) -> np.ndarray:
    """Bits 0..size-1 of each Python int in ``masks`` as the rows of a
    boolean matrix: the inverse of ``_row_masks``.  ValueError when a mask
    is negative or has a bit at ``size`` or above."""
    if any(mask >> size for mask in masks):  # -1 for a negative mask
        raise ValueError(f"mask has a bit outside range({size})")
    width = (size + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks),
                        dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(raw, axis=1, count=size, bitorder="little").view(bool)


def _permutation(perm, size: int) -> np.ndarray:
    """``perm`` as an index array; ValueError unless it is a permutation of
    range(size)."""
    if sorted(perm) != list(range(size)):
        raise ValueError(f"perm is not a permutation of range({size})")
    return np.asarray(perm, dtype=np.intp)


def _signed_permute(m: np.ndarray, rows, row_signs, cols, col_signs) -> np.ndarray:
    """The matrix with row_signs[i] * col_signs[j] * m[i, j] at
    (rows[i], cols[j]); ValueError unless ``rows`` and ``cols`` are
    permutations of m's row and column indices."""
    rows = _permutation(rows, m.shape[0])
    cols = _permutation(cols, m.shape[1])
    values = np.asarray(row_signs)[:, None] * m * np.asarray(col_signs)
    out = np.empty_like(values)
    out[np.ix_(rows, cols)] = values
    return out


def _bfs_forest(bits) -> tuple[tuple[int, int], ...]:
    """(vertex, parent) pairs of a breadth-first spanning forest of the graph
    with neighbour bitmasks ``bits``: the components in order of their
    smallest vertex, which is the root (parent -1), each layer's vertices in
    order of their parents, a parent's children ascending."""
    seen = 0
    order = []
    for root in range(len(bits)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append((root, -1))
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                new = bits[v] & ~seen
                seen |= new
                for w in _bits(new):
                    order.append((w, v))
                    nxt.append(w)
            frontier = nxt
    return tuple(order)


@dataclass(frozen=True, eq=False)
class _Graph:
    """Validated int8 adjacency matrix, a read-only copy of the input, and
    its support bitmasks; equal only to a graph of the same type with the
    same matrix."""

    adj: np.ndarray

    def __post_init__(self):
        adj = _exact_copy(self.adj, np.int8)
        object.__setattr__(self, "adj", adj)
        if adj.shape[0] == 0:
            raise ValueError("graph must have at least one vertex")
        if np.any(np.diagonal(adj)):
            raise ValueError("diagonal entries must be zero")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def row_bits(self) -> tuple[int, ...]:
        """Support of each row as a Python int: bit j set iff j is a neighbour."""
        return tuple(_row_masks(self.adj != 0))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(bits.bit_count() for bits in self.row_bits)

    @cached_property
    def spanning_forest(self) -> tuple[tuple[int, int], ...]:
        """``_bfs_forest`` of the support."""
        return _bfs_forest(self.row_bits)

    @cached_property
    def square(self) -> np.ndarray:
        """A^2 as a read-only int64 matrix: the package's one product of an
        adjacency matrix with itself."""
        sq = exact_matmul(self.adj, self.adj)
        sq.setflags(write=False)
        return sq

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash(self.adj.tobytes())


@dataclass(frozen=True, eq=False)
class SignedGraph(_Graph):
    """Immutable signed graph; ``adj`` is a read-only int8 matrix."""

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (u, v, sign) triples with u < v."""
        return list(self._edges)

    @cached_property
    def _edges(self) -> tuple[tuple[int, int, int], ...]:
        us, vs = np.nonzero(np.triu(self.adj))
        return tuple(zip(us.tolist(), vs.tolist(), self.adj[us, vs].tolist()))

    @staticmethod
    def from_edges(n: int, edges) -> "SignedGraph":
        adj = np.zeros((n, n), dtype=np.int8)
        for u, v, sign in edges:
            u, v, sign = _check_counts(None, u=u, v=v, sign=sign)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if sign not in (-1, 1):
                raise ValueError(f"bad sign {sign} on edge ({u}, {v})")
            if adj[u, v]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u, v] = adj[v, u] = sign
        return SignedGraph(adj)


@dataclass(frozen=True, eq=False)
class UnderlyingGraph(_Graph):
    """Unsigned graph: symmetric 0/1 matrix with zero diagonal."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.adj < 0):
            raise ValueError("underlying graph entries must be 0 or 1")

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adj))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    def all_positive(self) -> SignedGraph:
        return SignedGraph(self.adj)

    @staticmethod
    def from_edges(n: int, edges) -> "UnderlyingGraph":
        return underlying(SignedGraph.from_edges(n, ((u, v, 1) for u, v in edges)))


@dataclass(frozen=True)
class StructureReport:
    regular: bool
    degree: int | None
    connected: bool
    bipartite: bool
    triangle_free: bool
    zero_two: bool
    quadrangle_count: int


def underlying(g: SignedGraph) -> UnderlyingGraph:
    """Entrywise absolute value: erase the signs."""
    return UnderlyingGraph(np.abs(g.adj))


def _as_underlying(g) -> UnderlyingGraph:
    return underlying(g) if isinstance(g, SignedGraph) else g


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def components(g) -> list[list[int]]:
    """Connected components of the underlying graph, each sorted: the trees
    of ``spanning_forest``, listed by their roots."""
    comps = []
    for v, parent in g.spanning_forest:
        if parent < 0:
            comps.append([])
        comps[-1].append(v)
    return [sorted(comp) for comp in comps]


def is_connected(g) -> bool:
    """True when ``spanning_forest`` has one root."""
    return all(parent >= 0 for _, parent in g.spanning_forest[1:])


def bipartition(g) -> tuple[list[int], list[int]] | None:
    """Two-colouring of the underlying graph, or None if an odd cycle exists.

    A vertex's side is the parity of its depth in ``spanning_forest``, so
    each component's smallest vertex, its root, is on side 0.  The colouring
    is proper unless an edge joins two vertices of one side.
    """
    side = [0] * g.n
    sides = [0, 0]
    for v, parent in g.spanning_forest:
        if parent >= 0:
            side[v] = 1 - side[parent]
        sides[side[v]] |= 1 << v
    if any(bits & sides[s] for bits, s in zip(g.row_bits, side)):
        return None
    return _bits(sides[0]), _bits(sides[1])


def _codegrees(g) -> np.ndarray:
    """Common-neighbour count of every ordered vertex pair (the degrees on
    the diagonal), int64."""
    support = g.adj != 0
    return exact_matmul(support, support)


def _triangle_free(g, codegrees: np.ndarray) -> bool:
    # an edge vw lies on a triangle iff v and w share a neighbour
    return not np.any(codegrees[g.adj != 0])


def _zero_two(codegrees: np.ndarray) -> bool:
    # the matrix is symmetric, so every off-diagonal entry is checked; the
    # diagonal holds the degrees
    bad = (codegrees != 0) & (codegrees != 2)
    np.fill_diagonal(bad, False)
    return not bad.any()


def common_neighbour_profile(g) -> list[int]:
    """Sorted multiset of common-neighbour counts over unordered vertex pairs."""
    if g.n < 2:
        raise ValueError("profile needs at least two vertices")
    c = _codegrees(g)[np.triu_indices(g.n, 1)]
    return np.sort(c).tolist()


def quadrangle_count(g) -> int:
    """Number of 4-cycles of the underlying graph.

    Every 4-cycle is determined by its two diagonal pairs, so summing
    C(codegree, 2) over unordered pairs counts each quadrangle twice.
    """
    return _quadrangle_count(_codegrees(g))


def _quadrangle_count(codegrees: np.ndarray) -> int:
    # pairs below the diagonal and on it add 0 * (0 - 1)
    c = np.triu(codegrees, 1)
    c *= c - 1
    return int(c.sum()) // 4


def quadrangles(g) -> np.ndarray:
    """All 4-cycles (a, b, c, d) of the underlying graph, edges ab, bc, cd, da,
    as the rows of a (k, 4) int64 array; StructureError when some vertex
    pair shares three or more neighbours.

    Reported once each, with a the smallest vertex and b < d, in
    lexicographic order of (a, c) and then of (b, d).  When no pair shares
    more than two neighbours (true of every rectagraph, and of K4), each
    pair a < c with two common neighbours b < d is the diagonal of the one
    quadrangle (a, b, c, d), kept when a is its smallest vertex, that is
    when b > a.  The support with its columns weighted by the labels, and
    by their squares, times the support gives b + d and b^2 + d^2, hence
    d - b = sqrt(2(b^2 + d^2) - (b + d)^2).
    """
    n = g.n
    support = g.adj != 0
    codegrees = _codegrees(g)
    np.fill_diagonal(codegrees, 0)
    if codegrees.max() > 2:
        raise StructureError("quadrangles are not listed when a vertex pair "
                             "shares three or more neighbours")
    pairs = np.flatnonzero(codegrees == 2)
    pairs = pairs[pairs // n < pairs % n]  # a < c, in lexicographic order
    rows, cols = np.divmod(pairs, n)
    del codegrees  # free its n^2 int64 entries before the two label products
    # two n x n products, not one product of the support stacked under its
    # two weighted copies: on Gewirtz x K2 (n = 112, glibc malloc) the
    # stacked 3n^2 int64 result took 115 fresh page faults per call, these
    # none
    labels = np.arange(n, dtype=np.min_scalar_type((n - 1) ** 2))
    sums = exact_matmul(support * labels, support).take(pairs)
    squares = exact_matmul(support * (labels * labels), support).take(pairs)
    gaps = np.rint(np.sqrt(2 * squares - sums * sums)).astype(np.int64)
    b = (sums - gaps) >> 1
    d = (sums + gaps) >> 1
    keep = b > rows
    return np.stack((rows[keep], b[keep], cols[keep], d[keep]), axis=1)


def structure_report(g) -> StructureReport:
    """Exact structural summary of the underlying graph.

    ``zero_two`` is vacuously true when no vertex pair exists; disconnected
    inputs are fine (connectivity is just reported).
    """
    degs = g.degrees
    regular = len(set(degs)) == 1
    codegrees = _codegrees(g)
    return StructureReport(
        regular=regular,
        degree=degs[0] if regular else None,
        connected=is_connected(g),
        bipartite=bipartition(g) is not None,
        triangle_free=_triangle_free(g, codegrees),
        zero_two=_zero_two(codegrees),
        quadrangle_count=_quadrangle_count(codegrees),
    )


def is_rectagraph(g) -> bool:
    """Connected, triangle-free, every vertex pair with 0 or 2 common neighbours;
    the tests run in that order and stop at the first that fails."""
    if not is_connected(g):
        return False
    codegrees = _codegrees(g)
    return _triangle_free(g, codegrees) and _zero_two(codegrees)


def delete_vertices(g, remove):
    """Induced subgraph on the complement of ``remove``; a graph of ``g``'s
    own type."""
    remove = set(remove)
    if not remove.issubset(range(g.n)):
        raise ValueError(f"vertex to delete outside range({g.n})")
    keep = [v for v in range(g.n) if v not in remove]
    if not keep:
        raise ValueError("cannot delete every vertex")
    idx = np.asarray(keep)
    return type(g)(g.adj[np.ix_(idx, idx)])


def disjoint_union(a: SignedGraph, b: SignedGraph) -> SignedGraph:
    adj = np.zeros((a.n + b.n, a.n + b.n), dtype=np.int8)
    adj[: a.n, : a.n] = a.adj
    adj[a.n :, a.n :] = b.adj
    return SignedGraph(adj)
