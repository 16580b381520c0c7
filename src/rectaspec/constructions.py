"""Graph constructions: the K2 products, bipartite double, signed cubes,
(folded) hypercubes, design incidence graphs, and the built-in catalog of
two-eigenvalue signed rectagraphs with degree at most 7.

Each catalog entry is a base under some |x K2 layers, read from one table.
The base is a signed cube, a signature recorded from a search, or a
weighing matrix.  Entries whose only known weighing matrix is a published
one (R5.1, R5.2, R6.1-R6.5, R7.1-R7.5) are not reproduced here; they are
built on demand from a user-supplied matrix file.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations

import numpy as np

from .core import (SignedGraph, StructureError, UnderlyingGraph, _check_counts,
                   structure_report, underlying)
from .exactlinalg import poly_compose_negate, poly_eval_at_poly, poly_mul
from .spectral import certify_two_sym
from .switching import relabel, scheme_layout
from .weighing import parse_weighing_text, to_bipartite_sr2se


class CatalogError(KeyError):
    """Unknown catalog identifier."""

    __str__ = Exception.__str__  # the message as is; KeyError would quote it


class CatalogIngestError(RuntimeError):
    """The entry needs an externally supplied weighing-matrix file, or the
    one supplied does not fit it."""


def _k2_layer(g: SignedGraph, sign: int) -> SignedGraph:
    """Two copies of g, the second times ``sign``, joined by a positive
    perfect matching."""
    eye = np.eye(g.n, dtype=np.int8)
    return SignedGraph(np.block([[g.adj, eye], [eye, sign * g.adj]]))


def ltimes_k2(g: SignedGraph) -> SignedGraph:
    """Two copies of g, one negated, joined by a positive perfect matching.

    Sends a spectrum symmetric around 0 with eigenvalues +-sqrt(t) to one
    with eigenvalues +-sqrt(t+1); see ``ltimes_charpoly_transform`` for the
    exact characteristic-polynomial effect.
    """
    return _k2_layer(g, -1)


def cartesian_k2(g: SignedGraph) -> SignedGraph:
    """Two copies of g joined by a positive perfect matching."""
    return _k2_layer(g, 1)


def bipartite_double(g: SignedGraph) -> SignedGraph:
    """Kronecker product with a single positive edge; connected iff g is
    non-bipartite, else two disjoint copies of g."""
    k2 = np.array([[0, 1], [1, 0]], dtype=np.int8)
    return SignedGraph(np.kron(g.adj, k2))


def negation(g: SignedGraph) -> SignedGraph:
    return SignedGraph((-g.adj).astype(np.int8))


def ltimes_charpoly_transform(p: list[int]) -> list[int]:
    """Characteristic polynomial of g |x K2 computed from that of g.

    With p = det(xI - A) = x^m0 * prod (x^2 - t_i)^{m_i}, the result is
    (x^2 - 1)^m0 * prod (x^2 - t_i - 1)^{2 m_i}; the computation below works
    for arbitrary p by going through q(y) = det(yI - A^2) and substituting
    y = x^2 - 1.
    """
    n = len(p) - 1
    s = poly_mul(p, poly_compose_negate(p))
    if n % 2:
        s = [-c for c in s]
    # s(x) = q(x^2): odd coefficients must vanish
    if any(s[i] for i in range(1, len(s), 2)):
        raise ArithmeticError("polynomial is not even after symmetrisation")
    q = s[::2]
    return poly_eval_at_poly(q, [1, 0, -1])


def k2() -> SignedGraph:
    return SignedGraph.from_edges(2, [(0, 1, 1)])


def signed_cube(r: int) -> SignedGraph:
    """The r-dimensional signed cube in which every quadrangle is negative:
    2^r vertices, degree r, spectrum {-sqrt(r), +sqrt(r)}."""
    (r,) = _check_counts(1, dimension=r)
    g = k2()
    for _ in range(r - 1):
        g = ltimes_k2(g)
    return g


def hypercube(r: int) -> UnderlyingGraph:
    """Unsigned r-cube on vertex set {0, ..., 2^r - 1}, edges at Hamming
    distance 1: the underlying graph of ``signed_cube(r)``."""
    return underlying(signed_cube(r))


def folded_cube(r: int) -> UnderlyingGraph:
    """r-cube plus an edge between every antipodal pair: 2^r vertices of
    degree r+1.  For r = 4 this is the Clebsch graph.  Below r = 4 the
    result has vertex pairs with four common neighbours, hence no zero-two
    structure, so those orders are rejected."""
    (r,) = _check_counts(None, dimension=r)
    if r < 4:
        raise ValueError("folded cubes of dimension < 4 are not rectagraphs")
    adj = hypercube(r).adj.copy()
    adj[np.arange(1 << r), np.arange(1 << r)[::-1]] = 1  # v ^ (n - 1) = n - 1 - v
    return UnderlyingGraph(adj)


def clebsch_graph() -> UnderlyingGraph:
    return folded_cube(4)


def signed_tetrahedron() -> SignedGraph:
    """K4 with exactly one negative edge: spectrum {+-1, +-sqrt(5)}."""
    return SignedGraph.from_edges(
        4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, -1)])


@cache
def gewirtz_graph() -> UnderlyingGraph:
    """The unique strongly regular (56, 10, 0, 2) graph.

    Built from the projective plane of order 4: one even-intersection class
    of its 168 hyperovals (6-point sets meeting every line in at most 2
    points) has 56 members, adjacent when disjoint.  The structure is
    verified before the graph is handed out.
    """
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]  # GF(4)
    inverse = {1: 1, 2: 3, 3: 2}
    points: list[tuple[int, int, int]] = []
    for x in range(4):
        for y in range(4):
            for z in range(4):
                if (x, y, z) == (0, 0, 0):
                    continue
                inv = inverse[next(c for c in (x, y, z) if c)]
                nv = (mul[inv][x], mul[inv][y], mul[inv][z])
                if nv not in points:
                    points.append(nv)
    index = {p: i for i, p in enumerate(points)}
    lines = []
    for a, b, c in points:
        mask = sum(1 << index[p] for p in points
                   if mul[a][p[0]] ^ mul[b][p[1]] ^ mul[c][p[2]] == 0)
        lines.append(mask)
    hyperovals = []
    for combo in combinations(range(21), 6):
        mask = sum(1 << i for i in combo)
        if all((mask & line).bit_count() <= 2 for line in lines):
            hyperovals.append(mask)
    if len(hyperovals) != 168:
        raise RuntimeError(f"found {len(hyperovals)} hyperovals in PG(2, 4), not 168")
    cls = [h for h in hyperovals if (h & hyperovals[0]).bit_count() % 2 == 0]
    if len(cls) != 56:
        raise RuntimeError(f"hyperoval class has {len(cls)} members, not 56")
    g = UnderlyingGraph.from_edges(56, [(i, j) for i, j in combinations(range(56), 2)
                                        if cls[i] & cls[j] == 0])
    rep = structure_report(g)
    if not (rep.degree == 10 and rep.connected and rep.triangle_free and rep.zero_two):
        raise RuntimeError("Gewirtz construction is not a 10-regular rectagraph")
    return g


def k22() -> UnderlyingGraph:
    return UnderlyingGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def k4() -> UnderlyingGraph:
    return UnderlyingGraph.from_edges(4, list(combinations(range(4), 2)))


def fano_plane() -> list[frozenset[int]]:
    """The seven lines of the projective plane of order 2 over points 0..6."""
    pts = list(range(7))
    lines = []
    for triple in combinations(pts, 3):
        # nonzero vectors of GF(2)^3, a line iff the three xor to zero
        a, b, c = (p + 1 for p in triple)
        if a ^ b ^ c == 0:
            lines.append(frozenset(triple))
    if len(lines) != 7:
        raise RuntimeError(f"found {len(lines)} Fano lines, not 7")
    return lines


def biplane_7_4_2() -> list[frozenset[int]]:
    """Complements of the Fano lines: the symmetric (7, 4, 2) design."""
    pts = frozenset(range(7))
    return [pts - line for line in fano_plane()]


def bibd_incidence(blocks) -> UnderlyingGraph:
    """Incidence graph of a symmetric (n, r, l) design: points 0..n-1,
    block vertices n..2n-1, an edge when the point lies in the block."""
    blocks = [frozenset(b) for b in blocks]
    n = len(blocks)
    points = sorted(set().union(*blocks)) if blocks else []
    if points != list(range(n)):
        raise ValueError(f"need exactly {n} points labelled 0..{n - 1}")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError(f"block sizes differ: {sorted(sizes)}")
    r = sizes.pop()
    replication = [sum(p in b for b in blocks) for p in range(n)]
    if set(replication) != {r}:
        raise ValueError("every point must lie in exactly r blocks")
    lam = {sum(p in b and q in b for b in blocks)
           for p, q in combinations(range(n), 2)}
    if len(lam) != 1:
        raise ValueError(f"pair counts differ: {sorted(lam)}")
    edges = [(p, n + i) for i, b in enumerate(blocks) for p in sorted(b)]
    return UnderlyingGraph.from_edges(2 * n, edges)


# -- catalog -----------------------------------------------------------------

# Signatures found by exhaustive search over the scheme-normalised labelling
# (see search.search_signatures); stored as (_NAMED id of the underlying
# graph, negative-edge pairs).  Each is re-certified on construction, and
# tests re-run the searches to confirm the recorded class is the unique one.
_RECORDED_SIGNATURES: dict[str, tuple] = {
    "R4.1": ("BIPLANE", ((2, 5), (3, 6), (3, 8), (4, 7), (4, 9), (4, 10),
                         (6, 13), (7, 11), (7, 12), (8, 11), (10, 13))),
    "R5.4": ("CLEBSCH", ((2, 6), (3, 7), (3, 10), (4, 8), (4, 11), (4, 13),
                         (5, 9), (5, 12), (5, 14), (5, 15), (6, 14), (7, 11),
                         (7, 15), (8, 12), (9, 10), (9, 13), (11, 14))),
}

# id: (order, degree, bipartite, base, |x K2 layers on top of the base).  The
# base is "cube" (the signed cube of the entry's degree), a
# _RECORDED_SIGNATURES key, or the (order, weight) of a weighing matrix that
# the caller supplies.  R5.3 is a cube: by Mulder's bound a (0,2)-graph of
# degree 5 on 2^5 vertices is Q5, which carries one signature class.
_CATALOG = {
    "R1.1": (2, 1, True, "cube", 0), "R2.1": (4, 2, True, "cube", 0),
    "R3.1": (8, 3, True, "cube", 0),
    "R4.1": (14, 4, True, "R4.1", 0), "R4.2": (16, 4, True, "cube", 0),
    "R5.1": (24, 5, True, (12, 5), 0), "R5.2": (28, 5, True, (14, 5), 0),
    "R5.3": (32, 5, True, "cube", 0), "R5.4": (16, 5, False, "R5.4", 0),
    "R6.1": (40, 6, True, (20, 6), 0), "R6.2": (40, 6, True, (20, 6), 0),
    "R6.3": (48, 6, True, (24, 6), 0), "R6.4": (48, 6, True, (24, 6), 0),
    "R6.5": (56, 6, True, (14, 5), 1), "R6.6": (64, 6, True, "cube", 0),
    "R6.7": (32, 6, False, "R5.4", 1),
    "R7.1": (80, 7, True, (20, 6), 1), "R7.2": (80, 7, True, (20, 6), 1),
    "R7.3": (96, 7, True, (24, 6), 1), "R7.4": (96, 7, True, (24, 6), 1),
    "R7.5": (112, 7, True, (14, 5), 2), "R7.6": (128, 7, True, "cube", 0),
    "R7.7": (64, 7, False, "R5.4", 2),
}


def _recorded(key: str) -> SignedGraph:
    name, neg_edges = _RECORDED_SIGNATURES[key]
    base = _NAMED[name]()
    relabelled = relabel(base.all_positive(), scheme_layout(base).perm)
    adj = relabelled.adj.copy()
    for u, v in neg_edges:
        if adj[u, v] != 1:
            raise RuntimeError(f"recorded signature {key} negates non-edge ({u}, {v})")
        adj[u, v] = adj[v, u] = -1
    return SignedGraph(adj)


# ids built directly, with no _CATALOG row; each cube family member is
# listed, so ``catalog`` builds no order outside these ranges
_NAMED = {
    "T": signed_tetrahedron, "K22": k22, "K4": k4, "CLEBSCH": clebsch_graph,
    "BIPLANE": lambda: bibd_incidence(biplane_7_4_2()), "GEWIRTZ": gewirtz_graph,
    **{f"{family}{r}": partial(build, r)
       for family, build, orders in (("G", signed_cube, range(1, 11)),
                                     ("Q", hypercube, range(1, 11)),
                                     ("FC", folded_cube, range(4, 8)))
       for r in orders},
}


def catalog_ids() -> list[str]:
    return sorted(_CATALOG) + list(_NAMED)


def _row(key: str) -> tuple:
    """The _CATALOG row of ``key``, surrounding whitespace ignored."""
    key = key.strip()
    if key not in _CATALOG:
        raise CatalogError(f"unknown catalog id {key!r}")
    return _CATALOG[key]


def catalog(key: str, weighing_source: str | None = None):
    """Catalog object by identifier, surrounding whitespace ignored.

    Table entries whose construction starts from a published weighing matrix
    (R5.1, R5.2, R6.1-R6.5, R7.1-R7.5) need ``weighing_source``: the text of
    an "n r" weighing-matrix file; the other entries ignore it.  Every signed
    entry returned is checked against its certificate (order, degree,
    two-eigenvalue shape, bipartiteness) before being handed out.
    """
    key = key.strip()
    if key in _NAMED:
        return _NAMED[key]()
    n, r, bip, base, layers = _row(key)
    if base == "cube":
        g = signed_cube(r)
    elif base in _RECORDED_SIGNATURES:
        g = _recorded(base)
    else:
        g = _ingest(key, *base, weighing_source)
    for _ in range(layers):
        g = ltimes_k2(g)
    if g.n != n:
        raise RuntimeError(f"{key}: expected order {n}, built {g.n}")
    cert = certify_two_sym(g)
    if not cert or cert.lambda_sq != r:
        raise RuntimeError(f"{key}: certificate mismatch ({cert!r})")
    rep = structure_report(g)
    if rep.bipartite != bip or not (rep.connected and rep.triangle_free
                                    and rep.zero_two):
        raise RuntimeError(f"{key}: structure mismatch ({rep!r})")
    return g


def _ingest(key: str, order: int, weight: int,
            weighing_source: str | None) -> SignedGraph:
    if weighing_source is None:
        raise CatalogIngestError(
            f"{key} is built from a published ({order}, {weight}) weighing "
            "matrix that is not bundled; pass the matrix file contents")
    w = parse_weighing_text(weighing_source)
    if (w.n, w.r) != (order, weight):
        raise CatalogIngestError(
            f"{key} needs a ({order}, {weight}) weighing matrix, "
            f"got ({w.n}, {w.r})")
    try:
        return to_bipartite_sr2se(w)
    except StructureError as err:
        raise CatalogIngestError(f"{key}: {err}") from err


def catalog_certificate(key: str) -> tuple[int, int, bool]:
    """(order, degree, bipartite) claimed by the catalog table."""
    return _row(key)[:3]


def ingest_required(key: str) -> bool:
    """Whether ``catalog(key)`` needs a weighing source; CatalogError for an
    id with no table row."""
    return isinstance(_row(key)[3], tuple)
