"""Switching, the star normal form for signed rectagraphs, and two
switching-isomorphism decision procedures.

Two signed graphs are switching isomorphic when a signed permutation matrix
conjugates one adjacency matrix onto the other.  Both deciders find a "yes"
by the sign-propagating matcher ``_sign_match``.  ``switching_match`` also
takes its "no"; ``switching_isomorphic`` returns a "no" only after VF2 (the
only use of it here) agrees: it enumerates isomorphisms of the underlying
graphs and, for each candidate, propagates signs along a spanning tree; on
a connected graph a candidate permutation admits at most one switching, so
the check per candidate is linear in the edge count.  The matcher is a
backtracking search over the positive and negative neighbour bitmasks
(``core._row_masks``) that fixes each vertex's switching sign as it places
it.  Each vertex goes only to a vertex of its own colour, its side,
degree and numbers of negative and positive quadrangles, all kept by
switching; unequal colour multisets answer "no" before any search, at
the cost of |A|^2 and ``SignedGraph.square`` per graph, one product for a
graph already squared.  Past the colours, a search packs each graph's
positive rows once, reads the negative ones off the cached support bits,
and fixes its vertex order in O(n + m) operations on n-bit masks (a bucket
queue on placed-neighbour counts).  The signature search dedupes with
``switching_match``, and ``weighing.equivalent`` calls ``_sign_match`` with
its row/column side split.  Both deciders re-check every witness before
returning it, by applying it to the adjacency matrix with
``core._signed_permute`` and comparing the result with the target's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .core import (SignedGraph, StructureError, _codegrees, _permutation, _require,
                   _row_masks, _signed_permute, _triangle_free, _vertex_set, _zero_two)
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps these names
from .core import quadrangles, structure_report  # noqa: F401
from .exactlinalg import charpoly

class SchemeError(StructureError):
    """The star normal form does not exist for this input."""


def switch(g: SignedGraph, vertices) -> SignedGraph:
    """Negate every edge with exactly one endpoint in ``vertices``."""
    eps = np.ones(g.n, dtype=np.int8)
    eps[list(_vertex_set(vertices, g.n, "switch set vertex"))] = -1
    return SignedGraph(g.adj * np.outer(eps, eps))


def relabel(g, perm):
    """Relabel with ``perm[old] = new``; a graph of ``g``'s own type."""
    inv = np.argsort(_permutation(perm, g.n))
    return type(g)(g.adj[np.ix_(inv, inv)])


def apply_signed_permutation(g: SignedGraph, perm, switch_set) -> SignedGraph:
    """Relabel then switch; the composite of the two witness pieces."""
    return switch(relabel(g, perm), switch_set)


@dataclass(frozen=True)
class SwitchingWitness:
    """h = switch(relabel(g, perm), switch_set) for the witnessed pair."""

    perm: tuple[int, ...]
    switch_set: frozenset[int]


@dataclass(frozen=True)
class SwitchingClass:
    representative: SignedGraph
    base_vertex: int
    permutation: tuple[int, ...]
    switch_set: frozenset[int]
    tail_size: int  # vertices at distance >= 3 from the base vertex, or unreachable


@cache
def scheme_prefix(r: int, n: int) -> np.ndarray:
    """First r+1 rows of the normal-form adjacency matrix of an (n, r)
    two-eigenvalue signed rectagraph, built once per (r, n) and read-only.

    Row 0 is a positive star on vertices 1..r; for every pair (a, b) with
    1 <= a < b <= r there is one column holding +1 in row a and -1 in row b;
    trailing columns (vertices far from the base) are zero.  ValueError
    when n is below the 1 + r + r(r-1)/2 columns the prefix fills.
    """
    width = 1 + r + comb(r, 2)
    if n < width:
        raise ValueError(f"the degree-{r} prefix needs order at least {width}, got {n}")
    rows = np.zeros((r + 1, n), dtype=np.int8)
    for j in range(1, r + 1):
        rows[0, j] = rows[j, 0] = 1
    col = r + 1
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            rows[a, col] = 1
            rows[b, col] = -1
            col += 1
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class SchemeLayout:
    """Vertex relabelling that realises the normal-form enumeration."""

    perm: tuple[int, ...]  # old -> new
    degree: int
    tail_size: int


def scheme_layout(g, base: int = 0) -> SchemeLayout:
    """Order vertices as: base, its neighbours, one common neighbour per
    neighbour pair, then everything at distance >= 3 or in another
    component (in original index order, which the enumeration itself does
    not prescribe).

    SchemeError names the first of regular, triangle-free and zero-two that
    fails, all three read off one codegree product; connectivity is left
    to the caller.  TypeError when ``base`` is not an integer, ValueError
    when it is not a vertex."""
    (base,) = _vertex_set([base], g.n, "base")
    codegrees = _codegrees(g)
    degree = int(codegrees[0, 0])
    if np.any(np.diagonal(codegrees) != degree):
        raise SchemeError("normal form needs a regular graph")
    if not _triangle_free(g, codegrees):
        raise SchemeError("normal form needs a triangle-free graph")
    if not _zero_two(codegrees):
        raise SchemeError("normal form needs a zero-two graph")
    bits = g.row_bits
    nbrs = np.flatnonzero(g.adj[base]).tolist()
    order = [base] + nbrs
    # zero-two and triangle-free: each pair shares one more vertex, new and distinct
    for ia, a in enumerate(nbrs, start=1):
        for b in nbrs[ia:]:
            order.append((bits[a] & bits[b] & ~(1 << base)).bit_length() - 1)
    placed = set(order)
    tail = [v for v in range(g.n) if v not in placed]
    order.extend(tail)
    return SchemeLayout(perm=tuple(np.argsort(order).tolist()),
                        degree=degree, tail_size=len(tail))


def schem_normal_form(g: SignedGraph, base: int = 0) -> SwitchingClass:
    """Representative of g's switching class whose first r+1 rows match
    ``scheme_prefix``; exists for every two-eigenvalue signed rectagraph.
    A disconnected graph is normalised at the base's component; the other
    components join the tail, which is left unswitched.

    The switch is forced: the first three layers of the BFS forest from
    the base (the base, its neighbours and the common-neighbour vertices)
    span the prefix, that tree is switched all-positive, and the remaining
    prefix signs are then determined by the negative quadrangles.
    """
    layout = scheme_layout(g, base)
    relabelled = relabel(g, layout.perm)
    r = layout.degree
    eps = [1] * g.n
    # parents come before their children, so one pass settles eps
    for v, u in relabelled.spanning_forest[1:1 + r + comb(r, 2)]:
        eps[v] = eps[u] * int(relabelled.adj[u, v])
    switch_set = frozenset(v for v in range(g.n) if eps[v] == -1)
    rep = switch(relabelled, switch_set)
    prefix = scheme_prefix(r, g.n)
    if not np.array_equal(rep.adj[: r + 1], prefix):
        raise SchemeError(
            "prefix quadrangle with positive sign product: the signature does "
            "not satisfy A^2 = r*I, so no scheme representative exists")
    return SwitchingClass(representative=rep, base_vertex=base,
                          permutation=layout.perm, switch_set=switch_set,
                          tail_size=layout.tail_size)


def _to_nx(g, colours=None):
    """Underlying graph of either graph type as networkx, edges in row order."""
    # imported on use: importing the package, and so every CLI call, would
    # otherwise pay for networkx, which only isomorphism and WL hashing need
    import networkx as nx

    out = nx.Graph()
    for v in range(g.n):
        out.add_node(v, c=None if colours is None else colours[v])
    us, vs = np.nonzero(np.triu(g.adj))  # not ``_edges``: that caches a list on g
    out.add_edges_from(zip(us.tolist(), vs.tolist()))
    return out


def underlying_isomorphisms(u1, u2):
    """Yield dict isomorphisms from u1's vertices onto u2's."""
    if u1.n != u2.n or sorted(u1.degrees) != sorted(u2.degrees):
        return
    import networkx as nx

    gm = nx.isomorphism.GraphMatcher(_to_nx(u1), _to_nx(u2))
    try:
        yield from gm.isomorphisms_iter()
    finally:
        gm.state = None  # the matcher and its state refer to each other


def solve_switch_for_perm(g: SignedGraph, h: SignedGraph, perm):
    """Sign vector making ``perm`` a switching isomorphism g -> h, or None.

    Per component the spanning-tree propagation determines the signs
    uniquely up to a global flip (which changes nothing), so one pass plus
    one verification decides.  The forest and the edge list of ``g`` are
    cached on ``g``, which stays fixed over all candidates of one decision.
    """
    eps = [0] * g.n
    for v, parent in g.spanning_forest:
        if parent < 0:
            eps[v] = 1
        else:
            sg = int(g.adj[parent, v])
            sh = int(h.adj[perm[parent], perm[v]])
            eps[v] = eps[parent] * sg * sh
    for a, b, sign in g.edges():
        if eps[a] * eps[b] * sign != int(h.adj[perm[a], perm[b]]):
            return None
    return eps


def switching_isomorphic(g: SignedGraph, h: SignedGraph):
    """Decide switching isomorphism; returns (bool, witness-or-None).

    A "yes" is ``switching_match``'s, its witness re-verified.  A "no"
    carries no certificate, so it is returned only once VF2 agrees: no
    underlying-graph isomorphism (components of disconnected inputs
    included) admits a switching, each candidate checked by
    ``solve_switch_for_perm``.  RuntimeError if VF2 finds one the matcher
    missed; TypeError unless both arguments are ``SignedGraph``.
    """
    _require(SignedGraph, "switching_isomorphic", g, h)
    answer = switching_match(g, h)
    if answer[0]:
        return answer
    for perm in underlying_isomorphisms(g, h):
        if solve_switch_for_perm(g, h, perm) is not None:
            raise RuntimeError("the sign matcher answered no, but VF2 found a "
                               "switching isomorphism")
    return False, None


def _match_order(pos, neg) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """The matcher's vertex order, each vertex with its (earlier neighbour,
    edge sign) pairs in order of placement; the first is its anchor.  Next
    comes the vertex with the most neighbours already placed, ties to the
    lowest index, so a vertex with none starts a new component.

    The unplaced vertices sit in buckets by placed-neighbour count, one
    bitmask per bucket, and the next vertex is the lowest bit of the highest
    non-empty bucket.  Placing v moves each unplaced neighbour up one bucket
    and appends (v, sign) to its earlier neighbours, so the whole order
    costs O(n + m) operations on n-bit masks."""
    size = len(pos)
    unplaced = (1 << size) - 1
    buckets = [unplaced] + [0] * size  # placed-neighbour count -> unplaced vertices
    earlier = [[] for _ in range(size)]  # one entry per placed neighbour
    order, top = [], 0
    for _ in range(size):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unplaced ^= low
        v = low.bit_length() - 1
        order.append((v, tuple(earlier[v])))
        for nbrs, sign in ((pos[v] & unplaced, 1), (neg[v] & unplaced, -1)):
            while nbrs:
                bit = nbrs & -nbrs
                nbrs ^= bit
                u = bit.bit_length() - 1
                earlier[u].append((v, sign))
                c = len(earlier[u])
                buckets[c - 1] ^= bit
                buckets[c] |= bit
                if c > top:
                    top = c
    return order


def _colours(g: SignedGraph, split: int) -> list[tuple[bool, int, int, int]]:
    """Each vertex's colour (below ``split``, degree, negative quadrangles
    through it, positive quadrangles through it); see ``_sign_match``."""
    neg, pos = _quadrangle_signs(g)
    return list(zip([v < split for v in range(g.n)], g.degrees, neg.tolist(), pos.tolist()))


def _sign_match(g: SignedGraph, h: SignedGraph, split: int = 0):
    """A switching isomorphism of ``g`` onto ``h`` as (perm, eps): vertex v
    goes to perm[v] with sign eps[v]; None if there is none.  With
    ``split``, the vertices below it and the rest are two sides that each
    stay on their own (the columns and rows of a weighing matrix's support
    graph); the default 0 puts every vertex on one side.  Unequal orders or
    degree multisets give None before any search, and so do unequal colour
    multisets.

    A vertex's colour (``_colours``) is its side, its degree and the
    numbers of negative and of positive quadrangles through it.  Every
    switching isomorphism keeps it: side and degree by definition, and a
    signed permutation maps the quadrangles through v onto those through
    its image, each with its sign, because switching a vertex negates 0 or
    2 of the four edges of any quadrangle.  So v may go only to a vertex
    of its own colour, and the colours cost |A|^2 per graph, plus A^2
    unless ``g.square`` is already cached.

    Backtracking over the order ``_match_order`` fixes in advance.  A vertex
    with an earlier neighbour may go only to an unused neighbour of its
    anchor's image, and the images of its earlier neighbours, split by the
    sign each edge must carry after switching, must be exactly the used
    positive and the used negative neighbours of its own image: that checks
    every edge, non-edge and sign back to the vertices already placed and
    fixes the vertex's sign.  A vertex with no earlier neighbour starts a
    component; it takes sign +1 (switching a whole component changes
    nothing) and any unused vertex of its colour.  The search is one loop
    over explicit per-depth state, so it leaves no reference cycle.
    """
    size = g.n
    if size != h.n or sorted(g.degrees) != sorted(h.degrees):
        return None
    gcolour, hcolour = _colours(g, split), _colours(h, split)
    if sorted(gcolour) != sorted(hcolour):
        return None
    classes: dict[tuple, int] = {}  # colour -> h's vertices of that colour
    for w, colour in enumerate(hcolour):
        classes[colour] = classes.get(colour, 0) | 1 << w
    allowed = [classes[colour] for colour in gcolour]  # v -> the images it may take
    gpos, hpos = _row_masks(g.adj > 0), _row_masks(h.adj > 0)
    # each support row is its positive and its negative neighbours, disjoint
    gneg = [bits ^ p for bits, p in zip(g.row_bits, gpos)]
    hbits = h.row_bits
    hneg = [bits ^ p for bits, p in zip(hbits, hpos)]
    order = _match_order(gpos, gneg)
    perm, eps = [0] * size, [0] * size
    untried = [0] * size  # images left to try at each depth
    wanted = [(0, 0)] * size  # (positive, negative) neighbour images at each depth
    used, k = 0, 0
    untried[0] = allowed[order[0][0]]
    while True:
        cands = untried[k]
        if not cands:
            k -= 1
            if k < 0:
                return None
            used ^= 1 << perm[order[k][0]]
            continue
        low = cands & -cands
        untried[k] = cands ^ low
        w = low.bit_length() - 1
        have = (hpos[w] & used, hneg[w] & used)
        p, q = wanted[k]
        if have == (p, q):
            sign = 1
        elif have == (q, p):
            sign = -1
        else:
            continue
        v = order[k][0]
        perm[v], eps[v] = w, sign
        used |= low
        k += 1
        if k == size:
            return perm, eps
        v, earlier = order[k]
        p = q = 0
        for u, edge in earlier:
            if eps[u] * edge > 0:
                p |= 1 << perm[u]
            else:
                q |= 1 << perm[u]
        wanted[k] = (p, q)
        untried[k] = allowed[v] & ~used
        if earlier:
            untried[k] &= hbits[perm[earlier[0][0]]]


def switching_match(g: SignedGraph, h: SignedGraph):
    """Decide switching isomorphism by ``_sign_match``, without VF2;
    returns (bool, witness-or-None) like ``switching_isomorphic``, and a
    returned witness has been re-verified by direct application.  Raises
    TypeError unless both arguments are ``SignedGraph``."""
    _require(SignedGraph, "switching_match", g, h)
    found = _sign_match(g, h)
    if found is None:
        return False, None
    perm, eps = found
    witness = SwitchingWitness(perm=tuple(perm), switch_set=frozenset(
        w for w, sign in zip(perm, eps) if sign == -1))
    if not np.array_equal(_signed_permute(g.adj, perm, eps, perm, eps), h.adj):
        raise RuntimeError("witness failed re-verification")
    return True, witness


def _quadrangle_signs(g) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex counts of the negative and of the positive quadrangles
    through each vertex, as two int64 vectors.

    A quadrangle through v is (v, b, c, d) for exactly one c != v, with b
    and d two of the k = (|A|^2)_vc common neighbours of v and c.  Its sign
    is the product of the signs of the paths v b c and v d c, and the k
    path signs sum to s = (A^2)_vc (``g.square``), so (k^2 - s^2) / 4 of
    the C(k, 2) quadrangles with diagonal vc are negative.  On the
    diagonal k = s is the degree, which adds nothing.
    """
    common = _codegrees(g)
    signed = g.square
    neg = (common * common - signed * signed).sum(axis=1) // 4
    np.fill_diagonal(common, 0)
    total = (common * (common - 1)).sum(axis=1) // 2
    return neg, total - neg


def quadrangle_balance_counts(g: SignedGraph) -> list[tuple[int, int]]:
    """Per-vertex (negative, positive) quadrangle counts, sorted (see
    ``_quadrangle_signs``)."""
    neg, pos = _quadrangle_signs(g)
    return sorted(zip(neg.tolist(), pos.tolist()))


def underlying_certificate(g) -> str:
    """Isomorphism-invariant fingerprint of the underlying graph."""
    import networkx as nx

    # degrees as the initial colours; without a node attribute networkx
    # 3.5+ warns that its default labelling changed
    return nx.weisfeiler_lehman_graph_hash(_to_nx(g, g.degrees), node_attr="c",
                                           iterations=4)


def class_invariants(g: SignedGraph) -> tuple:
    """Switching-invariant screening tuple: identical for every graph in a
    switching isomorphism class, cheap to compare across classes."""
    return (
        g.n,
        tuple(sorted(g.degrees)),
        tuple(charpoly(g.adj)),
        tuple(quadrangle_balance_counts(g)),
        underlying_certificate(g),
    )
