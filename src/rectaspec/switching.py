"""Switching, the star normal form for signed rectagraphs, and the
switching-isomorphism decision procedure.

Two signed graphs are switching isomorphic when a signed permutation matrix
conjugates one adjacency matrix onto the other.  The decision procedure
enumerates isomorphisms of the underlying graphs (VF2) and, for each
candidate, propagates signs along a spanning tree: on a connected graph a
candidate permutation admits at most one switching, so the check per
candidate is linear in the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import networkx as nx
import numpy as np

from .core import (SignedGraph, StructureError, UnderlyingGraph, _as_underlying,
                   quadrangles, structure_report)
from .exactlinalg import charpoly

DEFAULT_SIZE_CAP = 128


class SizeCapError(ValueError):
    """Instance too large for the exact decision procedure; screen with
    class_invariants instead."""


class SchemeError(StructureError):
    """The star normal form does not exist for this input."""


def switch(g: SignedGraph, vertices) -> SignedGraph:
    """Negate every edge with exactly one endpoint in ``vertices``."""
    s = set(vertices)
    eps = np.asarray([-1 if v in s else 1 for v in range(g.n)], dtype=np.int8)
    adj = (g.adj * np.outer(eps, eps)).astype(np.int8)
    return SignedGraph(adj, labels=g.labels)


def relabel(g: SignedGraph, perm) -> SignedGraph:
    """Relabel with ``perm[old] = new``."""
    perm = list(perm)
    inv = [0] * g.n
    for old, new in enumerate(perm):
        inv[new] = old
    idx = np.asarray(inv)
    labels = tuple(g.labels[i] for i in inv) if g.labels else None
    return SignedGraph(g.adj[np.ix_(idx, idx)], labels=labels)


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
    tail_size: int  # vertices at distance >= 3 from the base vertex


def scheme_prefix(r: int, n: int) -> np.ndarray:
    """First r+1 rows of the normal-form adjacency matrix of an (n, r)
    two-eigenvalue signed rectagraph.

    Row 0 is a positive star on vertices 1..r; for every pair (a, b) with
    1 <= a < b <= r there is one column holding +1 in row a and -1 in row b;
    trailing columns (vertices far from the base) are zero.
    """
    rows = np.zeros((r + 1, n), dtype=np.int8)
    for j in range(1, r + 1):
        rows[0, j] = rows[j, 0] = 1
    col = r + 1
    for a in range(1, r + 1):
        for b in range(a + 1, r + 1):
            rows[a, col] = 1
            rows[b, col] = -1
            col += 1
    return rows


@dataclass(frozen=True)
class SchemeLayout:
    """Vertex relabelling that realises the normal-form enumeration."""

    perm: tuple[int, ...]  # old -> new
    degree: int
    pair_vertex: dict  # (a, b) new labels with 1 <= a < b <= r -> new label of w
    tail_size: int


def scheme_layout(g, base: int = 0) -> SchemeLayout:
    """Order vertices as: base, its neighbours, one common neighbour per
    neighbour pair, then everything at distance >= 3 (in original index
    order, which the enumeration itself does not prescribe)."""
    u = _as_underlying(g)
    rep = structure_report(u)
    for name in ("connected", "regular", "triangle_free", "zero_two"):
        if not getattr(rep, name):
            raise SchemeError(f"normal form needs a {name.replace('_', '-')} graph")
    r = rep.degree
    bits = u.row_bits
    nbrs = sorted(np.flatnonzero(u.adj[base]).tolist())
    order = [base] + nbrs
    pair_vertex = {}
    for ia, a in enumerate(nbrs, start=1):
        for ib, b in enumerate(nbrs[ia:], start=ia + 1):
            common = bits[a] & bits[b] & ~(1 << base)
            if common == 0 or common & (common - 1):
                raise SchemeError(
                    f"neighbour pair ({a}, {b}) must share the base vertex and "
                    "exactly one more vertex")
            w = common.bit_length() - 1
            pair_vertex[(ia, ib)] = len(order)
            order.append(w)
    placed = set(order)
    if len(placed) != len(order):
        raise SchemeError("enumeration revisited a vertex; graph is not zero-two")
    tail = [v for v in range(u.n) if v not in placed]
    order.extend(tail)
    perm = [0] * u.n
    for new, old in enumerate(order):
        perm[old] = new
    expected = 1 + r + comb(r, 2)
    assert len(order) - len(tail) == expected
    return SchemeLayout(perm=tuple(perm), degree=r, pair_vertex=pair_vertex,
                        tail_size=len(tail))


def schem_normal_form(g: SignedGraph, base: int = 0) -> SwitchingClass:
    """Representative of g's switching class whose first r+1 rows match
    ``scheme_prefix``; exists for every two-eigenvalue signed rectagraph.

    The switch is forced: a spanning tree made of the base star plus one
    edge into each common-neighbour vertex is switched all-positive, and the
    remaining prefix signs are then determined by the negative quadrangles.
    """
    layout = scheme_layout(g, base)
    relabelled = relabel(g, layout.perm)
    r = layout.degree
    tree = [(0, j) for j in range(1, r + 1)]
    tree += [(a, w) for (a, _b), w in layout.pair_vertex.items()]
    eps = [0] * g.n
    eps[0] = 1
    for u, v in tree:  # tree edges listed parent-first, so one pass settles eps
        eps[v] = eps[u] * int(relabelled.adj[u, v])
    for v in range(g.n):
        if eps[v] == 0:
            eps[v] = 1
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


def _to_nx(u: UnderlyingGraph, colours=None) -> nx.Graph:
    g = nx.Graph()
    for v in range(u.n):
        g.add_node(v, c=None if colours is None else colours[v])
    g.add_edges_from(u.edges())
    return g


def underlying_isomorphisms(u1, u2, colours1=None, colours2=None):
    """Yield dict isomorphisms from u1's vertices onto u2's, respecting the
    optional vertex colourings."""
    u1, u2 = _as_underlying(u1), _as_underlying(u2)
    if u1.n != u2.n or sorted(u1.degrees) != sorted(u2.degrees):
        return
    match = nx.isomorphism.categorical_node_match("c", None)
    gm = nx.isomorphism.GraphMatcher(_to_nx(u1, colours1), _to_nx(u2, colours2),
                                     node_match=match)
    yield from gm.isomorphisms_iter()


def _spanning_forest_order(u: UnderlyingGraph):
    """(vertex, parent) pairs in BFS order per component; roots have parent -1."""
    bits = u.row_bits
    seen = set()
    order = []
    for root in range(u.n):
        if root in seen:
            continue
        seen.add(root)
        order.append((root, -1))
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                mask = bits[v]
                while mask:
                    w = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    if w not in seen:
                        seen.add(w)
                        order.append((w, v))
                        nxt.append(w)
            frontier = nxt
    return order


def solve_switch_for_perm(g: SignedGraph, h: SignedGraph, perm):
    """Sign vector making ``perm`` a switching isomorphism g -> h, or None.

    Per component the spanning-tree propagation determines the signs
    uniquely up to a global flip (which changes nothing), so one pass plus
    one verification decides.
    """
    u = _as_underlying(g)
    eps = [0] * g.n
    for v, parent in _spanning_forest_order(u):
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


def switching_isomorphic(g: SignedGraph, h: SignedGraph,
                         cap: int = DEFAULT_SIZE_CAP):
    """Decide switching isomorphism; returns (bool, witness-or-None).

    Candidate permutations come from underlying-graph isomorphisms (which
    also handles matching up components of disconnected inputs); each
    candidate admits at most one switching.  A returned witness has been
    re-verified by direct application.
    """
    if g.n > cap or h.n > cap:
        raise SizeCapError(
            f"order exceeds the decision cap ({cap}); use class_invariants "
            "screening for larger graphs")
    if g.n != h.n:
        return False, None
    for perm in underlying_isomorphisms(g, h):
        eps = solve_switch_for_perm(g, h, perm)
        if eps is not None:
            perm_tuple = tuple(perm[v] for v in range(g.n))
            switch_set = frozenset(perm[v] for v in range(g.n) if eps[v] == -1)
            witness = SwitchingWitness(perm=perm_tuple, switch_set=switch_set)
            check = apply_signed_permutation(g, witness.perm, witness.switch_set)
            if check != h:
                raise RuntimeError("witness failed re-verification")
            return True, witness
    return False, None


def quadrangle_balance_counts(g: SignedGraph) -> list[tuple[int, int]]:
    """Per-vertex (negative, positive) quadrangle counts, sorted."""
    neg = [0] * g.n
    pos = [0] * g.n
    for a, b, c, d in quadrangles(g):
        sign = (int(g.adj[a, b]) * int(g.adj[b, c])
                * int(g.adj[c, d]) * int(g.adj[d, a]))
        target = neg if sign < 0 else pos
        for v in (a, b, c, d):
            target[v] += 1
    return sorted(zip(neg, pos))


def underlying_certificate(g) -> str:
    """Isomorphism-invariant fingerprint of the underlying graph."""
    u = _as_underlying(g)
    # degrees as the initial colours; without a node attribute networkx
    # 3.5+ warns that its default labelling changed
    return nx.weisfeiler_lehman_graph_hash(_to_nx(u, u.degrees), node_attr="c",
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
