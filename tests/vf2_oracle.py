"""Reference decision for weighing-matrix equivalence, kept to check
``weighing.equivalent`` against.

It is the procedure ``equivalent`` used before the sign-propagating matcher:
VF2 enumerates the isomorphisms of the two support graphs that keep columns
and rows on their own side, and each candidate is completed by spanning-tree
sign propagation (``switching.solve_switch_for_perm``).  A "no" walks every
side-preserving isomorphism, so keep it to small or asymmetric inputs: it
needs 54 s for the Sylvester H8 and does not finish H16.
"""

import networkx as nx
import numpy as np

from rectaspec.switching import solve_switch_for_perm
from rectaspec.weighing import _support_bipartite


def _coloured(g, colours):
    out = nx.Graph()
    for v in range(g.n):
        out.add_node(v, c=colours[v])
    us, vs = np.nonzero(np.triu(g.adj))
    out.add_edges_from(zip(us.tolist(), vs.tolist()))
    return out


def coloured_isomorphisms(g, h, colours_g, colours_h):
    """Dict isomorphisms of g's underlying graph onto h's that map every
    vertex to one of its own colour."""
    if g.n != h.n or sorted(g.degrees) != sorted(h.degrees):
        return
    match = nx.isomorphism.categorical_node_match("c", None)
    gm = nx.isomorphism.GraphMatcher(_coloured(g, colours_g), _coloured(h, colours_h),
                                     node_match=match)
    try:
        yield from gm.isomorphisms_iter()
    finally:
        gm.state = None  # the matcher and its state refer to each other


def vf2_equivalent(m, n) -> bool:
    """M = P N Q for signed permutation matrices P, Q, decided by VF2."""
    if (m.n, m.r) != (n.n, n.r):
        return False
    gm, gn = _support_bipartite(m), _support_bipartite(n)
    sides = [0] * m.n + [1] * m.n
    return any(solve_switch_for_perm(gm, gn, perm) is not None
               for perm in coloured_isomorphisms(gm, gn, sides, sides))
