"""References that only the tests call, kept to check the package against.

* ``search_signatures_dfs``: the paper's row-by-row backtracking search over
  the quadrangle parity equations, checked against the GF(2)
  ``search.search_signatures``.
* ``naive_signature_classes``: switching classes by enumerating all 2^|E|
  signatures, for tiny graphs.
* ``float_spectrum_matches``: numpy's eigenvalues against an exact
  certificate.
"""

from collections import Counter
from itertools import permutations

import numpy as np

import rectaspec.search as search
from rectaspec._kernel import run_search
from rectaspec.core import _as_underlying


def search_signatures_dfs(g, node_budget=None, order_seed=None):
    """Reference for ``search.search_signatures``: the paper's DFS.

    The kernel ``run_search`` completes one adjacency-matrix row at a time
    (ties broken by lowest index) with unit propagation on the parity
    equations and enumerates every raw solution; ``order_seed`` shuffles its
    free-edge order and ``node_budget`` caps its decisions, which the
    outcome's ``nodes`` counts.  The raw solutions are grouped by their
    canonical switching mask and handed to ``search._outcome``, looked up on
    the module so that a test patching it sees both searches.
    """
    problem = search.build_signature_problem(g)
    order = search._edge_order(problem, order_seed)
    masks, nodes, _row_counts, exhausted = run_search(
        *search.kernel_arguments(problem, order=order, node_budget=node_budget or 0))
    classes = Counter(search.canonical_switch_key(problem, mask) for mask in masks)
    return search._outcome(problem, classes, nodes, exhausted)


def naive_signature_classes(g) -> int:
    """Number of switching classes of two-eigenvalue signatures of ``g``,
    by full enumeration of all 2^|E| signatures.

    Deliberately shares nothing with the pruned search: solutions come from
    checking A^2 = r I directly, automorphisms from a brute-force permutation
    scan, and class counting from closing the solution set under single
    switches and automorphisms.  Only sensible for tiny graphs.
    """
    u = _as_underlying(g)
    n = u.n
    edges = u.edges()
    m = len(edges)
    if m > 24:
        raise ValueError("oracle is limited to 24 edges")
    r = u.degrees[0]
    if r == 0:
        return 0  # the empty signature has spectrum {0}: one eigenvalue
    target = np.asarray(r * np.eye(n), dtype=np.int64)

    solutions = {}
    for mask in range(1 << m):
        adj = np.zeros((n, n), dtype=np.int64)
        for i, (a, b) in enumerate(edges):
            adj[a, b] = adj[b, a] = -1 if (mask >> i) & 1 else 1
        if np.array_equal(adj @ adj, target):
            solutions[mask] = len(solutions)
    if not solutions:
        return 0

    autos = []
    base = np.asarray(u.adj, dtype=np.int8)
    for perm in permutations(range(n)):
        p = list(perm)
        if all(base[p[a]][p[b]] == base[a][b] for a in range(n) for b in range(a)):
            autos.append(p)

    parent = list(range(len(solutions)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    edge_at_vertex = [[i for i, (a, b) in enumerate(edges) if v in (a, b)]
                      for v in range(n)]
    for mask, idx in solutions.items():
        for v in range(n):
            flipped = mask
            for i in edge_at_vertex[v]:
                flipped ^= 1 << i
            union(idx, solutions[flipped])
        for p in autos:
            new_mask = 0
            for i, (a, b) in enumerate(edges):
                x, y = p[a], p[b]
                j = edges.index((min(x, y), max(x, y)))
                if (mask >> i) & 1:
                    new_mask |= 1 << j
            union(idx, solutions[new_mask])
    return len({find(i) for i in solutions.values()})


def float_spectrum_matches(g, cert) -> bool:
    """numpy's eigenvalues of ``g`` are the multiset ``cert`` claims, to 1e-9."""
    lam = cert.lambda_sq ** 0.5
    if cert.kind == "TwoSym":
        middle = []
    elif cert.kind == "ThreeSym":
        middle = [0.0] * cert.d
    else:
        middle = [-cert.mu_sq ** 0.5, cert.mu_sq ** 0.5]
    claimed = np.sort([-lam] * cert.m + middle + [lam] * cert.m)
    eig = np.linalg.eigvalsh(np.asarray(g.adj, dtype=np.float64))  # ascending
    return eig.shape == claimed.shape and bool(np.max(np.abs(eig - claimed)) < 1e-9)
