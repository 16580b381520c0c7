"""References that only the tests call, kept to check the package against.

* ``search_signatures_dfs``: the paper's row-by-row backtracking search over
  the quadrangle parity equations, checked against the GF(2)
  ``search.search_signatures``.
* ``naive_signature_classes``: switching classes by enumerating all 2^|E|
  signatures, for tiny graphs.
* ``float_spectrum_matches``: numpy's eigenvalues against an exact
  certificate.
* ``brute_force_quadrangles``: every 4-cycle from the closed 4-walks,
  checked against ``core.quadrangles`` and the balance counts of
  ``switching.quadrangle_balance_counts``.
* ``sign_by_sign_weighing_search``: the old weighing search, which branches
  over every sign, checked against the support search of
  ``search.search_weighing``.
* ``uncut_support_search``: the support search with every candidate tried
  as the first tail row, checked against the orbit cut of
  ``search._SupportSearch._orbit_least``.
* ``quadratic_match_order``: the sign matcher's vertex order by a scan of
  every unplaced vertex per step, checked against the bucket queue of
  ``switching._match_order``.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager
from itertools import permutations

import numpy as np

import rectaspec.search as search
from rectaspec._kernel import run_search
from rectaspec.core import _bits, underlying


def search_signatures_dfs(g, node_budget=None, order_seed=None):
    """Reference for ``search.search_signatures``: the paper's DFS.

    The kernel ``run_search`` completes one adjacency-matrix row at a time
    (ties broken by lowest index) with unit propagation on the parity
    equations and enumerates every raw solution; ``order_seed`` shuffles its
    free-edge order and ``node_budget`` caps its decisions, which the
    outcome's ``nodes`` counts.  The canonical switching masks of the raw
    solutions, in order of first appearance, are handed to
    ``search._outcome``, looked up on the module so that a test patching it
    sees both searches.  ``raw_count`` is the DFS's own count of raw
    solutions, not the one ``_outcome`` infers from the classes, and the
    outcome's extra attribute ``class_sizes`` counts them per canonical
    mask.  The kernel's third item is an empty tuple: it keeps no per-row
    count of completions, because nothing read one.
    """
    problem = search.build_signature_problem(g)
    order = search._edge_order(problem, order_seed)
    masks, nodes, _, exhausted = run_search(
        *search.kernel_arguments(problem, order=order, node_budget=node_budget or 0))
    classes = Counter(search.canonical_switch_key(problem, mask) for mask in masks)
    outcome = search._outcome(problem, list(classes), nodes, exhausted)
    outcome = dataclasses.replace(outcome, raw_count=len(masks))
    outcome.class_sizes = classes
    return outcome


def naive_signature_classes(g) -> int:
    """Number of switching classes of two-eigenvalue signatures of ``g``,
    by full enumeration of all 2^|E| signatures.

    Deliberately shares nothing with the pruned search: solutions come from
    checking A^2 = r I directly, automorphisms from a brute-force permutation
    scan, and class counting from closing the solution set under single
    switches and automorphisms.  Only sensible for tiny graphs.
    """
    u = underlying(g)
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


def brute_force_quadrangles(g) -> list[tuple[int, int, int, int]]:
    """Every 4-cycle, found as the closed walks v0 v1 v2 v3 v0 on four
    distinct vertices, written from its smallest vertex a with b < d and
    sorted by (a, c, b, d): the order ``quadrangles`` documents."""
    adj = np.abs(np.asarray(g.adj, dtype=np.int64))
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    cycles = set()
    for v0 in range(len(adj)):
        for v1 in nbrs[v0]:
            for v2 in nbrs[v1]:
                for v3 in nbrs[v2]:
                    if len({v0, v1, v2, v3}) == 4 and adj[v3, v0]:
                        cycle = [v0, v1, v2, v3]
                        k = cycle.index(min(cycle))
                        a, b, c, d = cycle[k:] + cycle[:k]
                        cycles.add((a, min(b, d), c, max(b, d)))
    return sorted(cycles, key=lambda q: (q[0], q[2], q[1], q[3]))


def sign_by_sign_weighing_search(n, r, prefix_rows, node_budget=0):
    """Reference for ``search.search_weighing``: the old weighing search,
    which branches over the sign of every entry.

    Row-by-row enumeration of {0, +-1} matrices extending ``prefix_rows``
    to an n x n weighing matrix of weight r whose row (and hence column)
    intersection numbers lie in {0, 2}.

    Tail rows are kept lexicographically non-decreasing with their first
    nonzero entry positive (both are equivalence symmetries).  Returns
    (solutions, nodes, exhausted) with solutions as row-major entry tuples.
    """
    rows = [list(map(int, row)) for row in prefix_rows]
    n_prefix = len(rows)
    col_count = [0] * n
    col_ov = [[0] * n for _ in range(n)]
    col_dot = [[0] * n for _ in range(n)]
    for row in rows:
        sup = [j for j, v in enumerate(row) if v]
        for j in sup:
            col_count[j] += 1
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                i, j = sup[a], sup[b]
                col_ov[i][j] += 1
                col_dot[i][j] += row[i] * row[j]
    supports = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    # every row of a finished matrix intersects exactly r(r-1)/2 others
    # (each support column carries r-1 other entries, each intersecting
    # partner uses two of those slots), so per-row quotas bound the search
    quota = r * (r - 1) // 2
    inter_cnt = [0] * n
    disj_cnt = [0] * n
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if (supports[a] & supports[b]).bit_count():
                inter_cnt[a] += 1
                inter_cnt[b] += 1
            else:
                disj_cnt[a] += 1
                disj_cnt[b] += 1
    solutions = []
    state = {"nodes": 0}

    def suffix_support(mask, j):
        return (mask >> j).bit_count()

    def row_choices(i, prev_tail):
        entries = [0] * n
        dots = [0] * i
        ovs = [0] * i

        def feasible(j, weight_left):
            if weight_left > n - j:
                return False
            for p in range(i):
                ov = ovs[p]
                if ov == 2:
                    if dots[p] != 0:
                        return False
                elif ov == 1:
                    if min(weight_left, suffix_support(supports[p], j)) == 0:
                        return False
            return True

        def rec(j, weight_left, seen_nonzero, still_equal):
            if node_budget and state["nodes"] >= node_budget:
                return
            if j == n:
                if weight_left == 0 and all(
                        ovs[p] in (0, 2) and dots[p] == 0 for p in range(i)):
                    mask = sum(1 << jj for jj, v in enumerate(entries) if v)
                    yield list(entries), mask
                return
            choices = [0, 1, -1] if seen_nonzero else [0, 1]
            for v in choices:
                if v == 0:
                    if still_equal and prev_tail is not None and prev_tail[j] > 0:
                        continue
                    nxt_equal = still_equal and (prev_tail is None
                                                 or prev_tail[j] == 0)
                    if still_equal and prev_tail is not None and prev_tail[j] < 0:
                        nxt_equal = False
                    if feasible(j + 1, weight_left):
                        yield from rec(j + 1, weight_left, seen_nonzero, nxt_equal)
                    continue
                if weight_left == 0 or col_count[j] >= r:
                    continue
                if still_equal and prev_tail is not None and v < prev_tail[j]:
                    continue
                if node_budget and state["nodes"] >= node_budget:
                    return
                state["nodes"] += 1
                ok = True
                for jj in range(j):  # column pairs inside the current row
                    w = entries[jj]
                    if w == 0:
                        continue
                    ov = col_ov[jj][j] + 1
                    if ov > 2 or (ov == 2 and col_dot[jj][j] + w * v != 0):
                        ok = False
                        break
                touched = []
                if not ok:
                    continue
                for p in range(i):
                    pv = rows[p][j]
                    if pv:
                        ovs[p] += 1
                        dots[p] += v * pv
                        touched.append(p)
                        if ovs[p] > 2:
                            ok = False
                nxt_equal = (still_equal and prev_tail is not None
                             and v == prev_tail[j])
                if ok and feasible(j + 1, weight_left - 1):
                    entries[j] = v
                    yield from rec(j + 1, weight_left - 1, True, nxt_equal)
                    entries[j] = 0
                for p in touched:
                    ovs[p] -= 1
                    dots[p] -= v * rows[p][j]

        yield from rec(0, r, False, prev_tail is not None)

    def extend(i, prev_tail):
        if node_budget and state["nodes"] >= node_budget:
            return
        if i == n:
            solutions.append(tuple(v for row in rows for v in row))
            return
        remaining = n - i  # rows still to be filled, this one included
        if any(r - c > remaining for c in col_count):
            return
        for entries, mask in row_choices(i, prev_tail):
            for p in range(i):
                if supports[p] & mask:
                    inter_cnt[p] += 1
                    inter_cnt[i] += 1
                else:
                    disj_cnt[p] += 1
                    disj_cnt[i] += 1
            future = n - 1 - i
            ok = all(inter_cnt[p] <= quota
                     and inter_cnt[p] + future >= quota
                     for p in range(i + 1))
            if ok:
                rows.append(entries)
                supports.append(mask)
                sup = [j for j, v in enumerate(entries) if v]
                for j in sup:
                    col_count[j] += 1
                for a in range(len(sup)):
                    for b in range(a + 1, len(sup)):
                        ja, jb = sup[a], sup[b]
                        col_ov[ja][jb] += 1
                        col_dot[ja][jb] += entries[ja] * entries[jb]
                extend(i + 1, entries)
                rows.pop()
                supports.pop()
                for j in sup:
                    col_count[j] -= 1
                for a in range(len(sup)):
                    for b in range(a + 1, len(sup)):
                        ja, jb = sup[a], sup[b]
                        col_ov[ja][jb] -= 1
                        col_dot[ja][jb] -= entries[ja] * entries[jb]
            for p in range(i):
                if supports[p] & mask:
                    inter_cnt[p] -= 1
                    inter_cnt[i] -= 1
                else:
                    disj_cnt[p] -= 1
                    disj_cnt[i] -= 1

    extend(n_prefix, None)
    nodes = state["nodes"]
    exhausted = not (node_budget and nodes >= node_budget)
    return solutions, nodes, exhausted


class UncutSupportSearch(search._SupportSearch):
    """``search._SupportSearch`` that tries every candidate as the first
    tail row, so it finds every labelled support extending the prefix."""

    def _orbit_least(self, cands):
        return set(cands)


@contextmanager
def uncut_support_search():
    """Within the block, the support search of ``search.run_weighing_search``
    and ``search.search_weighing`` runs on ``UncutSupportSearch``; its
    supports are signed by ``search._sign_supports`` as usual."""
    cut, search._SupportSearch = search._SupportSearch, UncutSupportSearch
    try:
        yield
    finally:
        search._SupportSearch = cut


def quadratic_match_order(pos, neg):
    """Reference for ``switching._match_order``, O(n^2): each step scans the
    unplaced vertices for the one with the most neighbours already placed,
    ties to the lowest index, and sorts its placed neighbours by when they
    were placed."""
    size = len(pos)
    placed, count, order = 0, [0] * size, []
    where = [0] * size
    for k in range(size):
        v = max((u for u in range(size) if not placed >> u & 1),
                key=lambda u: (count[u], -u))
        earlier = sorted(_bits((pos[v] | neg[v]) & placed), key=where.__getitem__)
        order.append((v, tuple((u, 1 if pos[v] >> u & 1 else -1) for u in earlier)))
        placed |= 1 << v
        where[v] = k
        for u in _bits(pos[v] | neg[v]):
            count[u] += 1
    return order
