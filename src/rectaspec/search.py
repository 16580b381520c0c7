"""Exhaustive backtracking searches.

Two searches live here:

* ``search_signatures``: all sign assignments of a fixed underlying
  rectagraph that give A^2 = r I, up to switching isomorphism.  The vertex
  labelling is first normalised so that the first r+1 rows of the adjacency
  matrix are fully forced (see ``switching.scheme_prefix``); only edges
  between vertices outside that prefix remain free, and A^2 = r I is then
  equivalent to every quadrangle having sign product -1, which becomes one
  parity constraint per quadrangle for the DFS kernel.  Pure switching is
  quotiented on the kernel's bitmasks: only tail vertices (distance >= 3
  from the base) can switch, so masks differing by a sum of tail stars form
  one class; one mask per class is materialised and certified, and
  switching isomorphism is then decided on those representatives.

* ``search_weighing``: all (n, r) weighing matrices with row intersection
  numbers in {0, 2} extending the weighing row normal form, up to
  equivalence.

Both searches are deterministic and emit enough bookkeeping to replay them
(the proof-log text format below).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from ._kernel import active_backend, run_search, run_weighing_search
from .core import SignedGraph, UnderlyingGraph, _as_underlying, quadrangles
from .formats import write_graph6
from .spectral import certify_two_sym
from .switching import (_spanning_forest_order, class_invariants, scheme_layout,
                        switching_isomorphic)
from .weighing import WeighingMatrix, equivalent, scheme_two_prefix


@dataclass(frozen=True)
class SignatureSearchProblem:
    """Normalised signature search instance over a fixed labelling."""

    graph: UnderlyingGraph  # relabelled underlying graph
    degree: int
    prefix_signs: np.ndarray  # int8 matrix: fixed signs, 0 where free/absent
    free_edges: tuple[tuple[int, int], ...]
    constraint_edges: tuple[tuple[int, ...], ...]
    constraint_targets: tuple[int, ...]
    labelling: tuple[int, ...]  # original vertex -> search label
    tail_size: int
    # per tail vertex, BFS order: (free-edge bit to its parent, star bitmask)
    tail_stars: tuple[tuple[int, int], ...]


@dataclass
class SearchOutcome:
    solutions: list[SignedGraph]  # one representative per switching class
    nodes: int
    exhausted: bool
    raw_count: int
    row_candidates: dict[int, int]  # 1-based row -> consistent completions
    problem: SignatureSearchProblem = field(repr=False)
    backend: str = ""


def build_signature_problem(g, base: int = 0) -> SignatureSearchProblem:
    u = _as_underlying(g)
    layout = scheme_layout(u, base)  # raises SchemeError naming the predicate
    r = layout.degree
    n = u.n
    inv = [0] * n
    for old, new in enumerate(layout.perm):
        inv[new] = old
    adj = u.adj[np.ix_(inv, inv)]
    relabelled = UnderlyingGraph(adj)

    prefix = np.zeros((n, n), dtype=np.int8)
    prefix[0, 1:r + 1] = 1
    prefix[1:r + 1, 0] = 1
    for (a, b), w in layout.pair_vertex.items():
        prefix[a, w] = prefix[w, a] = 1
        prefix[b, w] = prefix[w, b] = -1

    free_edges = [(int(v), int(w)) for v, w in relabelled.edges()
                  if v > r and w > r]
    edge_index = {e: i for i, e in enumerate(free_edges)}

    constraint_edges = []
    constraint_targets = []
    for a, b, c, d in quadrangles(relabelled):
        cycle = [(a, b), (b, c), (c, d), (a, d)]
        free = []
        parity = 0  # xor of negative bits over the fixed edges
        for e in cycle:
            e = (min(e), max(e))
            if e in edge_index:
                free.append(edge_index[e])
            else:
                sign = int(prefix[e[0], e[1]])
                if sign == 0:
                    raise RuntimeError("edge neither free nor fixed")
                if sign < 0:
                    parity ^= 1
        if not free:
            if parity != 1:
                raise RuntimeError("fixed prefix carries a positive quadrangle")
            continue
        constraint_edges.append(tuple(free))
        constraint_targets.append(1 ^ parity)

    # every edge at a tail vertex is free: switching it flips just its star
    star = [0] * n
    for i, (v, w) in enumerate(free_edges):
        star[v] |= 1 << i
        star[w] |= 1 << i
    tail_stars = tuple(
        (1 << edge_index[min(v, parent), max(v, parent)], star[v])
        for v, parent in _spanning_forest_order(relabelled)
        if v >= n - layout.tail_size)

    return SignatureSearchProblem(
        graph=relabelled, degree=r, prefix_signs=prefix,
        free_edges=tuple(free_edges), constraint_edges=tuple(constraint_edges),
        constraint_targets=tuple(constraint_targets), labelling=layout.perm,
        tail_size=layout.tail_size, tail_stars=tail_stars)


def kernel_arguments(problem: SignatureSearchProblem, order=None,
                     node_budget: int = 0) -> tuple:
    """Argument tuple for the search kernels (either backend)."""
    n_free = len(problem.free_edges)
    edge_constraints = [[] for _ in range(n_free)]
    for ci, edges in enumerate(problem.constraint_edges):
        for e in edges:
            edge_constraints[e].append(ci)
    row_free_counts = [0] * problem.graph.n
    for v, w in problem.free_edges:
        row_free_counts[v] += 1
        row_free_counts[w] += 1
    return (n_free, [tuple(e) for e in problem.constraint_edges],
            list(problem.constraint_targets),
            [tuple(c) for c in edge_constraints],
            [(v, w) for v, w in problem.free_edges], row_free_counts,
            order if order is not None else list(range(n_free)), node_budget)


def _solution_graph(problem: SignatureSearchProblem, mask: int) -> SignedGraph:
    signs = np.array(problem.prefix_signs)  # every edge is fixed or free
    for i, (v, w) in enumerate(problem.free_edges):
        signs[v, w] = signs[w, v] = -1 if (mask >> i) & 1 else 1
    return SignedGraph(signs)


def canonical_switch_key(problem: SignatureSearchProblem, mask: int) -> int:
    """Canonical mask of ``mask``'s pure-switching class (labels fixed).

    The prefix cannot be switched, so the class is ``mask`` plus every sum
    of tail stars; switching each tail vertex, in BFS order, to make the
    edge to its parent positive picks one mask per class.
    """
    for parent_bit, star in problem.tail_stars:
        if mask & parent_bit:
            mask ^= star
    return mask


def dedupe_switching_classes(graphs) -> list[SignedGraph]:
    """Representatives of the switching isomorphism classes in ``graphs``."""
    buckets: dict[tuple, list[SignedGraph]] = {}
    for g in graphs:
        buckets.setdefault(class_invariants(g), []).append(g)
    reps: list[SignedGraph] = []
    for bucket in buckets.values():
        local: list[SignedGraph] = []
        for g in bucket:
            cap = max(g.n, 128)
            if not any(switching_isomorphic(g, rep, cap=cap)[0] for rep in local):
                local.append(g)
        reps.extend(local)
    return reps


def _outcome(problem: SignatureSearchProblem, masks, nodes: int, row_cand,
             exhausted: bool) -> SearchOutcome:
    """Certify the first mask of each pure-switching class and dedupe those.

    Every other mask of a class is a tail switching of its representative,
    and switching preserves A^2 = r I, so one certificate decides the class.
    """
    classes: dict[int, list[int]] = {}
    for mask in masks:
        classes.setdefault(canonical_switch_key(problem, mask), []).append(mask)
    r = problem.degree
    valid, raw_count = [], 0
    for members in classes.values():
        sol = _solution_graph(problem, members[0])
        cert = certify_two_sym(sol)
        if cert and cert.lambda_sq == r:
            valid.append(sol)
            raw_count += len(members)
        elif r != 0:
            # only the degenerate degree-0 graph may fail: its lone
            # signature has the one-eigenvalue spectrum {0}
            raise RuntimeError("search produced a non-solution")

    free_rows = {v for e in problem.free_edges for v in e}
    candidates = {v + 1: row_cand[v] if v in free_rows else 1
                  for v in range(r + 1, problem.graph.n)}
    return SearchOutcome(solutions=dedupe_switching_classes(valid), nodes=nodes,
                         exhausted=exhausted, raw_count=raw_count,
                         row_candidates=candidates, problem=problem,
                         backend=active_backend())


def search_signatures(g, node_budget: int | None = None, base: int = 0,
                      order_seed: int | None = None, progress=None,
                      progress_every: int = 0) -> SearchOutcome:
    """All two-eigenvalue signatures of a connected rectagraph, up to
    switching isomorphism.

    The DFS completes one adjacency-matrix row at a time (ties broken by
    lowest index); ``order_seed`` shuffles the free-edge order, which must
    not change the outcome and exists for exactly that cross-check.
    ``node_budget`` caps the number of decisions; when it is hit the outcome
    has ``exhausted=False`` and the class list may be incomplete.
    """
    problem = build_signature_problem(g, base)
    order = list(range(len(problem.free_edges)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    return _outcome(problem, *run_search(
        *kernel_arguments(problem, order=order, node_budget=node_budget or 0),
        progress=progress, progress_every=progress_every))


def _run_subtree_task(args):
    problem_args, forced = args
    from ._kernel import run_search as kernel

    n_free, ce, ct, ec, rows, counts, order, budget = problem_args
    ce = list(ce) + [(e,) for e, _bit in forced]
    ct = list(ct) + [bit for _e, bit in forced]
    ec = [list(c) for c in ec]
    for idx, (e, _bit) in enumerate(forced):
        ec[e] = list(ec[e]) + [len(ct) - len(forced) + idx]
    return kernel(n_free, ce, ct, ec, rows, counts, order, budget)


def search_signatures_parallel(g, workers: int | None = None, base: int = 0,
                               node_budget: int | None = None) -> SearchOutcome:
    """Subtree-parallel variant of ``search_signatures``.

    The tree is split at the first free row: one independent task per sign
    assignment of that row's free edges (inconsistent prefixes die
    immediately inside their task).  Tasks share nothing; the merge
    deduplicates exactly like the sequential driver.  Node and candidate
    counts are per-task sums, so they differ from the sequential traversal's
    bookkeeping; solutions and class counts do not.
    """
    from concurrent.futures import ProcessPoolExecutor
    from itertools import product

    problem = build_signature_problem(g, base)
    first_row = min((min(e) for e in problem.free_edges), default=None)
    split = [i for i, e in enumerate(problem.free_edges) if min(e) == first_row]
    if not split:
        return search_signatures(g, base=base, node_budget=node_budget)
    args = kernel_arguments(problem, node_budget=node_budget or 0)
    jobs = [(args, tuple(zip(split, bits)))
            for bits in product((0, 1), repeat=len(split))]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_subtree_task, jobs))
    else:
        results = [_run_subtree_task(job) for job in jobs]
    return _outcome(problem, [m for res in results for m in res[0]],
                    sum(res[1] for res in results),
                    [sum(c) for c in zip(*(res[2] for res in results))],
                    all(res[3] for res in results))


def proof_log(outcome: SearchOutcome) -> str:
    """Replayable line-oriented record of a signature search."""
    problem = outcome.problem
    digest = hashlib.sha256(write_graph6(problem.graph)).hexdigest()
    lines = [
        "sigsearch v1",
        f"graph-sha256 {digest}",
        f"n {problem.graph.n} r {problem.degree}",
        "labelling " + ",".join(str(x) for x in problem.labelling),
        f"free-edges {len(problem.free_edges)}",
    ]
    for row in sorted(outcome.row_candidates):
        lines.append(f"row {row} candidates {outcome.row_candidates[row]}")
    lines.append(f"solutions {len(outcome.solutions)} nodes {outcome.nodes} "
                 f"exhausted {'true' if outcome.exhausted else 'false'}")
    return "\n".join(lines) + "\n"


def verify_nonexistence(g, node_budget: int | None = None):
    """Run the signature search and return (outcome, proof log text).

    A log with ``solutions 0 ... exhausted true`` certifies that the
    underlying graph carries no two-eigenvalue signature.
    """
    outcome = search_signatures(g, node_budget=node_budget)
    return outcome, proof_log(outcome)


# -- independent small-scale oracle -------------------------------------------


def naive_signature_classes(g) -> int:
    """Number of switching classes of two-eigenvalue signatures of ``g``,
    by full enumeration of all 2^|E| signatures.

    Deliberately shares nothing with the pruned search: solutions come from
    checking A^2 = r I directly, automorphisms from a brute-force permutation
    scan, and class counting from closing the solution set under single
    switches and automorphisms.  Only sensible for tiny graphs.
    """
    from itertools import permutations

    u = _as_underlying(g)
    n = u.n
    edges = u.edges()
    m = len(edges)
    if m > 24:
        raise ValueError("oracle is limited to 24 edges")
    degs = u.degrees
    r = degs[0]
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


# -- weighing-matrix search ----------------------------------------------------


@dataclass
class WeighingSearchOutcome:
    matrices: list[WeighingMatrix]  # one per equivalence class
    nodes: int
    exhausted: bool
    raw_count: int


def search_weighing(n: int, r: int,
                    node_budget: int | None = None) -> WeighingSearchOutcome:
    """All (n, r) weighing matrices with row intersection numbers in {0, 2},
    up to equivalence.

    Rows 0..r-1 are pinned to the weighing row normal form; the remaining
    rows are filled in by DFS under orthogonality, the intersection-number
    condition, column capacities, and two symmetry cuts (tail rows sorted
    lexicographically, first nonzero entry of each tail row positive).
    """
    if n < r or r < 1:
        raise ValueError("need n >= r >= 1")
    width = r * (r - 1) // 2 + 1
    if n < width:
        return WeighingSearchOutcome([], 0, True, 0)

    prefix = scheme_two_prefix(r, n)
    prefix_rows = [tuple(int(v) for v in row) for row in prefix]
    tuples, nodes, exhausted = run_weighing_search(n, r, prefix_rows,
                                                   node_budget or 0)
    raw = [np.asarray(t, dtype=np.int8).reshape(n, n) for t in tuples]

    reps: list[WeighingMatrix] = []
    for arr in raw:
        w = WeighingMatrix(arr)
        if not any(equivalent(w, rep, cap=4 * n)[0] for rep in reps):
            reps.append(w)
    return WeighingSearchOutcome(matrices=reps, nodes=nodes,
                                 exhausted=exhausted, raw_count=len(raw))
