"""Exhaustive signature and weighing-matrix searches.

Two searches live here:

* ``search_signatures``: all sign assignments of a fixed underlying
  rectagraph that give A^2 = r I, up to switching isomorphism.  The vertex
  labelling is first normalised so that the first r+1 rows of the adjacency
  matrix are fully forced (see ``switching.scheme_prefix``); only edges
  between vertices outside that prefix remain free, and A^2 = r I is then
  equivalent to every quadrangle having sign product -1: one parity equation
  over GF(2) per quadrangle.  The system is eliminated once.  If it is
  inconsistent, the quadrangles whose equations sum to 0 = 1 are the
  nonexistence certificate, re-checked against the graph before it is
  returned.  Otherwise the solutions are a particular solution plus the null
  space, which contains the star of every tail vertex (distance >= 3 from the
  base): those are the only switchings the prefix allows.  So the
  pure-switching classes are the 2^(dim - tail) cosets of the tail stars,
  one canonical mask each; each is materialised and certified, and switching
  isomorphism is then decided on those representatives.
  ``search_signatures_dfs`` is the paper's row-by-row backtracking search
  over the same equations, kept as the reference the tests compare against.

* ``search_weighing``: all (n, r) weighing matrices with row intersection
  numbers in {0, 2} extending the weighing row normal form, up to
  equivalence.

Both searches are deterministic and emit enough bookkeeping to replay them
(the proof-log text format below).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

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
    constraint_quadrangles: tuple[tuple[int, int, int, int], ...]  # (a, b, c, d)
    labelling: tuple[int, ...]  # original vertex -> search label
    tail_size: int
    # per tail vertex, BFS order: (free-edge bit to its parent, star bitmask)
    tail_stars: tuple[tuple[int, int], ...]


@dataclass
class SearchOutcome:
    solutions: list[SignedGraph]  # one representative per switching class
    nodes: int  # gf2: class masks enumerated; dfs: kernel decisions
    exhausted: bool
    raw_count: int
    problem: SignatureSearchProblem = field(repr=False)
    method: str = "gf2"
    rank: int = 0  # gf2: rank of the parity rows eliminated
    # gf2, inconsistent system: quadrangles whose equations sum to 0 = 1
    refutation: tuple[tuple[int, int, int, int], ...] = ()
    backend: str = ""  # dfs: kernel backend
    row_candidates: dict[int, int] = field(default_factory=dict)  # dfs only


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
    # both orientations of every edge: its free-edge id or its fixed sign bit
    free_id = {}
    for i, (v, w) in enumerate(free_edges):
        free_id[v, w] = free_id[w, v] = i
    fixed_bit = {(int(v), int(w)): int(prefix[v, w] < 0)
                 for v, w in zip(*np.nonzero(prefix))}

    constraint_edges = []
    constraint_targets = []
    constraint_quadrangles = []
    # sorted by the last row they touch, the order in which the row-by-row
    # DFS completes them: elimination then meets a contradiction near the
    # prefix early (Gewirtz x K2: at row 57 of 1,485 instead of 496)
    for quad in sorted(quadrangles(relabelled), key=max):
        a, b, c, d = quad
        free = []
        parity = 0  # xor of negative bits over the fixed edges
        for e in ((a, b), (b, c), (c, d), (a, d)):
            i = free_id.get(e)
            if i is not None:
                free.append(i)
            elif e in fixed_bit:
                parity ^= fixed_bit[e]
            else:
                raise RuntimeError("edge neither free nor fixed")
        if not free:
            if parity != 1:
                raise RuntimeError("fixed prefix carries a positive quadrangle")
            continue
        constraint_edges.append(tuple(free))
        constraint_targets.append(1 ^ parity)
        constraint_quadrangles.append(quad)

    # every edge at a tail vertex is free: switching it flips just its star
    star = [0] * n
    for i, (v, w) in enumerate(free_edges):
        star[v] |= 1 << i
        star[w] |= 1 << i
    tail_stars = tuple(
        (1 << free_id[v, parent], star[v])
        for v, parent in _spanning_forest_order(relabelled)
        if v >= n - layout.tail_size)

    return SignatureSearchProblem(
        graph=relabelled, degree=r, prefix_signs=prefix,
        free_edges=tuple(free_edges), constraint_edges=tuple(constraint_edges),
        constraint_targets=tuple(constraint_targets),
        constraint_quadrangles=tuple(constraint_quadrangles),
        labelling=layout.perm, tail_size=layout.tail_size, tail_stars=tail_stars)


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


class ParitySolution(NamedTuple):
    """The quadrangle parity system after one elimination.

    Masks are over free-edge ids, bit 1 meaning a negative edge.  For an
    inconsistent system ``particular`` is None, ``null_basis`` is empty and
    ``refutation`` holds the indices of the constraints whose rows sum to
    0 = 1; ``rank`` then counts the pivots found before that row.
    """

    rank: int
    particular: int | None
    null_basis: tuple[int, ...]
    refutation: tuple[int, ...]


def _from_columns(x: int, order) -> int:
    """Map a mask over elimination columns back to free-edge ids."""
    out = 0
    while x:
        low = x & -x
        out |= 1 << order[low.bit_length() - 1]
        x ^= low
    return out


def solve_parity_system(problem: SignatureSearchProblem, order) -> ParitySolution:
    """Gaussian elimination over GF(2) on Python-int row bitmasks.

    Column j of the elimination is free edge ``order[j]``; the lowest column
    of a row is its pivot.  Each pivot carries the set of constraints it
    combines, so the first row that reduces to 0 = 1 names its refutation
    and elimination stops there.
    """
    column = [0] * len(problem.free_edges)
    for j, e in enumerate(order):
        column[e] = 1 << j
    pivots: dict[int, tuple[int, int, int]] = {}  # pivot -> (row, target, combo)
    for ci, (edges, target) in enumerate(zip(problem.constraint_edges,
                                             problem.constraint_targets)):
        row, combo = 0, 1 << ci
        for e in edges:
            row |= column[e]
        while row:
            low = row & -row
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (row, target, combo)
                break
            row ^= hit[0]
            target ^= hit[1]
            combo ^= hit[2]
        else:
            if target:
                refutation = []
                while combo:
                    low = combo & -combo
                    refutation.append(low.bit_length() - 1)
                    combo ^= low
                return ParitySolution(len(pivots), None, (), tuple(refutation))

    # back substitution, highest pivot first: afterwards every row holds its
    # own pivot plus non-pivot columns only
    pivot_columns = 0
    for low in pivots:
        pivot_columns |= low
    reduced: dict[int, tuple[int, int]] = {}
    for low in sorted(pivots, reverse=True):
        row, target, _ = pivots[low]
        rest = row & pivot_columns & ~low
        while rest:
            bit = rest & -rest
            rest ^= bit
            row ^= reduced[bit][0]
            target ^= reduced[bit][1]
        reduced[low] = (row, target)

    # free columns set to 0 give the particular solution; setting one free
    # column to 1 gives one null vector per free column
    particular = 0
    null = {}
    for j in range(len(order)):
        if not pivot_columns >> j & 1:
            null[1 << j] = 1 << j
    for low, (row, target) in reduced.items():
        if target:
            particular |= low
        rest = row ^ low
        while rest:
            bit = rest & -rest
            rest ^= bit
            null[bit] |= low
    return ParitySolution(
        len(pivots), _from_columns(particular, order),
        tuple(_from_columns(v, order) for v in null.values()), ())


def check_refutation(problem: SignatureSearchProblem, quads) -> None:
    """Re-derive 0 = 1 from ``quads`` using only the graph and the prefix.

    Every quadrangle of a two-eigenvalue signed rectagraph is negative, so
    the sign bits around each listed 4-cycle sum to 1.  Summing those
    equations, every free edge must cancel, and what the fixed prefix edges
    leave must contradict the number of quadrangles.
    """
    adj = problem.graph.adj
    odd: set[tuple[int, int]] = set()
    for a, b, c, d in quads:
        if len({a, b, c, d}) != 4:
            raise RuntimeError("refutation names a degenerate quadrangle")
        for v, w in ((a, b), (b, c), (c, d), (d, a)):
            if not adj[v, w]:
                raise RuntimeError("refutation names a non-quadrangle")
            odd ^= {(min(v, w), max(v, w))}
    parity = len(quads)
    for v, w in odd:
        sign = int(problem.prefix_signs[v, w])
        if sign == 0:
            raise RuntimeError("refutation leaves a free edge uncancelled")
        parity += sign < 0
    if parity % 2 == 0:
        raise RuntimeError("refutation certificate does not sum to 0 = 1")


def _edge_order(problem: SignatureSearchProblem, order_seed) -> list[int]:
    order = list(range(len(problem.free_edges)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    return order


def _solution_graph(problem: SignatureSearchProblem, mask: int) -> SignedGraph:
    signs = np.array(problem.prefix_signs)  # every edge is fixed or free
    for i, (v, w) in enumerate(problem.free_edges):
        signs[v, w] = signs[w, v] = -1 if (mask >> i) & 1 else 1
    return SignedGraph(signs)


def canonical_switch_key(problem: SignatureSearchProblem, mask: int) -> int:
    """Canonical mask of ``mask``'s pure-switching class (labels fixed).

    The prefix cannot be switched, so the class is ``mask`` plus every sum
    of tail stars; switching each tail vertex, in BFS order, to make the
    edge to its parent positive picks one mask per class.  The key is
    GF(2)-linear in ``mask``: each star holds its own parent bit and those
    of its BFS children, which come later.
    """
    for parent_bit, star in problem.tail_stars:
        if mask & parent_bit:
            mask ^= star
    return mask


def dedupe_switching_classes(graphs) -> list[SignedGraph]:
    """Representatives of the switching isomorphism classes in ``graphs``."""
    graphs = list(graphs)
    if len(graphs) < 2:  # the invariants only bucket candidates
        return graphs
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


def _outcome(problem: SignatureSearchProblem, classes: dict[int, int],
             nodes: int, exhausted: bool, **details) -> SearchOutcome:
    """Certify each pure-switching class's canonical mask and dedupe those.

    ``classes`` maps each canonical mask to its class's number of raw
    solutions.  Every other mask of a class is a tail switching of the
    canonical one, and switching preserves A^2 = r I, so one certificate
    decides the class.
    """
    r = problem.degree
    valid, raw_count = [], 0
    for mask, size in classes.items():
        sol = _solution_graph(problem, mask)
        cert = certify_two_sym(sol)
        if cert and cert.lambda_sq == r:
            valid.append(sol)
            raw_count += size
        elif r != 0:
            # only the degenerate degree-0 graph may fail: its lone
            # signature has the one-eigenvalue spectrum {0}
            raise RuntimeError("search produced a non-solution")
    return SearchOutcome(solutions=dedupe_switching_classes(valid), nodes=nodes,
                         exhausted=exhausted, raw_count=raw_count,
                         problem=problem, **details)


def search_signatures(g, node_budget: int | None = None, base: int = 0,
                      order_seed: int | None = None, progress=None,
                      progress_every: int = 0) -> SearchOutcome:
    """All two-eigenvalue signatures of a connected rectagraph, up to
    switching isomorphism, by one GF(2) elimination.

    ``order_seed`` shuffles the elimination's column order, which must not
    change the outcome and exists for exactly that cross-check.  The
    canonical masks of the pure-switching classes are enumerated in Gray
    code order; ``node_budget`` caps how many (the outcome then has
    ``exhausted=False`` and the class list may be incomplete), and
    ``progress(nodes, dim)`` is called every ``progress_every`` of them,
    ``dim`` being the dimension of the class space.
    """
    problem = build_signature_problem(g, base)
    solution = solve_parity_system(problem, _edge_order(problem, order_seed))
    if solution.particular is None:
        refutation = tuple(problem.constraint_quadrangles[ci]
                           for ci in solution.refutation)
        check_refutation(problem, refutation)
        return _outcome(problem, {}, 0, True, rank=solution.rank,
                        refutation=refutation)

    # the key is linear and kills exactly the tail stars, so the key images
    # of the null basis span the canonical masks of all classes
    leads: dict[int, int] = {}
    for vec in solution.null_basis:
        key = canonical_switch_key(problem, vec)
        while key:
            low = key & -key
            if low not in leads:
                leads[low] = key
                break
            key ^= leads[low]
    class_basis = list(leads.values())
    if len(class_basis) != len(solution.null_basis) - problem.tail_size:
        raise RuntimeError("class space has the wrong dimension")

    total = 1 << len(class_basis)
    count = min(total, node_budget) if node_budget else total
    mask = canonical_switch_key(problem, solution.particular)
    size = 1 << problem.tail_size
    classes = {}
    for i in range(count):
        if i:
            mask ^= class_basis[(i & -i).bit_length() - 1]
        classes[mask] = size
        if progress_every and progress is not None and (i + 1) % progress_every == 0:
            progress(i + 1, len(class_basis))
    return _outcome(problem, classes, count, count == total, rank=solution.rank)


def search_signatures_dfs(g, node_budget: int | None = None, base: int = 0,
                          order_seed: int | None = None, progress=None,
                          progress_every: int = 0) -> SearchOutcome:
    """Reference for ``search_signatures``: the paper's backtracking search.

    The kernel (``run_search``) completes one adjacency-matrix row at a time
    (ties broken by lowest index) with unit propagation on the parity
    equations, and enumerates every raw solution; ``order_seed`` shuffles
    its free-edge order.  ``node_budget`` caps the number of decisions.  The
    outcome records the per-row candidate counts of the paper's tables.
    """
    problem = build_signature_problem(g, base)
    masks, nodes, row_cand, exhausted = run_search(
        *kernel_arguments(problem, order=_edge_order(problem, order_seed),
                          node_budget=node_budget or 0),
        progress=progress, progress_every=progress_every)
    classes = Counter(canonical_switch_key(problem, mask) for mask in masks)
    free_rows = {v for e in problem.free_edges for v in e}
    candidates = {v + 1: row_cand[v] if v in free_rows else 1
                  for v in range(problem.degree + 1, problem.graph.n)}
    return _outcome(problem, classes, nodes, exhausted, method="dfs",
                    backend=active_backend(), row_candidates=candidates)


def proof_log(outcome: SearchOutcome) -> str:
    """Replayable line-oriented record of a signature search.

    The ``method`` line gives, for the GF(2) search, the rank of the
    eliminated parity rows, the null-space dimension and the tail size (the
    classes number 2^(kernel-dim - tail) before switching isomorphism).  A
    refutation stops at its first 0 = 1 row, so its rank counts the pivots
    found before it and its kernel-dim is ``none``; the quadrangles (search
    labels) whose equations sum to 0 = 1 follow, checkable against the
    graph alone.  A DFS log has one candidate count per row instead.
    """
    problem = outcome.problem
    digest = hashlib.sha256(write_graph6(problem.graph)).hexdigest()
    lines = [
        "sigsearch v2",
        f"graph-sha256 {digest}",
        f"n {problem.graph.n} r {problem.degree}",
        "labelling " + ",".join(str(x) for x in problem.labelling),
        f"free-edges {len(problem.free_edges)}",
    ]
    if outcome.method == "gf2":
        dim = ("none" if outcome.refutation
               else len(problem.free_edges) - outcome.rank)
        lines.append(f"method gf2 rank {outcome.rank} kernel-dim {dim} "
                     f"tail {problem.tail_size}")
        if outcome.refutation:
            lines.append(f"refutation {len(outcome.refutation)}")
            lines += ["quadrangle " + " ".join(str(v) for v in quad)
                      for quad in outcome.refutation]
    else:
        lines.append(f"method dfs backend {outcome.backend}")
        lines += [f"row {row} candidates {count}"
                  for row, count in sorted(outcome.row_candidates.items())]
    lines.append(f"solutions {len(outcome.solutions)} nodes {outcome.nodes} "
                 f"exhausted {'true' if outcome.exhausted else 'false'}")
    return "\n".join(lines) + "\n"


def verify_nonexistence(g, node_budget: int | None = None):
    """Run the signature search and return (outcome, proof log text).

    A log with ``solutions 0 ... exhausted true`` certifies that the
    underlying graph carries no two-eigenvalue signature; its refutation
    quadrangles are the certificate.
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
