"""Exhaustive signature and weighing-matrix searches.

Two searches live here:

* ``search_signatures``: all sign assignments of a fixed underlying
  rectagraph that give A^2 = r I, up to switching isomorphism.  The vertex
  labelling is first normalised so that the first r+1 rows of the adjacency
  matrix are fully forced (see ``switching.scheme_prefix``); only edges
  between vertices outside that prefix remain free, and A^2 = r I is then
  equivalent to every quadrangle having sign product -1: one parity equation
  over GF(2) per quadrangle (``core.quadrangles`` reads each one off a
  diagonal pair: in a rectagraph every pair at distance two is the diagonal
  of exactly one).  The system is eliminated once.  If it is
  inconsistent, the quadrangles whose equations sum to 0 = 1 are the
  nonexistence certificate, re-checked against the graph before it is
  returned.  Otherwise the solutions are a particular solution plus the null
  space, which contains the star of every tail vertex (distance >= 3 from the
  base): those are the only switchings the prefix allows, and only class
  enumeration builds them, so a refutation never does.  So the
  pure-switching classes are the 2^(dim - tail) cosets of the tail stars,
  one canonical mask each; each is materialised and certified, and the
  representatives are then deduped pairwise by switching isomorphism,
  which the sign-propagating matcher of ``switching.switching_match``
  decides without VF2.

* ``search_weighing``: all (n, r) weighing matrices with row intersection
  numbers in {0, 2} extending the weighing row normal form, up to
  equivalence.  It enumerates only the 0/1 supports, row by row as
  bitmasks, and never branches on a sign: the signs of a support are the
  same kind of quadrangle parity system, eliminated incrementally while the
  support grows, so a support that cannot be signed is cut as soon as its
  equations contradict, and the first tail row is tried only when it is
  least in its orbit under the prefix's symmetry.  Each complete support is
  signed by its particular solution plus null space, up to switching, and
  the classes are then deduped pairwise by weighing equivalence, which the
  sign-propagating matcher of ``weighing.equivalent`` decides.

Both searches describe a signed support by its fixed signs, its support and
a variable-id matrix: the id of the sign variable on each edge, and a
sentinel where the sign is fixed or there is no edge.  ``_stars`` reads the
switchings off it, ``_signs`` the signed matrix of a sign mask.

Both searches are deterministic; the signature search also writes a
replayable proof log (the text format below).  The paper's row-by-row DFS
over the same parity equations (``_kernel.run_search``, fed by
``kernel_arguments``) is not a search here: the tests run it as a reference
and the benchmark imports it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

# not called here: the benchmark's tracer (perfbench/tracing.py) wraps this name
from ._kernel import run_search  # noqa: F401
from .core import (SignedGraph, UnderlyingGraph, _as_underlying, _bfs_forest, _bits,
                   _check_counts, _mask_bits, _permutation, _row_masks, is_connected,
                   quadrangles)
from .formats import write_graph6
from .spectral import certify_two_sym
from .switching import (SchemeError, relabel, scheme_layout, scheme_prefix,
                        switching_match)
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps these names
from .switching import class_invariants, switching_isomorphic  # noqa: F401
from .weighing import (WeighingMatrix, equivalent, intersection_numbers,
                       scheme_two_prefix, verify_weighing)


@dataclass(frozen=True, eq=False)
class SignatureSearchProblem:
    """Normalised signature search instance over a fixed labelling.

    Constraint i says that quadrangle ``constraint_quadrangles[i]`` is
    negative: the sign bits of its free edges sum to
    ``constraint_targets[i]`` over GF(2).  Row i of ``constraint_edges``
    holds the free-edge ids of the quadrangle's edges ab, bc, cd, da, with
    ``len(free_edges)`` standing in for each fixed edge.  The three arrays
    are read-only; equality and hashing go by identity.
    """

    graph: UnderlyingGraph  # relabelled underlying graph
    degree: int
    prefix_signs: np.ndarray  # int8 matrix: fixed signs, 0 where free/absent
    free_edges: tuple[tuple[int, int], ...]
    constraint_edges: np.ndarray  # (k, 4) free-edge ids
    constraint_targets: np.ndarray  # (k,) 0 or 1
    constraint_quadrangles: np.ndarray  # (k, 4) rows (a, b, c, d)
    labelling: tuple[int, ...]  # original vertex -> search label
    tail_size: int
    # read-only (n, n): the id of free edge vw at both [v, w] and [w, v],
    # len(free_edges) at every other entry
    edge_ids: np.ndarray = field(repr=False)

    @cached_property
    def tail_stars(self) -> tuple[tuple[int, int], ...]:
        """``_stars`` of the relabelled graph: every tail vertex, in BFS
        order.  Built on first use: only class enumeration reads it, so a
        refutation never builds it or the relabelled graph's forest."""
        return _stars(self.edge_ids, len(self.free_edges), self.graph.row_bits,
                      self.graph.spanning_forest)


@dataclass
class SearchOutcome:
    solutions: list[SignedGraph]  # one representative per switching class
    nodes: int  # class masks enumerated
    exhausted: bool
    raw_count: int
    problem: SignatureSearchProblem = field(repr=False)
    rank: int = 0  # rank of the parity rows eliminated
    # inconsistent system: quadrangles whose equations sum to 0 = 1
    refutation: tuple[tuple[int, int, int, int], ...] = ()


def build_signature_problem(g) -> SignatureSearchProblem:
    u = _as_underlying(g)
    if not is_connected(u):
        raise SchemeError("normal form needs a connected graph")
    layout = scheme_layout(u)  # raises SchemeError naming the predicate
    r = layout.degree
    n = u.n
    relabelled = relabel(u, layout.perm)
    # sorted, stably, by the last row they touch, the order in which the
    # row-by-row DFS completes them: elimination then meets a contradiction
    # near the prefix early (Gewirtz x K2: at row 57 of 1,485 instead of
    # 496).  a is a quadrangle's smallest vertex and b < d, so its largest
    # is c or d, and the order is that of (max(c, d), a, c, b, d).
    # Listed before the edge maps below exist, so that the listing's
    # transient arrays do not add to them.
    quads = quadrangles(relabelled)
    order = np.argsort(np.maximum(quads[:, 2], quads[:, 3]), kind="stable")

    rows = scheme_prefix(r, n)  # the normal form's forced first r+1 rows
    prefix = np.zeros((n, n), dtype=np.int8)
    prefix[:r + 1] = rows
    prefix[:, :r + 1] = rows.T

    # the free edges join two vertices past the prefix; each has its id at
    # both orientations in ``ids``, every other entry the sentinel n_free
    v, w = np.nonzero(np.triu(relabelled.adj[r + 1:, r + 1:]))
    v += r + 1
    w += r + 1
    n_free = len(v)
    ids = np.full((n, n), n_free, dtype=np.intp)
    ids[v, w] = ids[w, v] = np.arange(n_free)

    # one flat index reads both matrices at ab, bc, cd, da of each
    # quadrangle; the columns are combined one by one, because NumPy
    # reduces a length-4 axis several times slower
    at = quads * n + quads[:, [1, 2, 3, 0]]
    edges = ids.take(at)
    signs = prefix.take(at)
    fixed = edges == n_free
    if np.any(fixed & (signs == 0)):
        raise RuntimeError("edge neither free nor fixed")
    neg = signs < 0
    parity = neg[:, 0] ^ neg[:, 1] ^ neg[:, 2] ^ neg[:, 3]  # fixed edges only
    closed = fixed[:, 0] & fixed[:, 1] & fixed[:, 2] & fixed[:, 3]
    if not parity[closed].all():
        raise RuntimeError("fixed prefix carries a positive quadrangle")
    sel = order[~closed[order]]  # in sorted order, the quadrangles left open
    constraint_edges = edges[sel]
    constraint_targets = (~parity[sel]).astype(np.uint8)
    constraint_quadrangles = quads[sel]
    for arr in (constraint_edges, constraint_targets, constraint_quadrangles, ids):
        arr.setflags(write=False)

    return SignatureSearchProblem(
        graph=relabelled, degree=r, prefix_signs=prefix,
        free_edges=tuple(zip(v.tolist(), w.tolist())),
        constraint_edges=constraint_edges, constraint_targets=constraint_targets,
        constraint_quadrangles=constraint_quadrangles,
        labelling=layout.perm, tail_size=layout.tail_size, edge_ids=ids)


def kernel_arguments(problem: SignatureSearchProblem, order=None,
                     node_budget: int = 0) -> tuple:
    """Argument tuple for the signature DFS kernel ``run_search``, which
    only the benchmark and the tests' reference search call; ``order``, its
    edge order, must be a permutation of the free-edge ids (ValueError)."""
    (node_budget,) = _check_counts(node_budget=node_budget)
    n_free = len(problem.free_edges)
    order = _permutation(range(n_free) if order is None else order, n_free)
    constraint_edges = [tuple(e for e in row if e != n_free)
                        for row in problem.constraint_edges.tolist()]
    edge_constraints = [[] for _ in range(n_free)]
    for ci, edges in enumerate(constraint_edges):
        for e in edges:
            edge_constraints[e].append(ci)
    row_free_counts = [0] * problem.graph.n
    for v, w in problem.free_edges:
        row_free_counts[v] += 1
        row_free_counts[w] += 1
    return (n_free, constraint_edges, problem.constraint_targets.tolist(),
            [tuple(c) for c in edge_constraints], list(problem.free_edges),
            row_free_counts, order.tolist(), node_budget)


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


def _reduce(pivots: dict, row: int, target: int = 0,
            combo: int = 0) -> tuple[int, int, int]:
    """Reduce the GF(2) equation ``row`` = ``target`` against ``pivots``.

    ``pivots`` maps each pivot bit to (row, target, combo) for a row whose
    lowest bit it is; ``combo`` records which input equations a row sums.  A
    row that keeps a bit becomes the pivot of its lowest one, and that bit
    comes back with the row's target and combo; a row that vanishes gives
    bit 0 with what is left of its target (1 means 0 = 1) and its combo.
    """
    while row:
        low = row & -row
        hit = pivots.get(low)
        if hit is None:
            pivots[low] = (row, target, combo)
            return low, target, combo
        row ^= hit[0]
        target ^= hit[1]
        combo ^= hit[2]
    return 0, target, combo


def _constraint_rows(problem: SignatureSearchProblem):
    """(free-edge ids, target) of each constraint, in order, as Python ints.

    Converted a block at a time, each block twice the last: a refutation
    usually stops within the first few dozen rows (Gewirtz x K2: row 57 of
    1,485), and converting the rest would cost more than the elimination.
    """
    edges, targets = problem.constraint_edges, problem.constraint_targets
    start, size = 0, 64
    while start < len(targets):
        yield from zip(edges[start:start + size].tolist(),
                       targets[start:start + size].tolist())
        start += size
        size *= 2


def solve_parity_system(problem: SignatureSearchProblem,
                        order_seed: int | None = None) -> ParitySolution:
    """Gaussian elimination over GF(2) on Python-int row bitmasks.

    Column j of the elimination is free edge ``order[j]``, ``order`` drawn by
    ``_edge_order`` from ``order_seed``; the lowest column of a row is its pivot.
    Each pivot carries the set of constraints it combines, so the first row
    that reduces to 0 = 1 names its refutation and elimination stops there.
    """
    order = _edge_order(problem, order_seed)
    column = [0] * (len(order) + 1)  # the sentinel's stays 0
    for j, e in enumerate(order):
        column[e] = 1 << j
    pivots: dict[int, tuple[int, int, int]] = {}
    for ci, ((ab, bc, cd, da), target) in enumerate(_constraint_rows(problem)):
        row = column[ab] | column[bc] | column[cd] | column[da]
        low, target, combo = _reduce(pivots, row, target, 1 << ci)
        if not low and target:
            return ParitySolution(len(pivots), None, (), tuple(_bits(combo)))

    particular, null_basis = _back_substitute(pivots, (1 << len(order)) - 1)
    # masks over elimination columns back to free-edge ids
    particular, *null_basis = [sum(1 << order[j] for j in _bits(x))
                               for x in (particular, *null_basis)]
    return ParitySolution(len(pivots), particular, tuple(null_basis), ())


def _back_substitute(pivots: dict, columns: int) -> tuple[int, list[int]]:
    """Particular solution and null basis of a consistent system.

    ``pivots`` maps each pivot bit to its row, which has no lower bit, and
    the row's target first (as ``_reduce`` leaves them); ``columns`` holds
    every column in play.
    """
    # highest pivot first: afterwards every row holds its own pivot plus
    # non-pivot columns only
    pivot_columns = 0
    for low in pivots:
        pivot_columns |= low
    reduced: dict[int, tuple[int, int]] = {}
    for low in sorted(pivots, reverse=True):
        row, target = pivots[low][:2]
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
    null = {1 << j: 1 << j for j in _bits(columns & ~pivot_columns)}
    for low, (row, target) in reduced.items():
        if target:
            particular |= low
        for j in _bits(row ^ low):
            null[1 << j] |= low
    return particular, list(null.values())


def check_refutation(problem: SignatureSearchProblem, quads) -> None:
    """Re-derive 0 = 1 from ``quads`` using only ``problem.graph``.

    Every quadrangle of a two-eigenvalue signed rectagraph is negative, so
    the sign bits around each listed 4-cycle sum to 1.  Summing those
    equations, every free edge must cancel, and what the fixed edges leave
    must contradict the number of quadrangles.  With r the degree of vertex
    0, edge vw (v < w) is fixed iff v <= r, to its ``scheme_prefix`` sign:
    WLOG when the first r + 1 rows have exactly the prefix's support.
    """
    adj = problem.graph.adj
    vertices = set(range(len(adj)))
    r = int(np.count_nonzero(adj[0]))
    # at least the prefix's width, so that a graph too small for it fails below
    prefix = scheme_prefix(r, max(len(adj), 1 + r * (r + 1) // 2))
    if not np.array_equal(adj[:r + 1] != 0, prefix != 0):
        raise RuntimeError("the graph's first r + 1 rows are not the prefix's support")
    odd: set[tuple[int, int]] = set()
    for a, b, c, d in quads:
        if len({a, b, c, d} & vertices) != 4:
            raise RuntimeError("refutation names a degenerate or out-of-range quadrangle")
        for v, w in ((a, b), (b, c), (c, d), (d, a)):
            if not adj[v, w]:
                raise RuntimeError("refutation names a non-quadrangle")
            odd ^= {(min(v, w), max(v, w))}
    parity = len(quads)
    for v, w in odd:
        if v > r:
            raise RuntimeError("refutation leaves a free edge uncancelled")
        parity += int(prefix[v, w]) < 0
    if parity % 2 == 0:
        raise RuntimeError("refutation certificate does not sum to 0 = 1")


def _edge_order(problem: SignatureSearchProblem, order_seed) -> list[int]:
    order = list(range(len(problem.free_edges)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    return order


def _stars(ids: np.ndarray, size: int, support, forest) -> tuple[tuple[int, int], ...]:
    """(parent bit, star) of every switchable vertex, in ``forest`` order.

    ``ids`` holds each edge's sign variable at both orientations and
    ``size`` at a fixed sign or non-edge, ``support`` the neighbour bitmasks
    and ``forest`` their BFS forest.  A vertex is switchable when every sign
    at it is a variable (its star has a bit per neighbour) and it has a
    parent: in both searches a component with a fixed sign has a fixed
    root, and in one without, the root's star is the sum of the others'.
    Only those rows are packed.
    """
    free = np.count_nonzero(ids < size, axis=1).tolist()
    kept = [(v, parent) for v, parent in forest
            if parent >= 0 and free[v] == support[v].bit_count()]
    rows = ids[[v for v, _ in kept]]
    on_star = np.zeros((len(kept), size + 1), dtype=bool)
    on_star[np.arange(len(kept))[:, None], rows] = True
    return tuple((1 << int(ids[v, parent]), star)
                 for (v, parent), star in zip(kept, _row_masks(on_star[:, :size])))


def _signs(fixed: np.ndarray, ids: np.ndarray, size: int, mask: int) -> np.ndarray:
    """``fixed`` with every variable entry of ``ids`` (those below ``size``)
    set from its bit of ``mask``: -1 where the bit is set, +1 where not."""
    values = np.ones(size + 1, dtype=np.int8)
    values[:size][_mask_bits([mask], size)[0]] = -1
    return np.where(ids < size, values[ids], fixed)


def canonical_switch_key(problem: SignatureSearchProblem, mask: int) -> int:
    """Canonical mask of ``mask``'s pure-switching class (labels fixed).

    The prefix cannot be switched, so the class is ``mask`` plus every sum
    of tail stars; switching each tail vertex, in BFS order, to make the
    edge to its parent positive picks one mask per class.  The key is
    GF(2)-linear in ``mask``: each star holds its own parent bit and those
    of its BFS children, which come later.
    """
    return _switch_key(problem.tail_stars, mask)


def _switch_key(stars, mask: int) -> int:
    for parent_bit, star in stars:
        if mask & parent_bit:
            mask ^= star
    return mask


def _class_space(particular: int, null_basis, key,
                 switchings: int) -> tuple[int, list[int]]:
    """Canonical particular mask and a basis of the class space.

    ``key`` is linear and kills exactly the ``switchings`` independent
    switching vectors, which lie in the null space, so the key images of the
    null basis span the canonical masks of all classes.
    """
    leads: dict[int, tuple[int, int, int]] = {}
    for vec in null_basis:
        _reduce(leads, key(vec))
    basis = [row for row, _, _ in leads.values()]
    if len(basis) != len(null_basis) - switchings:
        raise RuntimeError("class space has the wrong dimension")
    return key(particular), basis


def _gray_code(start: int, basis, count: int):
    """The first ``count`` masks of start + span(basis), in Gray-code order."""
    mask = start
    for i in range(count):
        if i:
            mask ^= basis[(i & -i).bit_length() - 1]
        yield mask


def dedupe_switching_classes(items, same) -> list:
    """The first of each class in ``items``, ``same(a, b)[0]`` deciding a
    class: the switching matcher ``switching_match`` for signed graphs or,
    for matrices, ``equivalent``; both re-verify every "yes".

    The matcher screens each pair itself: unequal vertex colours (side,
    degree, signed quadrangle counts) answer "no" before it searches.
    Inside one search the colours are uniform: the candidates of a
    signature search share a labelled underlying graph and A^2 = r I, so
    every quadrangle is negative, and a weighing search's supports meet in
    0 or 2 with every quadrangle negative too.
    """
    reps = []
    for item in items:
        if not any(same(item, rep)[0] for rep in reps):
            reps.append(item)
    return reps


def _outcome(problem: SignatureSearchProblem, masks: list[int],
             nodes: int, exhausted: bool, **details) -> SearchOutcome:
    """Certify each pure-switching class's canonical mask and dedupe those.

    Every other mask of a class is one of the ``1 << tail_size`` tail
    switchings of the canonical one, and switching preserves A^2 = r I, so
    one certificate decides the class and counts that many raw solutions.
    The certified representatives are deduped with ``switching_match``,
    not the VF2 ``switching_isomorphic``.
    """
    r, n_free = problem.degree, len(problem.free_edges)
    valid = []
    for mask in masks:
        sol = SignedGraph(_signs(problem.prefix_signs, problem.edge_ids, n_free, mask))
        cert = certify_two_sym(sol)
        if cert and cert.lambda_sq == r:
            valid.append(sol)
        elif r != 0:
            # only the degenerate degree-0 graph may fail: its lone
            # signature has the one-eigenvalue spectrum {0}
            raise RuntimeError("search produced a non-solution")
    raw_count = len(valid) << problem.tail_size
    solutions = dedupe_switching_classes(valid, switching_match)
    return SearchOutcome(solutions=solutions, nodes=nodes, exhausted=exhausted,
                         raw_count=raw_count, problem=problem, **details)


def search_signatures(g, node_budget: int | None = None,
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
    node_budget, progress_every = _check_counts(node_budget=node_budget,
                                                progress_every=progress_every)
    problem = build_signature_problem(g)
    solution = solve_parity_system(problem, order_seed)
    if solution.particular is None:
        refutation = tuple(map(tuple, problem.constraint_quadrangles[
            list(solution.refutation)].tolist()))
        check_refutation(problem, refutation)
        return _outcome(problem, [], 0, True, rank=solution.rank,
                        refutation=refutation)

    mask, class_basis = _class_space(
        solution.particular, solution.null_basis,
        lambda m: canonical_switch_key(problem, m), problem.tail_size)
    total = 1 << len(class_basis)
    count = min(total, node_budget) if node_budget else total
    masks = []
    for i, mask in enumerate(_gray_code(mask, class_basis, count), 1):
        masks.append(mask)
        if progress_every and progress is not None and i % progress_every == 0:
            progress(i, len(class_basis))
    return _outcome(problem, masks, count, count == total, rank=solution.rank)


def proof_log(outcome: SearchOutcome) -> str:
    """Replayable line-oriented record of a signature search.

    The ``method`` line gives the rank of the eliminated parity rows, the
    null-space dimension and the tail size (the classes number
    2^(kernel-dim - tail) before switching isomorphism).  A refutation stops
    at its first 0 = 1 row, so its rank counts the pivots found before it
    and its kernel-dim is ``none``; the quadrangles (search labels) whose
    equations sum to 0 = 1 follow, checkable against the graph alone.
    """
    problem = outcome.problem
    digest = hashlib.sha256(write_graph6(problem.graph)).hexdigest()
    dim = ("none" if outcome.refutation
           else len(problem.free_edges) - outcome.rank)
    lines = [
        "sigsearch v2",
        f"graph-sha256 {digest}",
        f"n {problem.graph.n} r {problem.degree}",
        "labelling " + ",".join(str(x) for x in problem.labelling),
        f"free-edges {len(problem.free_edges)}",
        f"method gf2 rank {outcome.rank} kernel-dim {dim} tail {problem.tail_size}",
    ]
    if outcome.refutation:
        lines.append(f"refutation {len(outcome.refutation)}")
        lines += ["quadrangle " + " ".join(str(v) for v in quad)
                  for quad in outcome.refutation]
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


# -- weighing-matrix search ----------------------------------------------------


@dataclass
class WeighingSearchOutcome:
    matrices: list[WeighingMatrix]  # one per equivalence class
    nodes: int  # support rows placed
    exhausted: bool
    raw_count: int  # certified sign classes over every kept support, before dedupe
    supports: int = 0  # kept complete supports with a consistent parity system


class _SupportSearch:
    """Depth-first enumeration of the 0/1 supports extending the prefix, up
    to the prefix's symmetry in the first tail row.

    The sign of tail row i (i >= r) in column c is variable bit
    (i - r) * n + c, 1 meaning negative; prefix signs are constants.
    ``found`` collects, as (row masks, pivots), every complete support whose
    parity system is consistent and whose first tail row is least in its
    orbit (see ``_orbit_least``).  Placing and undoing a row updates the
    only state kept: ``rows`` (prefix first), ``col_weight``, ``single``
    and the parity ``pivots``.  It lives on this object and not in a
    self-recursive closure, whose reference cycle would keep all of it
    alive until the next full garbage collection.
    """

    def __init__(self, n: int, r: int, prefix: np.ndarray, node_budget: int):
        self.n, self.r, self.node_budget = n, r, node_budget
        self.quota = r * (r - 1) // 2  # rows each row meets, see search_weighing
        self.rows = _row_masks(prefix != 0)
        self.neg = _row_masks(prefix < 0)
        self.col_weight = [int(w) for w in np.count_nonzero(prefix, axis=0)]
        # single[a]: the columns that share exactly one placed row with a.
        # No column pair reaches three rows, so placing or undoing a row
        # toggles each pair in it between one row and zero or two.
        self.single = [0] * n
        self.pair = [0] * n  # the prefix rows holding each column
        for a, mask in enumerate(self.rows):
            for j in _bits(mask):
                self.single[j] ^= mask ^ 1 << j
                self.pair[j] |= 1 << a
        self.pivots: dict[int, tuple[int, int, int]] = {}
        self.found: list[tuple[tuple[int, ...], dict]] = []
        self.nodes = 0

    def run(self) -> bool:
        """Search every support; False when the node budget cut it.

        Every tail row is drawn from the candidates: r columns, none full,
        meeting each prefix row in 0 or 2.  They grow column by column, each
        partial row carrying the prefix rows it meets ``once`` and
        ``twice`` as bitmasks.  Column c, held by the prefix rows
        ``pair[c]``, is refused when one of them is met twice already;
        otherwise the rows met once move to ``twice`` and the rest toggle
        into ``once``.  A partial row is refused when ``once`` holds more
        than twice as many rows as it has columns still to come: column 0
        is full, so every column lies in at most two prefix rows and takes
        at most two rows out of ``once``.  A finished row therefore meets
        no prefix row once.
        """
        n, r, pair = self.n, self.r, self.pair
        full = sum(1 << j for j in range(n) if self.col_weight[j] == r)
        grown = [(0, 0, 0, [])]  # (mask, once, twice, columns)
        for left in range(r, 0, -1):
            grown = [(m | 1 << c, met, twice | once & pair[c], cols + [c])
                     for m, once, twice, cols in grown
                     for c in range(cols[-1] + 1 if cols else 0, n - left + 1)
                     if not (full >> c & 1 or pair[c] & twice)
                     and (met := once ^ pair[c]).bit_count() <= 2 * (left - 1)]
        # every later row is one of these candidates: keep its columns
        self.columns = dict(sorted((m, cols) for m, _, _, cols in grown))
        cands = list(self.columns)
        self.heads = self._orbit_least(cands)
        return self.extend(r, cands, full)

    def _orbit_least(self, cands: list[int]) -> set[int]:
        """The candidates (ascending) that are least in their orbit under
        G = S_r x Sym(columns width..n-1), width = 1 + r(r-1)/2, the
        relabellings that fix the prefix support: S_r permutes the prefix
        rows and, with them, their pair columns (column 0 lies in every
        prefix row, columns 1..width-1 in two each).  Only these are
        tried as the first tail row; later rows draw on every candidate.

        A candidate meets each prefix row in 0 or 2 columns, so its pair
        columns, each linking the two prefix rows ``pair[c]`` that hold
        it, are the edges of a union of cycles on the prefix rows; the
        rows it misses are as many as its columns outside the prefix.  So
        two candidates share an orbit exactly when their cycles have the
        same sorted sizes, and the least of an orbit is the first
        candidate with those sizes.  The sizes are read off the links
        alone, merging the row masks of the components they join.

        No class is lost.  G maps a signed support with this prefix to
        another one, and switching restores the prefix signs: the prefix's
        quadrangles span the cycle space of its support, and every
        quadrangle has sign product -1 in both.  Of all images of all tail
        rows over G, the least is the first tail row of the image it lies
        in, and it is least in its orbit; so every equivalence class has a
        support whose first tail row is kept.
        """
        least: dict[tuple[int, ...], int] = {}
        for m in cands:
            cycles: list[int] = []  # row masks of the components so far
            for c in self.columns[m]:
                link = self.pair[c]  # 0 outside the prefix
                if link:
                    for comp in [comp for comp in cycles if comp & link]:
                        cycles.remove(comp)
                        link |= comp
                    cycles.append(link)
            least.setdefault(tuple(sorted(comp.bit_count() for comp in cycles)), m)
        return set(least.values())

    def _completable(self, cands: list[int]) -> bool:
        """Whether the rows still to come, all drawn from ``cands``, can
        lift every column to weight r and put every column pair that shares
        one row into a second.

        A complete support that carries signs has W^T W = r I, so two
        columns share an even number of rows, and counting quadrangles by
        rows and by columns leaves 0 or 2; a branch that misses either goal
        finds nothing.  Later rows are distinct candidates, except at r = 2,
        where a row may repeat once (two equal rows meet in r columns).
        """
        r, columns = self.r, self.columns
        held = [0] * self.n  # candidates holding the column
        reach = [0] * self.n  # their union
        for c in cands:
            for j in columns[c]:
                held[j] += 1
                reach[j] |= c
        uses = 2 if r == 2 else 1
        return all(r - weight <= uses * count and not pairs & ~near
                   for weight, count, pairs, near
                   in zip(self.col_weight, held, self.single, reach))

    def extend(self, i: int, cands: list[int], full: int) -> bool:
        """Place row i from ``cands``; False once the budget is spent.

        Row i meets ``quota`` rows, at most ``future`` of them later, so it
        must meet quota - future earlier ones (its partners).  No upper
        bound can fail: a candidate has no ``full`` column and meets each
        placed row in 0 or 2 columns, so 2 * len(partners), the sum of its
        column weights, is at most r(r-1) = 2 * quota; and a placed row
        meeting quota rows would have r(r-1) other entries in its r
        columns, so every one of them would be full.
        """
        n, r, quota = self.n, self.r, self.quota
        rows, col_weight, single, pivots = (
            self.rows, self.col_weight, self.single, self.pivots)
        if i == n:
            self.found.append((tuple(rows), dict(pivots)))
            return True
        future = n - 1 - i  # rows after this one
        offset = (i - r) * n
        for k, mask in enumerate(cands):
            if i == r and mask not in self.heads:
                continue
            partners = [p for p in range(i) if rows[p] & mask]
            # two partners meeting it in the same two columns would put that
            # column pair in three rows
            if (len(partners) < quota - future
                    or len({rows[p] & mask for p in partners}) < len(partners)):
                continue
            if self.node_budget and self.nodes >= self.node_budget:
                return False
            self.nodes += 1
            rows.append(mask)
            cols = self.columns[mask]
            for j in cols:
                col_weight[j] += 1
                single[j] ^= mask ^ 1 << j
            added: list[int] = []
            ok = min(col_weight) >= r - future
            for p in partners if ok else ():
                both = rows[p] & mask  # the quadrangle's two columns
                if p < r:
                    row = both << offset
                    target = 1 ^ (self.neg[p] & both).bit_count() & 1
                else:
                    row, target = both << offset | both << ((p - r) * n), 1
                low, target, _ = _reduce(pivots, row, target)
                if low:
                    added.append(low)
                elif target:  # 0 = 1
                    ok = False
                    break
            going = True
            if ok:
                now_full = full | sum(1 << j for j in cols if col_weight[j] == r)
                # later rows are >= this one; it stays a candidate for the
                # next row only when r = 2 (it meets itself in r columns)
                nxt = [c for c in cands[k:]
                       if not c & now_full and (c & mask).bit_count() in (0, 2)]
                if self._completable(nxt):
                    going = self.extend(i + 1, nxt, now_full)
            for low in added:
                del pivots[low]
            for j in cols:
                col_weight[j] -= 1
                single[j] ^= mask ^ 1 << j
            rows.pop()
            if not going:
                return False
        return True


def _check_weighing(arr: np.ndarray, r: int) -> WeighingMatrix:
    """Re-verify a candidate from its entries alone: W^T W = r I and every
    pair of rows meeting in 0 or 2 columns."""
    w = verify_weighing(arr)
    if not w or w.r != r:
        raise RuntimeError("search produced a non-weighing matrix")
    if not intersection_numbers(w) <= {0, 2}:
        raise RuntimeError("search produced intersection numbers outside {0, 2}")
    return w


def _weighing_counts(n, r, node_budget) -> tuple[int, int, int]:
    """The weighing searches' one argument check: n, r and ``node_budget``
    as ints (None: 0); ValueError unless n >= r >= 1."""
    n, r = _check_counts(None, n=n, r=r)
    if n < r or r < 1:
        raise ValueError("need n >= r >= 1")
    (node_budget,) = _check_counts(node_budget=node_budget)
    return n, r, node_budget or 0


def run_weighing_search(n: int, r: int, node_budget: int | None):
    """(found, nodes, exhausted): the support search alone.  ``found`` holds,
    as (row masks, parity pivots), every kept complete support with a
    consistent parity system, in the order found; ``nodes`` counts the
    support rows placed, and ``exhausted`` says whether the search ran to
    its end rather than its budget (None or 0: no budget).  An order below
    the prefix's 1 + r(r-1)/2 columns has no support.
    ``_sign_supports`` signs what it finds."""
    n, r, node_budget = _weighing_counts(n, r, node_budget)
    if n < r * (r - 1) // 2 + 1:
        return [], 0, True
    tree = _SupportSearch(n, r, scheme_two_prefix(r, n), node_budget)
    exhausted = tree.run()
    return tree.found, tree.nodes, exhausted


def _sign_supports(n: int, r: int, found) -> list[WeighingMatrix]:
    """Every certified sign class over the supports ``found`` by
    ``run_weighing_search``, in order: the raw matrices that
    ``search_weighing`` dedupes."""
    if not found:  # an order below the prefix's width has no prefix
        return []
    size = (n - r) * n
    fixed = np.zeros((n, n), dtype=np.int8)
    fixed[:r] = scheme_two_prefix(r, n)
    candidates = []
    for rows, pivots in found:
        # rows 0..n-1, columns n..2n-1; variable (i - r) * n + c is the
        # flat index of the tail block
        support = _mask_bits(rows, n)
        tail = support[r:]
        ids = np.full((2 * n, 2 * n), size, dtype=np.intp)
        block = ids[:n, n:]
        block[r:][tail] = np.flatnonzero(tail)
        ids[n:, :n] = block.T
        bits = [mask << n for mask in rows] + _row_masks(support.T)
        stars = _stars(ids, size, bits, _bfs_forest(bits))
        particular, null_basis = _back_substitute(
            pivots, _row_masks(tail.reshape(1, -1))[0])
        start, basis = _class_space(particular, null_basis,
                                    partial(_switch_key, stars), len(stars))
        candidates += [_check_weighing(_signs(fixed, block, size, mask), r)
                       for mask in _gray_code(start, basis, 1 << len(basis))]
    return candidates


def search_weighing(n: int, r: int,
                    node_budget: int | None = None) -> WeighingSearchOutcome:
    """All (n, r) weighing matrices with row intersection numbers in {0, 2},
    up to equivalence.

    The first r rows are pinned to the weighing row normal form
    (``scheme_two_prefix``).  The search enumerates only the 0/1 supports:
    each tail row is a bitmask of weight r, the tail rows are non-decreasing
    (equal supports meet in r columns, so only r = 2 has them), every pair
    of rows meets in 0 or 2 columns, every pair of columns in at most 2
    rows, and every column reaches weight r and no more.  So every row meets
    exactly r(r-1)/2 others (its r columns carry r(r-1) other entries, two
    per row it meets).  The search checks only that each row meets enough
    earlier rows for the later ones to make up that count: the column
    weights rule out too many (see ``_SupportSearch.extend``).  The first
    tail row is only ever a candidate least in its orbit under the
    relabellings that fix the prefix support, which keeps a support of
    every class (see ``_SupportSearch._orbit_least``);
    ``supports`` and ``raw_count`` count what is kept, not every labelled
    support.  A branch is cut as soon as the candidates left for its later
    rows cannot lift some column to weight r, or cannot add a second row to
    some column pair that shares exactly one (see
    ``_SupportSearch._completable``).  Given the support, W W^T = r I says
    that every quadrangle (two rows meeting in two columns) has sign product
    -1: one parity equation over GF(2), added as soon as the row that closes
    it is placed, so a partial support whose equations are inconsistent is
    cut.  A complete support is signed by the particular solution plus the
    null space, up to the switchings the normal form leaves free (see
    ``_stars``); every class is materialised, re-verified and
    deduped with ``equivalent``.  ``node_budget`` caps the support rows
    placed (``nodes``); ``exhausted`` is False when it cut the search.
    """
    n, r, node_budget = _weighing_counts(n, r, node_budget)
    found, nodes, exhausted = run_weighing_search(n, r, node_budget)
    candidates = _sign_supports(n, r, found)
    matrices = dedupe_switching_classes(candidates, equivalent)
    return WeighingSearchOutcome(matrices, nodes, exhausted, len(candidates), len(found))
