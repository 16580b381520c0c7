"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Everything here is exact; the only tolerances are
the stated wall-clock budgets, asserted with wide margins.
"""

import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.constructions import catalog_certificate, catalog_ids
from rectaspec.core import is_rectagraph
from rectaspec.extension import (classify_small_spectrum_02graph,
                                 extend_four_to_three, extend_one_vertex,
                                 extend_zero_pair)
from rectaspec.search import search_signatures, search_weighing
from rectaspec.switching import switching_match, underlying_isomorphisms
from reference_oracles import naive_signature_classes


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_signed_cubes():
    start = time.perf_counter()
    for r in range(1, 11):
        g = rs.signed_cube(r)
        cert = rs.certify_two_sym(g)
        assert g.n == 2 ** r
        assert cert and cert.lambda_sq == r and cert.m == 2 ** (r - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"signed cubes r=1..10 certified exactly in {elapsed:.2f}s")


def test_criterion_02_product_charpoly_identity():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = [(u, v, rng.choice((-1, 1))) for u in range(n)
                 for v in range(u + 1, n) if rng.random() < 0.5]
        g = rs.SignedGraph.from_edges(n, edges)
        lhs = rs.char_poly(rs.ltimes_k2(g))
        rhs = rs.ltimes_charpoly_transform(rs.char_poly(g))
        assert lhs == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"product charpoly transform exact on 50 random graphs "
              f"in {elapsed:.2f}s")


def test_criterion_03_catalog_reproduction():
    start = time.perf_counter()
    rows = ["R1.1", "R2.1", "R3.1", "R4.2", "R5.4", "R6.6", "R6.7",
            "R7.6", "R7.7"]
    for key in rows:
        n, r, bip = catalog_certificate(key)
        g = rs.catalog(key)
        cert = rs.certify_two_sym(g)
        rep = rs.structure_report(g)
        assert g.n == n and cert and cert.lambda_sq == r == rep.degree
        assert rep.bipartite == bip and is_rectagraph(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"{len(rows)} constructible catalog rows verified in {elapsed:.2f}s")


def test_criterion_04_search_ground_truth():
    start = time.perf_counter()
    for r in (2, 3, 4):
        out = search_signatures(rs.hypercube(r))
        assert out.exhausted and len(out.solutions) == 1
        ok, _ = rs.switching_isomorphic(out.solutions[0], rs.signed_cube(r))
        assert ok
    out = search_signatures(rs.clebsch_graph())
    assert out.exhausted and len(out.solutions) == 1
    cert = rs.certify_two_sym(out.solutions[0])
    assert cert and cert.lambda_sq == 5 and cert.m == 8
    ok, _ = rs.switching_isomorphic(out.solutions[0], rs.catalog("R5.4"))
    assert ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"unique signature classes on Q2/Q3/Q4 and the Clebsch graph "
              f"in {elapsed:.2f}s")


def test_criterion_05_folded_five_cube_negative():
    start = time.perf_counter()
    out = search_signatures(rs.folded_cube(5))
    elapsed = time.perf_counter() - start
    assert not out.solutions
    if out.exhausted:
        report(5, f"folded 5-cube admits no signature: exhausted search, "
                  f"{out.nodes} nodes in {elapsed:.2f}s")
    else:
        assert out.nodes >= 10 ** 7
        report(5, f"folded 5-cube: no solutions in {out.nodes} nodes (partial)")


def test_criterion_06_weighing_correspondence():
    start = time.perf_counter()
    out = search_weighing(12, 5)
    assert out.exhausted and len(out.matrices) >= 1
    w = out.matrices[0]
    assert rs.is_proper(w) and rs.intersection_numbers(w) == {0, 2}
    g = rs.to_bipartite_sr2se(w)
    n, r, bip = catalog_certificate("R5.1")
    cert = rs.certify_two_sym(g)
    rep = rs.structure_report(g)
    assert g.n == n == 24 and cert.lambda_sq == r == 5
    assert rep.bipartite == bip and rep.connected and is_rectagraph(g)
    w2 = rs.from_bipartite_sr2se(g)
    g2 = rs.to_bipartite_sr2se(w2)
    ok, _ = rs.switching_isomorphic(g, g2)
    assert ok
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, f"W(12,5) search, bipartite correspondence and round trip "
              f"in {elapsed:.2f}s")


def _assert_restored(restored, original, r, decide=rs.switching_isomorphic):
    cert = rs.certify_two_sym(restored)
    assert cert and cert.lambda_sq == r
    ok, _ = decide(restored, original)
    assert ok


def _round_trips(g, r, vertices, pairs, decide=rs.switching_isomorphic) -> int:
    """Delete each vertex of ``vertices`` and each pair of ``pairs`` from the
    two-eigenvalue graph ``g`` (A^2 = r I), check the certificate the
    deletion leaves, extend back and check with ``decide`` that the result
    is switching isomorphic to ``g``; the number of trips."""
    m = g.n // 2
    for v in vertices:
        h = rs.delete_vertices(g, {v})
        if m - 1 >= 1:
            cert = rs.certify_three_sym(h)
            assert cert and cert.lambda_sq == r and cert.d == 1 \
                and cert.m == m - 1
        else:
            assert rs.char_poly(h) == [1, 0]  # bare spectrum {0}
        _assert_restored(extend_one_vertex(h, lambda_sq=r), g, r, decide)
    for u, v in pairs:
        h = rs.delete_vertices(g, {u, v})
        if g.adj[u, v]:
            if m - 2 >= 1:
                cert = rs.certify_four_sym(h)
                assert cert and cert.lambda_sq == r and cert.mu_sq == 1
            else:
                assert rs.char_poly(h) == [1, 0, -1]  # spectrum {-1, 1}
            mid = extend_four_to_three(h, lambda_sq=r)
        else:
            if m - 2 >= 1:
                cert = rs.certify_three_sym(h)
                assert cert and cert.lambda_sq == r and cert.d == 2
            else:
                assert rs.char_poly(h) == [1, 0, 0]  # spectrum {0, 0}
            mid = extend_zero_pair(h, lambda_sq=r)
        cert = rs.certify_three_sym(mid)
        assert cert and cert.lambda_sq == r and cert.d == 1
        assert all(d in (r, r - 1) for d in mid.degrees)
        _assert_restored(extend_one_vertex(mid, lambda_sq=r), g, r, decide)
    return len(vertices) + len(pairs)


def test_criterion_07_deletion_extension_round_trips():
    start = time.perf_counter()
    cases = 0
    for key in ["R1.1", "R2.1", "R3.1", "R4.1", "R4.2"]:
        g = rs.catalog(key)
        pairs = list(combinations(range(g.n), 2)) if g.n >= 3 else []
        cases += _round_trips(g, catalog_certificate(key)[1], range(g.n), pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"{cases} deletion/extension round trips restored their "
              f"originals in {elapsed:.2f}s")


# every pair of R5.3, R5.4 and R6.7; of R6.6 and R7.7 (64 vertices each),
# the 63 pairs through vertex 0 rather than all 2,016, which would take R7.7
# to a large share of the 120 s bound: r adjacent pairs and 63 - r
# non-adjacent ones, at distance 2 and beyond
PAIRS_THROUGH_VERTEX_0 = ("R6.6", "R7.7")


@pytest.mark.parametrize("key", ["R5.3", "R5.4", "R6.6", "R6.7", "R7.7"])
def test_criterion_07_degree_five_to_seven(key):
    """The paper's second result on the degree 5..7 rows that build without
    a weighing file: every one-vertex deletion and the pairs above, each
    restored graph checked by the switching matcher."""
    start = time.perf_counter()
    g = rs.catalog(key)
    r = catalog_certificate(key)[1]
    if key in PAIRS_THROUGH_VERTEX_0:
        pairs = [(0, v) for v in range(1, g.n)]
    else:
        pairs = list(combinations(range(g.n), 2))
    adjacent = sum(1 for u, v in pairs if g.adj[u, v])
    assert 0 < adjacent < len(pairs)
    cases = _round_trips(g, r, range(g.n), pairs, decide=switching_match)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, f"{key}: {cases} round trips ({g.n} vertices, {adjacent} adjacent "
              f"and {len(pairs) - adjacent} non-adjacent pairs) in {elapsed:.2f}s")


def _connected_regular_graphs(n, r):
    """Adjacency matrices of r-regular graphs on n vertices with
    N(0) = {1..r}; every isomorphism class appears at least once."""
    if n == 1:
        yield np.zeros((1, 1), dtype=np.int8)
        return
    if r < 1 or (n * r) % 2 or r > n - 1:
        return
    adj = np.zeros((n, n), dtype=np.int8)
    deg = [0] * n
    for j in range(1, r + 1):
        adj[0, j] = adj[j, 0] = 1
        deg[0] += 1
        deg[j] += 1

    def rec(v):
        if v == n:
            yield adj.copy()
            return
        need = r - deg[v]
        if need == 0:
            yield from rec(v + 1)
            return
        candidates = [w for w in range(v + 1, n) if deg[w] < r]
        if len(candidates) < need:
            return
        for chosen in combinations(candidates, need):
            for w in chosen:
                adj[v, w] = adj[w, v] = 1
                deg[v] += 1
                deg[w] += 1
            # feasibility: any remaining deficit must be coverable by edges
            # to other vertices that still have room
            deficits = [r - deg[w] for w in range(v + 1, n)]
            open_count = sum(1 for d in deficits if d > 0)
            if all(d == 0 or d <= open_count - 1 for d in deficits):
                yield from rec(v + 1)
            for w in chosen:
                adj[v, w] = adj[w, v] = 0
                deg[v] -= 1
                deg[w] -= 1

    yield from rec(1)


def _connected_zero_two_graphs(max_n):
    """One representative per isomorphism class of connected zero-two
    graphs on at most max_n vertices."""
    reps = []
    for n in range(1, max_n + 1):
        for r in range(0, n):
            for adj in _connected_regular_graphs(n, r):
                g = rs.UnderlyingGraph(adj)
                rep = rs.structure_report(g)
                if not (rep.connected and rep.zero_two):
                    continue
                if any(h.n == n and
                       next(underlying_isomorphisms(g, h), None) is not None
                       for h in reps):
                    continue
                reps.append(g)
    return reps


def _signings_up_to_switching(u):
    """One representative per switching class: spanning-tree edges positive."""
    tree = {(min(v, p), max(v, p)) for v, p in u.spanning_forest if p >= 0}
    free = [e for e in u.edges() if e not in tree]
    for mask in range(1 << len(free)):
        adj = np.array(u.adj, dtype=np.int8)
        for i, (a, b) in enumerate(free):
            if (mask >> i) & 1:
                adj[a, b] = adj[b, a] = -1
        yield rs.SignedGraph(adj)


def test_criterion_08_small_zero_two_falsification_suite():
    start = time.perf_counter()
    graphs = _connected_zero_two_graphs(8)
    names = sorted((g.n, g.degrees[0]) for g in graphs)
    # K1, K2, the 4-cycle, K4, the 3-cube, and K4 x K2 (two K4 blocks plus a
    # perfect matching, the one further zero-two graph with triangles here)
    assert names == [(1, 0), (2, 1), (4, 2), (4, 3), (8, 3), (8, 4)]
    checked = 0
    for u in graphs:
        for signed in _signings_up_to_switching(u):
            verdict = classify_small_spectrum_02graph(signed)
            assert verdict.status != "falsified", (u.n, verdict.detail)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(8, f"{checked} signings of {len(graphs)} zero-two graphs, "
              f"zero falsification events, in {elapsed:.2f}s")


def test_derived_multiplicities_match_exact_rank():
    """ThreeSym and FourSym read their multiplicities off tr(A^2) and the
    verified identity; exact elimination must agree on every certificate of
    the criterion-08 suite and of small catalog deletions."""
    from rectaspec.exactlinalg import rank

    graphs = [s for u in _connected_zero_two_graphs(8)
              for s in _signings_up_to_switching(u)]
    for key in ["R1.1", "R2.1", "R3.1", "R4.1", "R4.2", "R5.4", "R6.7", "T",
                "K22", "K4", "CLEBSCH", "BIPLANE", "Q5", "FC5"]:
        g = rs.catalog(key)
        g = g if isinstance(g, rs.SignedGraph) else g.all_positive()
        first = range(min(6, g.n))
        graphs += [rs.delete_vertices(g, {v}) for v in first if g.n > 1]
        graphs += [rs.delete_vertices(g, set(pair))
                   for pair in combinations(first, 2) if g.n > 2]
    three = four = 0
    for h in graphs:
        a = h.adj.astype(np.int64)
        eye = np.eye(h.n, dtype=np.int64)
        cert = rs.certify_three_sym(h)
        if cert:
            assert cert.d == h.n - rank(a) and 2 * cert.m + cert.d == h.n
            three += 1
        cert = rs.certify_four_sym(h)
        if cert:
            assert rank(a @ a - cert.lambda_sq * eye) == 2
            assert rank(a @ a - cert.mu_sq * eye) == 2 * cert.m
            four += 1
    assert (three, four) == (84, 36)


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    # degree at least 4 forces order >= 1 + r + C(r,2) >= 11, hence more
    # than 16 edges, so the enumeration below is complete
    assert (1 + 4 + comb(4, 2)) * 4 // 2 > 16
    rectagraphs = []
    for n in range(2, 11):
        for r in (1, 2, 3):
            if n * r // 2 > 16 or (n * r) % 2:
                continue
            for adj in _connected_regular_graphs(n, r):
                g = rs.UnderlyingGraph(adj)
                if not is_rectagraph(g):
                    continue
                if any(h.n == g.n and
                       next(underlying_isomorphisms(g, h), None) is not None
                       for h in rectagraphs):
                    continue
                rectagraphs.append(g)
    names = sorted((g.n, g.degrees[0]) for g in rectagraphs)
    assert names == [(2, 1), (4, 2), (8, 3)]
    for g in rectagraphs:
        fast = len(search_signatures(g).solutions)
        slow = naive_signature_classes(g)
        assert fast == slow, (g.n, fast, slow)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(9, f"pruned search matches the full-enumeration oracle on "
              f"{len(rectagraphs)} rectagraphs in {elapsed:.2f}s")


def test_criterion_10_filter_soundness():
    for key in [k for k in catalog_ids() if k.startswith("R")]:
        n, r, bip = catalog_certificate(key)
        assert rs.filter_sr2se(n, r, bipartite=bip).passed, key
    verdict = rs.filter_sr2se(36, 6, bipartite=True)
    assert not verdict.passed and "sum-of-two-squares" in verdict.failures
    report(10, "feasibility filter passes every catalog row and rejects "
               "(36, 6) bipartite on sum-of-two-squares")
