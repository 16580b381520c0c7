import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import numpy as np
import pytest

import rectaspec as rs
from rectaspec import search
from rectaspec.cli import main
from rectaspec.core import _bfs_forest, _bits, quadrangles
from rectaspec.formats import write_graph6
from rectaspec.search import (_signs, build_signature_problem,
                              canonical_switch_key, check_refutation, kernel_arguments,
                              proof_log, run_weighing_search, search_signatures,
                              search_weighing, verify_nonexistence)
from rectaspec.search import _SupportSearch, _sign_supports
from rectaspec.switching import (SchemeError, relabel, scheme_layout,
                                 solve_switch_for_perm)
from rectaspec.weighing import equivalent, scheme_two_prefix
from reference_oracles import (brute_force_quadrangles, naive_signature_classes,
                               search_signatures_dfs, sign_by_sign_weighing_search,
                               uncut_support_search)


class TestSignatureSearch:
    def test_square_has_no_free_edges(self):
        out = search_signatures(rs.hypercube(2))
        assert len(out.solutions) == 1 and out.raw_count == 1 and out.exhausted

    def test_cube(self):
        out = search_signatures(rs.hypercube(3))
        assert len(out.solutions) == 1 and out.exhausted
        ok, _ = rs.switching_isomorphic(out.solutions[0], rs.signed_cube(3))
        assert ok

    def test_clebsch(self):
        out = search_signatures(rs.clebsch_graph())
        assert len(out.solutions) == 1
        cert = rs.certify_two_sym(out.solutions[0])
        assert cert.lambda_sq == 5 and cert.m == 8

    def test_solutions_certified(self):
        out = search_signatures(rs.hypercube(4))
        for sol in out.solutions:
            cert = rs.certify_two_sym(sol)
            assert cert and cert.lambda_sq == 4

    def test_order_independence(self):
        for g in [rs.hypercube(3), rs.hypercube(4), rs.clebsch_graph(),
                  rs.folded_cube(5)]:
            baseline = search_signatures(g)
            for search in (search_signatures, search_signatures_dfs):
                for seed in (0, 1, 2, 3):
                    out = search(g, order_seed=seed)
                    assert len(out.solutions) == len(baseline.solutions)
                    assert out.raw_count == baseline.raw_count and out.exhausted

    @pytest.mark.parametrize("maker,raw", [
        (lambda: rs.hypercube(5), 65536),  # 55 free edges: bits past 31
        (lambda: rs.underlying(rs.catalog("R6.7")), 2048),
        (lambda: rs.hypercube(6), 2 ** 42),  # never finished by the DFS
    ])
    def test_one_class_from_many_raw_solutions(self, maker, raw):
        out = search_signatures(maker())
        assert len(out.solutions) == 1 and out.raw_count == raw and out.exhausted
        r = out.problem.degree
        assert rs.certify_two_sym(out.solutions[0]).lambda_sq == r

    def test_switch_key_classes_are_switching_classes(self):
        # Q4's tail has a vertex at distance 4, whose BFS parent is in the tail
        problem = build_signature_problem(rs.hypercube(4))
        rng = random.Random(3)
        masks = [rng.getrandbits(len(problem.free_edges)) for _ in range(20)]
        masks += [m ^ star for m in masks[:6] for _bit, star in problem.tail_stars]
        graphs = [rs.SignedGraph(_signs(problem.prefix_signs, problem.edge_ids,
                                        len(problem.free_edges), m)) for m in masks]
        keys = [canonical_switch_key(problem, m) for m in masks]
        identity = list(range(problem.graph.n))
        for ma, ga, ka in zip(masks, graphs, keys):
            for mb, gb, kb in zip(masks, graphs, keys):
                switched = solve_switch_for_perm(ga, gb, identity) is not None
                assert (ka == kb) == switched
                # the GF(2) search maps a null basis through the key
                assert canonical_switch_key(problem, ma ^ mb) == ka ^ kb

    def test_precondition_fault_names_predicate(self):
        k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(SchemeError, match="triangle-free"):
            search_signatures(k3)

    def test_disconnected_graph_refused(self):
        # the star normal form itself accepts it; the search must not
        q3 = rs.hypercube(3).all_positive()
        with pytest.raises(SchemeError, match="connected"):
            search_signatures(rs.core.disjoint_union(q3, q3))

    def test_budget_exhaustion_flagged(self):
        # two pure-switching classes, so a budget of one stops short
        out = search_signatures(rs.underlying(rs.catalog("R6.7")), node_budget=1)
        assert not out.exhausted and out.nodes == 1
        assert not search_signatures_dfs(rs.folded_cube(5), node_budget=10).exhausted

    def test_negative_counts_refused(self):
        g = rs.hypercube(3)
        with pytest.raises(ValueError, match="node_budget"):
            search_signatures(g, node_budget=-1)
        with pytest.raises(ValueError, match="progress_every"):
            search_signatures(g, progress_every=-1)

    def test_non_integer_counts_refused(self):
        # node_budget=True used to come back as nodes=True
        g = rs.clebsch_graph()
        for counts in ({"node_budget": True}, {"node_budget": 2.5},
                       {"progress_every": 1.5}, {"progress_every": False}):
            name = next(iter(counts))
            with pytest.raises(TypeError, match=name):
                search_signatures(g, **counts)
        # the reference DFS ran 3 nodes on a budget of 2.5
        with pytest.raises(TypeError, match="node_budget"):
            kernel_arguments(build_signature_problem(g), node_budget=2.5)

    def test_numpy_integer_counts_read_as_ints(self):
        calls = []
        out = search_signatures(rs.underlying(rs.catalog("R6.7")),
                                node_budget=np.int64(1), progress_every=np.uint8(1),
                                progress=lambda *a: calls.append(a))
        assert type(out.nodes) is int and out.nodes == 1 and not out.exhausted
        assert calls == [(1, 1)]

    def test_progress_counts_class_masks(self):
        calls = []
        out = search_signatures(rs.underlying(rs.catalog("R6.7")),
                                progress=lambda *a: calls.append(a),
                                progress_every=1)
        assert calls == [(1, 1), (2, 1)] and out.nodes == 2

    def test_folded_five_cube_empty(self):
        outcome, log = verify_nonexistence(rs.folded_cube(5))
        assert outcome.exhausted and not outcome.solutions
        assert "solutions 0" in log and "exhausted true" in log

    @pytest.mark.parametrize("maker", [lambda: rs.folded_cube(5),
                                       lambda: rs.folded_cube(6)])
    def test_refutation_certificate(self, maker):
        out = search_signatures(maker())
        assert out.exhausted and not out.solutions and out.raw_count == 0
        assert out.refutation
        check_refutation(out.problem, out.refutation)
        quads = out.refutation
        for i in range(len(quads)):
            with pytest.raises(RuntimeError, match="refutation"):
                check_refutation(out.problem, quads[:i] + quads[i + 1:])

    def test_refutation_signs_come_from_the_graph(self):
        # the check used to read the problem's prefix_signs: with edge
        # (0, 1) negated there, one quadrangle "refuted" Q4, which has a
        # signature class
        problem = build_signature_problem(rs.hypercube(4))
        prefix = problem.prefix_signs.copy()
        prefix[0, 1] = prefix[1, 0] = -1
        forged = dataclasses.replace(problem, prefix_signs=prefix)
        with pytest.raises(RuntimeError, match="0 = 1"):
            check_refutation(forged, [(0, 1, 5, 2)])
        # vertex -5 must not pass for 11: the check would read the free
        # edges (5, 11) and (11, 6) off row 0 of the prefix, as fixed and
        # positive
        for quad in [(1, 5, -5, 6), (1, 5, 11 + 16, 6)]:
            with pytest.raises(RuntimeError, match="degenerate"):
                check_refutation(problem, [quad])

    @pytest.mark.parametrize("graph", [
        lambda: rs.folded_cube(5),  # vertex 0's neighbours are not 1..6
        lambda: rs.UnderlyingGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])],
        ids=["unrelabelled", "narrower-than-prefix"])
    def test_refutation_needs_the_prefix_support(self, graph):
        out = search_signatures(rs.folded_cube(5))
        moved = dataclasses.replace(out.problem, graph=graph())
        with pytest.raises(RuntimeError, match="prefix's support"):
            check_refutation(moved, out.refutation)

    def test_elimination_order_comes_from_a_seed(self):
        # an order list [0] * 16 used to give rank 1 and no null vector
        problem = build_signature_problem(rs.hypercube(4))
        for seed in (None, 0, 7):
            sol = search.solve_parity_system(problem, seed)
            assert (sol.rank, len(sol.null_basis)) == (11, 5)
        with pytest.raises(TypeError):
            search.solve_parity_system(problem, [0] * 16)

    @pytest.mark.parametrize("order", [[0] * 16, list(range(15))],
                             ids=["repeated", "short"])
    def test_kernel_order_must_be_a_permutation(self, order):
        # [0] * 16 made the DFS return 2 masks in 2 nodes instead of 32 in
        # 62; a 15-entry order died with IndexError inside the kernel
        problem = build_signature_problem(rs.hypercube(4))
        with pytest.raises(ValueError, match="not a permutation"):
            kernel_arguments(problem, order=order)
        masks, nodes = search.run_search(*kernel_arguments(problem))[:2]
        assert (len(masks), nodes) == (32, 62)

    def test_oracle_agreement_small(self):
        for g in [rs.catalog("Q1"), rs.hypercube(2), rs.hypercube(3)]:
            got = len(search_signatures(g).solutions)
            assert got == naive_signature_classes(g)

    def test_degree_zero_graph_has_no_two_eigenvalue_signature(self):
        import numpy as np

        k1 = rs.UnderlyingGraph(np.zeros((1, 1), dtype=np.int8))
        assert not search_signatures(k1).solutions
        assert naive_signature_classes(k1) == 0


# ``rectaspec search`` on each graph in its own labelling and in two seeded
# relabellings: the class count and the sha256 of stdout plus stderr (the
# kept representatives and the proof log), recorded before the signature
# search's dedupe left VF2
PINNED_SEARCHES = {
    ("Q4", None): (1, "80d06024d62f0eed3cee7e1787d51c0ca46ebfa1955d3027e085af16fa6dec44"),
    ("Q4", 1): (1, "d336e2fd188407391e34aa5a69d2ff01a492bf6966db36ff48d95c9bece8ff46"),
    ("Q4", 2): (1, "dbab9b71666af40065b9e4cc8e4f2f24a1d6c1ad3de5daa86509b7a805a69991"),
    ("Q5", None): (1, "61a6f8cdf9215712610d957e1cfe8890019d7b70b2e033ff611f5fdb066587e4"),
    ("Q5", 1): (1, "e8d7ba8c2a0a50455eba86de47bda726d448736291250723e2ba745b7d1e91a8"),
    ("Q5", 2): (1, "82e2839f3dd409f5a4c775ba5520bc13d78691f1ca1fa9406681bc237b2301c1"),
    ("CLEBSCH", None): (1, "cae45d190091a7d01c0a9bbb771b3e73ca54cdd93a032cd10fe45e8192bf30e7"),
    ("CLEBSCH", 1): (1, "e2258386a04f2e717319a4577af2157e4c5b762db687678a3dc4400a36ad4662"),
    ("CLEBSCH", 2): (1, "58c8974eba1a8a080a212ea84a0f638bd7716b4598f4262bfffb334f2492df75"),
    ("BIPLANE", None): (1, "2815a285edc5d605623d9671cfc99622b658ffc774798054e61b8abe5615f0de"),
    ("BIPLANE", 1): (1, "45235ddafc89f40249a036dd520585c544121b1c16719bf4765084d521633243"),
    ("BIPLANE", 2): (1, "77d934bfb10f6906d3153f5143ac33a6ccf62bad74172208f2370cdd7bd3c653"),
    ("R4.1", None): (1, "706fd12542a2aab4d7fd2d73a9568e4b7ef761a9bfacf1457bc29f011b4491d2"),
    ("R4.1", 1): (1, "6283ec9ddd2b0fcfc4802a2b2d89b49ccff152d4291dd4fabad3927ffb27b2e9"),
    ("R4.1", 2): (1, "d63bff0fd0c9196850a0902ce9f73eb7f5056aa4ff84054bedcbc35a28e89656"),
    ("R6.7", None): (1, "0a81311c00a77e5863e6e92eecb549be5ce7e7f93776a1c5f1a20dab82ae2025"),
    ("R6.7", 1): (1, "ec68c4c4cc7da8cc2a3f490504cfde6587ce9e939b069f29814f71e3546f59d5"),
    ("R6.7", 2): (1, "de66bfa14d5495b318c762d431a74ed1c1a9581b70beaac655a67672a8378e63"),
}

PINNED_GRAPHS = {
    "Q4": lambda: rs.hypercube(4), "Q5": lambda: rs.hypercube(5),
    "CLEBSCH": rs.clebsch_graph, "BIPLANE": lambda: rs.catalog("BIPLANE"),
    "R4.1": lambda: rs.underlying(rs.catalog("R4.1")),
    "R6.7": lambda: rs.underlying(rs.catalog("R6.7")),
}


@pytest.mark.parametrize("name, seed", list(PINNED_SEARCHES))
def test_pinned_search_output(tmp_path, capsys, name, seed):
    g = PINNED_GRAPHS[name]()
    if seed is not None:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        g = relabel(g, perm)
    path = tmp_path / "graph.g6"
    path.write_bytes(write_graph6(g))
    assert main(["search", "--graph6-file", str(path)]) == 0
    out, err = capsys.readouterr()
    classes, digest = PINNED_SEARCHES[name, seed]
    assert out.splitlines()[-1].split()[:2] == ["classes", str(classes)]
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


class TestNoSearchReachesVf2:
    """With the VF2 isomorphism enumeration made to fail, every search still
    answers: neither dedupe calls ``switching_isomorphic``."""

    @pytest.fixture(autouse=True)
    def no_vf2(self, monkeypatch):
        import rectaspec.switching as switching

        def refuse(*args):
            raise AssertionError("VF2 reached")

        monkeypatch.setattr(switching, "underlying_isomorphisms", refuse)

    def test_the_patch_bites(self):
        g = rs.catalog("R3.1")
        with pytest.raises(AssertionError, match="VF2"):
            rs.switching_isomorphic(g, g)

    @pytest.mark.parametrize("maker", [rs.clebsch_graph,
                                       lambda: rs.underlying(rs.catalog("R6.7"))],
                             ids=["clebsch", "R6.7-underlying"])
    def test_signature_search(self, maker):
        out = search_signatures(maker())
        # two pure-switching classes, so the dedupe decides one pair
        assert out.nodes == 2 and out.exhausted and len(out.solutions) == 1

    @pytest.mark.parametrize("n, r", [(12, 5), (14, 5)])
    def test_weighing_search(self, n, r):
        out = search_weighing(n, r)
        assert out.exhausted and len(out.matrices) == 1


def _gf2_consistent(problem):
    """Independent feasibility check: the quadrangle parity constraints form
    a linear system over GF(2); eliminate and look for 0 = 1."""
    pivots = {}
    n_free = len(problem.free_edges)  # the id of a fixed edge
    for edges, target in zip(problem.constraint_edges.tolist(),
                             problem.constraint_targets.tolist()):
        vec = 0
        for e in edges:
            if e != n_free:
                vec |= 1 << e
        t = target
        while vec:
            lead = vec.bit_length() - 1
            if lead in pivots:
                pv, pt = pivots[lead]
                vec ^= pv
                t ^= pt
            else:
                pivots[lead] = (vec, t)
                break
        else:
            if t:
                return False
    return True


def _loop_constraints(problem):
    """The parity system by the per-quadrangle loop the array gathers
    replaced: (free ids, target, quadrangle) per constraint, in order."""
    free_id = {}
    for i, (v, w) in enumerate(problem.free_edges):
        free_id[v, w] = free_id[w, v] = i
    prefix = problem.prefix_signs
    out = []
    for quad in sorted(map(tuple, quadrangles(problem.graph).tolist()), key=max):
        a, b, c, d = quad
        free, parity = [], 0
        for e in ((a, b), (b, c), (c, d), (d, a)):
            if e in free_id:
                free.append(free_id[e])
            else:
                assert prefix[e] != 0
                parity ^= int(prefix[e] < 0)
        if free:
            out.append((tuple(free), 1 ^ parity, quad))
        else:
            assert parity == 1
    return out


class TestArrayBuild:
    @pytest.mark.parametrize("maker", [
        lambda: rs.hypercube(3), lambda: rs.hypercube(5), rs.clebsch_graph,
        lambda: rs.folded_cube(5), rs.gewirtz_graph,
        lambda: rs.underlying(rs.catalog("R6.7")),
        lambda: rs.bibd_incidence(rs.constructions.biplane_7_4_2()),
    ], ids=["Q3", "Q5", "Clebsch", "FC5", "Gewirtz", "R6.7", "biplane"])
    def test_matches_loop_reference(self, maker):
        problem = build_signature_problem(maker())
        n_free = len(problem.free_edges)
        got = [(tuple(e for e in edges if e != n_free), target, tuple(quad))
               for edges, target, quad in zip(problem.constraint_edges.tolist(),
                                               problem.constraint_targets.tolist(),
                                               problem.constraint_quadrangles.tolist())]
        assert got == _loop_constraints(problem)
        for arr in (problem.constraint_edges, problem.constraint_targets,
                    problem.constraint_quadrangles):
            assert not arr.flags.writeable


# the underlying graphs of the benchmark's signature searches: search-classes
# (Q5, R6.7, Clebsch, Q4, biplane, R4.1) and search-refute (FC5 x K2, FC5,
# Gewirtz x K2, Gewirtz), a product's factor relabelled before the product
BENCHMARK_GRAPHS = {
    "Q5": lambda: rs.hypercube(5),
    "R6.7": lambda: rs.underlying(rs.catalog("R6.7")),
    "Clebsch": rs.clebsch_graph,
    "Q4": lambda: rs.hypercube(4),
    "biplane": lambda: rs.bibd_incidence(rs.constructions.biplane_7_4_2()),
    "R4.1": lambda: rs.underlying(rs.catalog("R4.1")),
    "FC5xK2": lambda: rs.folded_cube(5),
    "FC5": lambda: rs.folded_cube(5),
    "GewirtzxK2": rs.gewirtz_graph,
    "Gewirtz": rs.gewirtz_graph,
}


def _benchmark_graph(name: str, seed: int):
    g = BENCHMARK_GRAPHS[name]()
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    g = relabel(g, perm)
    if name.endswith("xK2"):
        return rs.underlying(rs.constructions.cartesian_k2(g.all_positive()))
    return g


class TestLeanBuild:
    @pytest.mark.parametrize("name", BENCHMARK_GRAPHS)
    def test_arrays_match_the_generic_lister(self, name, monkeypatch):
        """The constraint arrays equal those built from a generic 4-cycle
        lister, the brute-force one, sorted stably by each quadrangle's
        largest vertex; every product in float64, as ``quadrangles`` takes
        its label products from order 257 on, builds the same arrays."""
        from rectaspec import exactlinalg

        for seed in (0, 1, 2):
            g = _benchmark_graph(name, seed)
            problem = build_signature_problem(g)
            quads = np.array(brute_force_quadrangles(problem.graph))
            order = np.argsort(quads.max(axis=1), kind="stable")
            n_free = len(problem.free_edges)
            edge_id = {}
            for i, (v, w) in enumerate(problem.free_edges):
                edge_id[v, w] = edge_id[w, v] = i
            open_quads = [quad for quad in quads[order].tolist()
                          if any((v, w) in edge_id for v, w in zip(quad, quad[1:] + quad[:1]))]
            assert problem.constraint_quadrangles.tolist() == open_quads
            assert problem.constraint_edges.tolist() == [
                [edge_id.get((v, w), n_free) for v, w in zip(quad, quad[1:] + quad[:1])]
                for quad in open_quads]
            with monkeypatch.context() as m:
                m.setattr(exactlinalg, "_FLOAT_RULES", ((np.float64, 1 << 53),))
                reference = build_signature_problem(g)
            for field in ("constraint_edges", "constraint_targets",
                          "constraint_quadrangles", "prefix_signs", "edge_ids"):
                got, want = getattr(problem, field), getattr(reference, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert problem.free_edges == reference.free_edges
            assert problem.labelling == reference.labelling

    @pytest.mark.parametrize("name", ["FC5xK2", "FC5", "GewirtzxK2", "Gewirtz"])
    def test_refutation_builds_no_tail_stars(self, name):
        outcome = search_signatures(_benchmark_graph(name, 1))
        assert outcome.refutation and not outcome.solutions
        # every vertex of Gewirtz lies within distance 2 of the base
        assert (outcome.problem.tail_size > 0) == (name != "Gewirtz")
        assert "tail_stars" not in vars(outcome.problem)

    def test_consistent_search_keeps_its_tail_stars(self):
        outcome = search_signatures(rs.hypercube(4))
        problem = outcome.problem
        assert "tail_stars" in vars(problem)
        # the stars built before they were made on demand
        assert problem.tail_stars == ((1, 4165), (2, 8466), (8, 17448), (128, 35456),
                                      (4096, 61440))
        assert problem.tail_stars is problem.tail_stars  # built once

    @pytest.mark.parametrize("maker", [lambda: rs.hypercube(4), lambda: rs.hypercube(5),
                                       lambda: rs.catalog("R6.7")],
                             ids=["Q4", "Q5", "R6.7"])
    def test_tail_stars_follow_the_tail_rule(self, maker):
        # the layout rule the switchability rule replaced: per tail vertex
        # (distance >= 3 from the base, the last tail_size labels), in BFS
        # order, the bit of the edge to its parent and the bits of all its
        # edges
        problem = build_signature_problem(maker())
        edge_id = {}
        for i, (v, w) in enumerate(problem.free_edges):
            edge_id[v, w] = edge_id[w, v] = i
        tail = problem.graph.n - problem.tail_size
        want = tuple((1 << edge_id[x, parent],
                      sum(1 << i for i, e in enumerate(problem.free_edges) if x in e))
                     for x, parent in problem.graph.spanning_forest if x >= tail)
        assert len(want) == problem.tail_size > 0
        assert problem.tail_stars == want


def _row_column_bits(n, rows):
    """Neighbour bitmasks of a support's row/column graph: rows 0..n-1,
    columns n..2n-1."""
    return [mask << n for mask in rows] + [
        sum(1 << i for i, mask in enumerate(rows) if mask >> c & 1) for c in range(n)]


def _layout_rule_stars(n, r, rows):
    """The weighing search's stars by the layout rule the switchability rule
    replaced: tail rows and the columns past the prefix support are
    switchable, except the root of a component without row 0."""
    width = r * (r - 1) // 2 + 1
    bits = _row_column_bits(n, rows)
    stars = []
    for v, parent in _bfs_forest(bits):
        if parent < 0:
            continue
        if r <= v < n:  # tail row v, reached from column parent - n
            shift = (v - r) * n
            stars.append((1 << (shift + parent - n), rows[v] << shift))
        elif v >= n + width:  # column c, reached from row parent
            c = v - n
            stars.append((1 << ((parent - r) * n + c),
                          sum(1 << ((k - r) * n + c) for k in _bits(bits[v]))))
    return tuple(stars)


@pytest.mark.parametrize("n, r", [(8, 2), (10, 2), (12, 5), (14, 5)])
def test_weighing_stars_follow_the_layout_rule(n, r, monkeypatch):
    found = run_weighing_search(n, r, 0)[0]
    assert found
    got = []
    real = search._stars
    monkeypatch.setattr(search, "_stars", lambda *args: got.append(real(*args)) or got[-1])
    _sign_supports(n, r, found)
    assert got == [_layout_rule_stars(n, r, rows) for rows, _ in found]
    # at r = 2 some support's row/column graph has a component without row
    # 0, whose root every sign at is a variable: it must stay out
    roots = [sum(parent < 0 for _, parent in _bfs_forest(_row_column_bits(n, rows)))
             for rows, _ in found]
    assert (max(roots) > 1) == (r == 2)


def _all_rows_stars(ids, size, support, forest):
    """``search._stars`` by its first definition: every vertex's star is
    built, then the switchable ones are kept."""
    stars = [sum(1 << int(i) for i in row if i < size) for row in ids]
    return tuple((1 << int(ids[v, parent]), stars[v]) for v, parent in forest
                 if parent >= 0 and stars[v].bit_count() == support[v].bit_count())


@pytest.mark.parametrize("name, seed", list(PINNED_SEARCHES))
def test_tail_stars_match_the_all_rows_stars(name, seed):
    g = PINNED_GRAPHS[name]()
    if seed is not None:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        g = relabel(g, perm)
    problem = build_signature_problem(g)
    assert problem.tail_stars == _all_rows_stars(
        problem.edge_ids, len(problem.free_edges), problem.graph.row_bits,
        problem.graph.spanning_forest)


def petersen_graph() -> rs.UnderlyingGraph:
    """The Kneser graph K(5, 2): regular, triangle-free, and not zero-two
    (two non-adjacent vertices share one neighbour)."""
    pairs = [frozenset(p) for p in combinations(range(5), 2)]
    return rs.UnderlyingGraph.from_edges(10, [(i, j) for i, a in enumerate(pairs)
                                              for j, b in enumerate(pairs)
                                              if i < j and not a & b])


class TestSchemeErrorOrder:
    """``build_signature_problem`` names the first failing predicate in the
    order connected, regular, triangle-free, zero-two."""

    def test_petersen_is_not_zero_two(self):
        g = petersen_graph()
        rep = rs.structure_report(g)
        assert (rep.connected, rep.regular, rep.triangle_free, rep.zero_two) == (
            True, True, True, False)
        with pytest.raises(SchemeError, match="needs a zero-two graph"):
            scheme_layout(g)
        with pytest.raises(SchemeError, match="needs a zero-two graph"):
            search_signatures(g)

    @pytest.mark.parametrize("edges, n, message", [
        # a triangle and a path on two edges: not regular, not triangle-free
        ([(0, 1), (1, 2), (0, 2), (2, 3)], 4, "regular"),
        # K5: regular, with triangles, every pair sharing three neighbours
        ([(a, b) for a in range(5) for b in range(a + 1, 5)], 5, "triangle-free"),
        # C5: regular and triangle-free; adjacent vertices share none, the
        # others one
        ([(a, (a + 1) % 5) for a in range(5)], 5, "zero-two"),
    ])
    def test_first_failing_predicate_named(self, edges, n, message):
        g = rs.UnderlyingGraph.from_edges(n, edges)
        for call in (scheme_layout, search_signatures):
            with pytest.raises(SchemeError, match=f"needs a {message} graph"):
                call(g)

    def test_disconnected_before_the_rest(self):
        # a path on three vertices and a lone vertex: disconnected, not
        # regular
        g = rs.UnderlyingGraph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(SchemeError, match="needs a connected graph"):
            search_signatures(g)
        with pytest.raises(SchemeError, match="needs a regular graph"):
            scheme_layout(g)


def test_records_with_array_fields_compare_by_identity():
    from rectaspec.extension import GramResidual, canonical_gram_form, classify_gram

    m = canonical_gram_form("c", 2, 1, 0, 2, 3)
    for make in (lambda: build_signature_problem(rs.hypercube(3)),
                 lambda: GramResidual(m),
                 lambda: classify_gram(GramResidual(m))):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2


class TestAgainstLinearAlgebra:
    @pytest.mark.parametrize("maker,expect", [
        (lambda: rs.hypercube(4), True),
        (lambda: rs.clebsch_graph(), True),
        (lambda: rs.folded_cube(5), False),
    ])
    def test_solvability_matches_gf2_elimination(self, maker, expect):
        g = maker()
        assert _gf2_consistent(build_signature_problem(g)) is expect
        assert bool(search_signatures(g).solutions) is expect


class TestGewirtz:
    def test_no_two_eigenvalue_signature(self):
        g = rs.gewirtz_graph()
        rep = rs.structure_report(g)
        assert (g.n, rep.degree) == (56, 10) and rep.zero_two
        assert rep.quadrangle_count == 630  # n/4 * C(r, 2)
        out, log = verify_nonexistence(g)
        assert out.exhausted and not out.solutions
        assert "solutions 0" in log and "exhausted true" in log
        assert not _gf2_consistent(build_signature_problem(g))


class TestDfsReference:
    def test_gf2_matches_dfs(self, monkeypatch):
        import rectaspec.search as search

        seen = []  # each driver's canonical class masks, sorted
        real = search._outcome

        def recording(problem, masks, *args, **kwargs):
            seen.append(sorted(masks))
            return real(problem, masks, *args, **kwargs)

        monkeypatch.setattr(search, "_outcome", recording)
        for g in [rs.hypercube(3), rs.hypercube(4), rs.hypercube(5),
                  rs.clebsch_graph(), rs.folded_cube(5), rs.gewirtz_graph(),
                  rs.underlying(rs.catalog("R6.7")),
                  rs.bibd_incidence(rs.constructions.biplane_7_4_2())]:
            gf2 = search_signatures(g)
            dfs = search_signatures_dfs(g)
            assert len(gf2.solutions) == len(dfs.solutions)
            assert gf2.raw_count == dfs.raw_count
            assert gf2.exhausted and dfs.exhausted
            assert seen[-2] == seen[-1]
            # every class holds exactly the 2^tail_size raw solutions that
            # the GF(2) search counts for it without listing them
            assert dfs.class_sizes == dict.fromkeys(
                seen[-2], 1 << gf2.problem.tail_size)


# every catalog graph with n <= 64 that builds without a weighing file and
# whose DFS finishes within 5,000 nodes (the triangle graphs T and K4 are
# refused by the normal form)
DFS_CATALOG = ["R1.1", "R2.1", "R3.1", "R4.1", "R4.2", "R5.4", "R6.7", "K22",
               "CLEBSCH", "BIPLANE", "GEWIRTZ", "G1", "G2", "G3", "G4",
               "Q1", "Q2", "Q3", "Q4", "FC4", "FC5"]


class TestDfsCatalog:
    def test_gf2_matches_dfs_on_catalog(self):
        compared = []
        for key in rs.constructions.catalog_ids():
            try:
                g = rs.catalog(key)
            except rs.constructions.CatalogIngestError:
                continue
            if g.n > 64:
                continue
            try:
                dfs = search_signatures_dfs(g, node_budget=5000)
            except SchemeError:
                continue
            if not dfs.exhausted:
                continue
            gf2 = search_signatures(g)
            assert ((len(gf2.solutions), gf2.raw_count, gf2.exhausted)
                    == (len(dfs.solutions), dfs.raw_count, dfs.exhausted)), key
            compared.append(key)
        assert compared == DFS_CATALOG


# Replaces the elimination with one whose particular solution has one edge
# sign flipped (or whose refutation misses one quadrangle), then searches:
# the certificate check must catch it.
CORRUPT_ELIMINATION_SEARCH = """
import rectaspec as rs
import rectaspec.search as search

real = search.solve_parity_system

def corrupted(*args, **kwargs):
    sol = real(*args, **kwargs)
    if sol.particular is None:
        return sol._replace(refutation=sol.refutation[1:])
    return sol._replace(particular=sol.particular ^ 1)

search.solve_parity_system = corrupted
search.search_signatures(rs.%s)
"""


# Replaces the normal form's prefix with one whose edge (0, 1) is flipped or
# zeroed, then searches Q3: building the parity system must refuse it.
CORRUPT_PREFIX_SEARCH = """
import rectaspec as rs
import rectaspec.search as search

real = search.scheme_prefix

def corrupted(r, n):
    rows = real(r, n).copy()
    rows[0, 1] = rows[1, 0] = %s
    return rows

search.scheme_prefix = corrupted
search.search_signatures(rs.hypercube(3))
"""


def _run_corrupted(flags, fill, script=CORRUPT_ELIMINATION_SEARCH):
    src = os.path.dirname(os.path.dirname(rs.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-W", "ignore", "-c", script % fill],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})


class TestCertificationGate:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_non_solution_raises(self, flags):
        done = _run_corrupted(flags, "hypercube(4)")
        assert done.returncode != 0
        assert "RuntimeError: search produced a non-solution" in done.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_incomplete_refutation_raises(self, flags):
        done = _run_corrupted(flags, "folded_cube(5)")
        assert done.returncode != 0
        assert ("RuntimeError: refutation leaves a free edge uncancelled"
                in done.stderr)


class TestBuildGate:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_positive_prefix_quadrangle_raises(self, flags):
        done = _run_corrupted(flags, "-rows[0, 1]", CORRUPT_PREFIX_SEARCH)
        assert done.returncode != 0
        assert ("RuntimeError: fixed prefix carries a positive quadrangle"
                in done.stderr)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_unsigned_prefix_edge_raises(self, flags):
        done = _run_corrupted(flags, "0", CORRUPT_PREFIX_SEARCH)
        assert done.returncode != 0
        assert "RuntimeError: edge neither free nor fixed" in done.stderr


class TestProofLog:
    def test_structure(self):
        out = search_signatures(rs.hypercube(3))
        log = proof_log(out)
        lines = log.strip().splitlines()
        assert lines[0] == "sigsearch v2"
        assert lines[1].startswith("graph-sha256 ")
        assert lines[2] == "n 8 r 3"
        assert lines[4] == "free-edges 3"
        assert lines[5] == "method gf2 rank 2 kernel-dim 1 tail 1"
        assert not [ln for ln in lines if ln.startswith("row ")]
        assert lines[-1] == "solutions 1 nodes 1 exhausted true"

    def test_refutation_lists_quadrangles(self):
        out = search_signatures(rs.folded_cube(5))
        lines = proof_log(out).strip().splitlines()
        assert lines[5].startswith("method gf2 rank ")
        assert lines[5].endswith(" kernel-dim none tail 10")
        count = len(out.refutation)
        assert lines[6] == f"refutation {count}"
        quads = [tuple(int(v) for v in ln.split()[1:]) for ln in lines[7:7 + count]]
        assert all(ln.startswith("quadrangle ") for ln in lines[7:7 + count])
        assert quads == list(out.refutation)
        check_refutation(out.problem, quads)
        assert lines[-1] == "solutions 0 nodes 0 exhausted true"


class TestWeighingSearch:
    def test_weight_one(self):
        out = search_weighing(4, 1)
        assert len(out.matrices) == 1 and out.exhausted
        assert rs.intersection_numbers(out.matrices[0]) == {0}

    def test_hadamard_order_two(self):
        out = search_weighing(2, 2)
        assert len(out.matrices) == 1
        assert out.matrices[0].r == 2

    def test_too_narrow_for_the_scheme(self):
        out = search_weighing(6, 5)
        assert not out.matrices and out.exhausted

    def test_12_5(self):
        out = search_weighing(12, 5)
        assert out.exhausted and len(out.matrices) == 1
        w = out.matrices[0]
        assert rs.is_proper(w) and rs.intersection_numbers(w) == {0, 2}

    def test_solutions_verified(self):
        import numpy as np

        for w in search_weighing(8, 4).matrices:
            ent = np.asarray(w.entries, dtype=np.int64)
            assert np.array_equal(ent.T @ ent, w.r * np.eye(w.n, dtype=np.int64))

    def test_budget_flag(self):
        # the exhausted search places 28 support rows
        out = search_weighing(12, 5, node_budget=20)
        assert out.nodes == 20 and not out.exhausted

    @pytest.mark.parametrize("n, r", [(12, 5), (13, 4), (8, 4), (16, 6)])
    @pytest.mark.parametrize("budget", [1, 10, 100])
    def test_budget_caps_nodes(self, n, r, budget):
        # the old kernel needs more than 100 nodes on each instance, so every
        # budget binds there
        prefix_rows = [tuple(int(v) for v in row)
                       for row in scheme_two_prefix(r, n)]
        _, nodes, exhausted = sign_by_sign_weighing_search(n, r, prefix_rows, budget)
        assert nodes == budget and not exhausted
        # the support search needs fewer nodes: all but (16, 6) fit in 100
        total = search_weighing(n, r).nodes
        out = search_weighing(n, r, node_budget=budget)
        assert out.nodes == min(budget, total)
        assert out.exhausted == (total <= budget)

    def test_negative_budget_refused(self):
        with pytest.raises(ValueError, match="node_budget"):
            search_weighing(12, 5, node_budget=-3)

    def test_non_integer_budget_refused(self):
        # node_budget=2.5 used to run with a budget of 2.5 and place 3 rows
        for budget in (2.5, True, 3.0):
            with pytest.raises(TypeError, match="node_budget"):
                search_weighing(8, 4, node_budget=budget)
            with pytest.raises(TypeError, match="node_budget"):
                run_weighing_search(8, 4, budget)
        out = search_weighing(8, 4, node_budget=np.int64(3))
        assert type(out.nodes) is int and out.nodes == 3 and not out.exhausted
        assert run_weighing_search(8, 4, None)[1:] == run_weighing_search(8, 4, 0)[1:]

    def test_budget_equal_to_the_node_count_exhausts(self):
        total = search_weighing(12, 5).nodes
        assert search_weighing(12, 5, node_budget=total).exhausted
        assert not search_weighing(12, 5, node_budget=total - 1).exhausted

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            search_weighing(3, 4)

    @pytest.mark.parametrize("n, r", [(8, 0), (3, 4), (0, 0), (8, -1)])
    def test_both_searches_share_the_order_check(self, n, r):
        # run_weighing_search(8, 0) used to return one all-zero "support",
        # and (3, 4) failed in the prefix instead
        with pytest.raises(ValueError, match=r"^need n >= r >= 1$"):
            search_weighing(n, r)
        with pytest.raises(ValueError, match=r"^need n >= r >= 1$"):
            run_weighing_search(n, r, None)

    def test_order_below_the_prefix_has_no_support(self):
        # W(5, 4) would need the prefix's 7 columns
        assert run_weighing_search(5, 4, None) == ([], 0, True)
        out = search_weighing(5, 4)
        assert (out.matrices, out.nodes, out.exhausted, out.raw_count, out.supports) == (
            [], 0, True, 0, 0)


def _old_weighing_classes(n, r):
    """The old search: the sign-by-sign kernel, then pairwise equivalence."""
    prefix_rows = [tuple(int(v) for v in row) for row in scheme_two_prefix(r, n)]
    tuples, _, exhausted = sign_by_sign_weighing_search(n, r, prefix_rows)
    reps = []
    for t in tuples:
        w = rs.WeighingMatrix(np.asarray(t, dtype=np.int8).reshape(n, n))
        if not any(equivalent(w, rep)[0] for rep in reps):
            reps.append(w)
    return reps, exhausted


class TestWeighingSupportSearch:
    @pytest.mark.parametrize("n, r", [(4, 2), (4, 3), (7, 4), (8, 3), (8, 4),
                                      (12, 5), (13, 4), (16, 6)])
    def test_matches_the_old_kernel(self, n, r):
        out = search_weighing(n, r)
        old, exhausted = _old_weighing_classes(n, r)
        assert len(out.matrices) == len(old) and out.exhausted == exhausted
        for w in out.matrices:
            hits = [equivalent(w, o)[0] for o in old]
            assert hits.count(True) == 1

    @pytest.mark.parametrize("n, r, supports", [(14, 5, 30), (14, 4, 30)])
    def test_one_class(self, n, r, supports):
        # the old kernel took 281 s on (14, 4): 1,920 raw matrices, 1 class
        out = search_weighing(n, r)
        assert len(out.matrices) == 1 and out.exhausted
        # each support carries one sign class up to the free switchings;
        # ``supports`` labelled ones exist, and the orbit cut keeps fewer
        with uncut_support_search():
            uncut = search_weighing(n, r)
        assert uncut.supports == uncut.raw_count == supports
        assert out.supports == out.raw_count == {(14, 5): 2, (14, 4): 30}[n, r]
        w = out.matrices[0]
        assert rs.intersection_numbers(w) == {0, 2}
        # (14, 4) has block-sum supports only: W(7, 4) twice
        assert rs.is_proper(w) == (r == 5)

    def test_disconnected_supports_are_signed(self):
        out = search_weighing(8, 3)
        assert len(out.matrices) == 1 and not rs.is_proper(out.matrices[0])
        assert out.supports == out.raw_count == 1

    def test_supports_without_signs_are_cut(self):
        out = search_weighing(16, 6)
        assert out.matrices == [] and out.supports == 0 and out.exhausted


def test_budgeted_20_6_dedupes_to_two_classes():
    # recorded values of a budgeted run, not a classification of W(20, 6):
    # the first 20,000 support rows hold 145 signed supports in 2 classes.
    # Pairwise VF2 took 1,045 s over them; the matcher takes seconds.
    out = search_weighing(20, 6, node_budget=20000)
    assert (out.supports, out.raw_count, len(out.matrices)) == (145, 145, 2)
    assert out.nodes == 20000 and not out.exhausted
    a, b = out.matrices
    assert not equivalent(a, b)[0] and not equivalent(b, a)[0]


# sha256 of the matrices' entries in order, supports and raw_count of
# exhausted searches, recorded before the column-pair and column-demand cuts:
# those cuts may change only the node count.  The first-row orbit cut also
# drops supports: (12, 5) and (14, 5) are re-recorded after it, and the
# uncut reference still gives the earlier counts (UNCUT_SUPPORTS).
SUPPORT_SEARCH_ANSWERS = {
    (4, 2): ("d86c726174adfa33baf314362e7c68ac7fc6347f4d0c5d8dd5edd7baefc654b3", 1, 1),
    (4, 3): ("ec122b60bf8d2613741a6b55ecfd01aa679e9e4822afc89173eeb38abad9e3e5", 1, 1),
    (7, 4): ("d48f00c89f130eef2afd6d4cb8fce9b070c756fc157c04871298332693df86cb", 1, 1),
    (8, 3): ("d0c81762110389be5601aa65ce75344a043eeab2a9b4e73439aa9eab739c2d95", 1, 1),
    (8, 4): ("4aec352a2746cf64a5855f86ee316e749d62ec85036dc33534448fd6f36cbcc2", 1, 1),
    (12, 5): ("4da296c5c2f239cc2d074825a9432d1bb374df1671ccf122cf7aa3562977278e", 1, 1),
    (13, 4): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0),
    (16, 6): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0),
    (14, 4): ("0768844b2804041f7a9af3bb20242c1a14538b388436aff804f413a74b1de8ec", 30, 30),
    (14, 5): ("1a786891753e375eb4ff58606a8a5580d9aeb69860fe9d0c81045afd8cb3faf7", 2, 2),
}
UNCUT_SUPPORTS = {(12, 5): 6, (14, 5): 30}


class TestSupportSearchCuts:
    @pytest.mark.parametrize("n, r", list(SUPPORT_SEARCH_ANSWERS))
    def test_answers_are_unchanged(self, n, r):
        out = search_weighing(n, r)
        digest = hashlib.sha256(b"".join(w.entries.tobytes()
                                         for w in out.matrices)).hexdigest()
        assert (digest, out.supports, out.raw_count) == SUPPORT_SEARCH_ANSWERS[n, r]
        assert out.exhausted

    @pytest.mark.parametrize("n, r", list(SUPPORT_SEARCH_ANSWERS))
    def test_uncut_reference_gives_the_earlier_answers(self, n, r):
        with uncut_support_search():
            out = search_weighing(n, r)
        digest, supports, _ = SUPPORT_SEARCH_ANSWERS[n, r]
        supports = UNCUT_SUPPORTS.get((n, r), supports)
        assert hashlib.sha256(b"".join(w.entries.tobytes()
                                       for w in out.matrices)).hexdigest() == digest
        assert out.supports == out.raw_count == supports and out.exhausted

    @pytest.mark.parametrize("n, r", [(6, 2), (8, 2), (10, 2), (8, 3), (7, 4),
                                      (14, 4), (12, 5), (14, 5)])
    def test_found_supports_are_semibiplanes(self, n, r):
        search = _SupportSearch(n, r, scheme_two_prefix(r, n), 0)
        assert search.run() and search.found
        for rows, _ in search.found:
            support = np.array([[mask >> c & 1 for c in range(n)] for mask in rows])
            meet = support.T @ support
            # every column in r rows, every column pair in 0 or 2
            assert set(np.diag(meet).tolist()) == {r}
            assert set(meet[np.triu_indices(n, 1)].tolist()) <= {0, 2}

    def test_cuts_shrink_the_16_6_refutation(self):
        # the search without the cuts placed 4,255 support rows
        out = search_weighing(16, 6)
        assert out.exhausted and out.supports == 0 and out.nodes < 4255

    @pytest.mark.parametrize("n, supports", [(6, 3), (8, 15), (10, 105)])
    def test_weight_two_reuses_rows(self, n, supports):
        # at r = 2 two equal rows meet in r columns, so one candidate can
        # fill a column twice; a demand count that uses each candidate once
        # cuts every completion here.  ``supports`` counts the labelled
        # supports; every candidate shares one orbit, so the cut keeps the
        # ones that start with the least.
        with uncut_support_search():
            uncut = search_weighing(n, 2)
        assert uncut.supports == uncut.raw_count == supports
        out = search_weighing(n, 2)
        assert out.supports == out.raw_count == {6: 1, 8: 3, 10: 15}[n]
        assert len(out.matrices) == 1 and out.exhausted


# support rows placed by exhausted searches: a change to the cut set shows
# here, not only in timings
SUPPORT_SEARCH_NODES = {
    (4, 2): 2, (4, 3): 1, (7, 4): 4, (8, 3): 12, (8, 4): 8, (12, 5): 28,
    (13, 4): 66, (14, 4): 975, (14, 5): 135, (16, 5): 868, (16, 6): 181,
    (6, 2): 5, (8, 2): 26, (10, 2): 192, (12, 2): 1864, (12, 3): 1388,
    (10, 3): 49,
}


@pytest.mark.parametrize("n, r", list(SUPPORT_SEARCH_NODES))
def test_support_search_node_counts(n, r):
    out = search_weighing(n, r)
    assert out.exhausted and out.nodes == SUPPORT_SEARCH_NODES[n, r]


@pytest.mark.parametrize("n, r", [key for key, (_, supports, _) in
                                  SUPPORT_SEARCH_ANSWERS.items() if supports])
def test_weighing_stars_match_the_all_rows_stars(n, r, monkeypatch):
    calls = []
    real = search._stars
    monkeypatch.setattr(search, "_stars",
                        lambda *args: calls.append((args, real(*args))) or calls[-1][1])
    search_weighing(n, r)
    assert calls
    for args, got in calls:
        assert got == _all_rows_stars(*args)


class TestNumpyIntegerParameters:
    @pytest.mark.parametrize("n, r", [(12, 5), (14, 5), (16, 6)])
    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_same_outcome_as_python_ints(self, n, r, kind):
        want = search_weighing(n, r)
        for args in ((kind(n), kind(r)), (kind(n), r), (n, kind(r))):
            out = search_weighing(*args)
            assert (out.nodes, out.supports, out.raw_count, out.exhausted) == (
                want.nodes, want.supports, want.raw_count, want.exhausted)
            assert [w.entries.tobytes() for w in out.matrices] == [
                w.entries.tobytes() for w in want.matrices]

    @pytest.mark.parametrize("n, r", [(12.0, 5), (12, 5.0), ("12", 5)])
    def test_non_integers_refused(self, n, r):
        with pytest.raises(TypeError):
            search_weighing(n, r)
        with pytest.raises(TypeError):
            run_weighing_search(n, r, 0)


# every order whose class count the orbit cut must keep: the weighing search
# tests' orders and the weight-two ones
ORBIT_CUT_ORDERS = [(4, 2), (4, 3), (7, 4), (8, 3), (8, 4), (12, 5), (13, 4),
                    (14, 4), (14, 5), (16, 5), (16, 6), (6, 2), (8, 2), (10, 2)]


class TestOrbitCut:
    @pytest.mark.parametrize("n, r", ORBIT_CUT_ORDERS + [(20, 6)])
    def test_kept_first_rows_are_the_orbit_minima(self, n, r):
        prefix = scheme_two_prefix(r, n)
        tree = _SupportSearch(n, r, prefix, 1)
        tree.run()  # the first rows are chosen before any node is placed
        width = 1 + r * (r - 1) // 2
        holders = {c: np.flatnonzero(prefix[:, c]).tolist() for c in range(1, width)}
        column = {frozenset(rows): c for c, rows in holders.items()}
        perms = list(permutations(range(r)))
        assert len(perms) <= 720

        def orbit_minimum(mask):
            # the prefix rows permuted carry their pair columns with them;
            # the least image of k tail columns is the lowest k of them
            pairs = [holders[c] for c in range(1, width) if mask >> c & 1]
            tail = ((1 << (mask >> width).bit_count()) - 1) << width
            return tail | min(sum(1 << column[frozenset(p[a] for a in pair)]
                                  for pair in pairs) for p in perms)

        assert tree.heads == {orbit_minimum(m) for m in tree.columns}

    @pytest.mark.parametrize("n, r", ORBIT_CUT_ORDERS + [(20, 6)])
    def test_candidates_are_every_fitting_row(self, n, r):
        # brute force: the r-subsets of the columns not yet full that meet
        # every prefix row in 0 or 2 columns, ascending as bitmasks
        prefix = scheme_two_prefix(r, n)
        tree = _SupportSearch(n, r, prefix, 1)
        tree.run()
        open_columns = np.flatnonzero(np.count_nonzero(prefix, axis=0) < r).tolist()
        rows = [set(np.flatnonzero(row).tolist()) for row in prefix]
        want = sorted(sum(1 << c for c in cols) for cols in combinations(open_columns, r)
                      if all(len(row.intersection(cols)) in (0, 2) for row in rows))
        assert list(tree.columns) == want
        assert all(tree.columns[m] == _bits(m) for m in want)

    @pytest.mark.parametrize("n, r, sizes", [(20, 6, (708, 5)), (24, 6, (3054, 6)),
                                             (28, 6, (9228, 6))])
    def test_set_up_past_the_exhausted_orders(self, n, r, sizes):
        # (candidates, first-row orbit heads) of orders the tests cannot exhaust
        tree = _SupportSearch(n, r, scheme_two_prefix(r, n), 1)
        tree.run()
        assert (len(tree.columns), len(tree.heads)) == sizes

    @pytest.mark.parametrize("n, r", ORBIT_CUT_ORDERS)
    def test_every_class_survives(self, n, r):
        out = search_weighing(n, r)
        with uncut_support_search():
            uncut = search_weighing(n, r)
            raw = _sign_supports(n, r, run_weighing_search(n, r, 0)[0])
        assert out.exhausted and uncut.exhausted
        assert len(out.matrices) == len(uncut.matrices)
        assert out.nodes <= uncut.nodes and out.supports <= uncut.supports
        for w in raw:
            assert [equivalent(w, rep)[0] for rep in out.matrices].count(True) == 1


@pytest.mark.slow
def test_20_6_has_two_classes():
    # without the orbit cut the support search placed 11,776,326 rows and
    # found 20,160 supports in 645 s
    out = search_weighing(20, 6)
    assert out.exhausted and len(out.matrices) == 2
    assert (out.nodes, out.supports, out.raw_count) == (204528, 660, 660)
    a, b = out.matrices
    assert not equivalent(a, b)[0] and not equivalent(b, a)[0]
    assert all(rs.intersection_numbers(w) <= {0, 2} for w in out.matrices)


# A subprocess flips one sign of the first matrix the weighing search
# materialises: the re-verification must catch it, also under python -O.
CORRUPT_WEIGHING_SEARCH = """
import rectaspec.search as search

real = search._signs

def corrupted(*args, **kwargs):
    arr = real(*args, **kwargs)
    arr[-1, arr[-1].nonzero()[0][0]] *= -1
    return arr

search._signs = corrupted
search.search_weighing(8, 4)
"""


class TestWeighingGate:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_corrupted_sign_raises(self, flags):
        src = os.path.dirname(os.path.dirname(rs.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-c", CORRUPT_WEIGHING_SEARCH],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode != 0
        assert "RuntimeError: search produced a non-weighing matrix" in done.stderr
