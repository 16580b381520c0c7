import hashlib
import os
import random
import subprocess
import sys
from itertools import permutations

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import quadrangles
from rectaspec.search import (_solution_graph, build_signature_problem,
                              canonical_switch_key, check_refutation,
                              proof_log, run_weighing_search, search_signatures,
                              search_weighing, verify_nonexistence)
from rectaspec.search import _SupportSearch
from rectaspec.switching import SchemeError, solve_switch_for_perm
from rectaspec.weighing import equivalent, scheme_two_prefix
from reference_oracles import (naive_signature_classes, search_signatures_dfs,
                               sign_by_sign_weighing_search, uncut_support_search)


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
        graphs = [_solution_graph(problem, m) for m in masks]
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

    def test_oracle_agreement_small(self):
        for g in [rs.catalog("Q1"), rs.hypercube(2), rs.hypercube(3)]:
            got = len(search_signatures(g).solutions)
            assert got == naive_signature_classes(g)

    def test_degree_zero_graph_has_no_two_eigenvalue_signature(self):
        import numpy as np

        k1 = rs.UnderlyingGraph(np.zeros((1, 1), dtype=np.int8))
        assert not search_signatures(k1).solutions
        assert naive_signature_classes(k1) == 0


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


def test_records_with_array_fields_compare_by_identity():
    from rectaspec.extension import analyse_residual, canonical_gram_form, classify_gram

    m = canonical_gram_form("c", 2, 1, 0, 2, 3)
    for make in (lambda: build_signature_problem(rs.hypercube(3)),
                 lambda: analyse_residual(m, 0),
                 lambda: classify_gram(analyse_residual(m, 0))):
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

        seen = []  # each driver's {canonical class mask: raw solutions}
        real = search._outcome

        def recording(problem, classes, *args, **kwargs):
            seen.append(dict(classes))
            return real(problem, classes, *args, **kwargs)

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

    def test_budget_equal_to_the_node_count_exhausts(self):
        total = search_weighing(12, 5).nodes
        assert search_weighing(12, 5, node_budget=total).exhausted
        assert not search_weighing(12, 5, node_budget=total - 1).exhausted

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            search_weighing(3, 4)


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

    @pytest.mark.parametrize("n, r", ORBIT_CUT_ORDERS)
    def test_every_class_survives(self, n, r):
        out = search_weighing(n, r)
        with uncut_support_search():
            uncut = search_weighing(n, r)
            raw = run_weighing_search(n, r, 0)[0]
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

real = search._weighing_candidate

def corrupted(*args, **kwargs):
    arr = real(*args, **kwargs)
    arr[-1, arr[-1].nonzero()[0][0]] *= -1
    return arr

search._weighing_candidate = corrupted
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
