import os
import random
import subprocess
import sys

import pytest

import rectaspec as rs
from rectaspec._kernel import backends
from rectaspec.search import (_solution_graph, build_signature_problem,
                              canonical_switch_key, check_refutation,
                              kernel_arguments, naive_signature_classes,
                              proof_log, search_signatures,
                              search_signatures_dfs, search_weighing,
                              verify_nonexistence)
from rectaspec.switching import SchemeError, solve_switch_for_perm


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

    def test_budget_exhaustion_flagged(self):
        # two pure-switching classes, so a budget of one stops short
        out = search_signatures(rs.underlying(rs.catalog("R6.7")), node_budget=1)
        assert not out.exhausted and out.nodes == 1
        assert not search_signatures_dfs(rs.folded_cube(5), node_budget=10).exhausted

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
    for edges, target in zip(problem.constraint_edges, problem.constraint_targets):
        vec = 0
        for e in edges:
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


def _run_corrupted(flags, graph):
    src = os.path.dirname(os.path.dirname(rs.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-W", "ignore", "-c",
         CORRUPT_ELIMINATION_SEARCH % graph],
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
        dfs_lines = proof_log(search_signatures_dfs(rs.hypercube(3))).splitlines()
        assert dfs_lines[5].startswith("method dfs backend ")
        row_lines = [ln for ln in dfs_lines if ln.startswith("row ")]
        assert len(row_lines) == 8 - 4  # one per row past the prefix

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

    def test_row_candidates_deterministic(self):
        a = search_signatures_dfs(rs.clebsch_graph())
        b = search_signatures_dfs(rs.clebsch_graph())
        assert a.row_candidates and a.row_candidates == b.row_candidates
        assert a.nodes == b.nodes


@pytest.mark.skipif(len(backends()) < 2, reason="compiled kernel unavailable")
class TestKernelParity:
    @pytest.mark.parametrize("maker", [
        lambda: rs.hypercube(3),
        lambda: rs.hypercube(4),
        lambda: rs.hypercube(5),
        lambda: rs.clebsch_graph(),
        lambda: rs.folded_cube(5),
        lambda: rs.bibd_incidence(rs.constructions.biplane_7_4_2()),
    ])
    def test_backends_agree_bitwise(self, maker):
        problem = build_signature_problem(maker())
        args = kernel_arguments(problem)
        results = [fn(*args) for _, fn in sorted(backends().items())]
        assert all(r == results[0] for r in results)

    def test_budget_behaviour_matches(self):
        problem = build_signature_problem(rs.folded_cube(5))
        args = kernel_arguments(problem, node_budget=100)
        results = [fn(*args) for _, fn in sorted(backends().items())]
        assert all(r == results[0] for r in results)
        assert results[0][3] is False or results[0][3] == 0  # exhausted flag off


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
        out = search_weighing(12, 5, node_budget=50)
        assert not out.exhausted

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            search_weighing(3, 4)
