import os
import random
import subprocess
import sys

import pytest

import rectaspec as rs
from rectaspec._kernel import backends
from rectaspec.search import (_solution_graph, build_signature_problem,
                              canonical_switch_key, kernel_arguments,
                              naive_signature_classes, proof_log,
                              search_signatures, search_weighing,
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
            baseline = len(search_signatures(g).solutions)
            for seed in (0, 1, 2, 3):
                out = search_signatures(g, order_seed=seed)
                assert len(out.solutions) == baseline and out.exhausted

    @pytest.mark.parametrize("maker,raw", [
        (lambda: rs.hypercube(5), 65536),  # 55 free edges: bits past 31
        (lambda: rs.underlying(rs.catalog("R6.7")), 2048),
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
        for ga, ka in zip(graphs, keys):
            for gb, kb in zip(graphs, keys):
                switched = solve_switch_for_perm(ga, gb, identity) is not None
                assert (ka == kb) == switched

    def test_precondition_fault_names_predicate(self):
        k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(SchemeError, match="triangle-free"):
            search_signatures(k3)

    def test_budget_exhaustion_flagged(self):
        out = search_signatures(rs.folded_cube(5), node_budget=10)
        assert not out.exhausted

    def test_folded_five_cube_empty(self):
        outcome, log = verify_nonexistence(rs.folded_cube(5))
        assert outcome.exhausted and not outcome.solutions
        assert "solutions 0" in log and "exhausted true" in log

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


class TestParallelSearch:
    def test_matches_sequential(self):
        from rectaspec.search import search_signatures_parallel

        for g in [rs.hypercube(3), rs.hypercube(4), rs.clebsch_graph(),
                  rs.underlying(rs.catalog("R6.7"))]:
            seq = search_signatures(g)
            par = search_signatures_parallel(g)
            assert len(par.solutions) == len(seq.solutions)
            assert par.raw_count == seq.raw_count
            assert par.exhausted and seq.exhausted

    def test_process_pool(self):
        from rectaspec.search import search_signatures_parallel

        out = search_signatures_parallel(rs.folded_cube(5), workers=2)
        assert out.exhausted and not out.solutions


# Replaces the kernel with one that returns a genuine Q4 solution mask with
# one edge sign flipped, then searches Q4: certification must catch it.
CORRUPT_KERNEL_SEARCH = """
import rectaspec as rs
import rectaspec.search as search

real = search.run_search

def corrupted(*args, **kwargs):
    masks, nodes, row_cand, exhausted = real(*args, **kwargs)
    return [masks[0] ^ 1], nodes, row_cand, exhausted

search.run_search = corrupted
search.search_signatures(rs.hypercube(4))
"""


class TestCertificationGate:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_non_solution_raises(self, flags):
        src = os.path.dirname(os.path.dirname(rs.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-c", CORRUPT_KERNEL_SEARCH],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode != 0
        assert "RuntimeError: search produced a non-solution" in done.stderr


class TestProofLog:
    def test_structure(self):
        out = search_signatures(rs.hypercube(3))
        log = proof_log(out)
        lines = log.strip().splitlines()
        assert lines[0] == "sigsearch v1"
        assert lines[1].startswith("graph-sha256 ")
        assert lines[2] == "n 8 r 3"
        row_lines = [ln for ln in lines if ln.startswith("row ")]
        assert len(row_lines) == 8 - 4  # one per row past the prefix
        assert lines[-1].startswith("solutions 1 nodes ")

    def test_row_candidates_deterministic(self):
        a = search_signatures(rs.clebsch_graph())
        b = search_signatures(rs.clebsch_graph())
        assert a.row_candidates == b.row_candidates and a.nodes == b.nodes


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
