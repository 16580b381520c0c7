from itertools import combinations

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import StructureError, disjoint_union
from rectaspec.extension import (ExtensionError, ExtensionVector,
                                 analyse_residual, canonical_gram_form,
                                 classify_constant_diag_gram, classify_gram,
                                 classify_small_spectrum_02graph,
                                 extend_four_to_three, extend_one_vertex,
                                 extend_zero_pair, gram_residual)


def k13():
    return rs.SignedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


def test_extension_vector_rejects_entries_outside_signs():
    assert ExtensionVector.from_entries((1, 0, -1)).norm_sq == 2
    with pytest.raises(ValueError):
        ExtensionVector.from_entries((2,))


class TestGramResidual:
    def test_cube_minus_vertex(self):
        # the 3 neighbours of the deleted vertex drop to degree 2, the other
        # 4 keep degree 3, and tr(M) = 3 forces d1 = 3
        h = rs.delete_vertices(rs.signed_cube(3), {0})
        gr = gram_residual(h, 3)
        assert gr.rank == 1 and (gr.d0, gr.d1, gr.d2) == (4, 3, 0)
        assert int(np.trace(gr.matrix)) == 3

    def test_two_eigenvalue_graph_gives_zero(self):
        gr = gram_residual(rs.signed_cube(4), 4)
        assert gr.rank == 0 and np.count_nonzero(gr.matrix) == 0

    def test_star_is_case_d(self):
        gr = gram_residual(k13(), 3)
        assert gr.rank == 2 and gr.case_label == "d"
        assert (gr.d0, gr.d1, gr.d2) == (1, 0, 3)

    def test_trace_identity(self):
        h = rs.delete_vertices(rs.signed_cube(4), {0, 3})
        gr = gram_residual(h, 4)
        assert int(np.trace(gr.matrix)) == gr.d1 + 2 * gr.d2


class TestClassifyGram:
    def test_case_a_direct(self):
        m = canonical_gram_form("a", 2, 2, 4, 0, 6)
        cls = classify_gram(analyse_residual(m, 0))
        assert cls.case == "a"
        assert np.array_equal(cls.witness.apply(m), cls.canonical)

    def test_case_c_padded(self):
        m = canonical_gram_form("c", 2, 1, 0, 2, 3)
        cls = classify_gram(analyse_residual(m, 0))
        assert cls.case == "c"

    def test_star_residual_case_d_with_witness(self):
        gr = gram_residual(k13(), 3)
        cls = classify_gram(gr)
        assert cls.case == "d"
        assert np.array_equal(cls.witness.apply(gr.matrix), cls.canonical)

    def test_case_e_from_cube_deletion(self):
        g = rs.signed_cube(3)
        pair = next((u, v) for u, v in combinations(range(8), 2)
                    if not g.adj[u, v] and
                    np.abs(g.adj[u] @ g.adj[v].astype(np.int64)) >= 0 and
                    int(np.abs(g.adj[u]) @ np.abs(g.adj[v])) == 2)
        h = rs.delete_vertices(g, set(pair))
        cls = classify_gram(gram_residual(h, 3))
        assert cls.case == "e"
        assert np.array_equal(cls.witness.apply(gram_residual(h, 3).matrix),
                              cls.canonical)

    def test_scrambled_forms_recover_witness(self):
        # random signed relabellings of each canonical shape classify back
        import random

        from rectaspec.extension import GramWitness

        rng = random.Random(4)
        shapes = [("a", 3, 2, 6, 0), ("b", 4, 1, 4, 2), ("c", 4, 2, 0, 4),
                  ("d", 3, 1, 0, 3), ("e", 4, 1, 4, 2)]
        for case, lam, d0, d1, d2 in shapes:
            n = d0 + d1 + d2
            m = canonical_gram_form(case, lam, d0, d1, d2, n)
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            scrambled = GramWitness(tuple(perm), tuple(signs)).apply(m)
            cls = classify_gram(analyse_residual(scrambled, 0))
            assert cls.case == case, (case, cls.diagnostic)
            assert np.array_equal(cls.witness.apply(scrambled), cls.canonical)

    def test_rank_preconditions(self):
        with pytest.raises(StructureError, match="rank"):
            classify_gram(gram_residual(rs.signed_cube(3), 3))


class TestExtendOneVertex:
    def test_restores_the_cube(self):
        g = rs.signed_cube(4)
        for v in (0, 7, 15):
            h = rs.delete_vertices(g, {v})
            cert = rs.certify_three_sym(h)
            assert cert and cert.lambda_sq == 4 and cert.d == 1
            restored = extend_one_vertex(h)
            cert2 = rs.certify_two_sym(restored)
            assert cert2 and cert2.lambda_sq == 4
            ok, _ = rs.switching_isomorphic(restored, g)
            assert ok

    def test_deleting_the_new_vertex_returns_the_input(self):
        h = rs.delete_vertices(rs.signed_cube(3), {5})
        restored = extend_one_vertex(h)
        assert rs.delete_vertices(restored, {0}) == h

    def test_isolated_vertex_union_faults(self):
        bad = disjoint_union(rs.SignedGraph(np.zeros((1, 1), dtype=np.int8)),
                             rs.signed_cube(3))
        with pytest.raises(ExtensionError, match="degree"):
            extend_one_vertex(bad)

    def test_path_gives_square(self):
        p3 = rs.delete_vertices(rs.signed_cube(2), {0})
        out = extend_one_vertex(p3)
        cert = rs.certify_two_sym(out)
        assert out.n == 4 and cert and cert.lambda_sq == 2

    def test_single_vertex_with_hint(self):
        k1 = rs.SignedGraph(np.zeros((1, 1), dtype=np.int8))
        out = extend_one_vertex(k1, lambda_sq=1)
        assert out.n == 2 and rs.certify_two_sym(out).lambda_sq == 1


class TestExtendFourToThree:
    @pytest.mark.parametrize("r", [3, 4])
    def test_adjacent_pair_roundtrip(self, r):
        g = rs.signed_cube(r)
        u, v, _ = g.edges()[0]
        h = rs.delete_vertices(g, {u, v})
        mid = extend_four_to_three(h)
        cert = rs.certify_three_sym(mid)
        assert cert and cert.lambda_sq == r and cert.d == 1
        restored = extend_one_vertex(mid)
        ok, _ = rs.switching_isomorphic(restored, g)
        assert ok

    def test_requires_a_deficient_vertex(self):
        with pytest.raises(ExtensionError, match="degree"):
            extend_four_to_three(rs.catalog("T"))  # all degrees equal 3 < 4


class TestExtendZeroPair:
    def test_nonadjacent_pair_roundtrip(self):
        g = rs.signed_cube(4)
        for pair in [(0, 3), (0, 15)]:  # distance 2 and distance 4
            assert not g.adj[pair[0], pair[1]]
            h = rs.delete_vertices(g, set(pair))
            mid = extend_zero_pair(h)
            cert = rs.certify_three_sym(mid)
            assert cert and cert.lambda_sq == 4 and cert.d == 1
            restored = extend_one_vertex(mid)
            ok, _ = rs.switching_isomorphic(restored, g)
            assert ok

    def test_star_faults_with_case_d(self):
        with pytest.raises(ExtensionError, match=r"case \(d\)"):
            extend_zero_pair(k13())

    def test_wrong_nullity_rejected(self):
        h = rs.delete_vertices(rs.signed_cube(3), {0})  # d = 1, not 2
        with pytest.raises(ExtensionError):
            extend_zero_pair(h)


class TestConstantDiagClassifier:
    def test_double_block_confirmed(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[:2, :2] = 2
        m[2:, 2:] = 2
        verdict = classify_constant_diag_gram(m)
        assert verdict.confirmed and verdict.eigenvalue == 4

    def test_wrong_diagonal_rejected(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[:2, :2] = 2
        m[2:, 2:] = 2
        np.fill_diagonal(m, 4)
        verdict = classify_constant_diag_gram(m)
        assert not verdict.confirmed

    def test_rank_one_rejected(self):
        verdict = classify_constant_diag_gram(2 * np.ones((3, 3), dtype=np.int64))
        assert not verdict.confirmed and "rank" in verdict.reason

    def test_scrambled_block_confirmed(self):
        from rectaspec.extension import GramWitness

        m = np.zeros((6, 6), dtype=np.int64)
        m[:3, :3] = 2
        m[3:, 3:] = 2
        scr = GramWitness((3, 0, 4, 1, 5, 2), (1, -1, 1, 1, -1, 1)).apply(m)
        verdict = classify_constant_diag_gram(scr)
        assert verdict.confirmed and verdict.eigenvalue == 6


class TestSmallSpectrumClassifier:
    def test_positive_square(self):
        c4 = rs.UnderlyingGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)]).all_positive()
        verdict = classify_small_spectrum_02graph(c4)
        assert verdict.status == "confirmed"

    def test_signed_tetrahedron(self):
        verdict = classify_small_spectrum_02graph(rs.catalog("T"))
        assert verdict.status == "confirmed"

    def test_two_eigenvalue_graph_out_of_scope(self):
        verdict = classify_small_spectrum_02graph(rs.signed_cube(3))
        assert verdict.status == "out-of-scope"

    def test_precondition(self):
        p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)]).all_positive()
        with pytest.raises(StructureError):
            classify_small_spectrum_02graph(p3)
