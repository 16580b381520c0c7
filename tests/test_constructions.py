import random

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.constructions import (CatalogError, CatalogIngestError,
                                     biplane_7_4_2, fano_plane, k2)
from rectaspec.core import components, is_rectagraph, quadrangles
from rectaspec.exactlinalg import poly_mul
from rectaspec.switching import underlying_isomorphisms


def random_signed_graph(rng, max_n=12):
    n = rng.randint(1, max_n)
    edges = [(u, v, rng.choice((-1, 1))) for u in range(n)
             for v in range(u + 1, n) if rng.random() < 0.5]
    return rs.SignedGraph.from_edges(n, edges)


class TestLtimesK2:
    def test_k2_gives_signed_square(self):
        g = rs.ltimes_k2(k2())
        assert rs.char_poly(g) == [1, 0, -4, 0, 4]  # (x^2 - 2)^2
        ok, _ = rs.switching_isomorphic(g, rs.signed_cube(2))
        assert ok

    def test_cube_step(self):
        g = rs.ltimes_k2(rs.signed_cube(4))
        cert = rs.certify_two_sym(g)
        assert cert and cert.lambda_sq == 5 and g.n == 32

    def test_single_vertex(self):
        one = rs.SignedGraph(np.zeros((1, 1), dtype=np.int8))
        assert rs.char_poly(rs.ltimes_k2(one)) == [1, 0, -1]  # x^2 - 1

    def test_charpoly_transform_random(self):
        rng = random.Random(23)
        for _ in range(12):
            g = random_signed_graph(rng, max_n=9)
            lhs = rs.char_poly(rs.ltimes_k2(g))
            rhs = rs.ltimes_charpoly_transform(rs.char_poly(g))
            assert lhs == rhs

    def test_charpoly_transform_on_symmetric_factorisation(self):
        # (x^2-3)^4 -> (x^2-4)^8 for the 3-cube step
        lhs = rs.char_poly(rs.ltimes_k2(rs.signed_cube(3)))
        rhs = [1]
        for _ in range(8):
            rhs = poly_mul(rhs, [1, 0, -4])
        assert lhs == rhs


class TestCartesianK2:
    def test_k2_square(self):
        g = rs.cartesian_k2(k2())
        assert rs.underlying(g) == rs.catalog("Q2")

    def test_cube_recursion(self):
        g = rs.cartesian_k2(rs.hypercube(3).all_positive())
        assert next(underlying_isomorphisms(rs.underlying(g), rs.hypercube(4)),
                    None) is not None


class TestBipartiteDouble:
    def test_nonbipartite_input_connects(self):
        g = rs.bipartite_double(rs.catalog("R5.4"))
        cert = rs.certify_two_sym(g)
        assert cert and cert.lambda_sq == 5 and g.n == 32
        rep = rs.structure_report(g)
        assert rep.connected and rep.bipartite

    def test_bipartite_input_splits(self):
        g = rs.bipartite_double(rs.signed_cube(2))
        comps = components(g)
        assert sorted(map(len, comps)) == [4, 4]

    def test_k2(self):
        g = rs.bipartite_double(k2())
        assert sorted(map(len, components(g))) == [2, 2]
        assert all(len(c) == 2 for c in components(g))


def test_negation():
    g = rs.catalog("R5.4")
    assert rs.negation(rs.negation(g)) == g
    assert rs.negation(k2()).adj[0, 1] == -1
    # charpoly of -A is the sign-alternated charpoly
    p = rs.char_poly(g)
    q = rs.char_poly(rs.negation(g))
    n = g.n
    assert q == [c if (n - i) % 2 == 0 else -c for i, c in enumerate(p)]


class TestSignedCube:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_certificate(self, r):
        cert = rs.certify_two_sym(rs.signed_cube(r))
        assert cert and cert.lambda_sq == r and cert.m == 2 ** (r - 1)

    @pytest.mark.parametrize("r", range(2, 7))
    def test_every_quadrangle_negative(self, r):
        g = rs.signed_cube(r)
        for a, b, c, d in quadrangles(g):
            sign = (int(g.adj[a, b]) * int(g.adj[b, c])
                    * int(g.adj[c, d]) * int(g.adj[d, a]))
            assert sign == -1


class TestFoldedCube:
    def test_clebsch(self):
        g = rs.folded_cube(4)
        rep = rs.structure_report(g)
        assert g.n == 16 and rep.degree == 5 and rep.zero_two
        assert not rep.bipartite

    def test_dimension_5(self):
        g = rs.folded_cube(5)
        rep = rs.structure_report(g)
        assert g.n == 32 and rep.degree == 6 and is_rectagraph(g)

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError, match="rectagraph"):
            rs.folded_cube(3)


class TestBibdIncidence:
    def test_biplane_is_r41_underlying(self):
        g = rs.bibd_incidence(biplane_7_4_2())
        rep = rs.structure_report(g)
        assert g.n == 14 and rep.degree == 4 and rep.bipartite and is_rectagraph(g)
        iso = underlying_isomorphisms(g, rs.underlying(rs.catalog("R4.1")))
        assert next(iso, None) is not None

    def test_fano_gives_heawood(self):
        g = rs.bibd_incidence(fano_plane())
        rep = rs.structure_report(g)
        assert g.n == 14 and rep.degree == 3 and rep.bipartite
        assert not rep.zero_two
        assert 1 in rs.common_neighbour_profile(g)

    def test_triangle_design(self):
        g = rs.bibd_incidence([{0, 1}, {1, 2}, {0, 2}])
        rep = rs.structure_report(g)
        assert g.n == 6 and rep.degree == 2 and rep.connected  # the 6-cycle

    def test_axiom_violations(self):
        with pytest.raises(ValueError, match="sizes"):
            rs.bibd_incidence([{0, 1}, {1, 2, 3}, {0, 2}, {0, 3}])
        with pytest.raises(ValueError, match="pair"):
            # constant replication but pair counts 1 and 2
            rs.bibd_incidence([{0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {4, 5, 0},
                               {1, 4, 5}, {2, 3, 5}])


class TestCatalog:
    def test_table_certificates(self):
        for key in ["R1.1", "R2.1", "R3.1", "R4.1", "R4.2", "R5.4",
                    "R6.6", "R6.7", "R7.6", "R7.7"]:
            n, r, bip = rs.constructions.catalog_certificate(key)
            g = rs.catalog(key)
            cert = rs.certify_two_sym(g)
            assert g.n == n and cert and cert.lambda_sq == r
            assert rs.structure_report(g).bipartite == bip

    def test_aliases(self):
        assert rs.catalog("G4") == rs.signed_cube(4)
        assert rs.catalog("Q3") == rs.hypercube(3)
        assert rs.catalog("FC4") == rs.clebsch_graph()
        assert rs.certify_four_sym(rs.catalog("T"))

    def test_unknown_id(self):
        # the cube families take exactly their listed orders, in ASCII
        # digits; catalog refuses the rest before building anything
        for key in ["R9.9", "Q\u0663", "FC\u0664", "G\u0664", "Q\u00b2",
                    "Q11", "G11", "G40", "FC3", "FC8"]:
            with pytest.raises(CatalogError, match="unknown catalog id"):
                rs.catalog(key)

    def test_ingest_rows_demand_a_source(self):
        for key in ["R5.1", "R5.2", "R5.3", "R6.1", "R6.5", "R7.5"]:
            with pytest.raises(CatalogIngestError):
                rs.catalog(key)

    def test_ingest_from_searched_matrix(self):
        from rectaspec.search import search_weighing
        from rectaspec.weighing import write_weighing_text

        w = search_weighing(12, 5).matrices[0]
        g = rs.catalog("R5.1", weighing_source=write_weighing_text(w))
        cert = rs.certify_two_sym(g)
        assert g.n == 24 and cert.lambda_sq == 5

    def test_recorded_signatures_match_fresh_searches(self):
        from rectaspec.search import search_signatures

        for key, base in [("R4.1", rs.bibd_incidence(biplane_7_4_2())),
                          ("R5.4", rs.clebsch_graph())]:
            outcome = search_signatures(base)
            assert len(outcome.solutions) == 1 and outcome.exhausted
            ok, _ = rs.switching_isomorphic(outcome.solutions[0], rs.catalog(key))
            assert ok
