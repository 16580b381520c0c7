import hashlib
import random

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.constructions import (CatalogError, CatalogIngestError,
                                     biplane_7_4_2, catalog_certificate,
                                     fano_plane, ingest_required, k2)
from rectaspec.core import components, is_rectagraph, quadrangles
from rectaspec.exactlinalg import poly_mul
from rectaspec.search import search_signatures, search_weighing
from rectaspec.switching import underlying_isomorphisms
from rectaspec.weighing import WeighingMatrix, write_weighing_text

# a proper W(12, 5) with a row pair sharing four support positions
PROPER_W125_WITH_FOUR = """12 5
+++++0000000
+0-+-00000-0
+00-0000--0-
0+-00-0+00+0
00+0-00+-+00
+-0000+000++
00000++++00-
0+00-+0-00+0
0+0-00+000-+
00000+-+0-0+
00+0--00+-00
+00-00-0++00
"""
C6 = ["0+++++", "+0+--+", "++0+--", "+-+0+-", "+--+0+", "++--+0"]  # conference
C6_PLUS_C6 = "\n".join(["12 5"] + [row + "000000" for row in C6]
                       + ["000000" + row for row in C6])

# sha256 of catalog(key).adj bytes.  The benchmark builds its inputs through
# catalog, the ingest rows from the searched W(12, 5) (R5.1) and W(14, 5).
CATALOG_DIGESTS = {
    "R1.1": "d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
    "R2.1": "5384950b3499b37cec9e588c1f435e0a057d8df70509979b9cad1505744cd056",
    "R3.1": "1f6483c85274145fc2a0888b2b07722d223c191779ec5c27a878d4187851bd9a",
    "R4.1": "dc66ac6ff42abd2d89177d6f8c099420736881a777b10dffb29a43f1e966bd36",
    "R4.2": "3a757584355681ec0cfc8a687f811241d3901c93c9eaf01b6b718bc86fa727f4",
    "R5.1": "3ed6bd3a49d96a1a6ed2411dbef6fb70598b03f7cafce9d99f2f768e7deb5202",
    "R5.2": "2525154c14438c554c940a30146afab5b2d2ceed61cfde329fa8cc7cc96bb114",
    "R5.4": "36c4ed5f7a0aad6e7c140b2e5eeaa9913a94db8ab6e2eeb30cd912d7cde0c8c0",
    "R6.5": "41ab3a4f2f675b84ba84dc429233b4aa03a12d9ae440abfd6f025450bee428fd",
    "R6.6": "642e2c9d6fe2533afbde37d73d2ee65bb45950949d5d8ebf6669ad5c1dd89582",
    "R6.7": "bc705e6d71beb17e38d937f71362511d2db67b832fdae6f9a977e9de473f8ce3",
    "R7.5": "1b4807e7b17d54b268ace486721fb1f91ba2f7a41511c5ecdfa5d9d020143a85",
    "R7.6": "0b2149a70568d9d73f7de8aa45b5de879eb34d1dbee920296d9f39fd25d6e9e5",
    "R7.7": "33b87f48189f4176488d1ab26ef3bcd64d2da588ad894c9192f2ad14966b077f",
}

# sha256 of the adjacency bytes of hypercube(r) and folded_cube(r): the
# benchmark's Q4, Q5 and FC5 and the catalog's cube labellings
CUBE_DIGESTS = {
    1: "d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
    2: "516f0f2b348f378bbfdfaa1783dcfa2095bb0f8285efe3b239dbe1059072e5b8",
    3: "fe9d0d0b7962b9430573b2dced32b185af3c208a442f82e53a765631052a3e8b",
    4: "b28975e23c7c937b9d867ea603860114527a2fc68b20b856daef4e12665d3b30",
    5: "f1ab7c8062a1c8b534472a56e6f6bb949e733443cc6e705fb6dc23439b4e9223",
    6: "8699768f7ae204b1d4596ac961b27fc4906ea3844ddaa4a3f3bd8101a9dc7bad",
    7: "153dfc2fa4875e9d88e68c670eeb5ffe9c784a5a43bbbe7ba04458ee6357aaa4",
    8: "86faac504c06b7a3ab08c1e6e21f595b64210849684e5b6fa85d6c0f68d23142",
    9: "da827e7700614f8af4e3b7a90d4263c0f676e8738e90ea3e2ebfc87fc345a99c",
    10: "ab181600b3fa4e472b61fcb328787af9a2ca0e1d82db9de28a931504284ef075",
}
FOLDED_CUBE_DIGESTS = {
    4: "09749765652731608e0a2258c0497ee2ef6a0a0d362f854b447458578b7d0e6b",
    5: "1f188526edb0aa0998e456c22c6dd274b945d29832740b9d14b9b6db06d25517",
    6: "8346f1fe700a71cd2560bee3139fdf08f226194959c472c1a4b3e3afdd9a3a05",
    7: "3440a4607a656f752ff2531cce768090a5bbb35f0ee5dc0086dd240e36e3e485",
}


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


@pytest.mark.parametrize("build, digests", [(rs.hypercube, CUBE_DIGESTS),
                                             (rs.folded_cube, FOLDED_CUBE_DIGESTS)],
                         ids=["hypercube", "folded_cube"])
def test_cube_labellings_are_pinned(build, digests):
    for r, digest in digests.items():
        assert hashlib.sha256(build(r).adj.tobytes()).hexdigest() == digest, r


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
        for blocks in ([{0, 1}, {1, 2}, {2, 5}], [{1, 2}, {2, 3}, {1, 3}]):
            with pytest.raises(ValueError, match=r"^need exactly 3 points labelled 0\.\.2$"):
                rs.bibd_incidence(blocks)
        with pytest.raises(ValueError, match="^every point must lie in exactly r blocks$"):
            # equal block sizes, but point 0 lies in 3 blocks and point 2 in 1
            rs.bibd_incidence([{0, 1}, {0, 2}, {0, 1}])
        with pytest.raises(ValueError, match="sizes"):
            rs.bibd_incidence([{0, 1}, {1, 2, 3}, {0, 2}, {0, 3}])
        with pytest.raises(ValueError, match="pair"):
            # constant replication but pair counts 1 and 2
            rs.bibd_incidence([{0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {4, 5, 0},
                               {1, 4, 5}, {2, 3, 5}])


class TestCatalog:
    def test_graphs_are_pinned(self):
        # the W(12, 5) text is made the way perfbench/inputs.py makes it, and
        # the benchmark passes it to every row, ingest or not
        w125 = np.asarray(search_weighing(12, 5).matrices[0].entries, dtype=np.int64)
        w125 = write_weighing_text(WeighingMatrix(w125.astype(np.int8)))
        w145 = write_weighing_text(search_weighing(14, 5).matrices[0])
        ingest = {"R5.1": w125, "R5.2": w145, "R6.5": w145, "R7.5": w145}
        for key, digest in CATALOG_DIGESTS.items():
            sources = [ingest[key]] if key in ingest else [None, w125]
            for source in sources:
                g = rs.catalog(key, weighing_source=source)
                assert hashlib.sha256(g.adj.tobytes()).hexdigest() == digest, key

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
        for key in ["R5.1", "R5.2", "R6.1", "R6.5", "R7.5"]:
            with pytest.raises(CatalogIngestError):
                rs.catalog(key)

    def test_padded_ids(self):
        assert rs.catalog(" R3.1 ") == rs.signed_cube(3)
        assert catalog_certificate(" R3.1 ") == (8, 3, True)
        assert ingest_required(" R5.1 ") and not ingest_required(" R5.3\n")
        with pytest.raises(CatalogError, match="unknown catalog id 'R9.9'"):
            catalog_certificate(" R9.9 ")

    def test_r53_is_the_signed_5_cube(self):
        # Mulder: a (0,2)-graph of degree 5 on 32 vertices is Q5, and the
        # searched W(16, 5) has one class, the signed 5-cube's biadjacency
        g = rs.catalog("R5.3")
        assert g == rs.signed_cube(5) and not ingest_required("R5.3")
        (w,) = search_weighing(16, 5).matrices
        ok, _ = rs.equivalent(rs.from_bipartite_sr2se(g), w)
        assert ok

    def test_ingest_layers_run(self):
        source = write_weighing_text(search_weighing(14, 5).matrices[0])
        base = rs.catalog("R5.2", weighing_source=source)
        assert rs.catalog("R6.5", weighing_source=source) == rs.ltimes_k2(base)
        assert rs.catalog("R7.5", weighing_source=source) == \
            rs.ltimes_k2(rs.ltimes_k2(base))

    @pytest.mark.parametrize("source, message", [
        (None, r"needs a \(12, 5\) weighing matrix, got \(14, 5\)"),
        (PROPER_W125_WITH_FOUR, r"R5.1: intersection numbers \[0, 2, 4\]"),
        # every improper (12, 5) matrix has an intersection number past 2:
        # a zero-two block of weight 5 needs order at least C(5, 2) + 1
        (C6_PLUS_C6, r"R5.1: intersection numbers \[0, 4\]"),
    ], ids=["wrong-order", "intersection-four", "improper"])
    def test_ingest_refuses_a_matrix_that_does_not_fit(self, source, message):
        if source is None:
            source = write_weighing_text(search_weighing(14, 5).matrices[0])
        with pytest.raises(CatalogIngestError, match=message):
            rs.catalog("R5.1", weighing_source=source)

    def test_ingest_from_searched_matrix(self):
        w = search_weighing(12, 5).matrices[0]
        g = rs.catalog("R5.1", weighing_source=write_weighing_text(w))
        cert = rs.certify_two_sym(g)
        assert g.n == 24 and cert.lambda_sq == 5

    def test_recorded_signatures_match_fresh_searches(self):
        for key, base in [("R4.1", rs.bibd_incidence(biplane_7_4_2())),
                          ("R5.4", rs.clebsch_graph())]:
            outcome = search_signatures(base)
            assert len(outcome.solutions) == 1 and outcome.exhausted
            ok, _ = rs.switching_isomorphic(outcome.solutions[0], rs.catalog(key))
            assert ok
