import random

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.constructions import catalog_certificate, catalog_ids
from rectaspec.core import StructureError
from rectaspec.spectral import strongest_certificate
from rectaspec.switching import switch
from reference_oracles import float_spectrum_matches


def all_positive_c4():
    return rs.UnderlyingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).all_positive()


class TestTwoSym:
    def test_signed_square(self):
        cert = rs.certify_two_sym(rs.signed_cube(2))
        assert cert and cert.lambda_sq == 2 and cert.m == 2

    def test_all_positive_c4_refused_with_witness(self):
        ref = rs.certify_two_sym(all_positive_c4())
        assert not ref
        assert ref.witness is not None
        i, j, value = ref.witness
        assert i != j and value == 2  # off-diagonal 2 in A^2

    def test_clebsch_signing(self):
        cert = rs.certify_two_sym(rs.catalog("R5.4"))
        assert cert and cert.lambda_sq == 5 and cert.m == 8

    def test_non_regular_refused(self):
        p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)]).all_positive()
        ref = rs.certify_two_sym(p3)
        assert not ref and "regular" in ref.reason

    def test_switching_invariance(self):
        g = rs.catalog("R5.4")
        for s in [{0}, {1, 5, 7}, set(range(8))]:
            cert = rs.certify_two_sym(switch(g, s))
            assert cert and cert.lambda_sq == 5 and cert.m == 8


class TestThreeSym:
    def test_all_positive_k22(self):
        cert = rs.certify_three_sym(all_positive_c4())
        assert cert and cert.lambda_sq == 4 and cert.m == 1 and cert.d == 2

    def test_cube_minus_vertex(self):
        h = rs.delete_vertices(rs.signed_cube(3), {2})
        cert = rs.certify_three_sym(h)
        assert cert and cert.lambda_sq == 3 and cert.m == 3 and cert.d == 1

    def test_two_eigenvalue_graph_refused(self):
        ref = rs.certify_three_sym(rs.signed_cube(3))
        assert not ref and "two eigenvalues" in ref.reason


class TestFourSym:
    def test_signed_tetrahedron(self):
        cert = rs.certify_four_sym(rs.catalog("T"))
        assert cert and cert.lambda_sq == 5 and cert.mu_sq == 1 and cert.m == 1

    def test_cube_minus_adjacent_pair(self):
        g = rs.signed_cube(4)
        u, v = next((u, v) for u, v, _ in g.edges())
        cert = rs.certify_four_sym(rs.delete_vertices(g, {u, v}))
        assert cert and cert.lambda_sq == 4 and cert.mu_sq == 1

    def test_trace_moments_fit_the_quadratic(self):
        # certify_four_sym halves tr A^2 and tr A^4 and takes the square root
        # of disc = m*(n*tr A^4 - (tr A^2)^2) without checking either: both
        # traces are even and disc >= 0 for every signed graph
        rng = random.Random(4)
        for _ in range(2000):
            n = rng.randrange(4, 15, 2)
            edges = [(u, v, rng.choice((-1, 1))) for u in range(n)
                     for v in range(u + 1, n) if rng.random() < rng.random()]
            g = rs.SignedGraph.from_edges(n, edges)
            t2, t4 = int(np.trace(g.square)), int((g.square * g.square).sum())
            assert t2 % 2 == 0 and t4 % 2 == 0
            assert (n - 2) // 2 * (n * t4 - t2 * t2) >= 0
            rs.certify_four_sym(g)

    def test_cube_minus_nonadjacent_pair(self):
        g = rs.signed_cube(4)
        pair = next((u, v) for u in range(16) for v in range(u + 1, 16)
                    if not g.adj[u, v])
        h = rs.delete_vertices(g, set(pair))
        assert not rs.certify_four_sym(h)
        cert = rs.certify_three_sym(h)
        assert cert and cert.d == 2


def test_certificates_match_float_spectra():
    cases = [
        (rs.signed_cube(3), rs.certify_two_sym),
        (all_positive_c4(), rs.certify_three_sym),
        (rs.catalog("T"), rs.certify_four_sym),
        (rs.delete_vertices(rs.signed_cube(4), {0}), rs.certify_three_sym),
    ]
    for g, fn in cases:
        cert = fn(g)
        assert cert and float_spectrum_matches(g, cert)


def test_two_sym_implies_charpoly_power():
    g = rs.catalog("R4.1")
    assert rs.certify_two_sym(g)
    # (x^2 - 4)^7
    expected = [1]
    from rectaspec.exactlinalg import poly_mul

    for _ in range(7):
        expected = poly_mul(expected, [1, 0, -4])
    assert rs.char_poly(g) == expected


def test_char_poly_values():
    assert rs.char_poly(rs.signed_cube(1)) == [1, 0, -1]
    assert rs.char_poly(rs.signed_cube(2)) == [1, 0, -4, 0, 4]  # (x^2-2)^2
    assert rs.char_poly(rs.catalog("T")) == [1, 0, -6, 0, 5]  # (x^2-1)(x^2-5)


def test_strongest_certificate_order():
    assert strongest_certificate(rs.signed_cube(3)).kind == "TwoSym"
    assert strongest_certificate(all_positive_c4()).kind == "ThreeSym"
    assert strongest_certificate(rs.catalog("T")).kind == "FourSym"
    k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).all_positive()
    assert strongest_certificate(k3) is None


def _one_edge_negated(g):
    adj = np.array(g.adj)
    u, v, sign = g.edges()[0]
    adj[u, v] = adj[v, u] = -sign
    return rs.SignedGraph(adj)


@pytest.mark.parametrize("make, kind, products", [
    # squared in all three certifiers before: 3, 2 and 4 products
    (lambda: _one_edge_negated(rs.catalog("R7.7")), None, 1),
    (lambda: rs.delete_vertices(rs.signed_cube(3), {2}), "ThreeSym", 2),
    (lambda: rs.catalog("T"), "FourSym", 2),
    (lambda: rs.catalog("R7.7"), "TwoSym", 1),
], ids=["R7.7-negated-edge", "three", "four", "R7.7"])
def test_strongest_certificate_squares_once(monkeypatch, make, kind, products):
    import rectaspec.core as core
    import rectaspec.spectral as spectral

    # a fresh graph: a catalog graph's square is cached by its own certification
    g = rs.SignedGraph(make().adj)
    calls = []
    real = spectral.exact_matmul
    for module in (core, spectral):
        monkeypatch.setattr(module, "exact_matmul",
                            lambda a, b: calls.append(1) or real(a, b))
    cert = strongest_certificate(g)
    assert (cert.kind if cert else None) == kind
    assert len(calls) == products


def test_three_sym_scales_a_past_the_int8_range():
    # lam^2 = 200: lam^2 * A wraps or raises if A is scaled as int8
    star = rs.SignedGraph.from_edges(201, [(0, v, 1) for v in range(1, 201)])
    cert = strongest_certificate(star)
    assert cert.kind == "ThreeSym" and cert.lambda_sq == 200
    assert cert.m == 1 and cert.d == 199


def test_certifiers_check_only_the_graphs_own_square():
    # a caller's A^2 = 2I would certify the all-positive 6-cycle
    c6 = rs.UnderlyingGraph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)]).all_positive()
    forged = (None, 2 * np.eye(6, dtype=np.int64), 12, 24)
    for fn in (rs.certify_two_sym, rs.certify_three_sym, rs.certify_four_sym):
        with pytest.raises(TypeError):
            fn(c6, forged)
        with pytest.raises(TypeError):
            fn(c6, moments=forged)
    ref = rs.certify_two_sym(c6)
    assert not ref and ref.reason == "A^2 != r*I"


class TestFilter:
    def test_bipartite_36_6_fails_sum_of_two_squares(self):
        verdict = rs.filter_sr2se(36, 6, bipartite=True)
        assert not verdict.passed and "sum-of-two-squares" in verdict.failures

    def test_16_5_passes_at_the_bound(self):
        from math import comb

        assert rs.filter_sr2se(16, 5).passed
        assert 16 == comb(6, 2) + 1

    def test_orders_read_as_integers(self):
        # 16.5 used to get a verdict
        for n, r in ((16.5, 4), (16.0, 5), (16, 5.0)):
            with pytest.raises(TypeError):
                rs.filter_sr2se(n, r)
        assert rs.filter_sr2se(np.int64(16), np.int64(5)) == rs.filter_sr2se(16, 5)

    def test_bound_failure(self):
        verdict = rs.filter_sr2se(10, 5)
        assert not verdict.passed and "bound" in verdict.failures

    def test_admits_exactly_the_bipartite_target_orders(self):
        # Mulder's 2^r bound cuts the tails: 36, 40, ... for r = 5 and
        # 72, 80, ... for r = 6 passed the other conditions
        def admitted(r):
            return [n for n in range(2, 200)
                    if rs.filter_sr2se(n, r, bipartite=True).passed]

        assert admitted(5) == [24, 28, 32]
        assert admitted(6) == [32, 40, 48, 56, 64]

    @pytest.mark.parametrize("n, r, bipartite, failures", [
        (36, 5, True, ("bound",)),  # n > 2^r
        (10, 5, False, ("bound",)),  # n < C(r+1, 2) + 1
        (7, 3, False, ("quadrangle-integrality",)),
        (82, 12, False, ("sum-of-two-squares",)),
        (58, 10, False, ("quadrangle-integrality", "mod-4")),
        (37, 8, True, ("bound",)),  # odd order, unequal sides
        (16, 5, True, ("bound",)),  # a side of 8 < C(r, 2) + 1
        (22, 5, True, ("square",)),  # odd side, non-square r
        (10, 4, True, ("bound",)),  # odd side past its own bound
        (36, 6, True, ("sum-of-two-squares",)),  # side = 2 mod 4
        (14, 3, True, ("bound", "quadrangle-integrality", "sum-of-two-squares",
                       "mod-4", "square")),
    ])
    def test_failure_names(self, n, r, bipartite, failures):
        assert rs.filter_sr2se(n, r, bipartite=bipartite).failures == failures

    def test_passes_every_catalog_parameter_pair(self):
        for key in [k for k in catalog_ids() if k.startswith("R")]:
            n, r, bip = catalog_certificate(key)
            verdict = rs.filter_sr2se(n, r, bipartite=bip)
            assert verdict.passed, (key, verdict)


def test_sum_of_two_squares():
    assert not rs.sum_of_two_squares(6)
    assert rs.sum_of_two_squares(5)
    assert rs.sum_of_two_squares(0)
    assert [k for k in range(13) if rs.sum_of_two_squares(k)] == \
        [0, 1, 2, 4, 5, 8, 9, 10, 13][:8]  # brute reference below 13
    with pytest.raises(ValueError):
        rs.sum_of_two_squares(-1)


class TestTraceIdentities:
    def test_cube(self):
        assert rs.trace_identities(rs.hypercube(3)) == (0, 168, 168)

    def test_matches_matrix_powers(self):
        for g in (rs.clebsch_graph(), rs.catalog("K4"), rs.catalog("BIPLANE")):
            a = np.abs(g.adj.astype(np.int64))
            sq = a @ a
            t3, t4, _ = rs.trace_identities(g)
            assert (t3, t4) == (np.trace(sq @ a), np.trace(sq @ sq))

    def test_k4_has_triangles(self):
        t3, _, _ = rs.trace_identities(rs.catalog("K4"))
        assert t3 == 24  # closed 3-walks through the triangles

    def test_k22(self):
        assert rs.trace_identities(rs.catalog("K22")) == (0, 32, 32)

    def test_non_regular_faults(self):
        p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(StructureError):
            rs.trace_identities(p3)
