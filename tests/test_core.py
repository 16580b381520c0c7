from itertools import combinations

import networkx as nx
import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import (StructureError, StructureReport, _mask_bits, _row_masks,
                            bipartition, components,
                            disjoint_union, is_rectagraph, quadrangle_count,
                            quadrangles)
from rectaspec.exactlinalg import exact_matmul
from rectaspec.switching import relabel, switch
from reference_oracles import brute_force_quadrangles


def c4_one_negative():
    return rs.SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])


def test_signed_graph_validation():
    with pytest.raises(ValueError):
        rs.SignedGraph(np.array([[0, 1], [0, 0]], dtype=np.int8))  # asymmetric
    with pytest.raises(ValueError):
        rs.SignedGraph(np.array([[1]], dtype=np.int8))  # diagonal
    with pytest.raises(ValueError):
        rs.SignedGraph(np.array([[0, 2], [2, 0]], dtype=np.int8))  # entry range
    for entry in (257, 256, 0.5):  # entries an int8 cast would turn into 1, 0, 0
        adj = np.array([[0, entry], [entry, 0]])
        with pytest.raises(ValueError):
            rs.SignedGraph(adj)
        with pytest.raises(ValueError):
            rs.UnderlyingGraph(adj)
    for adj in ([[0, 257], [257, 0]], [[0, 1.5], [1.5, 0]], [["0", "1"], ["1", "0"]]):
        with pytest.raises(ValueError):  # a ValueError, not an OverflowError
            rs.SignedGraph(adj)
    with pytest.raises(ValueError):
        rs.SignedGraph.from_edges(3, [(0, 1, 1), (0, 1, -1)])  # duplicate


def test_empty_and_negative_matrices_refused():
    with pytest.raises(ValueError, match="^graph must have at least one vertex$"):
        rs.SignedGraph(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="^underlying graph entries must be 0 or 1$"):
        rs.UnderlyingGraph([[0, -1], [-1, 0]])


def test_every_int8_outside_the_unit_range_is_refused():
    # the int8 abs of -128 is -128, so an abs check lets it through
    for value in sorted(set(range(-128, 128)) - {-1, 0, 1}):
        adj = np.array([[0, value], [value, 0]], dtype=np.int8)
        for make, arr in ((rs.SignedGraph, adj), (rs.UnderlyingGraph, adj),
                          (rs.WeighingMatrix, adj[:1, 1:])):
            with pytest.raises(ValueError, match=r"entries must lie in \{-1, 0, \+1\}"):
                make(arr)


def test_edge_ends_and_signs_keep_their_range_messages():
    g = rs.SignedGraph.from_edges(3, [(np.int64(0), np.uint8(1), np.int8(-1))])
    assert g.adj[0, 1] == g.adj[1, 0] == -1
    for sign in (0, 2, -2):
        with pytest.raises(ValueError, match=rf"bad sign {sign} on edge \(0, 1\)"):
            rs.SignedGraph.from_edges(3, [(0, 1, sign)])


def test_edge_lists_read_the_order_as_a_count():
    # n went straight into np.zeros, which refused -1 with NumPy's
    # "negative dimensions are not allowed"
    for make in (rs.SignedGraph.from_edges, rs.UnderlyingGraph.from_edges):
        with pytest.raises(ValueError, match="^n must not be negative, got -1$"):
            make(-1, [])
        with pytest.raises(ValueError, match="^graph must have at least one vertex$"):
            make(0, [])
        assert make(np.int64(2), []).n == 2


def test_underlying_from_edges_refuses_what_the_signed_one_does():
    for edges in ([(0, 1), (1, 0)], [(0, 1), (0, 1)]):
        with pytest.raises(ValueError, match=r"duplicate edge \(\d, \d\)"):
            rs.UnderlyingGraph.from_edges(3, edges)
    for edges in ([(0, 0)], [(0, 3)], [(-1, 1)]):
        with pytest.raises(ValueError, match="bad edge"):
            rs.UnderlyingGraph.from_edges(3, edges)
    path = rs.UnderlyingGraph.from_edges(3, [(0, 1), (2, 1)])
    assert type(path) is rs.UnderlyingGraph and path.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("make, field", [(rs.SignedGraph, "adj"),
                                         (rs.UnderlyingGraph, "adj"),
                                         (rs.WeighingMatrix, "entries")])
def test_constructors_copy_the_callers_array(make, field):
    base = np.array([[0, 1], [1, 0]], dtype=np.int8)
    view = base[:]
    stored = getattr(make(view), field)
    assert view.flags.writeable and not stored.flags.writeable
    assert not np.shares_memory(stored, base)
    base[0, 1] = 0  # a write through the view's base leaves the object alone
    assert np.array_equal(stored, [[0, 1], [1, 0]])


def test_underlying_erases_signs():
    assert rs.underlying(c4_one_negative()) == rs.underlying(
        rs.UnderlyingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).all_positive())
    tetra = rs.signed_tetrahedron()
    u = rs.underlying(tetra)
    assert u.degrees == (3, 3, 3, 3)
    assert np.all(np.abs(tetra.adj) == u.adj)


def test_structure_report_k22():
    rep = rs.structure_report(rs.catalog("K22"))
    assert rep.regular and rep.degree == 2
    assert rep.bipartite and rep.triangle_free and rep.zero_two
    assert rep.quadrangle_count == 1


def test_structure_report_k4():
    rep = rs.structure_report(rs.catalog("K4"))
    assert rep.regular and rep.degree == 3
    assert rep.zero_two and not rep.triangle_free


def test_structure_report_q4():
    rep = rs.structure_report(rs.hypercube(4))
    assert rep.regular and rep.degree == 4
    assert rep.zero_two
    # brute-force 4-cycle count over all vertex quadruples as the oracle
    q4 = rs.hypercube(4)
    from itertools import combinations, permutations
    count = 0
    for quad in combinations(range(16), 4):
        for perm in permutations(quad):
            if perm[0] == min(perm) and perm[1] < perm[3]:
                a, b, c, d = perm
                if all(q4.adj[x, y] for x, y in [(a, b), (b, c), (c, d), (d, a)]):
                    count += 1
    assert rep.quadrangle_count == count == 24


def test_common_neighbour_profile():
    # four cross pairs share nothing, the two within-side pairs share both
    # opposite vertices
    assert rs.common_neighbour_profile(rs.catalog("K22")) == [0, 0, 0, 0, 2, 2]
    p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)])
    assert rs.common_neighbour_profile(p3) == [0, 0, 1]
    clebsch = rs.clebsch_graph()
    assert set(rs.common_neighbour_profile(clebsch)) == {0, 2}


def test_zero_two_vacuous_small_orders():
    k1 = rs.SignedGraph(np.zeros((1, 1), dtype=np.int8))
    assert rs.structure_report(k1).zero_two
    with pytest.raises(ValueError):
        rs.common_neighbour_profile(k1)


def test_zero_two_implies_regular_on_random_graphs():
    # every zero-two graph seen in a random sweep must be regular
    import random

    rng = random.Random(7)
    seen_zero_two = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        g = rs.UnderlyingGraph.from_edges(n, edges)
        rep = rs.structure_report(g)
        if rep.zero_two and rep.connected:
            seen_zero_two += 1
            assert rep.regular
    assert seen_zero_two > 0


def test_quadrangle_count_invariant_under_relabel_and_switch():
    g = rs.signed_cube(3)
    assert quadrangle_count(g) == 6
    assert quadrangle_count(relabel(g, [3, 1, 0, 2, 7, 5, 4, 6])) == 6
    assert quadrangle_count(switch(g, {0, 5})) == 6


def test_quadrangle_listing_matches_count():
    for g in [rs.hypercube(3), rs.clebsch_graph(), rs.catalog("K4")]:
        assert len(quadrangles(g)) == quadrangle_count(g)


def test_components_and_disconnected_inputs():
    g = disjoint_union(c4_one_negative(), rs.signed_cube(1))
    comps = components(g)
    assert sorted(map(len, comps)) == [2, 4]
    rep = rs.structure_report(g)
    assert not rep.connected
    assert not rep.regular  # degrees 2 and 1


def test_delete_vertices():
    g = rs.signed_cube(2)
    h = rs.delete_vertices(g, {0})
    assert h.n == 3 and type(h) is rs.SignedGraph
    u = rs.delete_vertices(rs.hypercube(3), [0])
    assert type(u) is rs.UnderlyingGraph
    assert u.n == 7 and sorted(u.degrees) == [2, 2, 2, 3, 3, 3, 3]
    with pytest.raises(ValueError):
        rs.delete_vertices(g, {0, 1, 2, 3})
    for remove in ([7], [-1], [0, 4]):
        with pytest.raises(ValueError, match=r"outside range\(4\)"):
            rs.delete_vertices(g, remove)


def test_is_rectagraph():
    assert is_rectagraph(rs.hypercube(3))
    assert is_rectagraph(rs.clebsch_graph())
    assert not is_rectagraph(rs.catalog("K4"))  # triangles


def _oracle_inputs():
    """Seeded random graphs up to order 70 (so row bitmasks pass bit 63),
    relabelled zero-two graphs and disjoint unions, each unsigned, with
    random signs, and switched."""
    rng = np.random.default_rng(2024)

    def random_graph(n, p, sides=None):
        upper = np.triu(rng.random((n, n)) < p, 1)
        if sides is not None:
            upper &= sides[:, None] != sides[None, :]
        return rs.UnderlyingGraph((upper | upper.T).astype(np.int8))

    def relabelled(u):
        perm = rng.permutation(u.n)
        return rs.UnderlyingGraph(u.adj[np.ix_(perm, perm)])

    orders = list(range(1, 13)) + [30, 63, 64, 65, 70]
    bases = [random_graph(n, p) for n in orders for p in (0.1, 0.3, 0.6)]
    bases += [random_graph(n, 0.1, rng.random(n) < 0.5) for n in (12, 66, 70)]
    bases += [relabelled(u) for u in (rs.hypercube(6), rs.folded_cube(7),
                                      rs.clebsch_graph(), rs.catalog("K4"))]
    # the unions with Q6 put a 4-cycle or a K4 entirely past bit 63
    unions = [(rs.hypercube(6), rs.catalog("Q2")), (rs.hypercube(6), rs.catalog("K4")),
              (rs.clebsch_graph(), random_graph(54, 0.05)),
              (random_graph(40, 0.2), random_graph(30, 0.2))]
    for a, b in unions:
        bases.append(rs.underlying(disjoint_union(a.all_positive(), b.all_positive())))
    for u in bases:
        signs = np.triu(np.where(rng.random((u.n, u.n)) < 0.5, -1, 1), 1)
        signed = rs.SignedGraph(u.adj * (signs + signs.T))
        flipped = np.flatnonzero(rng.random(u.n) < 0.5).tolist()
        yield from (u, signed, switch(signed, flipped))


def test_square_is_one_cached_read_only_product():
    types = set()
    for g in _oracle_inputs():
        types.add(type(g))
        sq = g.square
        assert sq is g.square
        assert sq.dtype == np.int64 and not sq.flags.writeable
        assert np.array_equal(sq, exact_matmul(g.adj, g.adj))
        wide = g.adj.astype(np.int64)
        assert np.array_equal(sq, wide @ wide)
        with pytest.raises(ValueError):
            sq[0, 0] = 1
    assert types == {rs.SignedGraph, rs.UnderlyingGraph}


def test_structure_matches_matrix_and_networkx_oracle():
    seen = set()
    wide_codegrees = False
    for g in _oracle_inputs():
        a = np.abs(np.asarray(g.adj, dtype=np.int64))
        n = len(a)
        sq = a @ a
        degs = a.sum(axis=1)
        codeg = sq[np.triu_indices(n, 1)]
        nxg = nx.from_numpy_array(a)
        # tr(A^4) counts 8 closed 4-walks per 4-cycle, plus sum d^2 + sum
        # d(d-1) walks that backtrack along one or two edges
        cycle_walks = (int(np.trace(sq @ sq)) - 2 * int((degs ** 2).sum())
                       + int(degs.sum()))
        regular = len(set(degs.tolist())) == 1
        expected = StructureReport(
            regular=regular,
            degree=int(degs[0]) if regular else None,
            connected=nx.is_connected(nxg),
            bipartite=nx.is_bipartite(nxg),
            triangle_free=not np.any(sq * a),
            zero_two=bool(np.all((codeg == 0) | (codeg == 2))),
            quadrangle_count=cycle_walks // 8,
        )
        assert rs.structure_report(g) == expected
        assert quadrangle_count(g) == expected.quadrangle_count
        if codeg.max(initial=0) <= 2:
            # the documented order: a smallest, b < d, lexicographic in (a, c)
            # and then in (b, d); the search's refutation order rests on it
            nbrs = [set(np.flatnonzero(row).tolist()) for row in a]
            assert quadrangles(g).tolist() == [
                [x, b, c, d] for x in range(n) for c in range(x + 1, n)
                for b, d in combinations(sorted(v for v in nbrs[x] & nbrs[c] if v > x), 2)]
        else:
            with pytest.raises(StructureError, match="three or more neighbours"):
                quadrangles(g)
        wide_codegrees |= n > 64 and int(codeg.max()) > 2
        assert is_rectagraph(g) == (expected.connected and expected.triangle_free
                                    and expected.zero_two)
        assert components(g) == sorted(sorted(c) for c in nx.connected_components(nxg))
        if n >= 2:
            assert rs.common_neighbour_profile(g) == sorted(codeg.tolist())
        parts = bipartition(g)
        if expected.bipartite:
            left, right = parts
            assert sorted(left + right) == list(range(n))
            side = np.isin(np.arange(n), right)
            assert not np.any(a[np.ix_(side, side)])
            assert not np.any(a[np.ix_(~side, ~side)])
        else:
            assert parts is None
        seen.add((n > 64, expected.connected, expected.bipartite,
                  expected.triangle_free, expected.zero_two))
    # the inputs reach every predicate outcome past bit 63
    for flag in range(1, 5):
        assert {key[flag] for key in seen if key[0]} == {False, True}
    assert wide_codegrees  # pairs with more than two common neighbours raise


def _listed(g) -> list[tuple[int, int, int, int]]:
    quads = quadrangles(g)
    assert quads.dtype == np.int64 and quads.shape[1:] == (4,)
    return list(map(tuple, quads.tolist()))


class TestQuadrangleListing:
    """``quadrangles`` against a brute-force 4-cycle lister, order included,
    and its refusal of pairs that share three or more neighbours."""

    RECTAGRAPHS = ["R2.1", "R3.1", "R4.1", "R4.2", "R5.3", "R5.4", "R6.6", "R6.7",
                   "R7.6", "R7.7", "CLEBSCH", "BIPLANE", "GEWIRTZ", "FC5", "FC6"]

    @pytest.mark.parametrize("key", RECTAGRAPHS)
    def test_rectagraphs_take_the_zero_two_path(self, key, monkeypatch):
        g = rs.catalog(key)
        rng = np.random.default_rng(len(key) * g.n)
        for perm in ([*range(g.n)], rng.permutation(g.n).tolist(),
                     rng.permutation(g.n).tolist()):
            h = relabel(g, perm)
            assert is_rectagraph(h)
            got = _listed(h)
            assert got == brute_force_quadrangles(h)
            # every product in float64, as the label products from order 257 on
            monkeypatch.setattr(rs.exactlinalg, "_FLOAT_RULES",
                                ((np.float64, 1 << 53),))
            assert _listed(h) == got
            monkeypatch.undo()

    @pytest.mark.parametrize("name, edges, raises", [
        ("K33", [(a, b) for a in range(3) for b in range(3, 6)], True),
        ("K24", [(a, b) for a in range(2) for b in range(2, 6)], True),
        # antipodal vertices 0 and 7 joined: 0 and 3 now share 1, 2 and 7
        ("Q3+diagonal", rs.hypercube(3).edges() + [(0, 7)], True),
        # every pair shares exactly the other two vertices, so K4, though
        # full of triangles, is listed
        ("K4", [(a, b) for a in range(4) for b in range(a + 1, 4)], False),
    ])
    def test_pairs_sharing_three_raise(self, name, edges, raises):
        g = rs.UnderlyingGraph.from_edges(max(map(max, edges)) + 1, edges)
        rng = np.random.default_rng(7)
        for perm in ([*range(g.n)], rng.permutation(g.n).tolist()):
            h = relabel(g, perm)
            if raises:
                with pytest.raises(StructureError, match="three or more neighbours"):
                    quadrangles(h)
            else:
                assert _listed(h) == brute_force_quadrangles(h)
                assert len(_listed(h)) == quadrangle_count(h)


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 130])
def test_mask_bits_inverts_row_masks(width):
    rng = np.random.default_rng(width)
    rows = rng.random((6, width)) < 0.5
    rows[0] = False
    rows[1] = True
    masks = _row_masks(rows)
    assert masks[0] == 0 and masks[1] == (1 << width) - 1
    bits = _mask_bits(masks, width)
    assert bits.dtype == bool and np.array_equal(bits, rows)
    assert _row_masks(_mask_bits([masks[3]], width)) == [masks[3]]
    assert _mask_bits([], width).shape == (0, width)
    for outside in (1 << width, -1):
        with pytest.raises(ValueError, match="outside"):
            _mask_bits([0, outside], width)


def _cube_minus_vertex():
    return rs.delete_vertices(rs.signed_cube(3), {0})


# (argument name, call) for every entry point that reads a count, order,
# degree, dimension, lambda^2, vertex index or edge sign through
# core._check_counts
INTEGER_ENTRY_POINTS = {
    # (True, False, 1) died in NumPy, (0.0, 1.0, 1) raised IndexError, a sign
    # of True or 1.0 was taken as +1, and scheme_layout(g, base=1.0) raised
    # IndexError; an order n of True or 2.0 died in NumPy
    "SignedGraph.from_edges-n": ("n", lambda v: rs.SignedGraph.from_edges(v, [])),
    "UnderlyingGraph.from_edges-n": ("n", lambda v: rs.UnderlyingGraph.from_edges(v, [])),
    "SignedGraph.from_edges-u": ("u", lambda v: rs.SignedGraph.from_edges(3, [(v, 1, 1)])),
    "SignedGraph.from_edges-v": ("v", lambda v: rs.SignedGraph.from_edges(3, [(0, v, 1)])),
    "SignedGraph.from_edges-sign":
        ("sign", lambda v: rs.SignedGraph.from_edges(3, [(0, 1, v)])),
    "UnderlyingGraph.from_edges-u":
        ("u", lambda v: rs.UnderlyingGraph.from_edges(3, [(v, 1)])),
    "scheme_layout-base": ("base", lambda v: rs.switching.scheme_layout(rs.hypercube(3), base=v)),
    "schem_normal_form-base": ("base", lambda v: rs.schem_normal_form(rs.signed_cube(3), base=v)),
    "search_signatures-node_budget":
        ("node_budget", lambda v: rs.search_signatures(rs.hypercube(3), node_budget=v)),
    "search_signatures-progress_every":
        ("progress_every", lambda v: rs.search_signatures(rs.hypercube(3), progress_every=v)),
    "kernel_arguments-node_budget":
        ("node_budget", lambda v: rs.search.kernel_arguments(
            rs.search.build_signature_problem(rs.hypercube(3)), node_budget=v)),
    "search_weighing-n": ("n", lambda v: rs.search_weighing(v, 4)),
    "search_weighing-r": ("r", lambda v: rs.search_weighing(8, v)),
    "search_weighing-node_budget":
        ("node_budget", lambda v: rs.search_weighing(8, 4, node_budget=v)),
    "run_weighing_search-n": ("n", lambda v: rs.search.run_weighing_search(v, 4, None)),
    "run_weighing_search-r": ("r", lambda v: rs.search.run_weighing_search(8, v, None)),
    "filter_sr2se-n": ("n", lambda v: rs.filter_sr2se(v, 5)),
    "filter_sr2se-r": ("r", lambda v: rs.filter_sr2se(16, v)),
    "gram_residual-lambda_sq":
        ("lambda_sq", lambda v: rs.extension.gram_residual(_cube_minus_vertex(), v)),
    "extend_one_vertex-lambda_sq":
        ("lambda_sq", lambda v: rs.extension.extend_one_vertex(
            rs.SignedGraph([[0]]), lambda_sq=v)),
    "extend_four_to_three-lambda_sq":
        ("lambda_sq", lambda v: rs.extension.extend_four_to_three(
            rs.delete_vertices(rs.signed_cube(3), {0, 1}), lambda_sq=v)),
    "extend_zero_pair-lambda_sq":
        ("lambda_sq", lambda v: rs.extension.extend_zero_pair(
            rs.delete_vertices(rs.signed_cube(4), {0, 3}), lambda_sq=v)),
    "signed_cube": ("dimension", rs.signed_cube),
    "hypercube": ("dimension", rs.hypercube),
    "folded_cube": ("dimension", rs.folded_cube),
}


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_counts_refuse_bools_and_floats(entry, value):
    # filter_sr2se(2, True), search_weighing(True, True), extend_one_vertex
    # with lambda_sq=True and signed_cube(True) used to return results
    name, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=rf"^{name} must be an integer"):
        call(value)
