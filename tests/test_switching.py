import gc
import random

import numpy as np
import pytest

import rectaspec as rs
import rectaspec.switching as switching
from rectaspec.constructions import CatalogIngestError
from rectaspec.core import disjoint_union
from rectaspec.switching import (SchemeError, _colours, apply_signed_permutation,
                                 quadrangle_balance_counts, relabel, scheme_layout,
                                 scheme_prefix,
                                 switch, switching_match, underlying_isomorphisms)
from reference_oracles import brute_force_quadrangles


def all_positive_c4():
    return rs.UnderlyingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).all_positive()


class TestSwitch:
    def test_single_vertex(self):
        g = all_positive_c4()
        h = switch(g, {1})
        assert h.adj[0, 1] == -1 and h.adj[1, 2] == -1
        assert h.adj[2, 3] == 1 and h.adj[0, 3] == 1

    def test_involutive_empty_full(self):
        g = rs.catalog("R5.4")
        assert switch(g, set()) == g
        assert switch(g, set(range(16))) == g
        s = {1, 4, 9}
        assert switch(switch(g, s), s) == g


class TestSchemeNormalForm:
    def test_signed_cube_3_every_base(self):
        g = rs.signed_cube(3)
        for base in range(8):
            cls = rs.schem_normal_form(g, base=base)
            assert cls.tail_size == 1  # 8 = C(4,2) + 1 + k forces k = 1
            assert np.array_equal(cls.representative.adj[:4], scheme_prefix(3, 8))
            rebuilt = apply_signed_permutation(g, cls.permutation, cls.switch_set)
            assert rebuilt == cls.representative

    def test_signed_cube_2_is_entirely_forced(self):
        cls = rs.schem_normal_form(rs.signed_cube(2))
        assert cls.tail_size == 0  # 4 = C(3,2) + 1
        prefix = scheme_prefix(2, 4)
        adj = cls.representative.adj
        # the prefix rows plus symmetry pin down the whole 4x4 matrix
        assert np.array_equal(adj[:3], prefix)
        assert np.array_equal(adj[3, :3], prefix[:, 3])

    def test_clebsch_signing_has_no_tail(self):
        cls = rs.schem_normal_form(rs.catalog("R5.4"))
        assert cls.tail_size == 0  # attains the order bound
        assert np.array_equal(cls.representative.adj[:6], scheme_prefix(5, 16))

    @pytest.mark.parametrize("name", ["Q4", "CLEBSCH", "BIPLANE", "FC5", "GEWIRTZ"])
    def test_layout_prefix_at_every_base(self, name):
        # scheme_layout places one common neighbour per neighbour pair
        # without checking that it exists, is new and is unique
        g = rs.catalog(name)
        bits = g.row_bits
        for base in range(g.n):
            layout = scheme_layout(g, base)
            r = layout.degree
            order = sorted(range(g.n), key=layout.perm.__getitem__)
            assert sorted(layout.perm) == list(range(g.n))
            nbrs = order[1:r + 1]
            assert order[0] == base and nbrs == np.flatnonzero(g.adj[base]).tolist()
            pairs = [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]]
            assert [bits[a] & bits[b] for a, b in pairs] == \
                [(1 << base) | (1 << c) for c in order[r + 1:r + 1 + len(pairs)]]
            assert layout.tail_size == g.n - 1 - r - len(pairs)

    def test_structural_precondition_named(self):
        p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)]).all_positive()
        with pytest.raises(SchemeError, match="regular"):
            rs.schem_normal_form(p3)
        k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).all_positive()
        with pytest.raises(SchemeError, match="triangle-free"):
            rs.schem_normal_form(k3)

    @pytest.mark.parametrize("base", [-1, 8])
    def test_base_outside_the_vertices_refused(self, base):
        g = rs.signed_cube(3)
        with pytest.raises(ValueError, match=r"outside range\(8\)"):
            scheme_layout(g, base)
        with pytest.raises(ValueError, match=r"outside range\(8\)"):
            rs.schem_normal_form(g, base=base)

    def test_base_is_read_as_an_integer(self):
        g = rs.signed_cube(3)
        with pytest.raises(TypeError, match="^base must be an integer"):
            scheme_layout(g, "0")
        assert scheme_layout(g, np.int64(5)) == scheme_layout(g, 5)

    def test_positive_quadrangle_signature_rejected(self):
        with pytest.raises(SchemeError, match="quadrangle"):
            rs.schem_normal_form(all_positive_c4())

    @pytest.mark.parametrize("r, n", [(3, 4), (3, 6), (5, 15), (1, 1)])
    def test_prefix_wider_than_the_order(self, r, n):
        width = 1 + r + r * (r - 1) // 2
        with pytest.raises(ValueError, match=f"order at least {width}, got {n}"):
            scheme_prefix(r, n)
        assert scheme_prefix(r, width).shape == (r + 1, width)
        # a refusal is not cached: the same call refuses again
        with pytest.raises(ValueError, match=f"order at least {width}, got {n}"):
            scheme_prefix(r, n)

    @pytest.mark.parametrize("r", range(9))
    def test_prefix_matches_a_loop_reference(self, r):
        width = 1 + r + r * (r - 1) // 2
        for n in (width, width + 3):
            expected = np.zeros((r + 1, n), dtype=np.int8)
            expected[0, 1:r + 1] = expected[1:, 0] = 1
            pairs = [(a, b) for a in range(1, r + 1) for b in range(a + 1, r + 1)]
            for col, (a, b) in enumerate(pairs, start=r + 1):
                expected[a, col], expected[b, col] = 1, -1
            assert np.array_equal(scheme_prefix(r, n), expected)

    def test_prefix_is_one_read_only_array_per_shape(self):
        rows = scheme_prefix(4, 20)
        assert scheme_prefix(4, 20) is rows
        assert scheme_prefix(4, 21) is not rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 1] = -1


class TestSwitchingIsomorphic:
    def test_switch_class_membership(self):
        rng = random.Random(2)
        g = rs.signed_cube(3)
        for _ in range(5):
            s = {v for v in range(8) if rng.random() < 0.5}
            ok, witness = rs.switching_isomorphic(g, switch(g, s))
            assert ok and witness is not None

    def test_distinguishes_spectra(self):
        ok, witness = rs.switching_isomorphic(rs.signed_cube(2), all_positive_c4())
        assert not ok and witness is None

    def test_witness_reapplies(self):
        g = rs.catalog("R4.1")
        h = apply_signed_permutation(switch(g, {3, 8}),
                                     list(reversed(range(14))), {0, 2})
        ok, witness = rs.switching_isomorphic(g, h)
        assert ok
        assert apply_signed_permutation(g, witness.perm, witness.switch_set) == h

    def test_failed_reverification_raises(self, monkeypatch):
        # the matcher's signs switch vertex 1 alone, which negates two edges
        monkeypatch.setattr(switching, "_sign_match",
                            lambda g, h, split=0: ([0, 1, 2, 3], [1, -1, 1, 1]))
        with pytest.raises(RuntimeError, match="re-verification"):
            rs.switching_isomorphic(rs.signed_cube(2), rs.signed_cube(2))

    def test_a_missed_yes_raises(self, monkeypatch):
        # VF2 confirms every "no" and finds the isomorphism the matcher missed
        g = rs.catalog("R4.1")
        monkeypatch.setattr(switching, "_sign_match", lambda g, h, split=0: None)
        with pytest.raises(RuntimeError, match="sign matcher answered no"):
            rs.switching_isomorphic(g, relabelled_switched(g, 1))

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(5)
        g = rs.signed_cube(3)
        variants = [g]
        for _ in range(2):
            s = {v for v in range(8) if rng.random() < 0.5}
            perm = list(range(8))
            rng.shuffle(perm)
            variants.append(apply_signed_permutation(g, perm, s))
        # reflexive, symmetric, transitive across the sampled triple
        for a in variants:
            assert rs.switching_isomorphic(a, a)[0]
        for a in variants:
            for b in variants:
                assert rs.switching_isomorphic(a, b)[0] == rs.switching_isomorphic(b, a)[0]
        assert rs.switching_isomorphic(variants[0], variants[2])[0]

    def test_negation_vs_original_agrees_with_invariants(self):
        g = rs.catalog("R5.4")
        neg = rs.negation(g)
        same_invariants = rs.class_invariants(g) == rs.class_invariants(neg)
        decided, _ = rs.switching_isomorphic(g, neg)
        if decided:
            assert same_invariants
        else:
            assert True  # invariants may still collide; only the converse binds

    def test_disconnected_component_matching(self):
        from rectaspec.core import disjoint_union

        a = disjoint_union(rs.signed_cube(2), rs.signed_cube(1))
        b = disjoint_union(rs.signed_cube(1), switch(rs.signed_cube(2), {0}))
        ok, witness = rs.switching_isomorphic(a, b)
        assert ok
        assert apply_signed_permutation(a, witness.perm, witness.switch_set) == b

    def test_past_the_old_size_cap(self):
        # 256 vertices: the order says little about the cost, which follows
        # the automorphisms tried; an identical pair needs only one
        big = rs.ltimes_k2(rs.catalog("R7.6"))
        assert big.n == 256
        ok, witness = rs.switching_isomorphic(big, big)
        assert ok
        assert apply_signed_permutation(big, witness.perm, witness.switch_set) == big


# catalog signed graphs on which a VF2 "no" stays short: on R5.4 (Clebsch)
# it walks 1,920 automorphisms in about 2 s, on R6.7 it would take 17 s
MATCHER_KEYS = ["R2.1", "R3.1", "R4.1", "R4.2", "R5.4"]


def relabelled_switched(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return apply_signed_permutation(g, perm, {v for v in range(g.n) if rng.random() < 0.5})


def one_edge_flipped(g, seed):
    a, b, _ = random.Random(seed).choice(g.edges())
    adj = np.array(g.adj)
    adj[a, b] = adj[b, a] = -adj[a, b]
    return rs.SignedGraph(adj)


def edge_removed(g):
    a, b, _ = g.edges()[0]
    adj = np.array(g.adj)
    adj[a, b] = adj[b, a] = 0
    return rs.SignedGraph(adj)


def both_answers(g, h) -> list[bool]:
    """The answers of ``switching_isomorphic`` (each "no" confirmed by VF2)
    and ``switching_match`` (the sign-propagating matcher alone), each "yes"
    witness re-applied."""
    answers = []
    for decide in (rs.switching_isomorphic, switching_match):
        ok, witness = decide(g, h)
        assert (witness is not None) == ok
        if ok:
            assert apply_signed_permutation(g, witness.perm, witness.switch_set) == h
        answers.append(ok)
    return answers


class TestMatcherAgainstVf2:
    @pytest.mark.parametrize("key", MATCHER_KEYS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabelled_switched_copies(self, key, seed):
        g = rs.catalog(key)
        assert both_answers(g, relabelled_switched(g, seed)) == [True, True]

    @pytest.mark.parametrize("key", MATCHER_KEYS)
    def test_one_edge_flips(self, key):
        g = rs.catalog(key)
        h = one_edge_flipped(relabelled_switched(g, 3), 4)
        assert both_answers(g, h) == [False, False]

    # equal and unequal component sizes, and components of unequal degree
    @pytest.mark.parametrize("first, second", [
        ("R2.1", "R2.1"), ("R4.2", "R5.4"), ("R2.1", "R3.1"), ("R3.1", "R4.1"),
        ("R2.1", "R5.4")])
    def test_disjoint_unions_in_both_orders(self, first, second):
        a, b = rs.catalog(first), rs.catalog(second)
        g = disjoint_union(a, b)
        a2, b2 = relabelled_switched(a, 5), relabelled_switched(b, 6)
        for h in (disjoint_union(a2, b2), disjoint_union(b2, a2)):
            assert both_answers(g, h) == [True, True]
            assert both_answers(h, g) == [True, True]

    @pytest.mark.parametrize("first, second", [("R2.1", "R2.1"), ("R2.1", "R3.1")])
    def test_disjoint_unions_with_a_flipped_component(self, first, second):
        a, b = rs.catalog(first), rs.catalog(second)
        g = disjoint_union(a, b)
        a2, b2 = relabelled_switched(a, 7), one_edge_flipped(relabelled_switched(b, 8), 9)
        for h in (disjoint_union(a2, b2), disjoint_union(b2, a2)):
            assert both_answers(g, h) == [False, False]

    def test_components_of_other_sizes(self):
        # two signed 4-cycles against one 8-cycle: same order and degrees
        two_squares = disjoint_union(rs.catalog("R2.1"), rs.catalog("R2.1"))
        octagon = rs.UnderlyingGraph.from_edges(
            8, [(v, (v + 1) % 8) for v in range(8)]).all_positive()
        for h in (octagon, switch(octagon, {0})):
            assert both_answers(two_squares, h) == [False, False]

    @pytest.mark.parametrize("g, h", [
        (lambda: rs.catalog("R3.1"), lambda: rs.catalog("R4.2")),
        (lambda: rs.catalog("R2.1"), lambda: rs.catalog("R5.4")),
        (lambda: rs.catalog("R4.2"), lambda: rs.catalog("R5.4")),
        (lambda: rs.catalog("R4.1"), lambda: edge_removed(rs.catalog("R4.1"))),
    ], ids=["orders-8-16", "orders-4-16", "degrees-4-5", "one-edge-less"])
    def test_unequal_orders_or_degrees_answer_before_any_search(self, monkeypatch, g, h):
        g, h = g(), h()
        assert both_answers(g, h) == [False, False]

        def no_search(*args):
            raise AssertionError("the matcher searched")

        monkeypatch.setattr(switching, "_match_order", no_search)
        assert switching_match(g, h) == (False, None)
        assert switching_match(h, g) == (False, None)

    def test_failed_reverification_raises(self, monkeypatch):
        # one vertex switched alone, and the non-adjacent vertices 0 and 3
        # swapped: each keeps the support and negates two edges
        for found in (([0, 1, 2, 3], [1, -1, 1, 1]), ([3, 1, 2, 0], [1, 1, 1, 1])):
            monkeypatch.setattr(switching, "_sign_match", lambda g, h, split=0: found)
            with pytest.raises(RuntimeError, match="re-verification"):
                switching_match(rs.signed_cube(2), rs.signed_cube(2))


def random_signed_graph(rng, n):
    """A random signed graph on n vertices, mostly irregular and often
    disconnected."""
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
    signed = upper * np.where(rng.random((n, n)) < 0.5, -1, 1)
    return rs.SignedGraph(signed + signed.T)


def listed_quadrangle_signs(g) -> tuple[list[int], list[int]]:
    """Negative and positive quadrangles through each vertex, by listing
    every 4-cycle."""
    neg, pos = [0] * g.n, [0] * g.n
    for a, b, c, d in brute_force_quadrangles(g):
        sign = int(g.adj[a, b]) * int(g.adj[b, c]) * int(g.adj[c, d]) * int(g.adj[d, a])
        for v in (a, b, c, d):
            (neg if sign < 0 else pos)[v] += 1
    return neg, pos


BUILT_ROWS = ["R1.1", "R2.1", "R3.1", "R4.1", "R4.2", "R5.1", "R5.3", "R5.4", "R6.6",
              "R6.7", "R7.6", "R7.7"]


@pytest.fixture(scope="module")
def catalog_rows():
    """Every catalog row that builds without a weighing file, plus R5.1 from
    the searched W(12,5)."""
    from rectaspec.search import search_weighing
    from rectaspec.weighing import write_weighing_text

    rows = {}
    for key in rs.constructions.catalog_ids():
        if key.startswith("R"):
            try:
                rows[key] = rs.catalog(key)
            except CatalogIngestError:
                pass
    rows["R5.1"] = rs.catalog("R5.1", weighing_source=write_weighing_text(
        search_weighing(12, 5).matrices[0]))
    assert sorted(rows) == BUILT_ROWS
    return rows


class TestYesWithoutVf2:
    """With the VF2 isomorphism enumeration made to fail, every "yes" still
    comes back, from the matcher, with a witness that re-applies."""

    @pytest.fixture(autouse=True)
    def no_vf2(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("VF2 reached")

        monkeypatch.setattr(switching, "underlying_isomorphisms", refuse)

    @staticmethod
    def assert_yes(g, h):
        ok, witness = rs.switching_isomorphic(g, h)
        assert ok
        assert apply_signed_permutation(g, witness.perm, witness.switch_set) == h

    @pytest.mark.parametrize("key", BUILT_ROWS)
    def test_catalog_rows(self, catalog_rows, key):
        g = catalog_rows[key]
        self.assert_yes(g, relabelled_switched(g, 10))

    def test_disjoint_union(self, catalog_rows):
        a, b = catalog_rows["R3.1"], catalog_rows["R5.4"]
        self.assert_yes(disjoint_union(a, b),
                        disjoint_union(relabelled_switched(b, 11), relabelled_switched(a, 12)))


class TestColours:
    """The matcher's vertex colours (side, degree, negative and positive
    quadrangles through the vertex) and the refusals and pruning they give."""

    @staticmethod
    def check_kept(g, rng, split=0):
        """Every signed permutation that keeps the sides maps each vertex
        onto one of its own colour."""
        colours = _colours(g, split)
        for _ in range(3):
            perm = [int(v) for v in rng.permutation(split)]
            perm += [split + int(v) for v in rng.permutation(g.n - split)]
            h = apply_signed_permutation(g, perm, {v for v in range(g.n)
                                                   if rng.random() < 0.5})
            image = _colours(h, split)
            assert [image[perm[v]] for v in range(g.n)] == colours

    def test_signed_permutations_keep_the_colours(self):
        rng = np.random.default_rng(30)
        spread = 0
        for _ in range(120):
            g = random_signed_graph(rng, int(rng.integers(1, 14)))
            self.check_kept(g, rng)
            spread += len(set(_colours(g, 0))) > 2
        assert spread >= 60  # most of these graphs have several colours
        for first, second in (("R2.1", "R3.1"), ("R4.1", "R5.4"), ("T", "R2.1")):
            self.check_kept(disjoint_union(rs.catalog(first), rs.catalog(second)), rng)

    def test_weighing_supports_keep_the_colours_with_the_side_split(self):
        from rectaspec.search import search_weighing
        from rectaspec.weighing import _support_bipartite

        rng = np.random.default_rng(31)
        w74 = search_weighing(7, 4).matrices[0].entries
        w84 = search_weighing(8, 4).matrices[0].entries
        h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        mixed = np.zeros((19, 19), dtype=np.int8)
        mixed[:7, :7], mixed[7:11, 7:11], mixed[11:, 11:] = w74, h4, w84
        for w in (search_weighing(12, 5).matrices[0], rs.WeighingMatrix(mixed)):
            self.check_kept(_support_bipartite(w), rng, split=w.n)
        # an uneven split: the sides alone tell the vertices apart
        self.check_kept(random_signed_graph(rng, 11), rng, split=4)

    def test_colours_count_the_listed_quadrangles(self):
        g = disjoint_union(rs.catalog("T"), all_positive_c4())
        neg, pos = listed_quadrangle_signs(g)
        assert _colours(g, 2) == [(v < 2, g.degrees[v], neg[v], pos[v]) for v in range(g.n)]

    @pytest.mark.parametrize("key", BUILT_ROWS)
    def test_one_edge_flip_on_every_built_row(self, catalog_rows, key):
        # every edge of a rectagraph of degree 2 or more lies on a
        # quadrangle, which the flip makes positive; R1.1's lone edge is a
        # bridge, and negating a bridge is a switching.  Where VF2's "no"
        # finishes, TestMatcherAgainstVf2.test_one_edge_flips compares the two
        g = catalog_rows[key]
        copy = relabelled_switched(g, 11)
        flipped = one_edge_flipped(copy, 12)
        for h, same in ((copy, True), (flipped, key == "R1.1")):
            ok, witness = switching_match(g, h)
            assert ok == same
            if ok:
                assert apply_signed_permutation(g, witness.perm, witness.switch_set) == h

    def test_matcher_agrees_with_vf2_on_random_graphs(self):
        # irregular and disconnected inputs, where the colours split the
        # vertices unevenly; a flipped bridge is still a "yes"
        rng = np.random.default_rng(32)
        answers = set()
        for seed in range(80):
            g = random_signed_graph(rng, int(rng.integers(2, 10)))
            if not g.edges():
                continue
            h = relabelled_switched(g, seed)
            assert both_answers(g, h) == [True, True]
            flipped = both_answers(g, one_edge_flipped(h, seed))
            assert flipped[0] == flipped[1]
            answers.add(flipped[0])
        assert answers == {True, False}

    @pytest.mark.parametrize("key", ["R2.1", "R4.2", "R5.4", "R6.6"])
    def test_unequal_colours_answer_before_any_search(self, monkeypatch, key):
        g = rs.catalog(key)
        h = one_edge_flipped(relabelled_switched(g, 13), 14)
        assert sorted(g.degrees) == sorted(h.degrees)

        def no_search(*args):
            raise AssertionError("the matcher searched")

        monkeypatch.setattr(switching, "_match_order", no_search)
        assert switching_match(g, h) == (False, None)
        assert switching_match(h, g) == (False, None)


class TestClassInvariants:
    def test_invariance_under_switch_and_relabel(self):
        rng = random.Random(9)
        g = rs.catalog("R4.1")
        inv = rs.class_invariants(g)
        for _ in range(3):
            s = {v for v in range(14) if rng.random() < 0.5}
            perm = list(range(14))
            rng.shuffle(perm)
            assert rs.class_invariants(apply_signed_permutation(g, perm, s)) == inv

    def test_distinguishes_c4_signatures(self):
        assert rs.class_invariants(rs.signed_cube(2)) != rs.class_invariants(all_positive_c4())

    def test_balance_counts(self):
        # every quadrangle of the signed cube is negative
        counts = quadrangle_balance_counts(rs.signed_cube(3))
        assert all(neg == 3 and pos == 0 for neg, pos in counts)

    def test_balance_counts_leave_the_square_as_it_was(self):
        rng = np.random.default_rng(31)
        for g in [rs.catalog("R6.7")] + [random_signed_graph(rng, 12) for _ in range(20)]:
            g = rs.SignedGraph(g.adj)
            before = np.array(g.square)
            quadrangle_balance_counts(g)
            assert np.array_equal(g.square, before)

    @staticmethod
    def _listed_balance_counts(g):
        """``quadrangle_balance_counts`` by listing every 4-cycle."""
        return sorted(zip(*listed_quadrangle_signs(g)))

    def test_balance_counts_match_listed_quadrangles_on_random_graphs(self):
        rng = np.random.default_rng(24)
        wide = 0
        for _ in range(240):
            g = random_signed_graph(rng, int(rng.integers(1, 16)))
            assert quadrangle_balance_counts(g) == self._listed_balance_counts(g)
            support = np.abs(g.adj).astype(np.int64)
            codegrees = support @ support
            np.fill_diagonal(codegrees, 0)
            wide += int(codegrees.max()) >= 3
        assert wide >= 100  # pairs sharing three or more neighbours

    @pytest.mark.parametrize("key", ["T", "G1", "G2", "G3", "G4", "G5", "G6", "R1.1",
                                     "R2.1", "R3.1", "R4.1", "R4.2", "R5.3", "R5.4",
                                     "R6.6", "R6.7", "R7.6", "R7.7"])
    def test_balance_counts_match_listed_quadrangles_on_the_catalog(self, key):
        g = rs.catalog(key)
        assert quadrangle_balance_counts(g) == self._listed_balance_counts(g)

    # recorded when the balance counts were still taken from a quadrangle list
    PINNED = {
        "R3.1": (8, (3,) * 8, (1, 0, -12, 0, 54, 0, -108, 0, 81), ((3, 0),) * 8,
                 "e4dfd7b460148a3915f7aca370896702"),
        "R4.1": (14, (4,) * 14, (1, 0, -28, 0, 336, 0, -2240, 0, 8960, 0, -21504, 0,
                                 28672, 0, -16384), ((6, 0),) * 14,
                 "45390192540c9abd4bb0e359d128b3e9"),
        "R5.4": (16, (5,) * 16, (1, 0, -40, 0, 700, 0, -7000, 0, 43750, 0, -175000, 0,
                                 437500, 0, -625000, 0, 390625), ((10, 0),) * 16,
                 "e1b17b0b25ed03946552f4cbc15a5736"),
        "T": (4, (3,) * 4, (1, 0, -6, 0, 5), ((2, 1),) * 4,
              "a2043a0aeda89ba73868287fa0954611"),
        "negative C4": (4, (2,) * 4, (1, 0, -4, 0, 4), ((1, 0),) * 4,
                        "e3229942c75e3b9a40c56973fd2c659c"),
        "positive C4": (4, (2,) * 4, (1, 0, -4, 0, 0), ((0, 1),) * 4,
                        "e3229942c75e3b9a40c56973fd2c659c"),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_invariants(self, key):
        g = {"negative C4": rs.signed_cube(2),
             "positive C4": all_positive_c4()}.get(key) or rs.catalog(key)
        assert rs.class_invariants(g) == self.PINNED[key]


@pytest.mark.parametrize("g, h", [
    (lambda: rs.underlying(rs.catalog("R3.1")), lambda: rs.catalog("R3.1")),
    (lambda: rs.catalog("R3.1"), lambda: rs.underlying(rs.catalog("R3.1"))),
    (lambda: rs.catalog("R3.1").adj, lambda: rs.catalog("R3.1")),
], ids=["underlying-first", "underlying-second", "ndarray"])
def test_switching_isomorphic_refuses_other_types(g, h):
    with pytest.raises(TypeError, match="SignedGraph"):
        rs.switching_isomorphic(g(), h())


def test_switching_match_refuses_other_types():
    g = rs.catalog("R3.1")
    for args in ((rs.underlying(g), g), (g, rs.underlying(g)), (g.adj, g)):
        with pytest.raises(TypeError, match="switching_match takes two SignedGraph"):
            switching_match(*args)


def test_underlying_isomorphisms_count_automorphisms():
    u = rs.catalog("K22")
    assert sum(1 for _ in underlying_isomorphisms(u, u)) == 8


def test_decisions_leave_no_reference_cycles():
    # a VF2 matcher and its search state refer to each other; left alone
    # they keep both graphs alive until a full collection
    from rectaspec.core import underlying
    from rectaspec.search import search_weighing

    g = rs.catalog("R3.1")
    h = underlying(g).all_positive()
    w = search_weighing(12, 5).matrices[0]
    flipped = rs.verify_weighing(-np.asarray(w.entries)[::-1])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert not rs.switching_isomorphic(g, h)[0]
        assert rs.equivalent(w, flipped)[0]
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4]])
def test_relabel_refuses_a_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(rs.catalog("T"), perm)


@pytest.mark.parametrize("vertices", [[4], [-1]])
def test_switch_refuses_a_vertex_outside_the_graph(vertices):
    with pytest.raises(ValueError, match="outside range"):
        switch(rs.catalog("T"), vertices)


def test_relabel_roundtrip():
    # graphs compare equal only to their own type, so the path also checks
    # that relabel returns an UnderlyingGraph for an UnderlyingGraph
    perm = [2, 0, 3, 1]
    inv = [perm.index(i) for i in range(4)]
    for g in (rs.catalog("T"), rs.UnderlyingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])):
        assert relabel(relabel(g, perm), inv) == g
