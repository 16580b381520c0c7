import gc
import random

import numpy as np
import pytest

import rectaspec as rs
import rectaspec.switching as switching
from rectaspec.core import disjoint_union
from rectaspec.switching import (SchemeError, apply_signed_permutation,
                                 quadrangle_balance_counts, relabel, scheme_prefix,
                                 switch, switching_match, underlying_isomorphisms)


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

    def test_structural_precondition_named(self):
        p3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)]).all_positive()
        with pytest.raises(SchemeError, match="regular"):
            rs.schem_normal_form(p3)
        k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).all_positive()
        with pytest.raises(SchemeError, match="triangle-free"):
            rs.schem_normal_form(k3)

    def test_positive_quadrangle_signature_rejected(self):
        with pytest.raises(SchemeError, match="quadrangle"):
            rs.schem_normal_form(all_positive_c4())


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
        import rectaspec.switching as switching

        monkeypatch.setattr(switching, "apply_signed_permutation",
                            lambda *args: all_positive_c4())
        with pytest.raises(RuntimeError, match="re-verification"):
            rs.switching_isomorphic(rs.signed_cube(2), rs.signed_cube(2))

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
    """The answers of ``switching_isomorphic`` (VF2) and ``switching_match``
    (the sign-propagating matcher), each "yes" witness re-applied."""
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
        monkeypatch.setattr(switching, "apply_signed_permutation",
                            lambda *args: all_positive_c4())
        with pytest.raises(RuntimeError, match="re-verification"):
            switching_match(rs.signed_cube(2), rs.signed_cube(2))


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
