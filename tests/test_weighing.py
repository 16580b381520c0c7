import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import StructureError, disjoint_union
from rectaspec.weighing import (EquivalenceWitness, WeighingFormatError,
                                scheme_two_prefix)
from vf2_oracle import vf2_equivalent

H4 = np.array([[1, 1, 1, 1],
               [1, -1, 1, -1],
               [1, 1, -1, -1],
               [1, -1, -1, 1]], dtype=np.int8)


def sp_matrix(perm, signs) -> np.ndarray:
    """The signed permutation matrix with entry signs[i] at (i, perm[i])."""
    p = np.zeros((len(perm), len(perm)), dtype=np.int64)
    p[np.arange(len(perm)), perm] = signs
    return p


def searched_12_5():
    from rectaspec.search import search_weighing

    return search_weighing(12, 5).matrices[0]


class TestVerify:
    def test_identity(self):
        w = rs.verify_weighing(np.eye(5, dtype=int))
        assert w and w.r == 1

    def test_hadamard(self):
        w = rs.verify_weighing(H4)
        assert w and w.r == 4

    def test_all_ones_refused(self):
        ref = rs.verify_weighing(np.ones((2, 2), dtype=int))
        assert not ref and ref.witness is not None

    def test_entries_outside_signs_refused(self):
        ref = rs.verify_weighing([[0, 257], [257, 0]])
        assert not ref and ref.witness == (0, 1, 257)
        assert not rs.verify_weighing([[0, 1.5], [1.5, 0]])
        assert not rs.verify_weighing(np.array([[0, 1.5], [1.5, 0]]))

    def test_accepted_matrix_costs_one_product(self, monkeypatch):
        import rectaspec.weighing as weighing

        calls = []
        real = weighing.exact_matmul
        monkeypatch.setattr(weighing, "exact_matmul",
                            lambda a, b: calls.append(1) or real(a, b))
        assert rs.verify_weighing(H4)
        assert len(calls) == 1

    def test_refusal_names_the_inner_product(self):
        ref = rs.verify_weighing(np.ones((2, 2), dtype=int))
        assert ref.reason == "columns 0 and 1 have inner product 2, expected 0"
        assert ref.witness == (0, 1, 2)
        ref = rs.verify_weighing(np.zeros((2, 2), dtype=int))
        assert ref.reason == "zero matrix has weight 0"


# each becomes I_2 under a plain int8 cast
CAST_CHANGES = [[[257, 0], [0, 1]], [[1.5, 0], [0, 1]],
                [[1, 256], [256, 1]], [[1, 0.5], [0.5, 1]],
                [["1", "0"], ["0", "1"]]]


@pytest.mark.parametrize("entries", CAST_CHANGES)
@pytest.mark.parametrize("wrap", [np.array, list], ids=["array", "list"])
def test_weighing_matrix_refuses_what_a_cast_changes(entries, wrap):
    with pytest.raises(ValueError):
        rs.WeighingMatrix(wrap(entries))


def test_weighing_matrix_names_the_inner_product():
    with pytest.raises(ValueError, match="columns 0 and 1 have inner product 2"):
        rs.WeighingMatrix(np.ones((2, 2), dtype=np.int8))


class TestIntersectionNumbers:
    def test_identity(self):
        assert rs.intersection_numbers(rs.verify_weighing(np.eye(4, dtype=int))) == {0}

    def test_hadamard(self):
        assert rs.intersection_numbers(rs.verify_weighing(H4)) == {4}

    def test_searched_12_5(self):
        assert rs.intersection_numbers(searched_12_5()) == {0, 2}


class TestProper:
    def test_i2_improper(self):
        assert not rs.is_proper(rs.verify_weighing(np.eye(2, dtype=int)))

    def test_hadamard_proper(self):
        assert rs.is_proper(rs.verify_weighing(H4))

    def test_direct_sum_improper(self):
        block = np.zeros((8, 8), dtype=np.int8)
        block[:4, :4] = H4
        block[4:, 4:] = H4
        assert not rs.is_proper(rs.verify_weighing(block))


class TestNormalForm:
    def test_searched_matrix(self):
        w = searched_12_5()
        norm, witness = rs.schem2_normal_form(w)
        assert np.array_equal(norm.entries[:5], scheme_two_prefix(5, 12))
        assert witness.verify(w, norm)

    def test_hadamard_rejected(self):
        with pytest.raises(StructureError, match="intersection"):
            rs.schem2_normal_form(rs.verify_weighing(H4))

    def test_idempotence_gives_identity_witness(self):
        norm, _ = rs.schem2_normal_form(searched_12_5())
        again, witness = rs.schem2_normal_form(norm)
        assert again == norm
        n = norm.n
        assert witness.p_perm == tuple(range(n)) and witness.q_perm == tuple(range(n))
        assert set(witness.p_signs) == {1} and set(witness.q_signs) == {1}

    def test_identity_matrix_weight_one(self):
        norm, witness = rs.schem2_normal_form(rs.verify_weighing(np.eye(3, dtype=int)))
        assert norm.entries[0, 0] == 1 and witness.verify(
            rs.verify_weighing(np.eye(3, dtype=int)), norm)


def scrambled(w, rng):
    """P w Q for random signed permutation matrices P and Q."""
    def factor():
        return sp_matrix(rng.permutation(w.n).tolist(),
                         rng.choice([-1, 1], w.n).tolist())
    return rs.WeighingMatrix(factor() @ w.entries.astype(np.int64) @ factor())


class TestNormalFormOfScrambles:
    def check(self, w, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            m = scrambled(w, rng)
            norm, witness = rs.schem2_normal_form(m)
            assert np.array_equal(norm.entries[:w.r], scheme_two_prefix(w.r, w.n))
            assert witness.verify(m, norm)
            again, identity = rs.schem2_normal_form(norm)
            assert again == norm
            assert identity.p_perm == identity.q_perm == tuple(range(w.n))
            assert set(identity.p_signs) == set(identity.q_signs) == {1}

    @pytest.mark.parametrize("n, r", [(4, 2), (7, 4), (8, 4), (12, 5), (14, 4), (14, 5)])
    def test_searched_classes(self, n, r):
        from rectaspec.search import search_weighing

        classes = search_weighing(n, r).matrices
        assert classes
        for i, w in enumerate(classes):
            self.check(w, seed=100 * n + 10 * r + i)

    def test_improper_identity(self):
        # the support graph is three disjoint edges
        self.check(rs.verify_weighing(np.eye(3, dtype=int)), seed=3)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_prefix_shape(self, r):
        width = r * (r - 1) // 2 + 1
        prefix = scheme_two_prefix(r, width + 3).astype(np.int64)
        assert prefix.shape == (r, width + 3)
        assert np.all(np.abs(prefix).sum(axis=1) == r)
        assert np.flatnonzero(prefix[0]).tolist() == list(range(r))
        for a in range(r):
            for b in range(a + 1, r):
                shared = np.flatnonzero(prefix[a] * prefix[b]).tolist()
                assert len(shared) == 2
                assert np.prod(prefix[a, shared] * prefix[b, shared]) == -1
        assert not prefix[:, width:].any()

    @pytest.mark.parametrize("r, n", [(5, 3), (4, 6), (3, 1)])
    def test_prefix_wider_than_the_order(self, r, n):
        width = 1 + r * (r - 1) // 2
        with pytest.raises(ValueError, match=f"order at least {width}, got {n}"):
            scheme_two_prefix(r, n)


class TestBipartiteCorrespondence:
    def test_searched_matrix_gives_24_vertex_graph(self):
        g = rs.to_bipartite_sr2se(searched_12_5())
        cert = rs.certify_two_sym(g)
        rep = rs.structure_report(g)
        assert g.n == 24 and cert.lambda_sq == 5
        assert rep.connected and rep.bipartite and rep.zero_two

    def test_improper_faults(self):
        with pytest.raises(StructureError, match="improper"):
            rs.to_bipartite_sr2se(rs.verify_weighing(np.eye(2, dtype=int)))

    def test_from_bipartite_small_cubes(self):
        for r in (2, 3, 4):
            g = rs.signed_cube(r)
            w = rs.from_bipartite_sr2se(g)
            assert (w.n, w.r) == (2 ** (r - 1), r)
            assert rs.intersection_numbers(w) <= {0, 2} and rs.is_proper(w)
            back = rs.to_bipartite_sr2se(w)
            ok, _ = rs.switching_isomorphic(back, g)
            assert ok

    def test_nonbipartite_faults(self):
        with pytest.raises(StructureError, match="bipartite"):
            rs.from_bipartite_sr2se(rs.catalog("R5.4"))

    @pytest.mark.parametrize("g, message", [
        (rs.catalog("T"), r"not a two-eigenvalue graph: A\^2 != r\*I"),
        # two signed 4-cycles pass the certificate but are not connected
        (disjoint_union(rs.catalog("R2.1"), rs.catalog("R2.1")),
         "graph is not a connected signed rectagraph"),
    ], ids=["tetrahedron", "two-4-cycles"])
    def test_non_rectagraph_faults(self, g, message):
        with pytest.raises(StructureError, match=f"^{message}$"):
            rs.from_bipartite_sr2se(g)


class TestEquivalence:
    def test_row_negation(self):
        w = searched_12_5()
        flipped = np.array(w.entries)
        flipped[3] = -flipped[3]
        ok, witness = rs.equivalent(w, rs.verify_weighing(flipped))
        assert ok and witness.verify(w, rs.verify_weighing(flipped))

    def test_weight_one_all_equivalent(self):
        perm = sp_matrix((2, 0, 1, 3), (1, -1, 1, -1)).astype(np.int8)
        ok, witness = rs.equivalent(rs.verify_weighing(np.eye(4, dtype=int)),
                                    rs.verify_weighing(perm))
        assert ok and witness.verify(rs.verify_weighing(np.eye(4, dtype=int)),
                                     rs.verify_weighing(perm))

    def test_distinct_weights_or_orders(self):
        ok, _ = rs.equivalent(rs.verify_weighing(np.eye(3, dtype=int)),
                              rs.verify_weighing(np.eye(4, dtype=int)))
        assert not ok

    def test_inequivalent_same_parameters(self):
        # proper searched W(8,4) vs the improper H4 + H4: intersection sets
        # and properness are both equivalence-invariant and both differ
        from rectaspec.search import search_weighing

        proper = search_weighing(8, 4).matrices[0]
        h4h4 = np.zeros((8, 8), dtype=np.int8)
        h4h4[:4, :4] = H4
        h4h4[4:, 4:] = H4
        improper = rs.verify_weighing(h4h4)
        ok, _ = rs.equivalent(proper, improper)
        assert not ok
        assert rs.is_proper(proper) and not rs.is_proper(improper)
        assert rs.intersection_numbers(proper) != rs.intersection_numbers(improper)

    def test_unequal_colours_answer_before_any_search(self, monkeypatch):
        # rows of H4 + H4 meet in 4 columns, so each vertex of its support
        # graph lies on 12 negative and 6 positive quadrangles; the rows of
        # W(8,4) meet in 0 or 2, and each vertex lies on 6 negative ones
        import rectaspec.switching as switching
        from rectaspec.search import search_weighing

        proper = search_weighing(8, 4).matrices[0]
        improper = scrambled(direct_sum(H4, H4), np.random.default_rng(4))

        def no_search(*args):
            raise AssertionError("the matcher searched")

        monkeypatch.setattr(switching, "_match_order", no_search)
        assert rs.equivalent(proper, improper) == (False, None)
        assert rs.equivalent(improper, proper) == (False, None)

    def test_sums_of_unlike_blocks(self):
        # equivalent by construction (the VF2 oracle did not finish these
        # nine pairs in three minutes).  Each
        # component root may go to any unused column of its degree: with
        # blocks of three kinds in shuffled order, the lowest unused column
        # is often in a component of the wrong kind
        from rectaspec.search import search_weighing

        blocks = [search_weighing(7, 4).matrices[0].entries, H4,
                  search_weighing(8, 4).matrices[0].entries]
        rng = np.random.default_rng(19)
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            m = direct_sum(*(blocks[i] for i in order))
            for _ in range(3):
                other = scrambled(direct_sum(*blocks), rng)
                ok, witness = rs.equivalent(m, other)
                assert ok and witness.verify(m, other)


class TestWitnessVerify:
    """``EquivalenceWitness.verify``, which indexes, against the product
    definition M = P N Q."""

    @staticmethod
    def product(witness, n):
        return (sp_matrix(witness.p_perm, witness.p_signs) @ n.entries.astype(np.int64)
                @ sp_matrix(witness.q_perm, witness.q_signs))

    @staticmethod
    def random_witness(size, rng):
        return EquivalenceWitness(
            p_perm=tuple(rng.permutation(size).tolist()),
            p_signs=tuple(rng.choice([-1, 1], size).tolist()),
            q_perm=tuple(rng.permutation(size).tolist()),
            q_signs=tuple(rng.choice([-1, 1], size).tolist()))

    @staticmethod
    def wrong_witnesses(witness, rng):
        """One sign flipped and two images swapped, on each factor."""
        size = len(witness.p_perm)
        i, j = rng.choice(size, 2, replace=False).tolist()
        out = []
        for perm, signs in (("p_perm", "p_signs"), ("q_perm", "q_signs")):
            flipped = list(getattr(witness, signs))
            flipped[i] = -flipped[i]
            swapped = list(getattr(witness, perm))
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(replace(witness, **{signs: tuple(flipped)}))
            out.append(replace(witness, **{perm: tuple(swapped)}))
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_the_product(self, seed):
        rng = np.random.default_rng(seed)
        for n in (rs.verify_weighing(H4), searched_12_5(), sylvester(3),
                  rs.verify_weighing(np.eye(5, dtype=int))):
            for _ in range(10):
                witness = self.random_witness(n.n, rng)
                m = rs.WeighingMatrix(self.product(witness, n))
                assert witness.verify(m, n)
                for wrong in self.wrong_witnesses(witness, rng):
                    expect = np.array_equal(self.product(wrong, n), m.entries)
                    assert wrong.verify(m, n) == expect

    def test_non_permutation_raises(self):
        h4 = rs.verify_weighing(H4)
        identity = tuple(range(4))
        ones = (1, 1, 1, 1)
        for p_perm, q_perm in (((0, 0, 1, 2), identity), (identity, (0, 0, 1, 2)),
                               ((0, 1, 2), identity), (identity, (1, 2, 3, 4))):
            witness = EquivalenceWitness(p_perm, ones, q_perm, ones)
            with pytest.raises(ValueError, match="not a permutation"):
                witness.verify(h4, h4)


def direct_sum(*blocks) -> rs.WeighingMatrix:
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size), dtype=np.int8)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return rs.WeighingMatrix(out)


def sylvester(k: int) -> rs.WeighingMatrix:
    """The Sylvester Hadamard matrix of order 2^k."""
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        h = np.kron(h, np.array([[1, 1], [1, -1]], dtype=np.int8))
    return rs.WeighingMatrix(h)


def raw_candidates(n, r):
    """Every certified sign class over every labelled support: the uncut
    reference, since the orbit cut keeps 1 of (12, 5)'s 6 and 2 of
    (14, 5)'s 30."""
    from rectaspec.search import _sign_supports, run_weighing_search
    from reference_oracles import uncut_support_search

    with uncut_support_search():
        found = run_weighing_search(n, r, 0)[0]
    return _sign_supports(n, r, found)


def agrees_with_vf2(m, n) -> bool:
    ok, witness = rs.equivalent(m, n)
    if ok and not witness.verify(m, n):
        return False
    return ok == vf2_equivalent(m, n) and (witness is None) == (not ok)


class TestEquivalenceAgainstVF2:
    """``equivalent`` against the VF2 candidate loop it replaced
    (tests/vf2_oracle.py)."""

    @pytest.mark.parametrize("n, r, count", [(8, 4, 1), (12, 5, 6), (14, 5, 30)])
    def test_raw_candidate_pairs(self, n, r, count):
        cands = raw_candidates(n, r)
        assert len(cands) == count
        for i, m in enumerate(cands):
            for other in cands[i:]:
                assert agrees_with_vf2(m, other)

    @pytest.mark.parametrize("n, r", [(8, 4), (12, 5), (14, 5)])
    def test_signed_permutations_of_candidates(self, n, r):
        rng = np.random.default_rng(10 * n + r)
        cands = raw_candidates(n, r)
        for m in cands:
            assert agrees_with_vf2(scrambled(m, rng), m)
            assert agrees_with_vf2(cands[0], scrambled(m, rng))

    def test_direct_sums_are_told_apart(self):
        from rectaspec.search import search_weighing

        w74 = search_weighing(7, 4).matrices[0].entries
        w84 = search_weighing(8, 4).matrices[0]
        rng = np.random.default_rng(3)
        h4h4 = direct_sum(H4, H4)
        assert not rs.equivalent(w84, h4h4)[0]
        assert agrees_with_vf2(w84, h4h4)
        assert agrees_with_vf2(scrambled(h4h4, rng), w84)
        proper = direct_sum(w74, w84.entries)
        improper = direct_sum(w74, H4, H4)
        assert not rs.equivalent(proper, improper)[0]
        assert agrees_with_vf2(proper, scrambled(improper, rng))
        assert agrees_with_vf2(direct_sum(w84.entries, w74), scrambled(proper, rng))

    def test_oracle_keeps_the_sides_apart(self):
        from vf2_oracle import coloured_isomorphisms

        g = rs.to_bipartite_sr2se(sylvester(1))  # K2,2: columns 0, 1; rows 2, 3
        plain = sum(1 for _ in coloured_isomorphisms(g, g, [0] * 4, [0] * 4))
        sides = sum(1 for _ in coloured_isomorphisms(g, g, [0, 0, 1, 1], [0, 0, 1, 1]))
        assert plain == 8 and sides == 4  # side swap removed

    @pytest.mark.parametrize("k", [3, 4])
    def test_sylvester_hadamard_is_found(self, k):
        # VF2 walks the isomorphisms of K8,8 for 54 s on H8 and does not
        # finish H16
        h = sylvester(k)
        rng = np.random.default_rng(k)
        for _ in range(3):
            other = scrambled(h, rng)
            ok, witness = rs.equivalent(h, other)
            assert ok and witness.verify(h, other)


class TestSwitchingAgreesWithEquivalence:
    """``equivalent`` against ``switching_isomorphic`` on the signed support
    graphs: the two decision procedures must agree before either replaces
    the other."""

    @staticmethod
    def both(m, n):
        from rectaspec.weighing import _support_bipartite

        return (rs.equivalent(m, n)[0],
                rs.switching_isomorphic(_support_bipartite(m), _support_bipartite(n))[0])

    @pytest.mark.parametrize("n, r", [(8, 4), (12, 5), (14, 5), (16, 5)])
    def test_signed_permutations_of_the_class(self, n, r):
        from rectaspec.search import search_weighing

        [m] = search_weighing(n, r).matrices
        rng = np.random.default_rng(100 * n + r)
        for _ in range(3):
            assert self.both(m, scrambled(m, rng)) == (True, True)

    def test_w84_against_h4_sum(self):
        from rectaspec.search import search_weighing

        w84 = search_weighing(8, 4).matrices[0]
        assert self.both(w84, direct_sum(H4, H4)) == (False, False)


@pytest.mark.parametrize("m, n", [
    (lambda: H4, lambda: H4),
    (lambda: rs.WeighingMatrix(H4), lambda: H4),
    (lambda: rs.WeighingMatrix(H4), lambda: rs.signed_cube(3)),
], ids=["ndarrays", "ndarray-second", "graph-second"])
def test_equivalent_refuses_other_types(m, n):
    with pytest.raises(TypeError, match="WeighingMatrix"):
        rs.equivalent(m(), n())


# Makes every equivalence witness negate the first row of P, then asks
# whether H4 is equivalent to itself: the re-verification must catch it.
CORRUPT_WITNESS_EQUIVALENCE = """
import numpy as np
import rectaspec as rs
import rectaspec.weighing as weighing

real = weighing._witness_from_transform

def corrupted(*args):
    w = real(*args)
    return weighing.EquivalenceWitness(w.p_perm, (-w.p_signs[0],) + w.p_signs[1:],
                                       w.q_perm, w.q_signs)

weighing._witness_from_transform = corrupted
h4 = rs.verify_weighing(np.array(%r))
weighing.equivalent(h4, h4)
"""


class TestWitnessGate:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
    def test_wrong_equivalence_witness_raises(self, flags):
        src = os.path.dirname(os.path.dirname(rs.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-c",
             CORRUPT_WITNESS_EQUIVALENCE % H4.tolist()],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode != 0
        assert ("RuntimeError: equivalence witness failed re-verification"
                in done.stderr)


class TestTextFormat:
    def test_round_trip(self):
        w = searched_12_5()
        assert rs.parse_weighing_text(rs.write_weighing_text(w)) == w

    def test_errors(self):
        with pytest.raises(WeighingFormatError, match="header"):
            rs.parse_weighing_text("abc\n")
        with pytest.raises(WeighingFormatError, match="characters"):
            rs.parse_weighing_text("2 1\n+0\n+\n")
        with pytest.raises(WeighingFormatError, match="bad character"):
            rs.parse_weighing_text("2 1\n+0\nx+\n")
        with pytest.raises(WeighingFormatError, match="rows"):
            rs.parse_weighing_text("3 1\n+00\n0+0\n")
        # the header takes ASCII digits only, so no signed number
        for text in ("-3 2", "2 -2\n+0\n0+\n"):
            with pytest.raises(WeighingFormatError, match="header must be 'n r'"):
                rs.parse_weighing_text(text)
        with pytest.raises(WeighingFormatError, match="weight"):
            rs.parse_weighing_text("2 2\n+0\n0+\n")
        with pytest.raises(WeighingFormatError, match="order must be positive"):
            rs.parse_weighing_text("0 5\n")
        for text in ("", "\n  \n"):
            with pytest.raises(WeighingFormatError, match="^empty input$"):
                rs.parse_weighing_text(text)
        with pytest.raises(WeighingFormatError,
                           match=r"^columns 0 and 1 have inner product 2, expected 0$"):
            rs.parse_weighing_text("2 2\n++\n++\n")
        # headers that pass a digit test but not int()
        for head in ("--2 1", "\u00b2 1"):
            with pytest.raises(WeighingFormatError, match="header"):
                rs.parse_weighing_text(head + "\n+0\n0+\n")
