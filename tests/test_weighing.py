import os
import subprocess
import sys

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import StructureError
from rectaspec.weighing import (WeighingFormatError, scheme_two_prefix,
                                sp_matrix)

H4 = np.array([[1, 1, 1, 1],
               [1, -1, 1, -1],
               [1, 1, -1, -1],
               [1, -1, -1, 1]], dtype=np.int8)


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
        with pytest.raises(WeighingFormatError, match="weight"):
            rs.parse_weighing_text("2 2\n+0\n0+\n")
