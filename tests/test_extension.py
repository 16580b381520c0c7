import dataclasses
import hashlib
import random
from itertools import combinations, product

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.core import StructureError, disjoint_union
from rectaspec.extension import (ExtensionError, GramResidual, GramWitness,
                                 canonical_gram_form, classify_constant_diag_gram,
                                 classify_gram,
                                 classify_small_spectrum_02graph,
                                 extend_four_to_three, extend_one_vertex,
                                 extend_zero_pair, gram_residual)


def k13():
    return rs.SignedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


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

    def test_residual_leaves_the_square_as_it_was(self):
        for g, r in ((rs.delete_vertices(rs.signed_cube(4), {0, 3}), 4), (k13(), 3),
                     (rs.signed_cube(3), 3)):
            g = rs.SignedGraph(g.adj)
            before = np.array(g.square)
            gr = gram_residual(g, r)
            assert np.array_equal(g.square, before)
            assert np.array_equal(gr.matrix, r * np.eye(g.n, dtype=np.int64) - before)

    @pytest.mark.parametrize("m", [np.ones((2, 3), dtype=int), np.ones(3, dtype=int),
                                   np.ones((2, 2, 2), dtype=int)], ids=["2x3", "1-D", "3-D"])
    def test_non_square_residual_refused(self, m):
        with pytest.raises(ValueError, match="matrix must be square"):
            GramResidual(m)

    def test_built_from_the_matrix_alone(self):
        m = canonical_gram_form("a", 2, 2, 4, 0, 6)
        gr = GramResidual(m)
        assert (gr.d0, gr.d1, gr.d2, gr.rank, gr.eigenvalue) == (2, 4, 0, 2, 2)
        assert [f.name for f in dataclasses.fields(gr) if f.init] == ["matrix"]

    def test_derived_fields_cannot_be_supplied(self):
        # a caller's counts used to be taken as given: with d0 = 0 and
        # d1 = 5 against the true 2 and 4, case (a) came back with a
        # witness that does not map m onto the canonical form returned
        m = canonical_gram_form("a", 2, 1, 4, 0, 6)
        with pytest.raises(TypeError):
            GramResidual(matrix=m, d0=0, d1=5, d2=0, rank=2, eigenvalue=2)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(GramResidual(m), rank=3)
        cls = classify_gram(GramResidual(m))
        assert cls.case == "a" and np.array_equal(cls.witness.apply(m), cls.canonical)


class TestClassifyGram:
    def test_case_a_direct(self):
        m = canonical_gram_form("a", 2, 2, 4, 0, 6)
        cls = classify_gram(GramResidual(m))
        assert cls.case == "a"
        assert np.array_equal(cls.witness.apply(m), cls.canonical)

    def test_case_c_padded(self):
        m = canonical_gram_form("c", 2, 1, 0, 2, 3)
        cls = classify_gram(GramResidual(m))
        assert cls.case == "c"

    def test_caller_array_stays_writeable(self):
        m = canonical_gram_form("c", 4, 0, 0, 4, 4)
        assert m.dtype == np.int64 and m.flags.writeable
        gr = GramResidual(m)
        assert m.flags.writeable and not gr.matrix.flags.writeable

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
            cls = classify_gram(GramResidual(scrambled))
            assert cls.case == case, (case, cls.diagnostic)
            assert np.array_equal(cls.witness.apply(scrambled), cls.canonical)

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0,), (0, 1, 2)])
    def test_non_permutation_witness_raises(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            GramWitness(perm, (1,) * len(perm)).apply(np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize("signs", [(1, 0), (2, 1), (1, -2)])
    def test_sign_outside_plus_minus_one_raises(self, signs):
        # a sign 0 zeroed a row and column, a sign 2 doubled them
        with pytest.raises(ValueError, match=r"-1 or \+1"):
            GramWitness((1, 0), signs).apply(np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize("perm", [(True, False), (1.0, 0.0), np.array([1.0, 0.0]),
                                      np.array([True, False])])
    def test_witness_perm_is_read_as_integers(self, perm):
        with pytest.raises(TypeError, match="^perm entries must be integers"):
            GramWitness(perm, (1, 1)).apply(np.eye(2, dtype=np.int64))

    def test_eigen_candidates_match_brute_force(self):
        # up to sign, the candidates are every x in {0, +-1}^n with M x = q x
        rng = random.Random(9)
        shapes = [("a", 2, 1, 4, 0), ("a", 4, 2, 8, 0), ("b", 2, 1, 2, 1),
                  ("b", 4, 2, 4, 2), ("c", 2, 1, 0, 2), ("c", 6, 2, 0, 6),
                  ("d", 3, 1, 0, 3), ("d", 6, 2, 0, 6), ("e", 3, 1, 2, 2),
                  ("e", 4, 0, 4, 2), ("e", 5, 0, 2, 4), ("e", 6, 2, 4, 4)]
        for case, lam, d0, d1, d2 in shapes:
            n = d0 + d1 + d2
            canonical = canonical_gram_form(case, lam, d0, d1, d2, n)
            every = np.array(list(product((0, 1, -1), repeat=n)))
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                signs = [rng.choice((-1, 1)) for _ in range(n)]
                m = GramWitness(tuple(perm), tuple(signs)).apply(canonical)
                gr = GramResidual(m)
                assert gr.case_label == case and gr.eigenvalue == lam
                cls = classify_gram(gr)
                assert np.array_equal(cls.witness.apply(m), canonical)
                fixed = every[np.all(every @ m == lam * every, axis=1)]
                oracle = {min(tuple(x.tolist()), tuple((-x).tolist()))
                          for x in fixed if x.any()}
                got = [min(x, tuple(-c for c in x)) for x in cls.eigen_candidates]
                assert len(got) == len(set(got)) and set(got) == oracle, case

    def test_rank_preconditions(self):
        with pytest.raises(StructureError, match="rank"):
            classify_gram(gram_residual(rs.signed_cube(3), 3))

    def test_diagonal_and_spectrum_preconditions(self):
        with pytest.raises(StructureError,
                           match=r"^classification needs diagonal entries in \{0, 1, 2\}$"):
            classify_gram(GramResidual(np.diag([3, 3, 0])))
        # rank 2 with a small diagonal, but eigenvalues 1 and 2 differ
        with pytest.raises(StructureError,
                           match=r"^matrix does not have the \{\[q\]\^2, 0, \.\.\.\} spectrum$"):
            classify_gram(GramResidual(np.diag([1, 2, 0])))

    def test_eight_class_residual_fits_no_case(self):
        # M = C R has rank 2, M^2 = 4M, trace 8 and unit diagonal, but it is
        # not symmetric and its rows fall into 8 classes: no signed order
        # may be listed for it (8! * 2^7 of them)
        c = np.array([(1, -2), (1, -1), (1, 1), (1, 2),
                      (-3, 1), (-2, 1), (2, 1), (3, 1)])
        r = np.repeat(np.eye(2, dtype=int), 4, axis=1)
        gr = GramResidual(c @ r)
        assert (gr.rank, gr.eigenvalue, gr.d1, gr.case_label) == (2, 4, 8, None)
        cls = classify_gram(gr)
        assert cls.case is None and cls.witness is None
        assert "no signed order" in cls.diagnostic

    def test_pair_step_matches_once(self, monkeypatch):
        import rectaspec.extension as extension

        calls = []
        real = extension._match_shape

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(extension, "_match_shape", counting)
        out = extend_zero_pair(rs.delete_vertices(rs.signed_cube(4), {0, 3}))
        assert out.n == 15 and len(calls) == 1


# sha256 of the int64 bytes of canonical_gram_form(case, lam, d0, d1, d2, n)
CANONICAL_FORM_DIGESTS = {
    ("a", 2, 2, 4, 0, 6):
        "69f2e7f16eb51ebfbfb65f4ccacbd61b078e29fe2bb4031c03cf3e960a3fc4a8",
    ("a", 3, 0, 6, 0, 6):
        "de1086f22ee7a062f9a6b7f52199d4cfb3a5a6d935d47eb9798554838d183ec5",
    ("a", 4, 1, 8, 0, 11):
        "0a6e28e34e737f93787929f882975faa638171c660929dec441960e061098221",
    ("b", 2, 1, 2, 1, 4):
        "26517be343c2aab9b637b3bdcd507bd4f1748f8066566ec5cea1c083b873c4db",
    ("b", 4, 2, 4, 2, 8):
        "c420a343fcf12df235d083c4c1847fae9ca75594fe0e6d8bc785a6d6fa76385f",
    ("c", 2, 1, 0, 2, 3):
        "4652fc3fda22c08463e396870776acd88b4813a92b007e0bcf0800e25bac5944",
    ("c", 6, 2, 0, 6, 9):
        "e86b0a08f82920276a28b185815fa703a5b59f9f126083ef735090ae2371c143",
    ("d", 3, 1, 0, 3, 4):
        "7a94bf4c623992588e0ce65ce59b04d00efd9e600423025846f186827934cf6c",
    ("d", 6, 2, 0, 6, 8):
        "89d2f7fd0006d975fa952c991f6f6069df6b1a3e8c628a30eb23e7eb248b560a",
    ("e", 3, 1, 2, 2, 5):
        "2211eaaa816fefc9d8da25222c9ac4119dd9a48b179fcc0bba60ce5dcd5cee0e",
    ("e", 4, 1, 4, 2, 7):
        "826656baebc7e341fc6b30d6cd70596fa3479e684dfe55a7be48f27e5a9ad737",
    ("e", 6, 2, 4, 4, 12):
        "a96fd88ea1b7dd81fc31ba73fe67a4f5eb0b2406502bfd3a560fe03c290e8ad0",
}


@pytest.mark.parametrize("args", sorted(CANONICAL_FORM_DIGESTS))
def test_canonical_forms_are_pinned(args):
    m = canonical_gram_form(*args)
    assert m.dtype == np.int64 and m.shape == (args[-1],) * 2
    assert hashlib.sha256(m.tobytes()).hexdigest() == CANONICAL_FORM_DIGESTS[args]


@pytest.mark.parametrize("args, message", [
    (("f", 2, 0, 4, 0, 4), "unknown case 'f'"),
    (("a", 2, 2, 4, 0, 5), r"past n = 5"),
    (("d", 6, 2, 0, 6, 7), r"past n = 7"),
    (("e", 4, 1, 4, 2, 6), r"past n = 6"),
    # lam not a multiple of 3 (d), odd lam (b) and odd d1 (e) fit no form
    (("d", 4, 0, 0, 4, 4), "no form with eigenvalue 4"),
    (("b", 3, 0, 3, 1, 4), "no form with eigenvalue 3"),
    (("e", 4, 0, 3, 2, 5), "no form with eigenvalue 4"),
])
def test_canonical_form_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        canonical_gram_form(*args)


@pytest.mark.parametrize("extend, g", [
    (extend_one_vertex, rs.delete_vertices(rs.signed_cube(3), {0})),
    (extend_four_to_three, rs.delete_vertices(rs.signed_cube(3), {0, 1})),
    (extend_zero_pair, rs.delete_vertices(rs.signed_cube(4), {0, 3})),
])
@pytest.mark.parametrize("lambda_sq", [0, -4])
def test_extensions_refuse_lambda_below_one(extend, g, lambda_sq):
    with pytest.raises(ValueError, match=r"lambda_sq must be >= 1"):
        extend(g, lambda_sq=lambda_sq)


@pytest.mark.parametrize("extend, g, lambda_sq", [
    (extend_one_vertex, rs.delete_vertices(rs.signed_cube(3), {0}), 3),
    (extend_four_to_three, rs.delete_vertices(rs.signed_cube(3), {0, 1}), 3),
    (extend_zero_pair, rs.delete_vertices(rs.signed_cube(4), {0, 3}), 4),
])
def test_extensions_read_lambda_as_an_integer(extend, g, lambda_sq):
    # 4.5 used to be truncated to 4 and extended for lambda^2 = 4
    with pytest.raises(TypeError):
        extend(g, lambda_sq=lambda_sq + 0.5)
    with pytest.raises(TypeError):
        extend(g, lambda_sq=float(lambda_sq))
    assert extend(g, lambda_sq=np.int64(lambda_sq)) == extend(g, lambda_sq=lambda_sq)


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

    def test_rank_two_residual_faults(self):
        h = rs.delete_vertices(rs.catalog("R4.2"), [0, 1])
        with pytest.raises(ExtensionError, match="^residual has rank 2, expected 1$"):
            extend_one_vertex(h, lambda_sq=4)

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

    def test_degree_window_faults(self):
        h = rs.delete_vertices(rs.catalog("R4.2"), [0])
        with pytest.raises(ExtensionError, match=r"^degree condition fails: degrees \[3\] "
                                                 r"are outside \{4, \.\.\., 6\}$"):
            extend_zero_pair(h, lambda_sq=6)

    def test_wrong_nullity_rejected(self):
        h = rs.delete_vertices(rs.signed_cube(3), {0})  # d = 1, not 2
        with pytest.raises(ExtensionError):
            extend_zero_pair(h)


# sha256 over every vertex pair deleted from the signed r-cube, in
# combinations order, of the extended matrix's bytes or the refusal message
PAIR_DIGESTS = {
    (3, "four_to_three", None):
        "6b49b93cd6dc6e331b106adb40371e93dfdfc2b60244bfa87204bdfedaf885a9",
    (3, "zero_pair", None):
        "8e28cd217495afe19bd22e41452e5305d4f9003462994a82a39dc670bf09443e",
    (4, "four_to_three", None):
        "b2c62257c672cbdcda44dedcf43d1f95b81160f47884abf9367ca51d3cbe659b",
    (4, "zero_pair", None):
        "bd485f0f04057516b1f2a7462857cbd7cfd82eee5c0b36f8b7e92672a2e6a4fe",
    (3, "four_to_three", 3):
        "048d0d66361b406cc53c642fde310367c81dbc283dbc3c9f67a9035512f9c1f1",
    (3, "zero_pair", 3):
        "eae9219f317220142d829c9b6f6b0ece6e787757fddfad7e540986d9d8abc3a5",
    (4, "four_to_three", 4):
        "b243bd86d2d37d088d5e9f70622adef36d9d3bb375e815c5ed04955c6645c893",
    (4, "zero_pair", 4):
        "db092e7f80a5a363e9751f46a16ef2c34f5e6faae6119b130bf63b5bd86955d2",
}


@pytest.mark.parametrize("r, name, hint", sorted(PAIR_DIGESTS, key=str))
def test_pair_extensions_of_cube_deletions_are_pinned(r, name, hint):
    # adjacent pairs extend four-to-three, non-adjacent ones zero-pair; with
    # the lambda hint the other kind reaches the residual checks and fails
    # there
    extend = {"four_to_three": extend_four_to_three,
              "zero_pair": extend_zero_pair}[name]
    g = rs.signed_cube(r)
    digest = hashlib.sha256()
    for u, v in combinations(range(g.n), 2):
        h = rs.delete_vertices(g, {u, v})
        try:
            out = extend(h, lambda_sq=hint)
        except ExtensionError as err:
            assert bool(g.adj[u, v]) != (name == "four_to_three")
            digest.update(f"refused: {err}".encode())
            continue
        assert bool(g.adj[u, v]) == (name == "four_to_three")
        cert = rs.certify_three_sym(out)
        assert cert and cert.lambda_sq == r and cert.d == 1
        digest.update(out.adj.tobytes())
    assert digest.hexdigest() == PAIR_DIGESTS[r, name, hint]


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

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (3, 4), ()])
    def test_non_square_input_refused(self, shape):
        # a 1-D or 3-D input used to fail inside NumPy
        with pytest.raises(ValueError, match="matrix must be square"):
            classify_constant_diag_gram(2 * np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("m, message", [
        (2 * np.eye(2, dtype=int), "need order at least 3"),
        ([[2, 2, 0], [0, 2, 0], [0, 0, 2]], "matrix must be symmetric"),
        ([[2, 0, 0], [0, 1, 0], [0, 0, 2]], "diagonal must be constant"),
        ([[2, 1, 0], [1, 2, 0], [0, 0, 2]], r"off-diagonal entries must lie in \{0, \+-2\}"),
        ([[2, 4, 0], [4, 2, 0], [0, 0, 2]], r"off-diagonal entries must lie in \{0, \+-2\}"),
    ], ids=["order", "asymmetric", "diagonal", "off-diagonal-1", "off-diagonal-4"])
    def test_hypotheses_refused(self, m, message):
        with pytest.raises(StructureError, match=f"^{message}$"):
            classify_constant_diag_gram(m)

    def test_fractional_entry_rejected(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 2
        m[2:, 2:] = 2
        m[0, 1] = m[1, 0] = 2.9  # truncated to 2, this is the confirmed form
        with pytest.raises(ValueError):
            classify_constant_diag_gram(m)
        with pytest.raises(ValueError):
            GramResidual(m)

    def test_rank_one_rejected(self):
        verdict = classify_constant_diag_gram(2 * np.ones((3, 3), dtype=np.int64))
        assert not verdict.confirmed and "rank" in verdict.reason

    def test_scrambled_block_confirmed(self):
        m = np.zeros((6, 6), dtype=np.int64)
        m[:3, :3] = 2
        m[3:, 3:] = 2
        scr = GramWitness((3, 0, 4, 1, 5, 2), (1, -1, 1, 1, -1, 1)).apply(m)
        verdict = classify_constant_diag_gram(scr)
        assert verdict.confirmed and verdict.eigenvalue == 6

    def test_seeded_cross_check(self):
        rng = random.Random(11)
        for n in (4, 6, 8):
            canonical = np.zeros((n, n), dtype=np.int64)
            canonical[:n // 2, :n // 2] = 2
            canonical[n // 2:, n // 2:] = 2
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                signs = [rng.choice((-1, 1)) for _ in range(n)]
                m = GramWitness(tuple(perm), tuple(signs)).apply(canonical)
                verdict = classify_constant_diag_gram(m)
                assert verdict.confirmed and verdict.eigenvalue == n
                assert np.array_equal(verdict.witness.apply(m), canonical)
                assert m.flags.writeable  # the caller's matrix is left alone

        broken = np.zeros((6, 6), dtype=np.int64)
        broken[:3, :3] = 2
        broken[3:, 3:] = 2
        broken[0, 1] = broken[1, 0] = -2  # no eps_i eps_j pattern
        unequal = np.zeros((6, 6), dtype=np.int64)
        unequal[:2, :2] = 2
        unequal[2:, 2:] = 2
        # twice the case (d) core: rank 2 with M^2 = 6M, but diagonal 4
        diag4 = 2 * np.array([[2, 1, 1], [1, 2, -1], [1, -1, 2]])
        rank1 = 2 * np.ones((4, 4), dtype=np.int64)
        for m, reason in [
                (broken, "rank 4, not the rank-2 spectrum shape"),
                (unequal, "spectrum is not {[q]^2, [0]^(n-2)} with q > 0"),
                (diag4, "diagonal is 4; the shape is only singular enough "
                        "when it is 2"),
                (rank1, "rank 1, not the rank-2 spectrum shape")]:
            verdict = classify_constant_diag_gram(m)
            assert not verdict.confirmed and verdict.reason == reason
            assert verdict.witness is None


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
