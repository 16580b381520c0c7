import random

import numpy as np
import pytest

import rectaspec as rs
from rectaspec.formats import (Graph6ByteError, Graph6LengthError,
                               Graph6PaddingError, SignedFormatError,
                               parse_graph6, parse_signed, write_graph6,
                               write_signed)


class TestGraph6:
    def test_k2(self):
        g = parse_graph6(b"A_")
        assert g.n == 2 and g.adj[0, 1] == 1

    def test_q4_roundtrip(self):
        q4 = rs.hypercube(4)
        data = write_graph6(q4)
        back = parse_graph6(data)
        assert back == q4
        rep = rs.structure_report(back)
        assert rep.degree == 4 and rep.zero_two

    def test_random_roundtrips(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 40)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            g = rs.UnderlyingGraph.from_edges(n, edges)
            assert parse_graph6(write_graph6(g)) == g

    def test_long_form_roundtrip(self):
        n = 70  # needs the 126-prefixed 3-byte size field
        g = rs.UnderlyingGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        data = write_graph6(g)
        assert data[0] == 126
        assert parse_graph6(data) == g

    def test_truncated(self):
        full = write_graph6(rs.hypercube(3))
        with pytest.raises(Graph6LengthError):
            parse_graph6(full[:-1])

    @pytest.mark.parametrize("data, message", [
        (b"~??", "truncated 3-byte size field"),
        (b"~~????", "truncated 6-byte size field"),
        (b"~??DA_", "long size field used for a small order"),  # order 5
        (b"~~?????DA_", "very long size field used for a small order"),
    ])
    def test_size_field_errors(self, data, message):
        with pytest.raises(Graph6LengthError, match=message):
            parse_graph6(data)

    def test_trailing_bits(self):
        # K2 with a nonzero padding bit: 'A' + byte with low bits set
        with pytest.raises(Graph6PaddingError):
            parse_graph6(bytes([ord("A"), 63 + 0b111111]))

    def test_unprintable_byte(self):
        with pytest.raises(Graph6ByteError):
            parse_graph6(bytes([30, 95]))

    def test_text_input(self):
        g = rs.hypercube(3)
        assert parse_graph6(write_graph6(g).decode() + "\n") == g
        # "é" must not become "?", a data byte of six zero bits
        for text in ("Bé", "B\u00a0", "G\u2028"):
            with pytest.raises(Graph6ByteError, match="non-ASCII"):
                parse_graph6(text)

    def test_header_prefix_accepted(self):
        g = parse_graph6(b">>graph6<<A_")
        assert g.n == 2

    def test_order_zero_is_a_length_error(self):
        # "?" is valid graph6 for order 0, but no graph here has zero vertices
        with pytest.raises(Graph6LengthError):
            parse_graph6(b"?")

    def test_matches_networkx_byte_for_byte(self):
        import networkx as nx

        rng = np.random.default_rng(130)
        # orders past 62 take the long size field
        for n in range(1, 131):
            upper = np.triu(rng.random((n, n)) < rng.random(), 1)
            adj = (upper | upper.T).astype(np.int8)
            g = rs.UnderlyingGraph(adj)
            theirs = nx.to_graph6_bytes(nx.from_numpy_array(adj), header=False)
            assert write_graph6(g) + b"\n" == theirs
            back = nx.from_graph6_bytes(write_graph6(g))
            assert np.array_equal(nx.to_numpy_array(back, nodelist=range(n)), adj)
            assert parse_graph6(theirs) == g

    def test_signed_graph_writes_underlying(self):
        assert parse_graph6(write_graph6(rs.signed_cube(3))) == rs.hypercube(3)


class TestSignedFormat:
    def test_simple(self):
        g = parse_signed("sg1 2\n0 1 +\n")
        assert g.n == 2 and g.adj[0, 1] == 1

    def test_roundtrip_cube(self):
        g = rs.signed_cube(4)
        assert parse_signed(write_signed(g)) == g
        # canonical output is byte-identical under a second round trip
        assert write_signed(parse_signed(write_signed(g))) == write_signed(g)

    def test_duplicate_edge(self):
        with pytest.raises(SignedFormatError, match="duplicate"):
            parse_signed("sg1 2\n0 1 +\n0 1 -\n")

    def test_duplicate_edge_in_reverse_order(self):
        with pytest.raises(SignedFormatError, match=r"^duplicate edge \(1, 0\)$"):
            parse_signed("sg1 2\n0 1 +\n1 0 -\n")

    @pytest.mark.parametrize("text, message", [
        ("sg1 3\n0 1 +\n0 1 -\n0 5 +\n", "duplicate edge"),
        ("sg1 3\n0 1 +\n0 5 +\n0 1 -\n", "vertex out of range"),
        ("sg1 3\n0 x +\n0 1 y\n", "bad vertex index"),
        ("sg1 3\n0 1 y\n0 x +\n", "edge line"),
    ], ids=["duplicate-then-range", "range-then-duplicate", "index-then-sign",
            "sign-then-index"])
    def test_first_bad_line_is_reported(self, text, message):
        with pytest.raises(SignedFormatError, match=message):
            parse_signed(text)

    def test_no_vertices(self):
        with pytest.raises(SignedFormatError, match="^vertex count must be positive$"):
            parse_signed("sg1 0\n")

    def test_no_edges(self):
        g = parse_signed("sg1 3\n")
        assert g.n == 3 and not np.any(g.adj)

    def test_out_of_range(self):
        with pytest.raises(SignedFormatError, match="range"):
            parse_signed("sg1 2\n0 2 +\n")

    def test_bad_sign_token(self):
        with pytest.raises(SignedFormatError, match="edge line"):
            parse_signed("sg1 2\n0 1 x\n")

    def test_bad_header(self):
        with pytest.raises(SignedFormatError, match="header"):
            parse_signed("graph 2\n")
        # a digit to str.isdigit but not to int
        with pytest.raises(SignedFormatError, match="header"):
            parse_signed("sg1 \u00b2\n")

    @pytest.mark.parametrize("index", ["\u0661", "1_0", "+1"],
                             ids=["arabic-indic-digit", "underscore", "plus-sign"])
    def test_vertex_index_ascii_digits_only(self, index):
        # each is a vertex index to int() but not to the format
        with pytest.raises(SignedFormatError, match="bad vertex index"):
            parse_signed(f"sg1 11\n{index} 0 +\n")

    def test_fuzzed_inputs_only_raise_format_errors(self):
        rng = random.Random(77)
        alphabet = "sg1 023+-\nx"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                parse_signed(text)
            except SignedFormatError:
                pass

    def test_fuzzed_graph6_only_raises_format_errors(self):
        from rectaspec.formats import Graph6Error

        rng = random.Random(78)
        for _ in range(300):
            blob = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 12)))
            try:
                parse_graph6(blob)
            except Graph6Error:
                pass
