import pytest

import rectaspec as rs
from rectaspec.cli import main
from rectaspec.formats import parse_signed, write_signed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_catalog(capsys):
    code, out, _ = run(capsys, "check", "--catalog", "R4.2")
    assert code == 0
    assert "TwoSym lambda^2=4 m=8" in out


def test_check_refusal_exits_one(capsys):
    import tempfile

    k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with tempfile.NamedTemporaryFile("w", suffix=".sg1", delete=False) as fh:
        fh.write(write_signed(k3.all_positive()))
        path = fh.name
    code, out, _ = run(capsys, "check", "--signed-file", path)
    assert code == 1 and "Other" in out


def test_filter_range(capsys):
    code, out, _ = run(capsys, "filter", "--n", "36", "--r", "6", "--bipartite")
    assert code == 0
    assert "FAIL sum-of-two-squares" in out


def test_search_catalog(capsys, tmp_path):
    log = tmp_path / "clebsch.log"
    code, out, err = run(capsys, "search", "--catalog", "CLEBSCH",
                         "--log", str(log))
    assert code == 0
    assert "classes 1" in out
    assert log.read_text().startswith("sigsearch v2")
    assert "\nmethod gf2 rank " in log.read_text()
    assert "exhausted true" in log.read_text()


def test_search_expect_solutions_failure(capsys, tmp_path):
    g6 = tmp_path / "fc5.g6"
    from rectaspec.formats import write_graph6

    g6.write_bytes(write_graph6(rs.folded_cube(5)))
    code, out, _ = run(capsys, "search", "--graph6-file", str(g6),
                       "--expect-solutions")
    assert code == 1 and "classes 0" in out


def test_search_weighing(capsys):
    code, out, _ = run(capsys, "search-weighing", "--order", "4", "--weight", "3")
    assert code == 0 and "classes 1" in out


def test_construct_expression(capsys):
    code, out, _ = run(capsys, "construct", "ltimes-k2(R5.4)")
    assert code == 0
    g = parse_signed(out)
    cert = rs.certify_two_sym(g)
    assert g.n == 32 and cert.lambda_sq == 6


def test_construct_underlying(capsys):
    code, out, _ = run(capsys, "construct", "Q3")
    assert code == 0 and out.strip()  # graph6 text


def test_extend_pipeline(capsys, tmp_path):
    g = rs.delete_vertices(rs.signed_cube(3), {0, 1})  # adjacent pair
    path = tmp_path / "g.sg1"
    path.write_text(write_signed(g))
    code, out, err = run(capsys, "extend", "--signed-file", str(path))
    assert code == 0
    restored = parse_signed(out)
    assert restored.n == 8 and rs.certify_two_sym(restored).lambda_sq == 3


def test_extend_refusal(capsys, tmp_path):
    path = tmp_path / "bad.sg1"
    star = rs.SignedGraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    path.write_text(write_signed(star))
    code, _, err = run(capsys, "extend", "--signed-file", str(path))
    assert code == 1 and "refusal" in err


def test_convert_roundtrip(capsys, tmp_path):
    src = tmp_path / "w.txt"
    from rectaspec.search import search_weighing
    from rectaspec.weighing import write_weighing_text

    w = search_weighing(4, 3).matrices[0]
    src.write_text(write_weighing_text(w))
    code, out, _ = run(capsys, "convert", "--from", "wm", "--to", "sg1",
                       "--in", str(src))
    assert code == 0
    g = parse_signed(out)
    assert g.n == 8 and rs.certify_two_sym(g).lambda_sq == 3


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "R5.4: order 16 degree 5 non-bipartite" in out
    assert "needs weighing file" in out


def test_catalog_entry(capsys):
    code, out, _ = run(capsys, "catalog", "R3.1")
    assert code == 0
    assert parse_signed(out) == rs.signed_cube(3)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["search", "--bogus"])
    assert err.value.code == 2


def test_unknown_catalog_id(capsys):
    code, _, err = run(capsys, "check", "--catalog", "R9.9")
    assert code == 1 and "unknown catalog id" in err
