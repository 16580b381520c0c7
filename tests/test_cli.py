import gc
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rectaspec as rs
from rectaspec.cli import build_parser, main
from rectaspec.formats import parse_signed, write_graph6, write_signed


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


def test_filter_lo_hi_range(capsys):
    code, out, _ = run(capsys, "filter", "--n", "22:24", "--r", "5:6",
                       "--bipartite")
    assert code == 0
    assert out.splitlines() == [
        "n=22 r=5 bipartite: FAIL square",
        "n=22 r=6 bipartite: FAIL quadrangle-integrality sum-of-two-squares "
        "mod-4 bound square",
        "n=23 r=5 bipartite: FAIL quadrangle-integrality bound",
        "n=23 r=6 bipartite: FAIL quadrangle-integrality bound",
        "n=24 r=5 bipartite: PASS",
        "n=24 r=6 bipartite: FAIL bound",
    ]


def test_filter_range_below_the_orders_exits_one(capsys):
    # the range parses, but filter_sr2se refuses n = 0 and n = 1
    code, out, err = run(capsys, "filter", "--n", "0:3", "--r", "2")
    assert code == 1 and out == ""
    assert err == "error: need n >= 2 and r >= 1\n"


@pytest.mark.parametrize("flag, text", [
    ("--n", "5:2"), ("--n", "\u0661\u0666"), ("--r", "5:"), ("--r", "-3")])
def test_filter_refuses_a_bad_range(capsys, flag, text):
    argv = {"--n": "16", "--r": "5", flag: text}
    with pytest.raises(SystemExit) as err:
        main(["filter", *(x for kv in argv.items() for x in kv)])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "bad range" in captured.err


@pytest.mark.parametrize("sources", [
    (), ("--catalog", "R3.1", "--graph6-file", "q3.g6")])
def test_check_needs_exactly_one_source(capsys, sources):
    with pytest.raises(SystemExit) as err:
        main(["check", *sources])
    assert err.value.code == 2
    assert "exactly one of" in capsys.readouterr().err


def test_search_catalog(capsys, tmp_path):
    log = tmp_path / "clebsch.log"
    code, out, err = run(capsys, "search", "--catalog", "CLEBSCH",
                         "--log", str(log))
    assert code == 0
    assert "classes 1" in out
    assert log.read_text().startswith("sigsearch v2")
    assert "\nmethod gf2 rank " in log.read_text()
    assert "exhausted true" in log.read_text()


def test_search_progress_lines(capsys):
    code, _, err = run(capsys, "search", "--catalog", "CLEBSCH",
                       "--progress-every", "1")
    assert code == 0
    lines = [ln for ln in err.splitlines() if ln.startswith("progress ")]
    assert lines == ["progress classes 1 dim 1", "progress classes 2 dim 1"]


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


def test_search_weighing_expect_solutions_failure(capsys):
    code, out, _ = run(capsys, "search-weighing", "--order", "13", "--weight",
                       "4", "--expect-solutions")
    assert code == 1 and out.endswith("classes 0 nodes 66 exhausted true\n")


@pytest.mark.parametrize("order, weight", [(12, 5), (13, 4), (8, 4), (16, 6)])
@pytest.mark.parametrize("budget", [1, 10, 100])
def test_search_weighing_budget(capsys, order, weight, budget):
    from rectaspec.search import search_weighing

    total = search_weighing(order, weight).nodes
    code, out, _ = run(capsys, "search-weighing", "--order", str(order),
                       "--weight", str(weight), "--budget", str(budget))
    assert code == 0
    exhausted = "true" if total <= budget else "false"
    assert out.splitlines()[-1].endswith(
        f"nodes {min(budget, total)} exhausted {exhausted}")


@pytest.mark.parametrize("argv", [
    ("search", "--catalog", "Q3", "--budget", "-1"),
    ("search", "--catalog", "Q3", "--progress-every", "-1"),
    ("search-weighing", "--order", "12", "--weight", "5", "--budget", "-3"),
])
def test_negative_counts_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "must not be negative" in err


def test_construct_expression(capsys):
    code, out, _ = run(capsys, "construct", "ltimes-k2(R5.4)")
    assert code == 0
    g = parse_signed(out)
    cert = rs.certify_two_sym(g)
    assert g.n == 32 and cert.lambda_sq == 6


def test_construct_underlying(capsys):
    code, out, _ = run(capsys, "construct", "Q3")
    assert code == 0 and out.strip()  # graph6 text


@pytest.mark.parametrize("expression, message", [
    ("ltimes-k2(R5.4", "malformed expression"),
    ("frob(Q3)", "unknown construction 'frob'"),
])
def test_construct_usage_errors(capsys, expression, message):
    with pytest.raises(SystemExit) as err:
        main(["construct", expression])
    assert err.value.code == 2 and message in capsys.readouterr().err


def test_extend_echoes_a_two_eigenvalue_input(capsys):
    code, out, err = run(capsys, "extend", "--catalog", "R3.1")
    assert code == 0 and "already a two-eigenvalue graph" in err
    assert out == write_signed(rs.catalog("R3.1"))


def test_extend_refuses_an_input_without_certificate(capsys, tmp_path):
    path = tmp_path / "k3.sg1"
    k3 = rs.UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path.write_text(write_signed(k3.all_positive()))
    code, out, err = run(capsys, "extend", "--signed-file", str(path))
    assert code == 1 and out == ""
    assert "refusal: no applicable spectrum shape" in err


def test_extend_pipeline(capsys, tmp_path):
    g = rs.delete_vertices(rs.signed_cube(3), {0, 1})  # adjacent pair
    path = tmp_path / "g.sg1"
    path.write_text(write_signed(g))
    code, out, err = run(capsys, "extend", "--signed-file", str(path))
    assert code == 0
    restored = parse_signed(out)
    assert restored.n == 8 and rs.certify_two_sym(restored).lambda_sq == 3


def test_extend_zero_pair_pipeline(capsys, tmp_path):
    g = rs.delete_vertices(rs.signed_cube(4), {0, 3})  # non-adjacent pair
    path = tmp_path / "g.sg1"
    path.write_text(write_signed(g))
    code, out, err = run(capsys, "extend", "--signed-file", str(path))
    assert code == 0
    assert "# input: ThreeSym lambda^2=4 m=6 d=2" in err
    assert "# after pair-step: ThreeSym lambda^2=4 m=7 d=1" in err
    assert "# result: TwoSym lambda^2=4 m=8" in err
    restored = parse_signed(out)
    assert restored.n == 16 and rs.certify_two_sym(restored).lambda_sq == 4


def test_extend_refuses_lambda_below_one(capsys, tmp_path):
    path = tmp_path / "g.sg1"
    path.write_text(write_signed(rs.delete_vertices(rs.catalog("R3.1"), {0})))
    code, out, err = run(capsys, "extend", "--signed-file", str(path),
                         "--lambda-sq", "0")
    assert code == 1 and out == ""
    assert "error: lambda_sq must be >= 1" in err
    assert "degree condition" not in err


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


def test_convert_from_sg1_to_graph6_and_wm(capsys, tmp_path):
    from rectaspec.formats import parse_graph6
    from rectaspec.weighing import parse_weighing_text

    g = rs.catalog("R3.1")
    src = tmp_path / "g.sg1"
    src.write_text(write_signed(g))
    code, out, _ = run(capsys, "convert", "--from", "sg1", "--to", "graph6",
                       "--in", str(src))
    assert code == 0 and parse_graph6(out) == rs.hypercube(3)
    dst = tmp_path / "w.txt"
    code, out, _ = run(capsys, "convert", "--from", "sg1", "--to", "wm",
                       "--in", str(src), "--out", str(dst))
    assert code == 0 and out == ""
    w = parse_weighing_text(dst.read_text())
    assert (w.n, w.r) == (4, 3)


def test_convert_from_wm_to_graph6(capsys, tmp_path):
    from rectaspec.formats import parse_graph6
    from rectaspec.weighing import from_bipartite_sr2se, write_weighing_text

    w = from_bipartite_sr2se(rs.signed_cube(3))
    src = tmp_path / "w.txt"
    src.write_text(write_weighing_text(w))
    code, out, _ = run(capsys, "convert", "--from", "wm", "--to", "graph6",
                       "--in", str(src))
    assert code == 0 and parse_graph6(out) == rs.underlying(rs.to_bipartite_sr2se(w))


def test_convert_closes_its_input(capsys, tmp_path):
    src = tmp_path / "q3.g6"
    src.write_bytes(write_graph6(rs.hypercube(3)) + b"\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "convert", "--from", "graph6", "--to", "sg1",
                           "--in", str(src))
        gc.collect()
    assert code == 0 and parse_signed(out).n == 8
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "R5.4: order 16 degree 5 non-bipartite" in out
    assert "R5.3: order 32 degree 5 bipartite\n" in out
    marked = {line.split(":")[0] for line in out.splitlines()
              if line.endswith(" (needs weighing file)")}
    assert marked == {"R5.1", "R5.2", "R6.1", "R6.2", "R6.3", "R6.4", "R6.5",
                      "R7.1", "R7.2", "R7.3", "R7.4", "R7.5"}


def test_catalog_entry(capsys):
    code, out, _ = run(capsys, "catalog", "R3.1")
    assert code == 0
    assert parse_signed(out) == rs.signed_cube(3)


def test_catalog_certificate_failure_is_an_error(capsys, monkeypatch):
    from rectaspec import constructions
    from rectaspec.core import underlying

    cube = constructions.signed_cube
    monkeypatch.setattr(constructions, "signed_cube",
                        lambda r: underlying(cube(r)).all_positive())
    code, out, err = run(capsys, "catalog", "R3.1")
    assert code == 1 and out == ""
    assert err.startswith("error: R3.1: certificate mismatch")

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["search", "--bogus"])
    assert err.value.code == 2


def test_unknown_catalog_id(capsys):
    code, _, err = run(capsys, "check", "--catalog", "R9.9")
    assert code == 1 and err == "error: unknown catalog id 'R9.9'\n"


def test_empty_catalog_id_is_unknown(capsys):
    # an empty option is still given: it reaches the catalog, not open(None)
    code, _, err = run(capsys, "check", "--catalog", "")
    assert code == 1 and err == "error: unknown catalog id ''\n"


def test_empty_file_name_is_an_error(capsys):
    code, out, err = run(capsys, "check", "--signed-file", "")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_graph6_input_is_read_as_bytes(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff")
    want = (1, "", "error: byte 255 outside printable range 63..126\n")
    assert run(capsys, "check", "--graph6-file", str(path)) == want
    assert run(capsys, "convert", "--from", "graph6", "--to", "sg1",
               "--in", str(path)) == want


def _relabelled_search_inputs():
    from rectaspec.constructions import cartesian_k2
    from rectaspec.core import underlying

    gewirtz = rs.gewirtz_graph()
    return {
        "FC5": rs.folded_cube(5),
        "Gewirtz": gewirtz,
        "GewirtzxK2": underlying(cartesian_k2(gewirtz.all_positive())),
        "Clebsch": rs.clebsch_graph(),
        "Q5": rs.hypercube(5),
    }


def _digest(out: str, err: str) -> str:
    import hashlib

    return hashlib.sha256((out + err).encode()).hexdigest()


# sha256 of stdout + stderr (the proof log included) of `rectaspec search` on
# seeded relabellings; the refutation quadrangles, their order and the graph
# digest are all part of what is pinned.
SEARCH_DIGESTS = {
    ("FC5", 1):
        "8fae68d52e94e485cb6b8f46af48305a3cb133879a776fff7305b8090f7014c0",
    ("FC5", 2):
        "4fc890ff27b2be984887492da94cdf0b803f70da8dd57381a6f7b78a18ce52ee",
    ("Gewirtz", 1):
        "45ff2786dac8b0d152136aada7322f3f7cd1ff830c34524cc462cdaf7e3831c7",
    ("Gewirtz", 2):
        "464dfa211ed62792c02603b08c457abef6ef6e4a2373b18e940efbb579c63f58",
    ("GewirtzxK2", 1):
        "b47c260f11b8eddbddf6572b969de1b7656dd763de672758ea5fa36e7d503d40",
    ("GewirtzxK2", 2):
        "7d6de626d907114db1e30cf06e11b9625ed6eb0e3b9e48c1820bd4f9c3f4e372",
    ("Clebsch", 1):
        "223c62961099269e6db8c0b83465ea8aeb2d5157570e1b18ac06a963556ebb70",
    ("Clebsch", 2):
        "5d167e29ef53e2442523ec42ca2e9df6ab438b78721aef6ae24df44ba4739d20",
    ("Q5", 1):
        "a5dc6c28cbf73b82e5daed9adbacdddce15311fda697eff5ed2bd9014610e6fb",
    ("Q5", 2):
        "7a4afb38aa8404d3978388f3dc4f68d457b76e0f5b8f2a89f714294ad35c0826",
}


@pytest.mark.parametrize("name, seed", sorted(SEARCH_DIGESTS))
def test_search_output_digest(capsys, tmp_path, name, seed):
    import numpy as np

    from rectaspec.formats import write_graph6

    g = _relabelled_search_inputs()[name]
    perm = np.random.default_rng(seed).permutation(g.n)
    path = tmp_path / "g.g6"
    path.write_bytes(write_graph6(rs.UnderlyingGraph(g.adj[np.ix_(perm, perm)])))
    code, out, err = run(capsys, "search", "--graph6-file", str(path))
    assert code == 0
    assert _digest(out, err) == SEARCH_DIGESTS[name, seed]


# sha256 of stdout + stderr of `rectaspec check --signed-file` on seeded
# signed relabellings of catalog graphs, the copies of seed 2 with one edge
# negated: the command shape of the benchmark's screen workload.
CHECK_DIGESTS = {
    ("R4.1", 1, False):
        "73ad8d7c77252c937e7ff9a3af9a5a629f0af8fc104ccf2129a94d8e78908c74",
    ("R4.1", 2, True):
        "5bdb941ed8b9b32fb488d11aaeb841998ceeba6ed53f537faa7f2fed9dd90c85",
    ("R6.7", 1, False):
        "459cf3915984a5a21a7084e7076ce6b5606cff1cc466bc0a7941480f7d48cd76",
    ("R6.7", 2, True):
        "60fe7aadf9462875d60c450fde3487ec0deaf82d0eaac5e3bf23269cc222fd78",
    ("R7.7", 1, False):
        "3b31eb14ad95aa813ab8d9d253d8b86812f20baa30bbefb1c80ee55f6e083e79",
    ("R7.7", 2, True):
        "794495578bcc1f5adf5f65d14fe406945bb63e1516e59427c225749ca5b0f0a9",
}


@pytest.mark.parametrize("name, seed, flipped", sorted(CHECK_DIGESTS))
def test_check_output_digest(capsys, tmp_path, name, seed, flipped):
    import numpy as np

    g = rs.catalog(name)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    signs = rng.choice((-1, 1), g.n)
    adj = g.adj[np.ix_(perm, perm)] * np.outer(signs, signs)
    if flipped:
        us, vs = np.nonzero(np.triu(adj))
        k = rng.integers(len(us))
        adj[us[k], vs[k]] = adj[vs[k], us[k]] = -adj[us[k], vs[k]]
    path = tmp_path / "g.sg1"
    path.write_text(write_signed(rs.SignedGraph(adj)))
    code, out, err = run(capsys, "check", "--signed-file", str(path))
    assert code == int(flipped)
    assert _digest(out, err) == CHECK_DIGESTS[name, seed, flipped]


# sha256 of stdout + stderr of `rectaspec search-weighing`: the weighing
# searches of the benchmark's search workloads.
SEARCH_WEIGHING_DIGESTS = {
    (12, 5): "c0917180b36af9a18dae91832576f5e35591a36fadbe8cff43ae108504f229d1",
    (13, 4): "548c67819ae71a22c902e599bb0a57c392ae5d4170e04e4429732b1d880d55fb",
    (16, 6): "baba4824e52d72804607d40a6b946b3b967adf156d4b6db605d2b6a399c482a1",
}


@pytest.mark.parametrize("order, weight", sorted(SEARCH_WEIGHING_DIGESTS))
def test_search_weighing_output_digest(capsys, order, weight):
    code, out, err = run(capsys, "search-weighing", "--order", str(order),
                         "--weight", str(weight))
    assert code == 0
    assert _digest(out, err) == SEARCH_WEIGHING_DIGESTS[order, weight]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("rectaspec ")]
    assert len(lines) >= 5
    for ln in lines:
        argv = shlex.split(ln, comments=True)[1:]
        args = build_parser().parse_args(argv)
        assert callable(args.fn), ln


def test_import_does_not_load_networkx():
    # only switching isomorphism and WL hashing use networkx; a CLI call
    # that needs neither must not pay for importing it
    src = os.path.dirname(os.path.dirname(rs.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, rectaspec.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
