"""Show that every oracle accepts a right answer and rejects planted wrong ones.

    python3 perfbench/run.py --self-test

Also reproduces the kernel defect the oracles must surface: with a shuffled
free-edge order (``order_seed=0``) on the folded 5-cube, the DFS kernel
returns masks that are not solutions.  ``search_signatures`` then stops on
an ``assert``; under ``python -O`` the same masks are dropped silently.
Exits 1 if any oracle accepts a planted wrong answer or rejects a right one.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import inputs
import oracles
import rectaspec.cli as cli
from rectaspec import constructions
from rectaspec.core import SignedGraph
from rectaspec.search import build_signature_problem, kernel_arguments, search_signatures
from rectaspec.switching import switching_isomorphic
from rectaspec.weighing import WeighingMatrix, equivalent

FAILURES: list[str] = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def replace_class(stdout: str, new_blocks: list[str]) -> str:
    summary = stdout.strip().splitlines()[-1].split()
    summary[1] = str(len(new_blocks))
    body = "".join(f"# class {i}\n{b}" for i, b in enumerate(new_blocks, 1))
    return body + " ".join(summary) + "\n"


def signature_search_oracle(tmp: str) -> None:
    rng = random.Random(0)
    q4 = inputs.relabel(np.asarray(constructions.hypercube(4).adj, dtype=np.int64),
                        inputs.random_perm(16, rng))
    path = f"{tmp}/q4.g6"
    with open(path, "w") as fh:
        fh.write(oracles.write_graph6(q4).decode() + "\n")
    code, out, err = run_cli(["search", "--graph6-file", path])
    check = lambda o, expected=1, c=0, e=err: oracles.check_signature_search(
        q4, c, o, e, expected)
    expect("search Q4: genuine answer", check(out), rejected=False)

    blocks, _ = oracles.split_classes(out)
    sol = oracles.parse_sg1(blocks[0])
    bad = inputs.flip_edge(sol, rng)
    expect("search Q4: non-solution class",
           check(replace_class(out, [oracles.write_sg1(bad)])), rejected=True)
    expect("search Q4: wrong class count (2 > GF(2) bound 1)",
           check(replace_class(out, [oracles.write_sg1(sol)] * 2), expected=None),
           rejected=True)
    expect("search Q4: false nonexistence",
           check(replace_class(out, []), expected=None), rejected=True)
    other = inputs.relabel(sol, inputs.random_perm(16, rng))
    expect("search Q4: class on another labelling of the graph",
           check(replace_class(out, [oracles.write_sg1(other)]), expected=None),
           rejected=True)
    expect("search Q4: exhausted false",
           check(out.replace("exhausted true", "exhausted false")), rejected=True)
    expect("search Q4: exit code 1", check(out, c=1), rejected=True)

    fc5 = np.asarray(constructions.folded_cube(5).adj, dtype=np.int64)
    fake = replace_class("classes 0 nodes 1 exhausted true\n", [oracles.write_sg1(fc5)])
    expect("search FC5: claimed class (GF(2) system inconsistent)",
           oracles.check_signature_search(fc5, 0, fake, "labelling "
                                          + ",".join(map(str, range(32))), None),
           rejected=True)


def weighing_search_oracle() -> None:
    code, out, _ = run_cli(["search-weighing", "--order", "8", "--weight", "4"])
    expect("search-weighing (8,4): genuine answer",
           oracles.check_weighing_search(8, 4, code, out, 1), rejected=False)
    blocks, _ = oracles.split_classes(out)
    w = oracles.parse_wm(blocks[0])
    h4h4 = np.zeros((8, 8), dtype=np.int64)
    h4h4[:4, :4] = h4h4[4:, 4:] = inputs.H4
    text = lambda m: "8 4\n" + "".join(
        "".join("+-0"[{1: 0, -1: 1, 0: 2}[int(x)]] for x in row) + "\n" for row in m)
    expect("search-weighing (8,4): H4+H4 as a class (intersections {0,4})",
           oracles.check_weighing_search(8, 4, 0, replace_class(out, [text(h4h4)]), None),
           rejected=True)
    bad = w.copy()
    bad[0, np.flatnonzero(bad[0])[0]] *= -1
    expect("search-weighing (8,4): non-weighing class",
           oracles.check_weighing_search(8, 4, 0, replace_class(out, [text(bad)]), None),
           rejected=True)
    expect("search-weighing (8,4): wrong class count",
           oracles.check_weighing_search(8, 4, code, out, 2), rejected=True)


def decide_oracles() -> None:
    rng = random.Random(0)
    g = np.asarray(constructions.catalog("R4.2").adj, dtype=np.int64)
    h = inputs.signed_permutation(g, rng)
    ok, wit = switching_isomorphic(SignedGraph(g.astype(np.int8)),
                                   SignedGraph(h.astype(np.int8)))
    perm, sw = list(wit.perm), sorted(wit.switch_set)
    expect("decide graph: genuine 'yes'",
           oracles.check_switching_answer(g, h, True, ok, perm, sw), rejected=False)
    expect("decide graph: false 'no' on a yes pair",
           oracles.check_switching_answer(g, h, True, False, None, ()), rejected=True)
    expect("decide graph: 'no' between switching-equivalent graphs",
           oracles.check_switching_answer(g, h, False, False, None, ()), rejected=True)
    expect("decide graph: 'yes' with a wrong witness",
           oracles.check_switching_answer(g, h, True, True, perm[1:] + perm[:1], sw),
           rejected=True)
    flipped = inputs.flip_edge(h, rng)
    expect("decide graph: genuine 'no' on a flipped edge",
           oracles.check_switching_answer(g, flipped, False, False, None, ()),
           rejected=False)

    w = inputs.weighing_classes(8, 4)[0]
    p, q = inputs.signed_perm_matrix(8, rng), inputs.signed_perm_matrix(8, rng)
    m = p @ w @ q
    ok, wit = equivalent(WeighingMatrix(m.astype(np.int8)), WeighingMatrix(w.astype(np.int8)))
    witness = (wit.p_perm, wit.p_signs, wit.q_perm, wit.q_signs)
    expect("decide weighing: genuine 'yes'",
           oracles.check_weighing_answer(m, w, True, ok, witness), rejected=False)
    expect("decide weighing: false 'no' on a yes pair",
           oracles.check_weighing_answer(m, w, True, False, None), rejected=True)
    expect("decide weighing: 'no' between equivalent matrices",
           oracles.check_weighing_answer(m, w, False, False, None), rejected=True)
    bad = (witness[0], tuple(-s for s in witness[1][:1]) + witness[1][1:]) + witness[2:]
    expect("decide weighing: 'yes' with a wrong witness",
           oracles.check_weighing_answer(m, w, True, True, bad), rejected=True)


def screen_oracle(tmp: str) -> None:
    rng = random.Random(0)
    g = inputs.signed_permutation(
        np.asarray(constructions.catalog("R4.1").adj, dtype=np.int64), rng)
    flipped = inputs.flip_edge(g, rng)
    for label, adj in (("R4.1", g), ("R4.1 with a flipped edge", flipped)):
        path = f"{tmp}/screen.sg1"
        with open(path, "w") as fh:
            fh.write(oracles.write_sg1(adj))
        code, out, _ = run_cli(["check", "--signed-file", path])
        expect(f"screen {label}: genuine answer", oracles.check_screen(adj, code, out),
               rejected=False)
    expect("screen: TwoSym claimed for a flipped edge",
           oracles.check_screen(flipped, 0, "TwoSym lambda^2=4 m=7\n"
                                + "\n".join(oracles.structure_lines(flipped)) + "\n"),
           rejected=True)
    lines = oracles.structure_lines(g)
    wrong = lines[1].rsplit(" ", 1)[0] + " 0"
    expect("screen: wrong quadrangle count",
           oracles.check_screen(g, 0, f"TwoSym lambda^2=4 m=7\n{lines[0]}\n{wrong}\n"),
           rejected=True)
    expect("screen: exit code 0 without a certificate",
           oracles.check_screen(flipped, 0, "Other (none)\n" + "\n".join(
               oracles.structure_lines(flipped)) + "\n"), rejected=True)


def full_signature(problem, mask: int) -> np.ndarray:
    signs = np.array(problem.prefix_signs, dtype=np.int64)
    for i, (v, w) in enumerate(problem.free_edges):
        signs[v, w] = signs[w, v] = -1 if mask >> i & 1 else 1
    return np.asarray(problem.graph.adj, dtype=np.int64) * signs


def kernel_mask_oracle() -> None:
    from rectaspec._kernel import run_search

    problem = build_signature_problem(constructions.hypercube(4))
    masks = run_search(*kernel_arguments(problem))[0]
    bad = [m for m in masks if not oracles.squares_to_identity(full_signature(problem, m), 4)]
    expect(f"kernel Q4: {len(masks)} genuine masks", [f"{len(bad)} non-solutions"] if bad
           else [], rejected=False)
    expect("kernel Q4: planted non-solution mask",
           [] if oracles.squares_to_identity(full_signature(problem, masks[0] ^ 1), 4)
           else ["A^2 != 4I"], rejected=True)


def known_defect() -> None:
    """FC5 with order_seed=0: count the kernel's non-solution masks."""
    from rectaspec._kernel import run_search

    problem = build_signature_problem(constructions.folded_cube(5))
    order = list(range(len(problem.free_edges)))
    random.Random(0).shuffle(order)
    masks, nodes, _, exhausted = run_search(*kernel_arguments(problem, order=order))
    bad = sum(not oracles.squares_to_identity(full_signature(problem, m), 5) for m in masks)
    print(f"defect FC5 order_seed=0: kernel returned {len(masks)} masks in {nodes} nodes,"
          f" {bad} fail A^2 = 5I (the GF(2) system is inconsistent, so none can pass)")
    try:
        out = search_signatures(constructions.folded_cube(5), order_seed=0)
        print(f"defect FC5 order_seed=0: search_signatures returned "
              f"{len(out.solutions)} classes, exhausted {out.exhausted}")
    except AssertionError as err:
        print(f"defect FC5 order_seed=0: search_signatures raised AssertionError: {err}")
    script = ("from rectaspec import constructions, search_signatures\n"
              "out = search_signatures(constructions.folded_cube(5), order_seed=0)\n"
              "print(len(out.solutions), out.raw_count, out.exhausted)\n")
    done = subprocess.run([sys.executable, "-O", "-W", "ignore", "-c", script],
                          capture_output=True, text=True, timeout=120)
    print(f"defect FC5 order_seed=0 under python -O: classes raw exhausted = "
          f"{done.stdout.strip() or done.stderr.strip().splitlines()[-1]}"
          " (the non-solutions were dropped without a word)")


def main() -> int:
    warnings.simplefilter("ignore", UserWarning)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="selftest-") as tmp:
        signature_search_oracle(tmp)
        screen_oracle(tmp)
    weighing_search_oracle()
    decide_oracles()
    kernel_mask_oracle()
    known_defect()
    if FAILURES:
        print(f"self-test FAILED: {len(FAILURES)} oracle checks misjudged")
        return 1
    print("self-test passed: every planted wrong answer was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
