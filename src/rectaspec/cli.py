"""Command-line interface.

Exit codes: 0 success, 1 refusal or empty search with --expect-solutions,
2 usage errors (argparse's own convention).  Results go to stdout,
diagnostics and search progress to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import constructions, extension, formats, search, spectral, weighing
from .core import SignedGraph, UnderlyingGraph, structure_report
from .spectral import strongest_certificate


def _read(path: str | None, fmt: str | None = None):
    """The one way an input file enters: the file at ``path`` (stdin when
    None) parsed as ``fmt``, or its text when ``fmt`` is None.  graph6 is a
    byte format and is read as bytes; sg1 and wm are text."""
    binary = fmt == "graph6"
    if path is None:
        data = (sys.stdin.buffer if binary else sys.stdin).read()
    else:
        with open(path, "rb" if binary else "r") as fh:
            data = fh.read()
    if fmt is None:
        return data
    # built per call: the benchmark's tracer wraps the parsers in their modules
    return {"graph6": formats.parse_graph6, "sg1": formats.parse_signed,
            "wm": weighing.parse_weighing_text}[fmt](data)


def _weighing_source(args) -> str | None:
    """Text of ``--weighing-file``, None when the option is not given."""
    return None if args.weighing_file is None else _read(args.weighing_file)


def _load_graph(args) -> SignedGraph | UnderlyingGraph:
    sources = {"catalog": args.catalog, "sg1": args.signed_file, "graph6": args.graph6_file}
    given = [(fmt, value) for fmt, value in sources.items() if value is not None]
    if len(given) != 1:
        raise SystemExit2("exactly one of --catalog/--signed-file/--graph6-file")
    [(fmt, value)] = given
    if fmt == "catalog":
        return constructions.catalog(value, weighing_source=_weighing_source(args))
    return _read(value, fmt)


def _as_signed(g) -> SignedGraph:
    return g if isinstance(g, SignedGraph) else g.all_positive()


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _describe_certificate(cert) -> str:
    if cert is None:
        return "Other (no symmetric two/three/four-eigenvalue certificate)"
    parts = [cert.kind, f"lambda^2={cert.lambda_sq}", f"m={cert.m}"]
    if cert.kind == "ThreeSym":
        parts.append(f"d={cert.d}")
    if cert.kind == "FourSym":
        parts.append(f"mu^2={cert.mu_sq}")
    return " ".join(parts)


def cmd_check(args) -> int:
    g = _as_signed(_load_graph(args))
    cert = strongest_certificate(g)
    print(_describe_certificate(cert))
    rep = structure_report(g)
    print(f"order {g.n}  regular {rep.regular}"
          + (f" degree {rep.degree}" if rep.regular else "")
          + f"  connected {rep.connected}  bipartite {rep.bipartite}")
    print(f"triangle-free {rep.triangle_free}  zero-two {rep.zero_two}"
          f"  quadrangles {rep.quadrangle_count}")
    return 0 if cert is not None else 1


def cmd_search(args) -> int:
    g = _load_graph(args)

    def progress(nodes, dim):
        print(f"progress classes {nodes} dim {dim}", file=sys.stderr)

    outcome = search.search_signatures(g, node_budget=args.budget,
                                       progress=progress,
                                       progress_every=args.progress_every)
    log = search.proof_log(outcome)
    print(log, end="", file=sys.stderr)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(log)
    for i, sol in enumerate(outcome.solutions):
        print(f"# class {i + 1}")
        print(formats.write_signed(sol), end="")
    print(f"classes {len(outcome.solutions)} nodes {outcome.nodes} "
          f"exhausted {str(outcome.exhausted).lower()}")
    if args.expect_solutions and not outcome.solutions:
        return 1
    return 0


def cmd_search_weighing(args) -> int:
    outcome = search.search_weighing(args.order, args.weight,
                                     node_budget=args.budget)
    for i, w in enumerate(outcome.matrices):
        print(f"# class {i + 1}")
        print(weighing.write_weighing_text(w), end="")
    print(f"classes {len(outcome.matrices)} nodes {outcome.nodes} "
          f"exhausted {str(outcome.exhausted).lower()}")
    if args.expect_solutions and not outcome.matrices:
        return 1
    return 0


def _parse_expression(expr: str, weighing_source):
    expr = expr.strip()
    if "(" in expr:
        if not expr.endswith(")"):
            raise SystemExit2(f"malformed expression {expr!r}")
        name, inner = expr.split("(", 1)
        inner = inner[:-1]
        arg = _parse_expression(inner, weighing_source)
        fns = {
            "ltimes-k2": constructions.ltimes_k2,
            "cartesian-k2": constructions.cartesian_k2,
            "bd": constructions.bipartite_double,
            "negate": constructions.negation,
        }
        fn = fns.get(name.strip().lower())
        if fn is None:
            raise SystemExit2(f"unknown construction {name!r} "
                              f"(known: {', '.join(sorted(fns))})")
        return fn(_as_signed(arg))
    return constructions.catalog(expr, weighing_source=weighing_source)


def _print_object(obj) -> int:
    """graph6 for an underlying graph; otherwise the certificate on stderr
    and sg1 on stdout."""
    if isinstance(obj, UnderlyingGraph):
        sys.stdout.write(formats.write_graph6(obj).decode() + "\n")
    else:
        print(f"# {_describe_certificate(strongest_certificate(obj))}",
              file=sys.stderr)
        sys.stdout.write(formats.write_signed(obj))
    return 0


def cmd_construct(args) -> int:
    return _print_object(_parse_expression(args.expression, _weighing_source(args)))


def cmd_extend(args) -> int:
    g = _as_signed(_load_graph(args))
    hint = args.lambda_sq
    cert = strongest_certificate(g)
    print(f"# input: {_describe_certificate(cert)}", file=sys.stderr)
    try:
        if cert is None:
            print("refusal: no applicable spectrum shape", file=sys.stderr)
            return 1
        if cert.kind == "TwoSym":
            print("# already a two-eigenvalue graph", file=sys.stderr)
            sys.stdout.write(formats.write_signed(g))
            return 0
        pair_step = (extension.extend_four_to_three if cert.kind == "FourSym"
                     else extension.extend_zero_pair
                     if cert.kind == "ThreeSym" and cert.d == 2 else None)
        if pair_step is not None:
            g = pair_step(g, lambda_sq=hint)
            print(f"# after pair-step: "
                  f"{_describe_certificate(strongest_certificate(g))}",
                  file=sys.stderr)
        g = extension.extend_one_vertex(g, lambda_sq=hint)
    except extension.ExtensionError as err:
        print(f"refusal: {err}", file=sys.stderr)
        return 1
    print(f"# result: {_describe_certificate(strongest_certificate(g))}",
          file=sys.stderr)
    sys.stdout.write(formats.write_signed(g))
    return 0


def _span(text: str) -> range:
    lo, colon, hi = text.partition(":")
    if not colon:
        hi = lo
    # ASCII digits only: int() also reads "١٦" as 16
    if not all(x.isascii() and x.isdigit() for x in (lo, hi)) or int(lo) > int(hi):
        raise SystemExit2(f"bad range {text!r}: need lo or lo:hi in ASCII "
                          "digits with lo <= hi")
    return range(int(lo), int(hi) + 1)


def cmd_filter(args) -> int:
    for n in _span(args.n):
        for r in _span(args.r):
            verdict = spectral.filter_sr2se(n, r, bipartite=args.bipartite)
            tag = "PASS" if verdict.passed else "FAIL " + " ".join(verdict.failures)
            print(f"n={n} r={r}{' bipartite' if args.bipartite else ''}: {tag}")
    return 0


def cmd_convert(args) -> int:
    obj = _read(args.infile, args.source_format)
    dst = args.target_format
    if dst == "graph6":
        g = obj if isinstance(obj, (SignedGraph, UnderlyingGraph)) \
            else weighing.to_bipartite_sr2se(obj)
        out = formats.write_graph6(g).decode() + "\n"
    elif dst == "sg1":
        if isinstance(obj, weighing.WeighingMatrix):
            obj = weighing.to_bipartite_sr2se(obj)
        out = formats.write_signed(_as_signed(obj))
    else:
        if not isinstance(obj, weighing.WeighingMatrix):
            obj = weighing.from_bipartite_sr2se(_as_signed(obj))
        out = weighing.write_weighing_text(obj)
    if args.outfile is None:
        sys.stdout.write(out)
    else:
        with open(args.outfile, "w") as fh:
            fh.write(out)
    return 0


def cmd_catalog(args) -> int:
    if args.id is None:
        for key in constructions.catalog_ids():
            try:
                n, r, bip = constructions.catalog_certificate(key)
                ingest = " (needs weighing file)" if constructions.ingest_required(key) else ""
                print(f"{key}: order {n} degree {r} "
                      f"{'bipartite' if bip else 'non-bipartite'}{ingest}")
            except constructions.CatalogError:
                print(key)
        return 0
    return _print_object(constructions.catalog(args.id,
                                               weighing_source=_weighing_source(args)))


def _add_graph_source(p):
    p.add_argument("--catalog", help="catalog identifier")
    p.add_argument("--signed-file", help="sg1 file")
    p.add_argument("--graph6-file", help="graph6 file")
    p.add_argument("--weighing-file",
                   help="weighing-matrix text file for ingest catalog entries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectaspec",
        description="signed rectagraphs with symmetric spectra: certificates, "
                    "searches, constructions, extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="strongest certificate and structure report")
    _add_graph_source(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="all two-eigenvalue signatures up to switching")
    _add_graph_source(p)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("--progress-every", type=int, default=1_000_000,
                   help="stream a progress line every N class masks "
                        "(0 disables)")
    p.add_argument("--log", help="write the proof log here")
    p.add_argument("--expect-solutions", action="store_true",
                   help="exit 1 when the search finds nothing")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("search-weighing",
                       help="weighing matrices with intersection numbers {0,2}")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--expect-solutions", action="store_true")
    p.set_defaults(fn=cmd_search_weighing)

    p = sub.add_parser("construct",
                       help="build catalog objects or expressions like ltimes-k2(R5.4)")
    p.add_argument("expression")
    p.add_argument("--weighing-file")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("extend", help="run the vertex-extension pipeline")
    _add_graph_source(p)
    p.add_argument("--lambda-sq", type=int, default=None,
                   help="target eigenvalue square for degenerate inputs")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("filter", help="arithmetic feasibility of (n, r) pairs")
    p.add_argument("--n", required=True, help="value or lo:hi range")
    p.add_argument("--r", required=True, help="value or lo:hi range")
    p.add_argument("--bipartite", action="store_true")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("convert", help="transcode graph6 / sg1 / wm")
    p.add_argument("--from", dest="source_format", required=True,
                   choices=["graph6", "sg1", "wm"])
    p.add_argument("--to", dest="target_format", required=True,
                   choices=["graph6", "sg1", "wm"])
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("catalog", help="list catalog entries or print one")
    p.add_argument("id", nargs="?")
    p.add_argument("--weighing-file")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse leaves the parser in reference cycles (each HelpFormatter it
    # builds refers to its own sections, which hold the parser's actions).
    # Free them while they are young: a process that calls main repeatedly
    # would otherwise pile them up in the oldest generation, which is
    # collected rarely.
    gc.collect(1)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
