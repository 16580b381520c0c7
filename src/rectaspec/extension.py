"""Vertex deletion and extension for signed graphs with symmetric spectra.

Deleting vertices from a graph with A^2 = t*I leaves a residual matrix
M = t*I - A^2 of rank 1 (one deletion) or rank 2 (two deletions) whose
diagonal records the degree deficiencies.  The extension operations factor
that residual into {0, +-1} vectors and border the adjacency matrix with
one of them; which factorisations exist is governed by the rank-2
classification in ``classify_gram`` (cases (a)-(e) below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignedGraph, StructureError, structure_report
from .exactlinalg import exact_matmul, rank
from .spectral import (certify_four_sym, certify_three_sym, certify_two_sym)

CASE_NAMES = ("a", "b", "c", "d", "e")


class ExtensionError(StructureError):
    """Extension preconditions failed or no admissible vector exists."""


@dataclass(frozen=True)
class GramWitness:
    """Signed relabelling: apply() sends entry (i, j) to
    (perm[i], perm[j]) with sign signs[i]*signs[j]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, m: np.ndarray) -> np.ndarray:
        n = m.shape[0]
        out = np.zeros_like(m)
        for i in range(n):
            for j in range(n):
                out[self.perm[i], self.perm[j]] = self.signs[i] * self.signs[j] * m[i, j]
        return out

    def pull_back(self, vec: np.ndarray) -> np.ndarray:
        """Canonical-coordinate vector -> original coordinates."""
        n = len(self.perm)
        out = np.zeros(n, dtype=np.int64)
        for i in range(n):
            out[i] = self.signs[i] * vec[self.perm[i]]
        return out


@dataclass(frozen=True)
class ExtensionVector:
    """{0, +-1} eigenvector of a residual matrix, used to border A."""

    entries: tuple[int, ...]
    norm_sq: int

    @staticmethod
    def from_entries(entries) -> "ExtensionVector":
        entries = tuple(int(x) for x in entries)
        if any(abs(x) > 1 for x in entries):
            raise ValueError("extension vector entries must lie in {-1, 0, +1}")
        return ExtensionVector(entries=entries,
                               norm_sq=sum(x * x for x in entries))

    def array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class GramResidual:
    matrix: np.ndarray  # int64, read-only
    lambda_sq: int
    d0: int | None
    d1: int | None
    d2: int | None
    rank: int
    eigenvalue: int | None  # nonzero eigenvalue when spectrum is {[q]^rank, 0...}
    case_label: str | None  # "a".."e" for the rank-2 shapes, else None


def gram_residual(g: SignedGraph, lambda_sq: int) -> GramResidual:
    """M = lambda_sq*I - A^2 with diagonal counts, exact rank and, when the
    rank-2 classification applies, its case label."""
    if lambda_sq < 1:
        raise ValueError("lambda_sq must be >= 1")
    a = np.asarray(g.adj, dtype=np.int64)
    m = lambda_sq * np.eye(g.n, dtype=np.int64) - exact_matmul(a, a)
    return analyse_residual(m, lambda_sq)


def analyse_residual(m: np.ndarray, lambda_sq: int) -> GramResidual:
    m = np.array(m, dtype=np.int64)  # a private copy, frozen below
    m.setflags(write=False)
    diag = np.diagonal(m)
    counts = None
    if np.all((diag >= 0) & (diag <= 2)):
        counts = (int(np.sum(diag == 0)), int(np.sum(diag == 1)),
                  int(np.sum(diag == 2)))
    rk = rank(m)
    eig = _shape_eigenvalue(m, rk)
    case = None
    if rk == 2 and counts is not None and eig is not None:
        if int(np.trace(m)) != counts[1] + 2 * counts[2]:
            raise RuntimeError("residual trace disagrees with its diagonal counts")
        case = _case_of(m, counts, eig)
    d0, d1, d2 = counts if counts is not None else (None, None, None)
    return GramResidual(matrix=m, lambda_sq=lambda_sq, d0=d0, d1=d1, d2=d2,
                        rank=rk, eigenvalue=eig, case_label=case)


def _shape_eigenvalue(m: np.ndarray, rk: int) -> int | None:
    """q > 0 with M^2 = q*M and trace = rank*q, else None."""
    if rk == 0:
        return None
    tr = int(np.trace(m))
    if tr <= 0 or tr % rk:
        return None
    q = tr // rk
    if np.array_equal(exact_matmul(m, m), q * m):
        return q
    return None


def _case_of(m, counts, eig) -> str | None:
    d0, d1, d2 = counts
    verts1 = [i for i in range(m.shape[0]) if m[i, i] == 1]
    verts2 = [i for i in range(m.shape[0]) if m[i, i] == 2]
    if d2 == 0:
        return "a"
    if d1 == 0:
        off = {abs(int(m[i, j])) for i in verts2 for j in verts2 if i != j}
        return "d" if 1 in off else "c"
    cross = any(m[i, j] for i in verts1 for j in verts2)
    return "e" if cross else "b"


# -- rank-2 classification with witness ---------------------------------------


@dataclass(frozen=True)
class ClassifiedGram:
    case: str | None
    witness: GramWitness | None
    canonical: np.ndarray | None
    eigen_candidates: tuple[tuple[int, ...], ...]  # {0,+-1} eigenvectors, original coords
    diagnostic: str | None = None


def canonical_gram_form(case: str, lam: int, d0: int, d1: int, d2: int,
                        n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.int64)
    if case == "a":
        _fill_j(out, d0, lam, 1)
        _fill_j(out, d0 + lam, lam, 1)
    elif case == "b":
        _fill_j(out, d0, lam, 1)
        _fill_j(out, d0 + lam, lam // 2, 2)
    elif case == "c":
        _fill_j(out, d0, lam // 2, 2)
        _fill_j(out, d0 + lam // 2, lam // 2, 2)
    elif case == "d":
        q = lam // 3
        core = np.array([[2, 1, 1], [1, 2, -1], [1, -1, 2]], dtype=np.int64)
        out[d0:d0 + lam, d0:d0 + lam] = np.kron(core, np.ones((q, q), dtype=np.int64))
    elif case == "e":
        a, c = d2 // 2, d1 // 2
        s = [d0, d0 + a, d0 + 2 * a, d0 + 2 * a + c, d0 + 2 * a + 2 * c]
        blocks = {(0, 0): 2, (1, 1): 2, (2, 2): 1, (3, 3): 1,
                  (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): -1}
        for (bi, bj), val in blocks.items():
            out[s[bi]:s[bi + 1], s[bj]:s[bj + 1]] = val
            out[s[bj]:s[bj + 1], s[bi]:s[bi + 1]] = val
    else:
        raise ValueError(f"unknown case {case!r}")
    return out


def _fill_j(out, start, size, scale):
    out[start:start + size, start:start + size] = scale


def _support_components(m, verts, magnitude=None):
    verts = list(verts)
    remaining = set(verts)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in list(remaining - comp):
                val = abs(int(m[v, w]))
                if val and (magnitude is None or val == magnitude):
                    comp.add(w)
                    frontier.append(w)
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def _block_signs(m, comp, scale):
    """eps with m[i, j] = scale*eps_i*eps_j on the block, else None."""
    base = comp[0]
    eps = {}
    for v in comp:
        val = int(m[base, v]) if v != base else scale
        if abs(val) != scale:
            return None
        eps[v] = val // scale
    for i in comp:
        for j in comp:
            expect = scale * eps[i] * eps[j] if i != j else scale
            if int(m[i, j]) != expect:
                return None
    return eps


def classify_gram(gr: GramResidual) -> ClassifiedGram:
    """Identify which of the five rank-2 canonical shapes M matches and
    exhibit the signed relabelling onto it.

    Preconditions (faults): rank 2, diagonal in {0, 1, 2}, and the verified
    spectrum {[q]^2, [0]^(n-2)}.  A residual that satisfies those but fits
    no case would contradict the classification, so it comes back with
    case None and a diagnostic instead of a witness.
    """
    if gr.rank != 2:
        raise StructureError(f"classification needs rank 2, got {gr.rank}")
    if gr.d0 is None:
        raise StructureError("classification needs diagonal entries in {0, 1, 2}")
    if gr.eigenvalue is None:
        raise StructureError("matrix does not have the {[q]^2, 0, ...} spectrum")
    m = gr.matrix
    lam = gr.eigenvalue
    case = gr.case_label
    d0, d1, d2 = gr.d0, gr.d1, gr.d2
    n = m.shape[0]
    verts0 = [i for i in range(n) if m[i, i] == 0]
    verts1 = [i for i in range(n) if m[i, i] == 1]
    verts2 = [i for i in range(n) if m[i, i] == 2]

    def fail(msg):
        return ClassifiedGram(case=None, witness=None, canonical=None,
                              eigen_candidates=(), diagnostic=msg)

    blocks = []  # (vertices, eps, scale) in canonical order
    canonical_vectors: list[np.ndarray] = []
    if case == "a":
        comps = _support_components(m, verts1)
        if len(comps) != 2 or any(len(c) != lam for c in comps):
            return fail(f"case a needs two blocks of size {lam}")
        for comp in comps:
            eps = _block_signs(m, comp, 1)
            if eps is None:
                return fail("case a block is not a rank-1 sign pattern")
            blocks.append((comp, eps, 1))
        u1 = _indicator(n, d0, lam)
        u2 = _indicator(n, d0 + lam, lam)
        canonical_vectors = [u1, u2]
    elif case == "b":
        comps1 = _support_components(m, verts1)
        comps2 = _support_components(m, verts2)
        if lam % 2 or len(comps1) != 1 or len(comps2) != 1 \
                or len(verts1) != lam or len(verts2) != lam // 2:
            return fail("case b needs one size-q and one size-q/2 block")
        eps1 = _block_signs(m, comps1[0], 1)
        eps2 = _block_signs(m, comps2[0], 2)
        if eps1 is None or eps2 is None:
            return fail("case b block is not a rank-1 sign pattern")
        blocks = [(comps1[0], eps1, 1), (comps2[0], eps2, 2)]
        u1 = _indicator(n, d0, lam)
        u2 = _indicator(n, d0 + lam, lam // 2)
        canonical_vectors = [u1, u2, u1 + u2, u1 - u2]
    elif case == "c":
        comps = _support_components(m, verts2)
        if lam % 2 or len(comps) != 2 or any(len(c) != lam // 2 for c in comps):
            return fail(f"case c needs two blocks of size {lam // 2}")
        for comp in comps:
            eps = _block_signs(m, comp, 2)
            if eps is None:
                return fail("case c block is not a rank-1 sign pattern")
            blocks.append((comp, eps, 2))
        u1 = _indicator(n, d0, lam // 2)
        u2 = _indicator(n, d0 + lam // 2, lam // 2)
        canonical_vectors = [u1, u2, u1 + u2, u1 - u2]
    elif case == "d":
        comps = _support_components(m, verts2, magnitude=2)
        if lam % 3 or len(comps) != 3 or any(len(c) != lam // 3 for c in comps):
            return fail(f"case d needs three 2-blocks of size {lam // 3}")
        epss = [_block_signs(m, comp, 2) for comp in comps]
        if any(e is None for e in epss):
            return fail("case d 2-block is not a rank-1 sign pattern")
        cross = _constant_cross_signs(m, comps, epss)
        if cross is None:
            return fail("case d cross blocks are not constant +-1")
        flips, ordering = _resolve_case_d(cross)
        if flips is None:
            return fail("case d cross pattern has even negativity")
        comps = [comps[t] for t in ordering]
        epss = [{v: e * flips[t] for v, e in epss[t].items()}
                for t in ordering]
        blocks = [(comp, eps, 2) for comp, eps in zip(comps, epss)]
        q = lam // 3
        u = _indicator(n, d0, 2 * q)
        v = _indicator(n, d0, q) + _indicator(n, d0 + 2 * q, q)
        w = _indicator(n, d0 + q, q) - _indicator(n, d0 + 2 * q, q)
        canonical_vectors = [u, v, w]
    elif case == "e":
        comps2 = _support_components(m, verts2)
        comps1 = _support_components(m, verts1)
        if d2 % 2 or d1 % 2 or len(comps2) != 2 or len(comps1) != 2 \
                or any(len(c) != d2 // 2 for c in comps2) \
                or any(len(c) != d1 // 2 for c in comps1):
            return fail("case e needs two 2-blocks and two 1-blocks of equal sizes")
        eps2 = [_block_signs(m, comp, 2) for comp in comps2]
        eps1 = [_block_signs(m, comp, 1) for comp in comps1]
        if any(e is None for e in eps2 + eps1):
            return fail("case e block is not a rank-1 sign pattern")
        resolved = _resolve_case_e(m, comps2, eps2, comps1, eps1)
        if resolved is None:
            return fail("case e cross pattern does not normalise")
        blocks = resolved
        a, c = d2 // 2, d1 // 2
        x = (_indicator(n, d0, a) + _indicator(n, d0 + a, a)
             + _indicator(n, d0 + 2 * a, c))
        y = (_indicator(n, d0, a) - _indicator(n, d0 + a, a)
             + _indicator(n, d0 + 2 * a + c, c))
        canonical_vectors = [x, y]
    else:
        return fail("diagonal profile fits no case")

    perm = [0] * n
    signs = [1] * n
    pos = 0
    for v in sorted(verts0):
        perm[v] = pos
        pos += 1
    for comp, eps, _scale in blocks:
        for v in comp:
            perm[v] = pos
            signs[v] = eps[v]
            pos += 1
    witness = GramWitness(perm=tuple(perm), signs=tuple(signs))
    canonical = canonical_gram_form(case, lam, d0, d1, d2, n)
    if not np.array_equal(witness.apply(m), canonical):
        return fail(f"case {case} witness failed verification")
    for vec in canonical_vectors:
        if not np.array_equal(canonical @ vec, lam * vec):
            raise RuntimeError(
                f"case {case} eigenvector candidate failed verification")
    originals = tuple(tuple(int(x) for x in witness.pull_back(vec))
                      for vec in canonical_vectors)
    return ClassifiedGram(case=case, witness=witness, canonical=canonical,
                          eigen_candidates=originals)


def _indicator(n, start, size):
    v = np.zeros(n, dtype=np.int64)
    v[start:start + size] = 1
    return v


def _constant_cross_signs(m, comps, epss):
    """Constant sign of eps-normalised entries between each block pair."""
    cross = {}
    for s in range(len(comps)):
        for t in range(s + 1, len(comps)):
            vals = {epss[s][i] * epss[t][j] * int(m[i, j])
                    for i in comps[s] for j in comps[t]}
            if len(vals) != 1 or abs(next(iter(vals))) != 1:
                return None
            cross[(s, t)] = next(iter(vals))
    return cross


def _resolve_case_d(cross):
    """Block flips and ordering sending the cross pattern to
    ((0,1): +, (0,2): +, (1,2): -)."""
    negs = [p for p, v in cross.items() if v < 0]
    if len(negs) % 2 == 0:
        return None, None
    if len(negs) == 3:
        # flipping block 0 toggles two of the three pairs
        flips = [-1, 1, 1]
        cross = {p: v * (flips[p[0]] * flips[p[1]] if 0 in p else 1)
                 for p, v in cross.items()}
        negs = [p for p, v in cross.items() if v < 0]
        base_flips = flips
    else:
        base_flips = [1, 1, 1]
    (x, y) = negs[0]
    first = ({0, 1, 2} - {x, y}).pop()
    ordering = [first] + sorted({x, y})
    flips = [base_flips[t] for t in ordering]
    return flips, ordering


def _resolve_case_e(m, comps2, eps2, comps1, eps1):
    """Flips/ordering making the V2 x V1 cross pattern [[+, +], [+, -]]."""
    sign = [[0, 0], [0, 0]]
    for s in range(2):
        for t in range(2):
            vals = {eps2[s][i] * eps1[t][j] * int(m[i, j])
                    for i in comps2[s] for j in comps1[t]}
            if len(vals) != 1 or abs(next(iter(vals))) != 1:
                return None
            sign[s][t] = next(iter(vals))
    flip1 = [sign[0][0], sign[0][1]]  # make the first row (+, +)
    row2 = [sign[1][0] * flip1[0], sign[1][1] * flip1[1]]
    if row2[0] * row2[1] != -1:
        return None
    order1 = [0, 1] if row2[0] > 0 else [1, 0]  # negative column goes second
    blocks = [(comps2[0], eps2[0], 2), (comps2[1], eps2[1], 2)]
    for t in order1:
        eps = {v: e * flip1[t] for v, e in eps1[t].items()}
        blocks.append((comps1[t], eps, 1))
    return blocks


# -- extension operations ------------------------------------------------------


def _border(g: SignedGraph, x: np.ndarray) -> SignedGraph:
    """New vertex 0 attached with signs x."""
    n = g.n
    adj = np.zeros((n + 1, n + 1), dtype=np.int8)
    adj[1:, 1:] = g.adj
    adj[0, 1:] = x
    adj[1:, 0] = x
    return SignedGraph(adj)


def _resolve_lambda(g: SignedGraph, lambda_sq, certify, want: str,
                    check) -> int:
    """lambda_sq from the certificate, or trust the caller's value after
    verifying the residual shape directly (covers the degenerate tiny
    orders where the trace moments cannot pin the spectrum down)."""
    if lambda_sq is None:
        cert = certify(g)
        if not cert:
            raise ExtensionError(f"input is not {want}: {cert.reason}")
        if not check(cert):
            raise ExtensionError(f"certificate {cert} does not match {want}")
        return cert.lambda_sq
    return int(lambda_sq)


def extend_one_vertex(g: SignedGraph, lambda_sq: int | None = None) -> SignedGraph:
    """Extend a graph with spectrum {[-q]^m, [0]^1, [q]^m} by one vertex to
    reach {[-q]^(m+1), [q]^(m+1)}.

    The residual M = q^2*I - A^2 must be x x^T for a {0, +-1} vector x,
    which forces every degree into {q^2 - 1, q^2}; the bordered matrix then
    squares to q^2*I exactly.  ``lambda_sq`` may be supplied for inputs too
    small to carry a full certificate (a single vertex, say).
    """
    lam_sq = _resolve_lambda(g, lambda_sq, certify_three_sym,
                             "a three-eigenvalue symmetric graph",
                             lambda c: c.d == 1)
    bad = [d for d in g.degrees if d not in (lam_sq, lam_sq - 1)]
    if bad:
        raise ExtensionError(
            f"degree condition fails: degrees {sorted(set(bad))} are outside "
            f"{{{lam_sq - 1}, {lam_sq}}}")
    gr = gram_residual(g, lam_sq)
    if gr.rank != 1:
        raise ExtensionError(f"residual has rank {gr.rank}, expected 1")
    if gr.d2 is None or gr.d2 > 0 or gr.d0 is None:
        raise ExtensionError("residual diagonal must lie in {0, 1}")
    m = gr.matrix
    pivot = next(i for i in range(g.n) if m[i, i] == 1)
    x = ExtensionVector.from_entries(m[pivot])
    if not np.array_equal(np.outer(x.array(), x.array()), m):
        raise ExtensionError("residual is not a {0, +-1} rank-1 square")
    out = _border(g, x.array())
    cert = certify_two_sym(out)
    if not (cert and cert.lambda_sq == lam_sq):
        raise RuntimeError("extended graph failed its A^2 = lambda^2 I certificate")
    return out


def extend_four_to_three(g: SignedGraph, lambda_sq: int | None = None) -> SignedGraph:
    """Extend spectrum {[-q]^m, [-1], [1], [q]^m} by one vertex to
    {[-q]^(m+1), [0], [q]^(m+1)}.

    Requires degrees in {q^2, q^2-1, q^2-2} with at least one q^2-1 vertex.
    The rank-2 residual must land in case (a) or (e); case (b) cannot occur
    for a genuine input, and cases (c)/(d) are open in general, so all three
    fault with the case named.  The chosen vector x additionally needs A*x
    to be the other {0, +-1} eigenvector (orthogonal to x), which is what
    keeps the bordered matrix inside the three-eigenvalue shape.
    """
    lam_sq = _resolve_lambda(g, lambda_sq, certify_four_sym,
                             "a four-eigenvalue symmetric graph with mu = 1",
                             lambda c: c.mu_sq == 1)
    _check_degree_window(g, lam_sq)
    if not any(d == lam_sq - 1 for d in g.degrees):
        raise ExtensionError(f"no vertex of degree {lam_sq - 1}")
    return _extend_pair(g, lam_sq, lam_sq - 1, ("b", "c", "d"),
                        "open or excluded", transport=True)


def extend_zero_pair(g: SignedGraph, lambda_sq: int | None = None) -> SignedGraph:
    """Extend spectrum {[-q]^m, [0]^2, [q]^m} by one vertex to
    {[-q]^(m+1), [0], [q]^(m+1)}.

    Requires degrees in {q^2, q^2-1, q^2-2}.  The vector x must have norm
    q^2 and cover every degree-(q^2-2) vertex; that exists exactly in
    residual cases (a), (c) and (e), while (b) (the J + 2J obstruction) and
    (d) (the Kronecker shape of the star example) fault with the case named.
    """
    lam_sq = _resolve_lambda(g, lambda_sq, certify_three_sym,
                             "a three-eigenvalue symmetric graph with d = 2",
                             lambda c: c.d == 2)
    _check_degree_window(g, lam_sq)
    return _extend_pair(g, lam_sq, lam_sq, ("b", "d"), "obstructed",
                        transport=False)


def _extend_pair(g: SignedGraph, lam_sq: int, eigenvalue: int, excluded,
                 kind: str, transport: bool) -> SignedGraph:
    """The step both pair extensions share once their preconditions hold.

    The residual must be the rank-2 shape with ``eigenvalue`` and land in a
    case outside ``excluded``.  Its {0, +-1} eigenvectors of norm
    ``eigenvalue`` that cover every degree-(lam_sq - 2) vertex (with
    ``transport``, also with A*x a {0, +-1} vector orthogonal to x) are
    tried in lexicographic order, so the choice is deterministic; the first
    whose bordered graph is certified three-eigenvalue symmetric with d = 1
    wins.
    """
    gr = gram_residual(g, lam_sq)
    if gr.rank != 2 or gr.eigenvalue != eigenvalue:
        raise ExtensionError(
            f"residual is not the rank-2 shape with eigenvalue {eigenvalue}")
    classified = classify_gram(gr)
    if classified.case is None:
        raise ExtensionError(f"unclassifiable residual: {classified.diagnostic}")
    if classified.case in excluded:
        raise ExtensionError(
            f"residual lands in {kind} case ({classified.case})")
    a = np.asarray(g.adj, dtype=np.int64)
    v2 = [i for i in range(g.n) if g.degrees[i] == lam_sq - 2]
    vectors = {vec for cand in classified.eigen_candidates
               for vec in (cand, tuple(-c for c in cand))}
    for vec in sorted(vectors):
        x = ExtensionVector.from_entries(vec).array()
        if int(x @ x) != eigenvalue or any(x[i] == 0 for i in v2):
            continue
        if transport:
            ax = a @ x
            if np.any(np.abs(ax) > 1) or int(x @ ax) != 0:
                continue
        out = _border(g, x)
        if not all(d in (lam_sq, lam_sq - 1) for d in out.degrees):
            continue
        cert = certify_three_sym(out)
        if cert and cert.lambda_sq == lam_sq and cert.d == 1:
            return out
        # too small for a certificate; check the shape directly
        if out.n <= 3 and gram_residual(out, lam_sq).rank == 1:
            return out
    raise ExtensionError("no admissible extension vector exists")


def _check_degree_window(g: SignedGraph, lam_sq: int):
    bad = [d for d in g.degrees if d not in (lam_sq, lam_sq - 1, lam_sq - 2)]
    if bad:
        raise ExtensionError(
            f"degree condition fails: degrees {sorted(set(bad))} are outside "
            f"{{{lam_sq - 2}, ..., {lam_sq}}}")


# -- classifiers for the three- and four-eigenvalue zero-two theorems ---------


@dataclass(frozen=True)
class ConstantDiagVerdict:
    confirmed: bool
    reason: str
    eigenvalue: int | None = None
    witness: GramWitness | None = None


def classify_constant_diag_gram(m) -> ConstantDiagVerdict:
    """For a symmetric integer matrix with constant diagonal, off-diagonal
    entries in {0, +-2} and spectrum {[q]^2, [0]^(n-2)} with q > 0: confirm
    the diagonal equals 2 and exhibit the switching onto 2J + 2J (two
    all-twos blocks of size n/2, q = n); anything else is rejected with the
    violated hypothesis or conclusion named."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    if n < 3:
        raise StructureError("need order at least 3")
    if not np.array_equal(m, m.T):
        raise StructureError("matrix must be symmetric")
    diag = np.diagonal(m)
    if len(set(int(v) for v in diag)) != 1:
        raise StructureError("diagonal must be constant")
    off = m - np.diag(diag)
    if not set(np.unique(np.abs(off))) <= {0, 2}:
        raise StructureError("off-diagonal entries must lie in {0, +-2}")
    d = int(diag[0])
    gr = analyse_residual(m, 0)
    if gr.rank != 2:
        return ConstantDiagVerdict(False, f"rank {gr.rank}, not the rank-2 spectrum shape")
    if gr.eigenvalue is None:
        return ConstantDiagVerdict(False, "spectrum is not {[q]^2, [0]^(n-2)} with q > 0")
    if d != 2:
        return ConstantDiagVerdict(False, f"diagonal is {d}; the shape is only "
                                          "singular enough when it is 2")
    # all of the diagonal is 2 and no entry is +-1: exactly case (c), whose
    # canonical form is 2J + 2J with q = n (the trace is 2n = 2q)
    classified = classify_gram(gr)
    if classified.case is None:
        return ConstantDiagVerdict(False, classified.diagnostic)
    return ConstantDiagVerdict(True, "switching isomorphic to the double "
                                     "all-twos block form",
                               eigenvalue=gr.eigenvalue,
                               witness=classified.witness)


@dataclass(frozen=True)
class SmallSpectrumVerdict:
    status: str  # "confirmed" | "falsified" | "out-of-scope"
    detail: str
    certificate: object | None = None


def classify_small_spectrum_02graph(g: SignedGraph) -> SmallSpectrumVerdict:
    """Executable form of the zero-two classification theorems: a connected
    signed zero-two graph with a symmetric three-eigenvalue spectrum must
    have the 4-cycle as underlying graph, and with spectrum
    {[-q]^m, [-mu], [mu], [q]^m} (mu >= 1) it must be a signed K4.

    A violation would refute the theorems, so it is reported as a
    falsification event rather than swallowed.
    """
    rep = structure_report(g)
    if not (rep.connected and rep.zero_two):
        raise StructureError("input must be a connected zero-two graph")
    three = certify_three_sym(g)
    if three:
        ok = g.n == 4 and set(g.degrees) == {2}
        return SmallSpectrumVerdict(
            status="confirmed" if ok else "falsified",
            detail="three-eigenvalue spectrum with underlying 4-cycle" if ok
            else f"three-eigenvalue spectrum on underlying order {g.n}, "
                 f"degrees {sorted(set(g.degrees))}: contradicts the theorem",
            certificate=three)
    four = certify_four_sym(g)
    if four:
        ok = g.n == 4 and set(g.degrees) == {3}
        return SmallSpectrumVerdict(
            status="confirmed" if ok else "falsified",
            detail="four-eigenvalue spectrum with underlying complete graph" if ok
            else f"four-eigenvalue spectrum on underlying order {g.n}, "
                 f"degrees {sorted(set(g.degrees))}: contradicts the theorem",
            certificate=four)
    return SmallSpectrumVerdict(status="out-of-scope",
                                detail="no symmetric three- or four-eigenvalue "
                                       "certificate applies")
