"""Vertex deletion and extension for signed graphs with symmetric spectra.

Deleting vertices from a graph with A^2 = t*I leaves a residual matrix
M = t*I - A^2 of rank 1 (one deletion) or rank 2 (two deletions) whose
diagonal records the degree deficiencies.  The extension operations factor
that residual into {0, +-1} vectors and border the adjacency matrix with
one of them; which factorisations exist is governed by the rank-2
classification in ``classify_gram`` (cases (a)-(e) below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product

import numpy as np

from .core import (SignedGraph, StructureError, _check_counts, _exact_copy,
                   _signed_permute, structure_report)
from .exactlinalg import exact_matmul, rank
from .spectral import (certify_four_sym, certify_three_sym, certify_two_sym)


class ExtensionError(StructureError):
    """Extension preconditions failed or no admissible vector exists."""


@dataclass(frozen=True)
class GramWitness:
    """Signed relabelling: apply() sends entry (i, j) to
    (perm[i], perm[j]) with sign signs[i]*signs[j]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, m: np.ndarray) -> np.ndarray:
        """By ``core._signed_permute``: TypeError or ValueError for a bad perm or sign."""
        return _signed_permute(m, self.perm, self.signs, self.perm, self.signs)


@dataclass(frozen=True, eq=False)  # arrays: equality and hash by identity
class GramResidual:
    """A residual M with its diagonal counts, exact rank and eigenvalue, all
    derived from M; ValueError unless M is a square integer matrix."""

    matrix: np.ndarray  # int64, read-only
    d0: int | None = field(init=False)  # d0..d2 are None unless diag(M) is in {0, 1, 2}
    d1: int | None = field(init=False)
    d2: int | None = field(init=False)
    rank: int = field(init=False)
    eigenvalue: int | None = field(init=False)  # q when spectrum is {[q]^rank, 0...}

    def __post_init__(self):
        m = _exact_copy(self.matrix, np.int64)
        diag = np.diagonal(m)
        small = np.all((diag >= 0) & (diag <= 2))
        counts = np.bincount(diag, minlength=3).tolist() if small else [None] * 3
        rk = rank(m)
        for name, value in zip(("matrix", "d0", "d1", "d2", "rank", "eigenvalue"),
                               (m, *counts, rk, _shape_eigenvalue(m, rk))):
            object.__setattr__(self, name, value)

    @property
    def case_label(self) -> str | None:  # "a".."e" for the rank-2 shapes, else None
        return self._match[1]

    @cached_property
    def _match(self):
        """(row classes, case, witness) of ``_match_shape``, run once for
        ``case_label`` and ``classify_gram``; empty unless M is rank-2 shaped."""
        if self.rank != 2 or self.d0 is None or self.eigenvalue is None:
            return [], None, None
        classes = _row_classes(self.matrix)
        return (classes, *_match_shape(self.matrix, classes, self.eigenvalue,
                                       self.d1, self.d2))


def gram_residual(g: SignedGraph, lambda_sq: int) -> GramResidual:
    """M = lambda_sq*I - A^2 (``g.square``) with diagonal counts, exact rank
    and, when the rank-2 classification applies, its case label."""
    (lambda_sq,) = _check_counts(1, lambda_sq=lambda_sq)
    return GramResidual(lambda_sq * np.eye(g.n, dtype=np.int64) - g.square)


def _shape_eigenvalue(m: np.ndarray, rk: int) -> int | None:
    """q > 0 with M^2 = q*M and trace = rank*q, else None."""
    tr = int(np.trace(m))
    if rk == 0 or tr <= 0 or tr % rk:
        return None
    q = tr // rk
    return q if np.array_equal(exact_matmul(m, m), q * m) else None


# -- rank-2 classification with witness ---------------------------------------


@dataclass(frozen=True, eq=False)  # arrays: equality and hash by identity
class ClassifiedGram:
    case: str | None
    witness: GramWitness | None
    canonical: np.ndarray | None
    eigen_candidates: tuple[tuple[int, ...], ...]  # {0,+-1} q-eigenvectors, one per +-x
    diagnostic: str | None = None


# The five rank-2 shapes, cases (a)-(e): for each, the block sizes as a
# function of (q, d1, d2) and the value of the form between blocks s and t.
_SHAPES = {
    "a": (lambda q, d1, d2: (q, q), [[1, 0], [0, 1]]),
    "b": (lambda q, d1, d2: (q, q // 2), [[1, 0], [0, 2]]),
    "c": (lambda q, d1, d2: (q // 2, q // 2), [[2, 0], [0, 2]]),
    "d": (lambda q, d1, d2: (q // 3,) * 3, [[2, 1, 1], [1, 2, -1], [1, -1, 2]]),
    "e": (lambda q, d1, d2: (d2 // 2, d2 // 2, d1 // 2, d1 // 2),
          [[2, 0, 1, 1], [0, 2, 1, -1], [1, 1, 1, 0], [1, -1, 0, 1]]),
}


def canonical_gram_form(case: str, lam: int, d0: int, d1: int, d2: int,
                        n: int) -> np.ndarray:
    """The case's shape with eigenvalue ``lam``: d0 zero rows, then the
    blocks of ``_SHAPES`` in order, then zero rows up to order n.
    ValueError unless the blocks have trace 2 * lam (the spectrum is
    {[lam]^2, 0, ...}) and end by n."""
    if case not in _SHAPES:
        raise ValueError(f"unknown case {case!r}")
    sizes, values = _SHAPES[case]
    values = np.array(values, dtype=np.int64)
    block = np.repeat(np.arange(len(values)), sizes(lam, d1, d2))
    if np.sum(np.diagonal(values)[block]) != 2 * lam:
        raise ValueError(f"case ({case}) has no form with eigenvalue {lam} "
                         f"for d1 = {d1}, d2 = {d2}")
    end = d0 + len(block)
    if end > n:
        raise ValueError(f"case ({case}) blocks end at {end}, past n = {n}")
    out = np.zeros((n, n), dtype=np.int64)
    out[d0:end, d0:end] = values[block[:, None], block]
    return out


def _row_classes(m) -> list[tuple[list[int], list[int]]]:
    """The nonzero rows of m grouped by equality up to sign, in order of
    first appearance: (vertices, signs) with signs[k] * m[vertices[k]] the
    same row for the whole class, its first nonzero entry positive."""
    live = np.flatnonzero(np.diagonal(m))
    lead = m[live, np.argmax(m[live] != 0, axis=1)]
    signs = np.where(lead > 0, 1, -1)
    classes = {}
    for i, sign, row in zip(live.tolist(), signs.tolist(), signs[:, None] * m[live]):
        verts, ss = classes.setdefault(row.tobytes(), ([], []))
        verts.append(i)
        ss.append(sign)
    return list(classes.values())


def _match_shape(m, classes, q: int, d1: int, d2: int):
    """(case, witness) for the first case of ``_SHAPES`` and the first
    signed order of m's row ``classes``, zero rows first, whose relabelling
    maps m exactly onto that case's canonical form; (None, None) when none
    does.  A signed order makes a symmetric m constant on the blocks its
    classes become (see ``classify_gram``), so it hits the form exactly
    when the class sizes are the block sizes and the sign-normalised values
    between classes are the table's.  Flipping every class at once changes
    nothing, so the first class keeps its sign.  A non-symmetric m, or a
    number of classes that no case has, fits no form, so the orders are
    only listed for at most 4 classes."""
    k = len(classes)
    if not np.array_equal(m, m.T) or all(len(t) != k for _, t in _SHAPES.values()):
        return None, None
    orders = np.array(list(permutations(range(k))))
    flips = np.array([(1,) + f for f in product((1, -1), repeat=k - 1)])
    firsts = [vs[0] for vs, _ in classes]
    lead = np.array([ss[0] for _, ss in classes])
    values = (np.outer(lead, lead) * m[np.ix_(firsts, firsts)])[
        orders[:, :, None], orders[:, None, :]]
    signed = values[:, None] * (flips[:, :, None] * flips[:, None, :])
    sizes = np.array([len(vs) for vs, _ in classes])[orders]
    for case, (block_sizes, target) in _SHAPES.items():
        if len(target) != k:
            continue
        fits = (np.all(sizes == block_sizes(q, d1, d2), axis=1)[:, None]
                & np.all(signed == target, axis=(2, 3)))
        for o, f in np.argwhere(fits)[:1].tolist():
            order = orders[o].tolist()
            zeros = np.flatnonzero(np.diagonal(m) == 0).tolist()
            verts = zeros + [v for s in order for v in classes[s][0]]
            signs = np.ones(m.shape[0], dtype=np.int64)
            for s, fs in zip(order, flips[f].tolist()):
                signs[classes[s][0]] = fs * np.asarray(classes[s][1])
            return case, GramWitness(perm=tuple(np.argsort(verts).tolist()),
                                     signs=tuple(signs.tolist()))
    return None, None


def classify_gram(gr: GramResidual) -> ClassifiedGram:
    """Identify which of the five rank-2 canonical shapes M matches and
    exhibit the signed relabelling onto it.

    Preconditions (faults): rank 2, diagonal in {0, 1, 2}, and the verified
    spectrum {[q]^2, [0]^(n-2)}.  A residual that satisfies those but fits
    no case would contradict the classification, so it comes back with
    case None and a diagnostic instead of a witness.

    Each canonical shape is constant on blocks, and rows in different
    blocks differ even up to sign; a signed relabelling keeps both facts.
    So the blocks of M are its classes of rows equal up to sign.  There are
    at most 4: M = U U^T for an n x 2 matrix U whose rows have squared
    length M[i, i] in {0, 1, 2} and integer inner products, rows of M equal
    up to sign come from rows of U equal up to sign (a zero diagonal entry
    means a zero row), and nonzero such vectors fit on at most 4 lines
    through the origin, since two of the lines can only meet at 45, 60 or
    90 degrees.  One match (``_match_shape``) of the at most 4! * 2^3
    signed orders of the classes against the table of shapes gives both
    the case and the witness, the first order that maps M exactly onto the
    case's canonical form.  Every q-eigenvector x = M x / q is constant up
    to sign on each class, so the {0, +-1} ones are the class-wise sign
    choices that M fixes, each checked on M itself.
    """
    if gr.rank != 2:
        raise StructureError(f"classification needs rank 2, got {gr.rank}")
    if gr.d0 is None:
        raise StructureError("classification needs diagonal entries in {0, 1, 2}")
    if gr.eigenvalue is None:
        raise StructureError("matrix does not have the {[q]^2, 0, ...} spectrum")
    m = gr.matrix
    lam = gr.eigenvalue
    n = m.shape[0]
    classes, case, witness = gr._match
    if case is None:
        return ClassifiedGram(
            case=None, witness=None, canonical=None, eigen_candidates=(),
            diagnostic="no signed order of the row classes maps M onto a "
                       "case (a)-(e) form")
    basis = np.zeros((n, len(classes)), dtype=np.int64)
    for s, (vs, ss) in enumerate(classes):
        basis[vs, s] = ss
    # every coefficient vector in {0, 1, -1}^k (index i becomes (i + 1) % 3 - 1);
    # one of each pair +-x, and not x = 0: the first nonzero coefficient is 1
    coeffs = (np.indices((3,) * len(classes)).reshape(len(classes), -1).T + 1) % 3 - 1
    lead = coeffs[np.arange(len(coeffs)), np.argmax(coeffs != 0, axis=1)]
    xs = exact_matmul(basis, coeffs[lead > 0].T)
    fixed = np.all(exact_matmul(m, xs) == lam * xs, axis=0)
    candidates = tuple(map(tuple, xs.T[fixed].tolist()))
    canonical = canonical_gram_form(case, lam, gr.d0, gr.d1, gr.d2, n)
    return ClassifiedGram(case=case, witness=witness, canonical=canonical,
                          eigen_candidates=candidates)


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
    return _check_counts(1, lambda_sq=lambda_sq)[0]


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
    m = gr.matrix  # diagonal lam_sq - degree, in {0, 1} by the check above
    pivot = next(i for i in range(g.n) if m[i, i] == 1)
    x = m[pivot]
    if not np.array_equal(np.outer(x, x), m):
        raise ExtensionError("residual is not a {0, +-1} rank-1 square")
    out = _border(g, x)
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
    v2 = [i for i in range(g.n) if g.degrees[i] == lam_sq - 2]
    vectors = {vec for cand in classified.eigen_candidates
               for vec in (cand, tuple(-c for c in cand))}
    for vec in sorted(vectors):
        x = np.asarray(vec, dtype=np.int64)
        if int(exact_matmul(x, x)) != eigenvalue or any(x[i] == 0 for i in v2):
            continue
        if transport:
            ax = exact_matmul(g.adj, x)
            if np.any(np.abs(ax) > 1) or int(exact_matmul(x, ax)) != 0:
                continue
        out = _border(g, x)
        if not all(d in (lam_sq, lam_sq - 1) for d in out.degrees):
            continue
        cert = certify_three_sym(out)
        if cert and cert.lambda_sq == lam_sq and cert.d == 1:
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
    m = _exact_copy(m, np.int64)
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
    gr = GramResidual(m)
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
    for certify, kind, degree, shape in (
            (certify_three_sym, "three", 2, "4-cycle"),
            (certify_four_sym, "four", 3, "complete graph")):
        cert = certify(g)
        if cert:
            ok = g.n == 4 and set(g.degrees) == {degree}
            return SmallSpectrumVerdict(
                status="confirmed" if ok else "falsified",
                detail=f"{kind}-eigenvalue spectrum with underlying {shape}" if ok
                else f"{kind}-eigenvalue spectrum on underlying order {g.n}, "
                     f"degrees {sorted(set(g.degrees))}: contradicts the theorem",
                certificate=cert)
    return SmallSpectrumVerdict(status="out-of-scope",
                                detail="no symmetric three- or four-eigenvalue "
                                       "certificate applies")
