"""Answer checks that share no code with rectaspec.

Everything here works on plain NumPy arrays and on the text the command line
prints, parsed by this module's own readers.  Nothing imports rectaspec, so a
defect in the program cannot also hide in its own check.  Every check returns
a list of problems; an empty list means the answer is accepted.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

# -- text readers --------------------------------------------------------------


def write_graph6(adj: np.ndarray) -> bytes:
    """graph6 bytes of an unsigned graph (orders up to 62 or the 4-byte form)."""
    n = adj.shape[0]
    head = bytes([n + 63]) if n <= 62 else bytes(
        [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    bits = [1 if adj[u, v] else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + int("".join(map(str, bits[i:i + 6])), 2)
                 for i in range(0, len(bits), 6))
    return head + body


def write_sg1(adj: np.ndarray) -> str:
    n = adj.shape[0]
    lines = [f"sg1 {n}"]
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u, v]:
                lines.append(f"{u} {v} {'+' if adj[u, v] > 0 else '-'}")
    return "\n".join(lines) + "\n"


def parse_sg1(lines: list[str]) -> np.ndarray:
    n = int(lines[0].split()[1])
    adj = np.zeros((n, n), dtype=np.int64)
    for ln in lines[1:]:
        u, v, s = ln.split()
        adj[int(u), int(v)] = adj[int(v), int(u)] = 1 if s == "+" else -1
    return adj


def parse_wm(lines: list[str]) -> np.ndarray:
    value = {"+": 1, "-": -1, "0": 0}
    return np.array([[value[c] for c in ln.strip()] for ln in lines[1:]],
                    dtype=np.int64)


def split_classes(stdout: str):
    """(class blocks, final summary fields) of a search command's stdout."""
    blocks, current = [], None
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return [], {}
    for ln in lines[:-1]:
        if ln.startswith("# class"):
            current = []
            blocks.append(current)
        elif current is not None:
            current.append(ln)
    words = lines[-1].split()
    summary = dict(zip(words[::2], words[1::2])) if words[:1] == ["classes"] else {}
    return blocks, summary


def labelling_from_log(stderr: str):
    for ln in stderr.splitlines():
        if ln.startswith("labelling "):
            return [int(x) for x in ln.split()[1].split(",")]
    return None


# -- graph facts, computed directly -------------------------------------------


def squares_to_identity(adj: np.ndarray, r: int) -> bool:
    a = np.asarray(adj, dtype=np.int64)
    return bool(np.array_equal(a @ a, r * np.eye(a.shape[0], dtype=np.int64)))


def neighbours(adj: np.ndarray) -> list[list[int]]:
    return [np.flatnonzero(row).tolist() for row in adj]


def component_count(adj: np.ndarray) -> int:
    nbrs = neighbours(adj)
    seen = [False] * len(nbrs)
    count = 0
    for start in range(len(nbrs)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def is_bipartite(adj: np.ndarray) -> bool:
    nbrs = neighbours(adj)
    colour = [-1] * len(nbrs)
    for start in range(len(nbrs)):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def four_cycles(adj: np.ndarray):
    """Each 4-cycle once as (a, b, c, d): a its smallest vertex, c opposite a."""
    support = (np.abs(np.asarray(adj)) > 0)
    n = support.shape[0]
    for a in range(n):
        for c in range(a + 1, n):
            common = [w for w in np.flatnonzero(support[a] & support[c]) if w > a]
            for b, d in combinations(common, 2):
                yield a, int(b), c, int(d)


def negative_quadrangles(adj: np.ndarray) -> int:
    a = np.asarray(adj, dtype=np.int64)
    return sum(1 for p, q, r, s in four_cycles(a)
               if a[p, q] * a[q, r] * a[r, s] * a[s, p] < 0)


def parity_system(adj: np.ndarray):
    """Consistency and class bound of "every quadrangle is negative" over GF(2).

    One unknown per edge (1 = negative), one equation per 4-cycle: its four
    edge bits sum to 1.  Returns (consistent, log2 of the number of
    pure-switching classes): the solution space has dimension m - rank, and
    switching acts freely with 2^(n - components) distinct signatures per
    class.
    """
    support = np.abs(np.asarray(adj, dtype=np.int64))
    n = support.shape[0]
    index = {}
    for u in range(n):
        for v in range(u + 1, n):
            if support[u, v]:
                index[(u, v)] = len(index)
    pivots: dict[int, int] = {}  # leading bit -> row (bit 0 carries the rhs)
    consistent = True
    for a, b, c, d in four_cycles(support):
        row = 1
        for u, v in ((a, b), (b, c), (c, d), (a, d)):
            row ^= 2 << index[(min(u, v), max(u, v))]
        while row > 1:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
        if row == 1:
            consistent = False
    dim = len(index) - len(pivots)
    return consistent, dim - (n - component_count(support))


def structure_lines(adj: np.ndarray) -> list[str]:
    """The two structure lines ``rectaspec check`` must print for ``adj``."""
    a = np.abs(np.asarray(adj, dtype=np.int64))
    n = a.shape[0]
    degs = a.sum(axis=1)
    regular = bool(np.all(degs == degs[0]))
    sq = a @ a
    upper = sq[np.triu_indices(n, 1)]
    triangle_free = not np.any(sq * a)
    zero_two = bool(np.all((upper == 0) | (upper == 2)))
    quads = int(sum(int(c) * (int(c) - 1) // 2 for c in upper)) // 2
    return [f"order {n}  regular {regular}"
            + (f" degree {int(degs[0])}" if regular else "")
            + f"  connected {component_count(a) == 1}  bipartite {is_bipartite(a)}",
            f"triangle-free {triangle_free}  zero-two {zero_two}"
            f"  quadrangles {quads}"]


def intersection_profile(w: np.ndarray) -> list[int]:
    s = (np.asarray(w) != 0).astype(np.int64)
    o = s @ s.T
    return sorted(int(o[i, j]) for i, j in combinations(range(s.shape[0]), 2))


# -- answer checks -------------------------------------------------------------


def check_signature_search(adj: np.ndarray, code: int, stdout: str, stderr: str,
                           expected: int | None) -> list[str]:
    """``rectaspec search`` on the unsigned graph ``adj``."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    blocks, summary = split_classes(stdout)
    if summary.get("exhausted") != "true":
        return problems + [f"no 'exhausted true' summary: {summary or stdout[-200:]!r}"]
    claimed = int(summary["classes"])
    if claimed != len(blocks):
        problems.append(f"summary says {claimed} classes, printed {len(blocks)}")
    r = int(np.abs(adj[0]).sum())
    perm = labelling_from_log(stderr)
    n = adj.shape[0]
    if blocks and (perm is None or sorted(perm) != list(range(n))):
        problems.append("proof log has no valid labelling")
        perm = None
    for i, lines in enumerate(blocks, 1):
        sol = parse_sg1(lines)
        if sol.shape[0] != n:
            problems.append(f"class {i} has order {sol.shape[0]}, input has {n}")
            continue
        if not squares_to_identity(sol, r):
            problems.append(f"class {i} fails A^2 = {r}I")
        if perm is not None:
            idx = np.asarray(perm)
            if not np.array_equal(np.abs(sol)[np.ix_(idx, idx)], np.abs(adj)):
                problems.append(f"class {i} is not a signature of the input graph")
    consistent, log2_bound = parity_system(adj)
    if consistent != (claimed > 0):
        problems.append(f"GF(2) parity system is {'consistent' if consistent else 'inconsistent'}"
                        f" but the search reports {claimed} classes")
    if consistent and claimed > 2 ** log2_bound:
        problems.append(f"{claimed} classes exceed the GF(2) bound 2^{log2_bound}")
    if expected is not None and claimed != expected:
        problems.append(f"{claimed} classes, expected {expected}")
    return problems


def check_weighing_search(order: int, weight: int, code: int, stdout: str,
                          expected: int | None) -> list[str]:
    """``rectaspec search-weighing --order n --weight r``."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    blocks, summary = split_classes(stdout)
    if summary.get("exhausted") != "true":
        return problems + [f"no 'exhausted true' summary: {summary or stdout[-200:]!r}"]
    claimed = int(summary["classes"])
    if claimed != len(blocks):
        problems.append(f"summary says {claimed} classes, printed {len(blocks)}")
    for i, lines in enumerate(blocks, 1):
        w = parse_wm(lines)
        if w.shape != (order, order):
            problems.append(f"class {i} has shape {w.shape}")
            continue
        if not np.array_equal(w.T @ w, weight * np.eye(order, dtype=np.int64)):
            problems.append(f"class {i} fails W^T W = {weight}I")
        if set(intersection_profile(w)) != {0, 2}:
            problems.append(f"class {i} has intersection numbers "
                            f"{sorted(set(intersection_profile(w)))}, not {{0, 2}}")
    if expected is not None and claimed != expected:
        problems.append(f"{claimed} classes, expected {expected}")
    return problems


def check_switching_answer(g: np.ndarray, h: np.ndarray, truth: bool,
                           answer: bool, perm, switch_set) -> list[str]:
    """A decision on "is h a relabelled, switched copy of g?".

    "yes" must carry a witness h = switch(relabel(g, perm), switch_set) with
    relabel moving vertex i to perm[i]; "no" must be confirmed by differing
    negative-quadrangle counts.
    """
    if answer:
        n = g.shape[0]
        if perm is None or sorted(perm) != list(range(n)):
            return ["'yes' without a valid permutation"]
        moved = np.zeros_like(g)
        idx = np.asarray(perm)
        moved[np.ix_(idx, idx)] = g
        eps = np.ones(n, dtype=np.int64)
        eps[list(switch_set)] = -1
        if not np.array_equal(moved * np.outer(eps, eps), h):
            return ["'yes' witness does not map g onto h"]
        return [] if truth else ["'yes' on a pair built to differ"]
    if truth:
        return ["'no' on a pair built as a signed permutation"]
    if negative_quadrangles(g) == negative_quadrangles(h):
        return ["'no' not confirmed: equal negative-quadrangle counts"]
    return []


def check_weighing_answer(m: np.ndarray, n: np.ndarray, truth: bool, answer: bool,
                          witness) -> list[str]:
    """A decision on "M = P N Q for signed permutation matrices P, Q?".

    ``witness`` is (p_perm, p_signs, q_perm, q_signs) with
    P[i, p_perm[i]] = p_signs[i]; a "no" must be confirmed by differing
    row-intersection profiles.
    """
    if answer:
        if witness is None:
            return ["'yes' without a witness"]
        size = m.shape[0]
        factors = []
        for perm, signs in (witness[:2], witness[2:]):
            if sorted(perm) != list(range(size)) or set(signs) - {1, -1}:
                return ["'yes' witness is not a signed permutation"]
            f = np.zeros((size, size), dtype=np.int64)
            f[np.arange(size), list(perm)] = list(signs)
            factors.append(f)
        if not np.array_equal(factors[0] @ n @ factors[1], m):
            return ["'yes' witness: P N Q != M"]
        return [] if truth else ["'yes' on a pair built to differ"]
    if truth:
        return ["'no' on a pair built as P M Q"]
    if intersection_profile(m) == intersection_profile(n):
        return ["'no' not confirmed: equal intersection profiles"]
    return []


def check_screen(adj: np.ndarray, code: int, stdout: str) -> list[str]:
    """``rectaspec check --signed-file`` on the signed graph ``adj``."""
    a = np.asarray(adj, dtype=np.int64)
    n = a.shape[0]
    r = int(np.abs(a[0]).sum())
    lines = stdout.splitlines()
    if len(lines) != 3:
        return [f"expected 3 output lines, got {len(lines)}"]
    problems = []
    if lines[1:] != structure_lines(a):
        problems.append(f"structure report {lines[1:]!r}, "
                        f"expected {structure_lines(a)!r}")
    head = lines[0].split()
    if squares_to_identity(a, r):
        want = f"TwoSym lambda^2={r} m={n // 2}"
        if lines[0] != want:
            problems.append(f"certificate {lines[0]!r}, expected {want!r}")
        want_code = 0
    elif head[0] == "Other":
        want_code = 1
    else:
        want_code = 0
        fields = dict(f.split("=") for f in head[1:])
        lam = int(fields.get("lambda^2", 0))
        sq = a @ a
        eye = np.eye(n, dtype=np.int64)
        if head[0] == "ThreeSym":
            holds = np.array_equal(sq @ a, lam * a)
        elif head[0] == "FourSym":
            mu = int(fields.get("mu^2", 0))
            holds = not np.any((sq - lam * eye) @ (sq - mu * eye))
        else:
            holds = False
        if not holds:
            problems.append(f"certificate {lines[0]!r} does not hold")
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return problems
