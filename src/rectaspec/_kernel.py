"""The paper's row-by-row signature DFS, kept in the package only because
the benchmark (``perfbench/``) imports it; no package search calls it.

``run_search`` is the kernel of the tests' reference search
(``tests/reference_oracles.py``).  Its state is a trail-based DFS over edge
sign bits with unit propagation on the quadrangle parity constraints: a
constraint with one unassigned edge forces it, a fully assigned constraint
with the wrong parity kills the branch.  ``active_backend()`` always reports
``"python"``: no compiled kernel is left.
"""

from __future__ import annotations


def run_search(n_free, constraint_edges, constraint_targets, edge_constraints,
               order, node_budget=0):
    """DFS over the free-edge signs.

    Returns (solutions, nodes, (), exhausted), solutions being bitmasks over
    free-edge ids, bit 1 a negative edge; the () holds the place of per-row
    completion counts, which nothing read, as the benchmark unpacks four.
    """
    assign = [-1] * n_free
    cnt = [len(es) for es in constraint_edges]
    acc = [0] * len(constraint_edges)
    trail: list[int] = []
    solutions: list[int] = []
    nodes = 0
    exhausted = True

    def try_assign(e0, b0):
        queue = [(e0, b0)]
        while queue:
            e, b = queue.pop()
            if assign[e] != -1:
                if assign[e] != b:
                    return False
                continue
            assign[e] = b
            trail.append(e)
            for ci in edge_constraints[e]:
                cnt[ci] -= 1
                acc[ci] ^= b
                left = cnt[ci]
                if left == 0:
                    if acc[ci] != constraint_targets[ci]:
                        # undo_to reverses every constraint of e, so finish
                        # the bookkeeping of the ones this loop did not reach
                        cs = edge_constraints[e]
                        for cj in cs[cs.index(ci) + 1:]:
                            cnt[cj] -= 1
                            acc[cj] ^= b
                        return False
                elif left == 1:
                    need = constraint_targets[ci] ^ acc[ci]
                    for e2 in constraint_edges[ci]:
                        if assign[e2] == -1:
                            queue.append((e2, need))
                            break
        return True

    def undo_to(mark):
        while len(trail) > mark:
            e = trail.pop()
            b = assign[e]
            assign[e] = -1
            for ci in edge_constraints[e]:
                cnt[ci] += 1
                acc[ci] ^= b

    def next_unassigned(p):
        while p < n_free and assign[order[p]] != -1:
            p += 1
        return p

    if n_free == 0:
        return [0], 0, (), True

    p0 = next_unassigned(0)
    frames = [[order[p0], 0, 0, p0]]  # edge, next sign, trail mark, order ptr
    while frames:
        frame = frames[-1]
        e, sign, mark, fptr = frame
        undo_to(mark)
        if sign == 2:
            frames.pop()
            continue
        frame[1] += 1
        if node_budget and nodes >= node_budget:
            exhausted = False
            break
        nodes += 1
        if not try_assign(e, sign):
            continue
        p = next_unassigned(fptr + 1)
        if p == n_free:
            mask = 0
            for idx in range(n_free):
                if assign[idx] == 1:
                    mask |= 1 << idx
            solutions.append(mask)
            continue
        frames.append([order[p], 0, len(trail), p])
    undo_to(0)
    return solutions, nodes, (), exhausted


def active_backend() -> str:
    return "python"
