"""Pure-Python backtracking kernels; no search in the package calls them.

``run_search`` is the paper's row-by-row signature DFS, the kernel of the
tests' reference search (``tests/reference_oracles.py``).  Its state is a
trail-based DFS over edge sign bits with unit propagation on the quadrangle
parity constraints: a constraint with one unassigned edge forces it, a fully
assigned constraint with the wrong parity kills the branch.

``run_weighing_search`` is the old weighing search, which branches over the
sign of every entry.  ``search.search_weighing`` replaced it; the tests
compare that search against it.
"""

from __future__ import annotations


def run_search(n_free, constraint_edges, constraint_targets, edge_constraints,
               edge_rows, row_free_counts, order, node_budget=0,
               progress=None, progress_every=0):
    """DFS over the free-edge signs.

    Returns (solutions, nodes, row counts, exhausted); solutions are
    bitmasks over free-edge ids with bit 1 meaning a negative edge, and
    row counts[v] is the number of consistent completions of vertex v's row.
    ``progress`` is called as progress(nodes, depth) every ``progress_every``
    nodes; it never affects the traversal.
    """
    n_constraints = len(constraint_edges)
    assign = [-1] * n_free
    cnt = [len(es) for es in constraint_edges]
    acc = [0] * n_constraints
    row_left = list(row_free_counts)
    row_cand = [0] * len(row_free_counts)
    trail: list[int] = []
    solutions: list[int] = []
    nodes = 0
    exhausted = True

    def try_assign(e0, b0, completed):
        queue = [(e0, b0)]
        while queue:
            e, b = queue.pop()
            if assign[e] != -1:
                if assign[e] != b:
                    return False
                continue
            assign[e] = b
            trail.append(e)
            ra, rb = edge_rows[e]
            row_left[ra] -= 1
            if row_left[ra] == 0:
                completed.append(ra)
            row_left[rb] -= 1
            if row_left[rb] == 0:
                completed.append(rb)
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
            ra, rb = edge_rows[e]
            row_left[ra] += 1
            row_left[rb] += 1
            for ci in edge_constraints[e]:
                cnt[ci] += 1
                acc[ci] ^= b

    def next_unassigned(p):
        while p < n_free and assign[order[p]] != -1:
            p += 1
        return p

    if n_free == 0:
        return [0], 0, row_cand, True

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
        if progress_every and progress is not None and nodes % progress_every == 0:
            progress(nodes, len(frames))
        completed: list[int] = []
        if not try_assign(e, sign, completed):
            continue
        for v in completed:
            row_cand[v] += 1
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
    return solutions, nodes, row_cand, exhausted


def run_weighing_search(n, r, prefix_rows, node_budget=0):
    """Row-by-row enumeration of {0, +-1} matrices extending ``prefix_rows``
    to an n x n weighing matrix of weight r whose row (and hence column)
    intersection numbers lie in {0, 2}.

    Tail rows are kept lexicographically non-decreasing with their first
    nonzero entry positive (both are equivalence symmetries).  Returns
    (solutions, nodes, exhausted) with solutions as row-major entry tuples.
    """
    rows = [list(map(int, row)) for row in prefix_rows]
    n_prefix = len(rows)
    col_count = [0] * n
    col_ov = [[0] * n for _ in range(n)]
    col_dot = [[0] * n for _ in range(n)]
    for row in rows:
        sup = [j for j, v in enumerate(row) if v]
        for j in sup:
            col_count[j] += 1
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                i, j = sup[a], sup[b]
                col_ov[i][j] += 1
                col_dot[i][j] += row[i] * row[j]
    supports = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    # every row of a finished matrix intersects exactly r(r-1)/2 others
    # (each support column carries r-1 other entries, each intersecting
    # partner uses two of those slots), so per-row quotas bound the search
    quota = r * (r - 1) // 2
    inter_cnt = [0] * n
    disj_cnt = [0] * n
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if (supports[a] & supports[b]).bit_count():
                inter_cnt[a] += 1
                inter_cnt[b] += 1
            else:
                disj_cnt[a] += 1
                disj_cnt[b] += 1
    solutions = []
    state = {"nodes": 0}

    def suffix_support(mask, j):
        return (mask >> j).bit_count()

    def row_choices(i, prev_tail):
        entries = [0] * n
        dots = [0] * i
        ovs = [0] * i

        def feasible(j, weight_left):
            if weight_left > n - j:
                return False
            for p in range(i):
                ov = ovs[p]
                if ov == 2:
                    if dots[p] != 0:
                        return False
                elif ov == 1:
                    if min(weight_left, suffix_support(supports[p], j)) == 0:
                        return False
            return True

        def rec(j, weight_left, seen_nonzero, still_equal):
            if node_budget and state["nodes"] >= node_budget:
                return
            if j == n:
                if weight_left == 0 and all(
                        ovs[p] in (0, 2) and dots[p] == 0 for p in range(i)):
                    mask = sum(1 << jj for jj, v in enumerate(entries) if v)
                    yield list(entries), mask
                return
            choices = [0, 1, -1] if seen_nonzero else [0, 1]
            for v in choices:
                if v == 0:
                    if still_equal and prev_tail is not None and prev_tail[j] > 0:
                        continue
                    nxt_equal = still_equal and (prev_tail is None
                                                 or prev_tail[j] == 0)
                    if still_equal and prev_tail is not None and prev_tail[j] < 0:
                        nxt_equal = False
                    if feasible(j + 1, weight_left):
                        yield from rec(j + 1, weight_left, seen_nonzero, nxt_equal)
                    continue
                if weight_left == 0 or col_count[j] >= r:
                    continue
                if still_equal and prev_tail is not None and v < prev_tail[j]:
                    continue
                if node_budget and state["nodes"] >= node_budget:
                    return
                state["nodes"] += 1
                ok = True
                for jj in range(j):  # column pairs inside the current row
                    w = entries[jj]
                    if w == 0:
                        continue
                    ov = col_ov[jj][j] + 1
                    if ov > 2 or (ov == 2 and col_dot[jj][j] + w * v != 0):
                        ok = False
                        break
                touched = []
                if not ok:
                    continue
                for p in range(i):
                    pv = rows[p][j]
                    if pv:
                        ovs[p] += 1
                        dots[p] += v * pv
                        touched.append(p)
                        if ovs[p] > 2:
                            ok = False
                nxt_equal = (still_equal and prev_tail is not None
                             and v == prev_tail[j])
                if ok and feasible(j + 1, weight_left - 1):
                    entries[j] = v
                    yield from rec(j + 1, weight_left - 1, True, nxt_equal)
                    entries[j] = 0
                for p in touched:
                    ovs[p] -= 1
                    dots[p] -= v * rows[p][j]

        yield from rec(0, r, False, prev_tail is not None)

    def extend(i, prev_tail):
        if node_budget and state["nodes"] >= node_budget:
            return
        if i == n:
            solutions.append(tuple(v for row in rows for v in row))
            return
        remaining = n - i  # rows still to be filled, this one included
        if any(r - c > remaining for c in col_count):
            return
        for entries, mask in row_choices(i, prev_tail):
            for p in range(i):
                if supports[p] & mask:
                    inter_cnt[p] += 1
                    inter_cnt[i] += 1
                else:
                    disj_cnt[p] += 1
                    disj_cnt[i] += 1
            future = n - 1 - i
            ok = all(inter_cnt[p] <= quota
                     and inter_cnt[p] + future >= quota
                     for p in range(i + 1))
            if ok:
                rows.append(entries)
                supports.append(mask)
                sup = [j for j, v in enumerate(entries) if v]
                for j in sup:
                    col_count[j] += 1
                for a in range(len(sup)):
                    for b in range(a + 1, len(sup)):
                        ja, jb = sup[a], sup[b]
                        col_ov[ja][jb] += 1
                        col_dot[ja][jb] += entries[ja] * entries[jb]
                extend(i + 1, entries)
                rows.pop()
                supports.pop()
                for j in sup:
                    col_count[j] -= 1
                for a in range(len(sup)):
                    for b in range(a + 1, len(sup)):
                        ja, jb = sup[a], sup[b]
                        col_ov[ja][jb] -= 1
                        col_dot[ja][jb] -= entries[ja] * entries[jb]
            for p in range(i):
                if supports[p] & mask:
                    inter_cnt[p] -= 1
                    inter_cnt[i] -= 1
                else:
                    disj_cnt[p] -= 1
                    disj_cnt[i] -= 1

    extend(n_prefix, None)
    nodes = state["nodes"]
    exhausted = not (node_budget and nodes >= node_budget)
    return solutions, nodes, exhausted
