# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled signature-search kernel.

Mirror of ``pysearch.run_search``: same traversal, same propagation order
(LIFO), same node and row-candidate accounting, so both backends return
bit-identical results.  Keep the two implementations in sync.
"""

from libc.stdlib cimport free, malloc

IMPL = "cython"


def run_search(n_free, constraint_edges, constraint_targets, edge_constraints,
               edge_rows, row_free_counts, order, node_budget=0,
               progress=None, progress_every=0):
    if n_free == 0:
        return [0], 0, list(row_free_counts), True
    cdef int nf = n_free
    cdef int nc = len(constraint_edges)
    cdef int nrows = len(row_free_counts)

    # flatten the constraint <-> edge incidence
    cdef int ce_total = 0, ec_total = 0
    for es in constraint_edges:
        ce_total += len(es)
    for cs in edge_constraints:
        ec_total += len(cs)

    cdef int *ce_off = <int *> malloc((nc + 1) * sizeof(int))
    cdef int *ce_dat = <int *> malloc(max(ce_total, 1) * sizeof(int))
    cdef int *targets = <int *> malloc(max(nc, 1) * sizeof(int))
    cdef int *ec_off = <int *> malloc((nf + 1) * sizeof(int))
    cdef int *ec_dat = <int *> malloc(max(ec_total, 1) * sizeof(int))
    cdef int *row_a = <int *> malloc(nf * sizeof(int))
    cdef int *row_b = <int *> malloc(nf * sizeof(int))
    cdef int *assign = <int *> malloc(nf * sizeof(int))
    cdef int *cnt = <int *> malloc(max(nc, 1) * sizeof(int))
    cdef int *acc = <int *> malloc(max(nc, 1) * sizeof(int))
    cdef int *row_left = <int *> malloc(max(nrows, 1) * sizeof(int))
    cdef long *row_cand = <long *> malloc(max(nrows, 1) * sizeof(long))
    cdef int *trail = <int *> malloc(nf * sizeof(int))
    cdef int *order_c = <int *> malloc(nf * sizeof(int))
    # propagation stack of (edge, bit) pairs; within one step every
    # constraint forces at most once, so nc + 1 entries bound it
    cdef int *prop = <int *> malloc(2 * (nc + 2) * sizeof(int))
    cdef int *completed = <int *> malloc(max(nrows, 1) * sizeof(int))
    # frames: edge, next sign, trail mark, order ptr
    cdef int *frames = <int *> malloc(4 * (nf + 1) * sizeof(int))

    cdef int i, j, k
    k = 0
    for i, es in enumerate(constraint_edges):
        ce_off[i] = k
        targets[i] = constraint_targets[i]
        for eid in es:
            ce_dat[k] = eid
            k += 1
    ce_off[nc] = k
    k = 0
    for i, cs in enumerate(edge_constraints):
        ec_off[i] = k
        for cid in cs:
            ec_dat[k] = cid
            k += 1
    ec_off[nf] = k
    for i in range(nf):
        row_a[i] = edge_rows[i][0]
        row_b[i] = edge_rows[i][1]
        assign[i] = -1
        order_c[i] = order[i]
    for i in range(nc):
        cnt[i] = ce_off[i + 1] - ce_off[i]
        acc[i] = 0
    for i in range(nrows):
        row_left[i] = row_free_counts[i]
        row_cand[i] = 0

    solutions = []
    cdef long nodes = 0
    cdef long budget = node_budget
    cdef long every = progress_every
    cdef bint exhausted = True
    cdef int trail_len = 0
    cdef int n_frames = 0
    cdef int e, b, sign, mark, fptr, p, ci, e2, left, need, v
    cdef int prop_len, n_completed, conflict

    # root frame
    p = 0
    while p < nf and assign[order_c[p]] != -1:
        p += 1
    frames[0] = order_c[p]
    frames[1] = 0
    frames[2] = 0
    frames[3] = p
    n_frames = 1

    while n_frames > 0:
        e = frames[(n_frames - 1) * 4 + 0]
        sign = frames[(n_frames - 1) * 4 + 1]
        mark = frames[(n_frames - 1) * 4 + 2]
        fptr = frames[(n_frames - 1) * 4 + 3]
        # rewind the trail to this frame's mark
        while trail_len > mark:
            trail_len -= 1
            e2 = trail[trail_len]
            b = assign[e2]
            assign[e2] = -1
            row_left[row_a[e2]] += 1
            row_left[row_b[e2]] += 1
            for k in range(ec_off[e2], ec_off[e2 + 1]):
                ci = ec_dat[k]
                cnt[ci] += 1
                acc[ci] ^= b
        if sign == 2:
            n_frames -= 1
            continue
        frames[(n_frames - 1) * 4 + 1] = sign + 1
        if budget > 0 and nodes >= budget:
            exhausted = False
            break
        nodes += 1
        if every > 0 and progress is not None and nodes % every == 0:
            progress(nodes, n_frames)
        # assign e := sign and propagate (LIFO, matching the python twin)
        prop[0] = e
        prop[1] = sign
        prop_len = 1
        n_completed = 0
        conflict = 0
        while prop_len > 0 and not conflict:
            prop_len -= 1
            e2 = prop[prop_len * 2]
            b = prop[prop_len * 2 + 1]
            if assign[e2] != -1:
                if assign[e2] != b:
                    conflict = 1
                continue
            assign[e2] = b
            trail[trail_len] = e2
            trail_len += 1
            v = row_a[e2]
            row_left[v] -= 1
            if row_left[v] == 0:
                completed[n_completed] = v
                n_completed += 1
            v = row_b[e2]
            row_left[v] -= 1
            if row_left[v] == 0:
                completed[n_completed] = v
                n_completed += 1
            for k in range(ec_off[e2], ec_off[e2 + 1]):
                ci = ec_dat[k]
                cnt[ci] -= 1
                acc[ci] ^= b
                left = cnt[ci]
                if left == 0:
                    if acc[ci] != targets[ci]:
                        # the rewind reverses every constraint of e2, so
                        # finish the bookkeeping of the ones not reached
                        for j in range(k + 1, ec_off[e2 + 1]):
                            cnt[ec_dat[j]] -= 1
                            acc[ec_dat[j]] ^= b
                        conflict = 1
                        break
                elif left == 1:
                    need = targets[ci] ^ acc[ci]
                    for j in range(ce_off[ci], ce_off[ci + 1]):
                        if assign[ce_dat[j]] == -1:
                            prop[prop_len * 2] = ce_dat[j]
                            prop[prop_len * 2 + 1] = need
                            prop_len += 1
                            break
        if conflict:
            continue
        for k in range(n_completed):
            row_cand[completed[k]] += 1
        p = fptr + 1
        while p < nf and assign[order_c[p]] != -1:
            p += 1
        if p == nf:
            mask = 0
            bit = 1  # Python ints, so bits past 31 survive
            for i in range(nf):
                if assign[i] == 1:
                    mask |= bit
                bit <<= 1
            solutions.append(mask)
            continue
        frames[n_frames * 4 + 0] = order_c[p]
        frames[n_frames * 4 + 1] = 0
        frames[n_frames * 4 + 2] = trail_len
        frames[n_frames * 4 + 3] = p
        n_frames += 1

    row_cand_out = [row_cand[i] for i in range(nrows)]
    total_nodes = nodes
    free(ce_off); free(ce_dat); free(targets); free(ec_off); free(ec_dat)
    free(row_a); free(row_b); free(assign); free(cnt); free(acc)
    free(row_left); free(row_cand); free(trail); free(order_c)
    free(prop); free(completed); free(frames)
    return solutions, total_nodes, row_cand_out, exhausted


DEF WMAX = 64


cdef struct WState:
    int n
    int r
    int n_prefix
    int quota          # exact number of rows every row must intersect
    long nodes
    long budget
    int rows[WMAX][WMAX]
    unsigned long long supports[WMAX]
    int col_count[WMAX]
    int col_ov[WMAX][WMAX]
    int col_dot[WMAX][WMAX]
    int ovs[WMAX][WMAX]   # [row depth][previous row]
    int dots[WMAX][WMAX]
    int inter_cnt[WMAX]
    int disj_cnt[WMAX]


cdef int _w_feasible(WState *st, int i, int j, int weight_left) noexcept:
    cdef int p, ov
    cdef unsigned long long rest
    if weight_left > st.n - j:
        return 0
    for p in range(i):
        ov = st.ovs[i][p]
        if ov == 2:
            if st.dots[i][p] != 0:
                return 0
        elif ov == 1:
            rest = st.supports[p] >> j
            if weight_left == 0 or rest == 0:
                return 0
    return 1


cdef void _w_extend(WState *st, int i, object solutions) noexcept:
    cdef int j, c, v
    if st.budget > 0 and st.nodes >= st.budget:
        return
    if i == st.n:
        out = []
        for j in range(st.n):
            for c in range(st.n):
                out.append(st.rows[j][c])
        solutions.append(tuple(out))
        return
    for j in range(st.n):
        if st.r - st.col_count[j] > st.n - i:
            return
    for j in range(st.n):
        st.rows[i][j] = 0
    for j in range(i):
        st.ovs[i][j] = 0
        st.dots[i][j] = 0
    _w_rec(st, i, 0, st.r, 0, 1 if i > st.n_prefix else 0, solutions)


cdef void _w_rec(WState *st, int i, int j, int weight_left, int seen_nonzero,
                 int still_equal, object solutions) noexcept:
    cdef int vi, v, jj, w, ov, p, pv, ok, nxt_equal, prev, a, b, ja, jb
    cdef int touched[WMAX]
    cdef int n_touched
    cdef unsigned long long mask
    if st.budget > 0 and st.nodes >= st.budget:
        return
    if j == st.n:
        if weight_left != 0:
            return
        for p in range(i):
            if st.dots[i][p] != 0 or st.ovs[i][p] == 1 or st.ovs[i][p] > 2:
                return
        # per-row intersection quotas to date, then commit row i and descend
        mask = 0
        for jj in range(st.n):
            if st.rows[i][jj] != 0:
                mask |= (<unsigned long long> 1) << jj
        st.inter_cnt[i] = 0
        st.disj_cnt[i] = 0
        for p in range(i):
            if st.supports[p] & mask:
                st.inter_cnt[p] += 1
                st.inter_cnt[i] += 1
            else:
                st.disj_cnt[p] += 1
                st.disj_cnt[i] += 1
        ok = 1
        for p in range(i + 1):
            if st.inter_cnt[p] > st.quota                     or st.inter_cnt[p] + (st.n - 1 - i) < st.quota:
                ok = 0
                break
        if ok:
            st.supports[i] = mask
            for jj in range(st.n):
                if st.rows[i][jj] != 0:
                    st.col_count[jj] += 1
            for a in range(st.n):
                if st.rows[i][a] == 0:
                    continue
                for b in range(a + 1, st.n):
                    if st.rows[i][b] == 0:
                        continue
                    st.col_ov[a][b] += 1
                    st.col_dot[a][b] += st.rows[i][a] * st.rows[i][b]
            _w_extend(st, i + 1, solutions)
            for jj in range(st.n):
                if st.rows[i][jj] != 0:
                    st.col_count[jj] -= 1
            for a in range(st.n):
                if st.rows[i][a] == 0:
                    continue
                for b in range(a + 1, st.n):
                    if st.rows[i][b] == 0:
                        continue
                    st.col_ov[a][b] -= 1
                    st.col_dot[a][b] -= st.rows[i][a] * st.rows[i][b]
        for p in range(i):
            if st.supports[p] & mask:
                st.inter_cnt[p] -= 1
            else:
                st.disj_cnt[p] -= 1
        return
    prev = st.rows[i - 1][j] if i > st.n_prefix else 0
    for vi in range(3):
        if vi == 0:
            v = 0
        elif vi == 1:
            v = 1
        else:
            if not seen_nonzero:
                continue
            v = -1
        if v == 0:
            if still_equal and i > st.n_prefix and prev > 0:
                continue
            nxt_equal = 1 if (still_equal and i > st.n_prefix and prev == 0) else 0
            if _w_feasible(st, i, j + 1, weight_left):
                _w_rec(st, i, j + 1, weight_left, seen_nonzero, nxt_equal,
                       solutions)
            continue
        if weight_left == 0 or st.col_count[j] >= st.r:
            continue
        if still_equal and i > st.n_prefix and v < prev:
            continue
        st.nodes += 1
        ok = 1
        for jj in range(j):
            w = st.rows[i][jj]
            if w == 0:
                continue
            ov = st.col_ov[jj][j] + 1
            if ov > 2 or (ov == 2 and st.col_dot[jj][j] + w * v != 0):
                ok = 0
                break
        if not ok:
            continue
        n_touched = 0
        for p in range(i):
            pv = st.rows[p][j]
            if pv != 0:
                st.ovs[i][p] += 1
                st.dots[i][p] += v * pv
                touched[n_touched] = p
                n_touched += 1
                if st.ovs[i][p] > 2:
                    ok = 0
        nxt_equal = 1 if (still_equal and i > st.n_prefix and v == prev) else 0
        if ok and _w_feasible(st, i, j + 1, weight_left - 1):
            st.rows[i][j] = v
            _w_rec(st, i, j + 1, weight_left - 1, 1, nxt_equal, solutions)
            st.rows[i][j] = 0
        for p in range(n_touched):
            st.ovs[i][touched[p]] -= 1
            st.dots[i][touched[p]] -= v * st.rows[touched[p]][j]


def run_weighing_search(n, r, prefix_rows, node_budget=0):
    """Compiled twin of pysearch.run_weighing_search; identical traversal."""
    if n > WMAX:
        raise ValueError(f"compiled weighing search caps the order at {WMAX}")
    cdef WState st
    cdef int i, j, a, b
    st.n = n
    st.r = r
    st.n_prefix = len(prefix_rows)
    st.quota = r * (r - 1) // 2
    st.nodes = 0
    st.budget = node_budget
    for j in range(n):
        st.col_count[j] = 0
        st.inter_cnt[j] = 0
        st.disj_cnt[j] = 0
        for i in range(n):
            st.col_ov[j][i] = 0
            st.col_dot[j][i] = 0
    for i, row in enumerate(prefix_rows):
        for j in range(n):
            st.rows[i][j] = row[j]
        st.supports[i] = 0
        for j in range(n):
            if st.rows[i][j] != 0:
                st.supports[i] |= (<unsigned long long> 1) << j
                st.col_count[j] += 1
        for j in range(i):
            if st.supports[j] & st.supports[i]:
                st.inter_cnt[j] += 1
                st.inter_cnt[i] += 1
            else:
                st.disj_cnt[j] += 1
                st.disj_cnt[i] += 1
        for a in range(n):
            if st.rows[i][a] == 0:
                continue
            for b in range(a + 1, n):
                if st.rows[i][b] == 0:
                    continue
                st.col_ov[a][b] += 1
                st.col_dot[a][b] += st.rows[i][a] * st.rows[i][b]
    solutions = []
    _w_extend(&st, st.n_prefix, solutions)
    nodes = st.nodes
    exhausted = not (node_budget and nodes >= node_budget)
    return solutions, nodes, exhausted
