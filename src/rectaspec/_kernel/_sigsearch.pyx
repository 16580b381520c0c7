# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled weighing-matrix search kernel.

Mirror of ``pysearch.run_weighing_search``: the same traversal and node
accounting, so both backends return identical results.  Keep the two
implementations in sync.  The signature DFS has no compiled form: it is pure
Python, in ``pysearch``.
"""

IMPL = "cython"


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
        if st.budget > 0 and st.nodes >= st.budget:
            return
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
