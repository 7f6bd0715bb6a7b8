# cython: boundscheck=False, wraparound=False, cdivision=True
# cython: language_level=3
"""Compiled tuple enumeration.

Same contract as reflfact._kernels_pure.enum_bucketed; counts are C
int64, so the caller must (and does) guarantee that the number of tuples
fits.  The hot loop runs without the GIL, which lets the enumeration
slices in reflfact.counting use real thread parallelism.  The DP has no
compiled counterpart: it runs over conjugacy classes in pure Python.
"""

from libc.stdlib cimport calloc, free, malloc

BACKEND_NAME = "compiled"

DEF MAXN = 24


cdef struct Ctx:
    int r, s, q, n
    long long exp_block
    long long size


cdef long long _encode(Ctx* ctx, int* perm0, int* exps) noexcept nogil:
    cdef long long rank = 0, x = 0
    cdef int i, j, smaller, n = ctx.n
    for i in range(n):
        smaller = 0
        for j in range(i + 1, n):
            if perm0[j] < perm0[i]:
                smaller += 1
        rank = rank * (n - i) + smaller
    for i in range(n - 2, -1, -1):
        x = x * ctx.r + exps[i]
    return rank * ctx.exp_block + x * ctx.q + exps[n - 1] / ctx.s


cdef int _setup(Ctx* ctx, int r, int s, int n) except -1:
    cdef long long f = 1
    cdef int i
    if n > MAXN - 1:
        raise ValueError(f"compiled kernels support n <= {MAXN - 1}")
    ctx.r = r
    ctx.s = s
    ctx.q = r // s
    ctx.n = n
    ctx.exp_block = ctx.q
    for i in range(n - 1):
        ctx.exp_block *= r
    for i in range(2, n + 1):
        f *= i
    ctx.size = f * ctx.exp_block
    return 0


cdef int* _refl_arrays(refl, int n, int r, int s, int** rexp_out, int** diag_out) except NULL:
    """Flatten reflection actions: per reflection the full permutation image
    and added-exponent arrays, plus a diagonal flag array."""
    cdef int nrefl = len(refl)
    cdef int* rperm = <int*>malloc(nrefl * n * sizeof(int))
    cdef int* rexp = <int*>malloc(nrefl * n * sizeof(int))
    cdef int* diag = <int*>malloc(nrefl * sizeof(int))
    cdef int t, i, a, b, k, is_diag
    if rperm == NULL or rexp == NULL or diag == NULL:
        free(rperm); free(rexp); free(diag)
        raise MemoryError()
    for t in range(nrefl):
        is_diag, a, b, k = refl[t]
        diag[t] = is_diag
        for i in range(n):
            rperm[t * n + i] = i
            rexp[t * n + i] = 0
        if is_diag:
            rexp[t * n + a] = (s * k) % r
        else:
            rperm[t * n + a] = b
            rperm[t * n + b] = a
            rexp[t * n + a] = k
            rexp[t * n + b] = (r - k) % r
    rexp_out[0] = rexp
    diag_out[0] = diag
    return rperm


cdef list _to_list(long long* vec, long long size):
    cdef long long i
    return [vec[i] for i in range(size)]


cdef long long _uf_find(long long* parent, long long x) noexcept nogil:
    while parent[x] != x:
        x = parent[x]
    return x


def enum_bucketed(int r, int s, int n, refl, int m, int lo, int hi):
    """Enumerate m-tuples whose first factor index lies in [lo, hi);
    returns (total[m2][g], conn[m2][g]) as nested lists."""
    cdef Ctx ctx
    _setup(&ctx, r, s, n)
    cdef int nrefl = len(refl)
    cdef long long cells = (m + 1) * ctx.size
    cdef long long* total = <long long*>calloc(cells, sizeof(long long))
    cdef long long* conn = <long long*>calloc(cells, sizeof(long long))
    if total == NULL or conn == NULL:
        free(total); free(conn)
        raise MemoryError()
    if m == 0:
        if lo == 0:
            total[0] = 1
            if n == 1:
                conn[0] = 1
        try:
            return ([_to_list(total, ctx.size)], [_to_list(conn, ctx.size)])
        finally:
            free(total); free(conn)

    cdef int* rexp = NULL
    cdef int* diag = NULL
    cdef int* rperm = _refl_arrays(refl, n, r, s, &rexp, &diag)
    # reflection endpoints for union-find and in-place product updates
    cdef int* ra = <int*>malloc(nrefl * sizeof(int))
    cdef int* rb = <int*>malloc(nrefl * sizeof(int))
    cdef int* rk = <int*>malloc(nrefl * sizeof(int))
    cdef int t
    for t in range(nrefl):
        _d, _a, _b, _k = refl[t]
        ra[t] = _a; rb[t] = _b; rk[t] = _k

    cdef int perm0[MAXN]
    cdef int invperm[MAXN]
    cdef int exps[MAXN]
    cdef long long parent[MAXN]
    cdef long long compsize[MAXN]
    cdef int i
    for i in range(n):
        perm0[i] = i; invperm[i] = i; exps[i] = 0
        parent[i] = i; compsize[i] = 1
    cdef long long comps = n
    cdef int m2 = 0

    # per-level DFS state
    cdef int* pos = <int*>malloc(m * sizeof(int))
    cdef int* applied = <int*>malloc(m * sizeof(int))
    cdef int* undo_ia = <int*>malloc(m * sizeof(int))
    cdef int* undo_ib = <int*>malloc(m * sizeof(int))
    cdef long long* trail = <long long*>malloc(m * sizeof(long long))

    cdef int level = 0
    cdef int tt, a, b, k, ia, ib
    cdef long long roota, rootb, g
    with nogil:
        pos[0] = lo - 1
        applied[0] = 0
        while True:
            if applied[level]:
                # undo the previous choice at this level
                tt = pos[level]
                if diag[tt]:
                    ia = undo_ia[level]
                    exps[ia] = (exps[ia] - (s * rk[tt]) % ctx.r + ctx.r) % ctx.r
                    m2 -= 1
                else:
                    ia = undo_ia[level]; ib = undo_ib[level]
                    a = ra[tt]; b = rb[tt]
                    perm0[ia] = a; perm0[ib] = b
                    invperm[a] = ia; invperm[b] = ib
                    exps[ia] = (exps[ia] - rk[tt] + ctx.r) % ctx.r
                    exps[ib] = (exps[ib] + rk[tt]) % ctx.r
                    if trail[level] >= 0:
                        rootb = trail[level]
                        parent[rootb] = rootb
                        compsize[_uf_find(parent, <long long>a)] -= compsize[rootb]
                        comps += 1
                applied[level] = 0
            pos[level] += 1
            if pos[level] >= (hi if level == 0 else nrefl):
                if level == 0:
                    break
                level -= 1
                continue
            # apply choice pos[level]
            tt = pos[level]
            if diag[tt]:
                a = ra[tt]
                ia = invperm[a]
                exps[ia] = (exps[ia] + (s * rk[tt]) % ctx.r) % ctx.r
                undo_ia[level] = ia
                m2 += 1
            else:
                a = ra[tt]; b = rb[tt]
                ia = invperm[a]; ib = invperm[b]
                perm0[ia] = b; perm0[ib] = a
                invperm[a] = ib; invperm[b] = ia
                exps[ia] = (exps[ia] + rk[tt]) % ctx.r
                exps[ib] = (exps[ib] - rk[tt] + ctx.r) % ctx.r
                undo_ia[level] = ia; undo_ib[level] = ib
                roota = _uf_find(parent, <long long>a)
                rootb = _uf_find(parent, <long long>b)
                if roota == rootb:
                    trail[level] = -1
                else:
                    if compsize[roota] < compsize[rootb]:
                        roota, rootb = rootb, roota
                    parent[rootb] = roota
                    compsize[roota] += compsize[rootb]
                    comps -= 1
                    trail[level] = rootb
            applied[level] = 1
            if level == m - 1:
                g = _encode(&ctx, perm0, exps)
                total[m2 * ctx.size + g] += 1
                if comps == 1:
                    conn[m2 * ctx.size + g] += 1
            else:
                level += 1
                pos[level] = -1
                applied[level] = 0
    try:
        out_total = [_to_list(total + m2 * ctx.size, ctx.size) for m2 in range(m + 1)]
        out_conn = [_to_list(conn + m2 * ctx.size, ctx.size) for m2 in range(m + 1)]
    finally:
        free(total); free(conn)
        free(rperm); free(rexp); free(diag)
        free(ra); free(rb); free(rk)
        free(pos); free(applied); free(undo_ia); free(undo_ib); free(trail)
    return out_total, out_conn
