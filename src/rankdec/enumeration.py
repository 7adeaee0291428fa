"""Exact weight enumeration kernels.

The message space F_{q^m}^k is an F_p-space of dimension a*m*k, and
message index t is the message whose component i is the base-q^m digit
i of t (a field int).  Read in base p, digit j = i*(a*m) + s of t
scales basis message j, which puts p^s into component i: the int p^s
is the element x^s of the modulus root.  The codeword map is F_p-linear
in the message, so the codewords of an affine coset offset + span_Fp(B)
of basis codewords B are generated by a doubling construction,
processed in contiguous chunks: each chunk combines a fixed low-digit
table (which carries the offset) with one high-digit offset codeword.
Chunks are disjoint, carry private results and are merged by integer
addition or by position, so results are independent of the chunk size
and of the number of worker threads.

Two entry points share the chunk kernel:

* :func:`weight_counts` enumerates all q^(mk) messages (the linear
  subspace, offset zero).  It is the full-enumeration oracle.
* :func:`projective_weights` enumerates only the normalised messages
  (first nonzero coordinate 1), one coset G_i + span_Fp(G_{i+1..k}) per
  lead position i, giving one weight per point of
  :func:`projective_points`.  Rank weight is invariant under nonzero
  F_{q^m}-scalars, so A_0 = 1 and A_i = (q^m - 1) * P_i for i >= 1,
  where P_i counts normalised messages of weight i: a factor q^m - 1
  less work than the full enumeration.  The same per-point weights
  give the line dimensions of decomposability detection,
  d_x = dim(U' n <x>) = m - w(xG) for the dual system U'.

Two backends compute the per-codeword rank weight (the F_q-dimension of
the span of the n entries):

* packed: q = 2 with prime base field; entries are bit masks and the
  elimination works on whole uint64 columns;
* generic: any q up to 256; entries are length-m code vectors reduced
  with the context's small-field tables.

Weight of a codeword never exceeds min(n, m); counts are exact ints.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import CapExceededError, FalsificationAlarm

DEFAULT_ENUM_CAP = 1 << 24
DEFAULT_PROJ_CAP = 1 << 16

#: words per chunk: the largest power of q at most this many
DEFAULT_CHUNK_TARGET = 1 << 16


def message_space_size(ctx, k: int) -> int:
    return ctx.q ** (ctx.m * k)


def message_from_index(ctx, k: int, idx: int) -> tuple[int, ...]:
    """Message vector (field ints) for a message index: component i is
    the base-q^m digit i of idx."""
    comps = []
    for _ in range(k):
        idx, z = divmod(idx, ctx.order)
        comps.append(z)
    return tuple(comps)


def index_of_message(ctx, k: int, msg) -> int:
    idx = 0
    for z in reversed(msg[:k]):
        idx = idx * ctx.order + z
    return idx


def _packed_ok(ctx) -> bool:
    return ctx.p == 2 and ctx.a == 1


def _basis_codewords(ctx, generator):
    """Kernel rows of all basis messages: row i*(a*m) + s is p^s * G_i,
    so row i*(a*m) is the generator row G_i itself."""
    rows = [[ctx.mul(ctx.p**s, g) for g in gen_row]
            for gen_row in generator for s in range(ctx.n)]
    if _packed_ok(ctx):
        return [np.array(row, dtype=np.uint64) for row in rows]
    out = []
    for row in rows:
        arr = [[ctx.fq_code(c) for c in ctx.q_coords(entry)] for entry in row]
        out.append(np.array(arr, dtype=np.uint8))
    return out


def _rank_rows_packed(cw: np.ndarray, m: int) -> np.ndarray:
    n_rows, n = cw.shape
    piv = np.zeros((m, n_rows), dtype=cw.dtype)
    rank = np.zeros(n_rows, dtype=np.uint8)
    for j in range(n):
        v = cw[:, j].copy()
        for b in range(m - 1, -1, -1):
            has = ((v >> np.uint64(b)) & np.uint64(1)).astype(bool)
            if not has.any():
                continue
            pv = piv[b]
            exists = pv != 0
            use = has & exists
            if use.any():
                v = np.where(use, v ^ pv, v)
            new = has & ~exists
            if new.any():
                piv[b] = np.where(new, v, pv)
                rank += new
                v = np.where(new, np.uint64(0), v)
    return rank


def _rank_rows_generic(cw: np.ndarray, tables) -> np.ndarray:
    add, sub, mul, inv = tables
    n_rows, n, m = cw.shape
    piv = np.zeros((m, n_rows, m), dtype=np.uint8)
    piv_used = np.zeros((m, n_rows), dtype=bool)
    rank = np.zeros(n_rows, dtype=np.uint8)
    for j in range(n):
        v = cw[:, j].copy()
        for c in range(m):
            vc = v[:, c]
            nz = vc != 0
            if not nz.any():
                continue
            used = piv_used[c]
            elim = nz & used
            if elim.any():
                prod = mul[vc[elim][:, None], piv[c][elim]]
                v[elim] = sub[v[elim], prod]
            vc = v[:, c]
            new = (vc != 0) & ~used
            if new.any():
                sc = inv[vc[new]][:, None]
                piv[c][new] = mul[sc, v[new]]
                piv_used[c][new] = True
                rank += new
                v[new] = 0
    return rank


class _Kernel:
    """Chunked enumeration of the coset offset + span_Fp(rows), where
    rows and offset come from :func:`_basis_codewords`; word number t
    is offset + sum_j d_j * rows[j] for the base-p digits d_j of t.
    With rows from component i on, word t is the message whose
    components i, i+1, ... are the base-q^m digits of t."""

    def __init__(self, ctx, rows, offset, chunk_target: int):
        self.m = ctx.m
        self.p = p = ctx.p
        self.packed = _packed_ok(ctx)
        digits = len(rows)
        self.words = p**digits
        # low-digit count: the largest power of p at most the chunk target
        low = 0
        while low < digits and p ** (low + 1) <= chunk_target:
            low += 1
        low = max(low, min(1, digits))
        self.chunk_size = p**low
        self.n_chunks = p ** (digits - low)
        self.high_rows = rows[low:]
        table = offset[None]
        if self.packed:
            for j in range(low):
                table = np.concatenate([table, table ^ rows[j]])
        else:
            self.tables = ctx.q_tables()
            add, sub, mul, inv = self.tables
            # the F_p constant c is its own F_q code
            for j in range(low):
                parts = [table]
                for c in range(1, p):
                    parts.append(add[table, mul[c, rows[j]][None, :, :]])
                table = np.concatenate(parts)
        self.low_table = table

    def chunk_codewords(self, chunk_idx: int) -> np.ndarray:
        h = chunk_idx
        base = np.zeros_like(self.low_table[0])
        if self.packed:
            for row in self.high_rows:
                if h & 1:
                    base = base ^ row
                h >>= 1
            return self.low_table ^ base
        add, sub, mul, inv = self.tables
        for row in self.high_rows:
            h, d = divmod(h, self.p)
            if d:
                base = add[base, mul[d, row]]
        return add[self.low_table, base[None, :, :]]

    def chunk_ranks(self, chunk_idx: int) -> np.ndarray:
        cw = self.chunk_codewords(chunk_idx)
        if self.packed:
            return _rank_rows_packed(cw, self.m)
        return _rank_rows_generic(cw, self.tables)


def _map_chunks(fn, jobs, threads: int):
    """fn over the jobs in order, on a pool of more than one thread."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def weight_counts(ctx, generator, cap: int = DEFAULT_ENUM_CAP,
                  threads: int = 1,
                  chunk_target: int = DEFAULT_CHUNK_TARGET) -> list[int]:
    """Exact weight distribution (A_0, ..., A_n) by full enumeration."""
    total = message_space_size(ctx, len(generator))
    if total > cap:
        raise CapExceededError(total, cap, "codeword enumeration")
    rows = _basis_codewords(ctx, generator)
    kern = _Kernel(ctx, rows, np.zeros_like(rows[0]), chunk_target)
    n = len(generator[0])

    def one(idx):
        return np.bincount(kern.chunk_ranks(idx), minlength=n + 1)

    parts = _map_chunks(one, range(kern.n_chunks),
                        threads if kern.n_chunks > 1 else 1)
    counts = [int(x) for x in np.sum(parts, axis=0)]
    if sum(counts) != total:
        raise FalsificationAlarm(
            f"weight counts sum to {sum(counts)}, not q^(mk) = {total}")
    return counts


def weights_array(ctx, generator, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Per-message weights: entry t is the weight of the codeword of
    :func:`message_from_index` (t), whose components are the base-q^m
    digits of t."""
    total = message_space_size(ctx, len(generator))
    if total > cap:
        raise CapExceededError(total, cap, "codeword enumeration")
    rows = _basis_codewords(ctx, generator)
    kern = _Kernel(ctx, rows, np.zeros_like(rows[0]), DEFAULT_CHUNK_TARGET)
    out = np.empty(kern.words, dtype=np.uint8)
    for idx in range(kern.n_chunks):
        out[idx * kern.chunk_size:(idx + 1) * kern.chunk_size] = kern.chunk_ranks(idx)
    return out


def projective_weights(ctx, generator, threads: int = 1,
                       chunk_target: int = DEFAULT_CHUNK_TARGET):
    """Weights w(xG) of the normalised messages, and the full counts.

    Returns ``(weights, counts)``: ``weights`` is a uint8 array with one
    entry per point of :func:`projective_points`, in that order, and
    ``counts`` is (A_0, ..., A_n) with A_0 = 1 + (q^m - 1) * P_0 and
    A_i = (q^m - 1) * P_i, equal to :func:`weight_counts` for every
    generator.  The caller owns the budget: the work is
    :func:`projective_count` words.
    """
    k, n, qm = len(generator), ctx.n, ctx.order
    rows = _basis_codewords(ctx, generator)
    kernels = [_Kernel(ctx, rows[(i + 1) * n:], rows[i * n], chunk_target)
               for i in range(k)]
    starts = np.cumsum([0] + [kern.words for kern in kernels])
    out = np.empty(int(starts[-1]), dtype=np.uint8)
    jobs = [(kern, int(start) + idx * kern.chunk_size, idx)
            for kern, start in zip(kernels, starts) for idx in range(kern.n_chunks)]

    def one(job):
        kern, pos, idx = job
        out[pos:pos + kern.chunk_size] = kern.chunk_ranks(idx)

    # a pool only pays off beyond one full chunk of work
    _map_chunks(one, jobs, threads if len(out) > chunk_target else 1)
    p = np.bincount(out, minlength=len(generator[0]) + 1)
    counts = [int(x) * (qm - 1) for x in p]
    counts[0] += 1
    return out, counts


def projective_count(ctx, k: int) -> int:
    qm = ctx.order  # q^m is the full model
    return (qm**k - 1) // (qm - 1)


def projective_points(ctx, k: int):
    """Projective representatives of F_{q^m}^k, first nonzero entry 1,
    iterated in integer order of the free part."""
    for lead in range(k):
        free = k - lead - 1
        for idx in range(ctx.order**free):
            yield (0,) * lead + (1,) + message_from_index(ctx, free, idx)
