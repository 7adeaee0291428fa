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
Consecutive chunks, across the cosets of one call, are grouped into
batches of at most the chunk target words, and each batch runs one
elimination over all its codewords.  Batches are disjoint, carry
private results and are merged by integer addition or by position, so
results are independent of the chunk size and of the number of worker
threads.

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
the span of the n entries) as the F_p-rank of the a-fold expansion
divided by a: for q = p^a with F_p-basis beta_1..beta_a of F_q, the
F_q-span of x_1..x_n is, as an F_p-space, the span of the a*n products
beta_l * x_j.

* packed: every even q.  Entries are field ints (a*m-bit masks) in the
  narrowest unsigned dtype, and the elimination keeps an XOR basis per
  codeword in echelon form by top bit, so reducing a whole column of
  codewords is one min-XOR step per bit;
* digits: odd p < 2^16.  Entries are their a*m base-p digits, and the
  elimination keeps one pivot per digit position and codeword, monic
  there, so reducing a column is plain arithmetic mod p with no mask.

Weight of a codeword never exceeds min(n, m); counts are exact ints.
"""

from __future__ import annotations

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
    return ctx.p == 2


def _word_dtype(bits: int):
    """Narrowest unsigned dtype holding a packed entry of that many bits."""
    return np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32


def _basis_codewords(ctx, generator):
    """Kernel rows of all basis messages: row i*(a*m) + s is p^s * G_i,
    so row i*(a*m) is the generator row G_i itself.  For a > 1 a row r
    is its a-fold expansion (beta_1 * r, ..., beta_a * r) over the
    F_p-basis beta of F_q; the expansion is F_p-linear, so F_p
    combinations of expanded rows are the expansions of the combined
    rows.  Odd p gives rows of shape (entries, a*m): base-p digits."""
    rows = [ctx.scale_row(ctx.p**s, gen_row)
            for gen_row in generator for s in range(ctx.n)]
    if ctx.a > 1:
        beta = ctx.fp_basis_of_subfield(1)
        rows = [[v for b in beta for v in ctx.scale_row(b, row)]
                for row in rows]
    if _packed_ok(ctx):
        # a*m bits: the degree cap of 32 keeps them within uint32 and
        # within the exact range of the kernel's float top-bit step
        return [np.array(row, dtype=_word_dtype(ctx.n)) for row in rows]
    if ctx.p >= 1 << 16:
        # the kernel's inverse table has p entries
        raise ValueError(f"the digit kernel takes p < 2^16, not p = {ctx.p}")
    # the narrowest dtype holding the kernel's largest intermediate,
    # p^2 - 1: uint8 up to p = 13, uint16 up to p = 251, else uint32
    dtype = np.min_scalar_type(ctx.p**2 - 1)
    return [np.array([ctx.digits(v) for v in row], dtype=dtype) for row in rows]


def _rank_rows_packed(cw: np.ndarray, m: int) -> np.ndarray:
    """Rank over F_2 of the n entries of each row of packed words.

    Each row keeps an XOR basis in echelon form by top bit: piv[b] is
    zero or has top bit b.  XOR with piv[b] leaves the bits above b
    alone, so v = min(v, v ^ piv[b]) clears bit b exactly when it is
    set; done for b = m-1..0 this reduces v to zero iff v lies in the
    span, and a nonzero remainder has its top bit at a free position.
    """
    n_rows, n = cw.shape
    piv = np.zeros((m, n_rows), dtype=cw.dtype)
    for j in range(n):
        v = cw[:, j]
        for b in range(m - 1, -1, -1):
            v = np.minimum(v, v ^ piv[b])
        nz = np.flatnonzero(v)
        vals = v[nz]
        # top bit from the float exponent, exact: words have at most 32 bits
        piv[np.frexp(vals.astype(np.float64))[1] - 1, nz] = vals
    return np.count_nonzero(piv, axis=0).astype(np.uint8)


def _rank_rows_digits(cw: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of the n entries of each word, for words of F_p
    digit vectors: cw[t, j, c] is digit c of entry j of word t, each in
    0..p-1, in an unsigned dtype that holds p^2 - 1.

    Each word keeps one pivot per digit position c: piv[c] is zero, or
    is zero below c and 1 at c.  Subtracting v_c * piv[c] then clears
    digit c of v when the pivot exists and changes nothing when it does
    not, so no mask selects the words with a pivot.  Where v_c is still
    nonzero, v / v_c becomes the pivot and v is cleared; where it is
    zero, inv[0] = 0 adds nothing.  The rank counts the pivots."""
    words, n, digits = cw.shape
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=cw.dtype)
    piv = np.zeros((digits, words, digits), dtype=cw.dtype)
    for j in range(n):
        v = cw[:, j].copy()
        for c in range(digits):
            pc = piv[c]
            v += (p - v[:, c, None]) * pc
            v %= p
            vc = v[:, c, None]
            pc += inv[vc] * v
            pc %= p
            v *= vc == 0
    diag = np.arange(digits)
    return np.count_nonzero(piv[diag, :, diag], axis=0).astype(np.uint8)


class _Kernel:
    """Chunked enumeration of the coset offset + span_Fp(rows), where
    rows and offset come from :func:`_basis_codewords`; word number t
    is offset + sum_j d_j * rows[j] for the base-p digits d_j of t.
    With rows from component i on, word t is the message whose
    components i, i+1, ... are the base-q^m digits of t.

    A chunk is a run of ``chunk_size`` consecutive words; the caller
    groups chunks, of one kernel or of several, into batches and ranks
    each batch with one elimination (:func:`_map_batches`).  Both
    backends rank the a-fold F_p expansion (the F_p-rank divided by a)
    of words stacked on axis 0: packed for every even q, a (words,
    entries) array of bit masks combined by XOR; digits for odd p, a
    (words, entries, digits) array of base-p digits combined by plain
    arithmetic mod p."""

    def __init__(self, ctx, rows, offset, chunk_target: int):
        self.bits = ctx.n
        self.a = ctx.a
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
        for j in range(low):
            if self.packed:
                table = np.concatenate([table, table ^ rows[j]])
            else:
                table = np.concatenate(
                    [table] + [(table + c * rows[j]) % p for c in range(1, p)])
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
        p = self.p
        for row in self.high_rows:
            h, d = divmod(h, p)
            if d:
                base = (base + d * row) % p
        return (self.low_table + base) % p

    def ranks(self, cw: np.ndarray) -> np.ndarray:
        if self.packed:
            ranks = _rank_rows_packed(cw, self.bits)
        else:
            ranks = _rank_rows_digits(cw, self.p)
        if self.a == 1:
            return ranks
        # an F_q-span has F_p-dimension a times its F_q-dimension
        ranks, rest = np.divmod(ranks, self.a)
        if rest.any():
            raise FalsificationAlarm(
                f"an F_p-rank of an expanded word is not a multiple of a = {self.a}")
        return ranks


def _map_batches(kernels, chunk_target: int, threads: int, fn) -> list:
    """fn(start, ranks) for each batch of words, in order.

    The words of the kernels, concatenated, are cut into batches of
    whole consecutive chunks, at most chunk_target words each (a larger
    chunk is a batch of its own; batches may span kernels).  ranks are
    the weights of words start, start + 1, ...  A pool of threads runs
    the batches when there is more than one."""
    jobs, batch, size, start = [], [], 0, 0
    for kern in kernels:
        for idx in range(kern.n_chunks):
            if batch and size + kern.chunk_size > chunk_target:
                jobs.append((start, batch))
                batch, start, size = [], start + size, 0
            batch.append((kern, idx))
            size += kern.chunk_size
    if batch:
        jobs.append((start, batch))

    def one(job):
        pos, chunks = job
        parts = [kern.chunk_codewords(idx) for kern, idx in chunks]
        cw = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return fn(pos, chunks[0][0].ranks(cw))

    if threads > 1 and len(jobs) > 1:
        # imported here so single-threaded runs do not load the pool
        # machinery (about 0.7 MB resident)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, jobs))
    return [one(job) for job in jobs]


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
    parts = _map_batches([kern], chunk_target, threads,
                         lambda pos, r: np.bincount(r, minlength=n + 1))
    counts = [int(x) for x in np.sum(parts, axis=0)]
    if sum(counts) != total:
        raise FalsificationAlarm(
            f"weight counts sum to {sum(counts)}, not q^(mk) = {total}")
    return counts


def _fill(out: np.ndarray):
    def put(pos, ranks):
        out[pos:pos + len(ranks)] = ranks
    return put


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
    _map_batches([kern], DEFAULT_CHUNK_TARGET, 1, _fill(out))
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
    out = np.empty(sum(kern.words for kern in kernels), dtype=np.uint8)
    _map_batches(kernels, chunk_target, threads, _fill(out))
    p = np.bincount(out, minlength=len(generator[0]) + 1)
    counts = [int(x) * (qm - 1) for x in p]
    counts[0] += 1
    return out, counts


def projective_count(ctx, k: int) -> int:
    qm = ctx.order  # q^m is the full model
    return (qm**k - 1) // (qm - 1)


def projective_point(ctx, k: int, idx: int) -> tuple[int, ...]:
    """Point number idx of :func:`projective_points`, without listing
    the points before it."""
    for lead in range(k):
        free = k - lead - 1
        if idx < ctx.order**free:
            return (0,) * lead + (1,) + message_from_index(ctx, free, idx)
        idx -= ctx.order**free
    raise IndexError("projective point index out of range")


def projective_points(ctx, k: int):
    """Projective representatives of F_{q^m}^k, first nonzero entry 1,
    iterated in integer order of the free part."""
    for lead in range(k):
        free = k - lead - 1
        for idx in range(ctx.order**free):
            yield (0,) * lead + (1,) + message_from_index(ctx, free, idx)
