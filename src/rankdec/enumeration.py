"""Exact weight enumeration kernels.

Message index t is the message whose component i is the base-q^m
digit i of t (a field int), so in integer order of that digit c the
codewords of component i are c * G_i, one gather of field multiples
(:meth:`FieldContext.multiples`).  A coset lead + span(G_{i+1..k}) is
enumerated in contiguous chunks: a fixed low-digit table, the lead plus
the outer sum of the multiple tables its low digits cover, and one
high-digit codeword per chunk.  Consecutive chunks, across the cosets
of one call, form batches of at most the chunk target words, one
elimination each.  Batches are disjoint and merged by addition or by
position, so results do not depend on the chunk size or on the number
of threads.

Two entry points share the chunk kernel:

* :func:`weight_counts` enumerates all q^(mk) messages (the linear
  subspace, offset zero).  It is the full-enumeration oracle.
* :func:`projective_counts` enumerates only the normalised messages
  (first nonzero coordinate 1), one coset G_i + span(G_{i+1..k}) per
  lead position i.  Rank weight is invariant under nonzero
  F_{q^m}-scalars, so A_0 = 1 and A_i = (q^m - 1) * P_i for i >= 1,
  where P_i counts normalised messages of weight i: a factor q^m - 1
  less work.  Both count each batch as it is ranked.  Detection reads
  :func:`projective_weights`, one weight per projective point: the line
  dimensions d_x = dim(U' n <x>) = m - w(xG) of the dual system U'.

Two backends compute the per-codeword rank weight (the F_q-dimension of
the span of the n entries) as the F_p-rank of the a-fold expansion
divided by a: for q = p^a with F_p-basis beta_1..beta_a of F_q, the
F_q-span of x_1..x_n is, as an F_p-space, the span of the a*n products
beta_l * x_j.  Words are on the last axis, so every elimination step
reads and writes contiguous rows of words.

* packed: every even q, (entries, words).  Entries are field ints
  (a*m-bit masks) in the narrowest unsigned dtype, and the elimination
  keeps an XOR basis per codeword in echelon form by top bit
  (:func:`_rank_rows_packed`);
* digits: odd p < 2^16, (entries, digits, words).  Entries are their
  a*m base-p digits, and the elimination runs by digit position over
  all entries at once, a*m steps of arithmetic mod p with no mask
  (:func:`_rank_rows_digits`).

The packed kernel's column 0 meets no pivot, so it is not reduced.

Weight of a codeword never exceeds min(n, m); counts are exact ints.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CapExceededError, FalsificationAlarm, UnsupportedFieldError

#: the one work budget: the words a call enumerates
DEFAULT_ENUM_CAP = 1 << 25

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


def _word_dtype(bits: int):
    """Narrowest unsigned dtype holding a packed entry of that many bits."""
    return np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32


def _entries(ctx, generator):
    """The kernel entries of each row G_j: G_j, or for a > 1 its a-fold
    expansion (beta_l * G_j) over the F_p-basis beta of F_q."""
    if ctx.p >= 1 << 16:  # the kernel's inverse table has p entries
        raise UnsupportedFieldError(
            f"weight enumeration takes characteristic p < 2^16, not p = {ctx.p}")
    if ctx.a == 1:
        return generator
    beta = ctx.fp_basis_of_subfield(1)
    return [[ctx.mul(b, v) for b in beta for v in row] for row in generator]


def _rank_rows_packed(cw: np.ndarray, m: int) -> np.ndarray:
    """Rank over F_2 of the n entries of each word, for packed words:
    cw[j, t] is entry j of word t, an m-bit mask.

    Each word keeps an XOR basis in echelon form by top bit: piv[e] is
    zero or has top bit e - 1, so e is its float exponent.  XOR with
    piv[e] leaves the bits above e - 1 alone, so v = min(v, v ^ piv[e])
    clears bit e - 1 exactly when it is set; done for e = m..1 (column
    0 skips it: the basis is empty) this reduces v to zero iff v lies
    in the span, and a nonzero remainder has its top bit at a free
    position.  The m + 1 rows are one flat buffer, row e the contiguous
    slice piv[e*words:(e+1)*words].  One scatter per column puts v at
    the flat index e*words + t, e the exponent of v as a float64 (exact
    for words of at most 32 bits), scaled and offset in place in intp:
    numpy stores by one 1-D index faster than by a 2-D (row, t) pair.
    v = 0 has e = 0, so row 0 is a trash row.
    """
    n, words = cw.shape
    piv = np.zeros((m + 1) * words, dtype=cw.dtype)
    rows = [piv[e * words:(e + 1) * words] for e in range(m, 0, -1)]
    t = np.arange(words)
    for j in range(n):
        v = cw[j]
        for row in rows if j else ():
            v = np.minimum(v, v ^ row)
        at = np.frexp(v.astype(np.float64))[1].astype(np.intp)
        at *= words
        at += t
        piv[at] = v
    return np.count_nonzero(piv[words:].reshape(m, words), axis=0).astype(np.uint8)


@functools.lru_cache(maxsize=None)
def _inverses(p: int, dtype) -> np.ndarray:
    """inv[x] = 1/x mod p, inv[0] = 0: built once per p and dtype, read-only."""
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype)
    inv.setflags(write=False)
    return inv


def _reduce(x: np.ndarray, p: int, scratch=None) -> np.ndarray:
    """x mod p, in place, through scratch (x's shape) when given:
    numpy divides unsigned words by a scalar several times faster than
    it takes their remainder."""
    q = np.floor_divide(x, p, out=scratch)
    q *= p
    return np.subtract(x, q, out=x)


def _rank_rows_digits(cw: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of the n entries of each word, for words of F_p
    digit vectors: cw[j, c, t] is digit c of entry j of word t, each in
    0..p-1, in an unsigned dtype that holds p^2 - 1, the largest sum
    taken before a reduction.

    Gaussian elimination by digit position, over all entries of every
    word at once, on a copy x of cw.  Before step c the entries are zero
    below digit c and span the elements of the word's span that are
    zero there; any of them with digit c nonzero is a pivot.  Step c
    takes the first entry nonzero at c, the minimum over j of the key
    (x[j, c] == 0) * n + j (argmax along the entries is slower), reads
    it with one 1-D take per digit d at the flat index
    j*digits*words + t of the view from d*words, and makes it monic at
    c (inv.take: fancy indexing is slower).  Subtracting x[j, c] times
    the pivot from every entry j clears digit c, and the entries then
    span one dimension less.  A key of n or more means no pivot: the
    index reads entry n - 1, whose digit c is zero, so inv[0] = 0 makes
    the pivot zero and the step changes nothing.  The rank counts the
    steps that found a pivot."""
    n, digits, words = cw.shape
    inv = _inverses(p, cw.dtype)
    x = cw.copy()
    flat = x.reshape(-1)
    key_dtype = np.min_scalar_type(2 * n - 1)
    entry = np.arange(n, dtype=key_dtype)[:, None]
    key = np.empty((n, words), dtype=key_dtype)
    at = np.empty(words, dtype=np.intp)
    t = np.arange(words)
    piv = np.empty((1, digits, words), dtype=cw.dtype)
    scratch = np.empty_like(x)
    rank = np.zeros(words, dtype=np.uint8)
    for c in range(digits):
        np.equal(x[:, c], 0, out=key, casting="unsafe")
        key *= n
        key += entry
        first = key.min(axis=0)
        rank += first < n
        if c == digits - 1:
            break
        np.minimum(first, n - 1, out=first)
        np.multiply(first, digits * words, out=at, dtype=np.intp)
        at += t
        monic = inv.take(flat[c * words:].take(at))
        for d in range(c + 1, digits):
            np.multiply(flat[d * words:].take(at), monic, out=piv[0, d])
        pc, rest, tmp = _reduce(piv[:, c + 1:], p), x[:, c + 1:], scratch[:, c + 1:]
        factor = scratch[:, c:c + 1]
        np.subtract(p, x[:, c:c + 1], out=factor)
        np.multiply(factor, pc, out=tmp)
        rest += tmp
        _reduce(rest, p, tmp)
    return rank


class _Kernel:
    """Chunked enumeration of the coset lead + span(rows) over F_{q^m},
    lead and rows from :func:`_entries`: word t is lead + sum_j c_j *
    rows[j] for the base-q^m digits c_j of t.  Chunk 0, the read-only
    low-digit table, is lead plus the outer sum of the multiples c *
    rows[j] of the components its digits cover (rows[0] on the fastest
    axis, the last cut to its first p^s multiples); chunk h adds the
    codeword of its high digits.  Words add by XOR (packed) or digit by
    digit mod p, a sum s of two digits being min(s, s - p) in unsigned
    words (s - p wraps round when s < p)."""

    def __init__(self, ctx, rows, lead, chunk_target: int):
        self.ctx, self.rows, self.bits, self.a, self.p = ctx, rows, ctx.n, ctx.a, ctx.p
        p, self.packed = ctx.p, ctx.p == 2
        # narrowest for an a*m-bit mask or for p^2 - 1 (the digit kernel's)
        self.dtype = _word_dtype(ctx.n) if self.packed else np.min_scalar_type(p**2 - 1)
        digits = ctx.n * len(rows)
        self.words = p**digits
        # low-digit count: the largest power of p at most the chunk target
        low = 0
        while low < digits and p ** (low + 1) <= chunk_target:
            low += 1
        low = max(low, min(1, digits))
        self.chunk_size = p**low
        self.n_chunks = p ** (digits - low)
        table = self._words(lead)[..., None]
        for j in range(-(-low // ctx.n)):
            mult = self._words(ctx.multiples(rows[j], p ** min(ctx.n, low - j * ctx.n)))
            table = self._add(mult[..., None], table[..., None, :]).reshape(*mult.shape[:-1], -1)
        table.setflags(write=False)
        self.low_table = table

    def _words(self, values) -> np.ndarray:
        """Field ints, a row or an array (entries, words), as kernel
        words: packed, or their base-p digits on a new axis 1."""
        if self.packed:
            return np.asarray(values, dtype=self.dtype)
        if not isinstance(values, np.ndarray):  # a row: exact past 2^63
            return self.ctx.digits_all(values).astype(self.dtype)
        out = np.empty((len(values), self.bits) + values.shape[1:], self.dtype)
        for s in range(self.bits):
            values, out[:, s] = np.divmod(values, self.p)
        return out

    def _add(self, x, y):
        out = x ^ y if self.packed else x + y
        return out if self.packed else np.minimum(out, out - self.p, out=out)

    def chunk_codewords(self, h: int) -> np.ndarray:
        """The words of chunk number h (its high digits, in base p)."""
        if not h:
            return self.low_table
        base, high = [0] * len(self.low_table), h * self.chunk_size
        for c, row in zip(message_from_index(self.ctx, len(self.rows), high), self.rows):
            base = self.ctx.add_scaled_row(base, c, row)
        return self._add(self.low_table, self._words(base)[..., None])

    def ranks(self, cw: np.ndarray) -> np.ndarray:
        ranks = (_rank_rows_packed(cw, self.bits) if self.packed
                 else _rank_rows_digits(cw, self.p))
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
        cw = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        return fn(pos, chunks[0][0].ranks(cw))

    if threads > 1 and len(jobs) > 1:
        # imported here so single-threaded runs do not load the pool
        # machinery (about 0.7 MB resident)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, jobs))
    return [one(job) for job in jobs]


def _counts(kernels, n: int, chunk_target: int, threads: int) -> list[int]:
    """Words of weight 0..n among the kernels' words, counted per batch."""
    parts = _map_batches(kernels, chunk_target, threads,
                         lambda pos, r: np.bincount(r, minlength=n + 1))
    return [int(x) for x in sum(parts)]


def weight_counts(ctx, generator, cap: int = DEFAULT_ENUM_CAP,
                  threads: int = 1,
                  chunk_target: int = DEFAULT_CHUNK_TARGET) -> list[int]:
    """Exact weight distribution (A_0, ..., A_n) by full enumeration of
    all q^(mk) messages, within the cap."""
    total = message_space_size(ctx, len(generator))
    if total > cap:
        raise CapExceededError(total, cap, "codeword enumeration")
    rows = _entries(ctx, generator)
    kern = _Kernel(ctx, rows, [0] * len(rows[0]), chunk_target)
    counts = _counts([kern], len(generator[0]), chunk_target, threads)
    if sum(counts) != total:
        raise FalsificationAlarm(
            f"weight counts sum to {sum(counts)}, not q^(mk) = {total}")
    return counts


def _fill(out: np.ndarray):
    def put(pos, ranks):
        out[pos:pos + len(ranks)] = ranks
    return put


def _projective_kernels(ctx, generator, chunk_target: int) -> list:
    """One kernel per lead position i: the coset G_i + span(G_{i+1..k})."""
    rows = _entries(ctx, generator)
    return [_Kernel(ctx, rows[i + 1:], rows[i], chunk_target)
            for i in range(len(rows))]


def projective_counts(ctx, generator, threads: int = 1,
                      chunk_target: int = DEFAULT_CHUNK_TARGET) -> list[int]:
    """(A_0, ..., A_n) = (1 + (q^m - 1) * P_0, (q^m - 1) * P_1, ...), equal
    to :func:`weight_counts`.  The caller owns the budget: the work is
    :func:`projective_count` words."""
    kernels = _projective_kernels(ctx, generator, chunk_target)
    counts = [x * (ctx.order - 1)
              for x in _counts(kernels, len(generator[0]), chunk_target, threads)]
    counts[0] += 1
    return counts


def projective_weights(ctx, generator, threads: int = 1,
                       chunk_target: int = DEFAULT_CHUNK_TARGET) -> np.ndarray:
    """Weights w(xG) of the normalised messages: a uint8 array with one
    entry per point of :func:`projective_points`, in that order.  The
    caller owns the budget: the work is :func:`projective_count` words."""
    kernels = _projective_kernels(ctx, generator, chunk_target)
    out = np.empty(sum(kern.words for kern in kernels), dtype=np.uint8)
    _map_batches(kernels, chunk_target, threads, _fill(out))
    return out


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
    for idx in range(projective_count(ctx, k)):
        yield projective_point(ctx, k, idx)
