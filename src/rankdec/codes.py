"""Rank-metric codes over F_{q^m} and complete decomposability.

A :class:`RankCode` is a k-dimensional F_{q^m}-subspace of F_{q^m}^n
given by a generator matrix with independent rows.  The rank weight of
a codeword is the F_q-dimension of the span of its entries; the support
is the column span of the n x m coordinate expansion, a subspace of
F_q^n that does not depend on the expansion basis.

A code is *completely decomposable of type (n_1 >= ... >= n_k)* when it
is equivalent (by some A in GL(n, q) acting on coordinates) to a direct
sum of one-dimensional full-weight blocks u_1 (+) ... (+) u_k with
w(u_i) = n_i < m.  Such a block-diagonal generator is the code's weight
complementary form; a :class:`Decomposition` record stores the blocks
together with the coordinate map back to the stored generator.
Detection implements the geometric criterion: weights satisfy
w(xG) = m - dim(U' n <x>) for the dual system U', so a decomposition
exists iff some F_{q^m}-basis of message space reaches total weight n.
The greedy basis by line dimension has the least total weight, so it
alone decides; the blocks are read off the RREF pivots of its supports.

Enumeration-backed operations take explicit caps on the words they
enumerate, one budget for distributions and detection, and refuse loudly
beyond them; see :mod:`rankdec.enumeration` for the kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .enumeration import (
    DEFAULT_ENUM_CAP,
    message_from_index,
    message_space_size,
    projective_count,
    projective_counts,
    projective_point,
    projective_weights,
)
from .errors import CapExceededError, FalsificationAlarm
from .fields import FieldContext, as_integer, check_keys
from .linalg import (
    RowSpace,
    field_matmul,
    field_rank,
    field_rref,
    field_vecmat,
)
from .subspaces import coordinate_space, scalar_into, span, trace_dual


# ----------------------------------------------------------------------
# coordinate equivalence maps (GL(n, q) acting on the right)
# ----------------------------------------------------------------------


class EquivalenceMap:
    """Invertible n x n matrix over F_q; entries are field-context ints
    that must lie in F_q.

    The public constructor checks the shape, that every entry lies in
    F_q and that the matrix is invertible; code files go through it.
    Maps valid by construction skip the checks: :func:`random_gl`
    (entries drawn from F_q, kept only at full rank) and maps derived
    from valid ones (:meth:`identity`, :meth:`compose` and the
    coordinate maps that decomposition records and detection
    build)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldContext, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        for r in rows:
            for v in r:
                if not ctx.in_subfield(v, 1):
                    raise ValueError("entries must lie in F_q")
        if RowSpace(ctx, n, rows).dim != n:
            raise ValueError("matrix is singular over F_q")
        self.ctx = ctx
        self.rows = rows

    @classmethod
    def _unchecked(cls, ctx: FieldContext, rows) -> "EquivalenceMap":
        """A map that is invertible over F_q by construction."""
        amap = object.__new__(cls)
        amap.ctx, amap.rows = ctx, tuple(tuple(r) for r in rows)
        return amap

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "EquivalenceMap":
        return cls._unchecked(
            ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def compose(self, other: "EquivalenceMap") -> "EquivalenceMap":
        """self followed by other (matrix product self * other)."""
        return self._unchecked(self.ctx, field_matmul(
            [list(r) for r in self.rows], [list(r) for r in other.rows], self.ctx))

    def __eq__(self, other):
        return isinstance(other, EquivalenceMap) and self.rows == other.rows

    def __repr__(self):
        return f"EquivalenceMap(n={self.n}, q={self.ctx.q})"


def random_gl(ctx: FieldContext, n: int, seed: int = 0) -> EquivalenceMap:
    """Uniform invertible matrix over F_q by rejection; seed-reproducible."""
    rng = random.Random(seed)
    qelems = ctx.fq_elements()
    while True:
        rows = [[rng.choice(qelems) for _ in range(n)] for _ in range(n)]
        if RowSpace(ctx, n, rows).dim == n:
            return EquivalenceMap._unchecked(ctx, rows)


def random_gl_ext(ctx: FieldContext, k: int, seed: int = 0):
    """Invertible k x k matrix over the full field F_{q^m} (basis changes)."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(ctx.order) for _ in range(k)] for _ in range(k)]
        if field_rank(rows, ctx) == k:
            return tuple(tuple(r) for r in rows)


# ----------------------------------------------------------------------
# weights and supports
# ----------------------------------------------------------------------


def rank_weight(ctx: FieldContext, v: Sequence[int]) -> int:
    """F_q-dimension of the span of the entries."""
    return coordinate_space(ctx, v).dim


def support(ctx: FieldContext, v: Sequence[int]) -> RowSpace:
    """Column span of the n x m expansion of v over F_q (in the power
    basis): a subspace of F_q^n, independent of the expansion basis."""
    return RowSpace(ctx, len(v), ctx.fq_coords_all(v).T.tolist())


@dataclass(frozen=True)
class Decomposition:
    """Weight-complementary data: blocks sorted by length, plus the
    coordinate map with stored_generator = B * blockdiag(blocks) * col_map
    for some invertible B over F_{q^m}."""

    type_vector: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    col_map: EquivalenceMap

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.type_vector)

    def block_offsets(self) -> list[int]:
        return [0, *accumulate(self.type_vector)]

    def weight_complementary_generator(self) -> tuple[tuple[int, ...], ...]:
        offs = self.block_offsets()
        return tuple((0,) * offs[i] + tuple(u) + (0,) * (self.n - offs[i + 1])
                     for i, u in enumerate(self.blocks))


class WeightDistribution:
    """Exact codeword counts (A_0, ..., A_n)."""

    __slots__ = ("counts",)

    def __init__(self, counts: Sequence[int], expected_total: Optional[int] = None):
        counts = tuple(int(c) for c in counts)
        if counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if expected_total is not None and sum(counts) != expected_total:
            raise ValueError("counts do not sum to the codeword total")
        self.counts = counts

    @property
    def min_distance(self) -> int:
        for i, c in enumerate(self.counts):
            if i and c:
                return i
        raise ValueError("zero code has no minimum distance")

    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __eq__(self, other):
        other_counts = other.counts if isinstance(other, WeightDistribution) else tuple(other)
        return self.counts == other_counts

    def __iter__(self):
        return iter(self.counts)

    def to_json(self, messages: Optional[int] = None) -> dict:
        out = {"counts": list(self.counts), "min_distance": self.min_distance}
        if messages is not None:
            out["messages"] = messages
        return out

    def __repr__(self):
        return f"WeightDistribution{self.counts}"


class RankCode:
    """k x n generator matrix over F_{q^m} with independent rows.

    The public constructor checks elements, rank and record: code files
    and :meth:`relabeled` (whose B comes from the caller) go through it.
    Codes derived from valid ones skip the checks."""

    __slots__ = ("ctx", "generator", "decomposition")

    def __init__(self, ctx: FieldContext, generator,
                 decomposition: Optional[Decomposition] = None):
        generator = tuple(tuple(ctx.check_element(v) for v in row)
                          for row in generator)
        if not generator or not generator[0]:
            raise ValueError("generator must be a nonempty matrix")
        if any(len(r) != len(generator[0]) for r in generator):
            raise ValueError("ragged generator matrix")
        if field_rank([list(r) for r in generator], ctx) != len(generator):
            raise ValueError("generator rows are F_{q^m}-dependent")
        self.ctx = ctx
        self.generator = generator
        if decomposition is not None:
            self._validate_decomposition(decomposition)
        self.decomposition = decomposition

    @classmethod
    def _unchecked(cls, ctx: FieldContext, generator,
                   decomposition: Optional[Decomposition] = None) -> "RankCode":
        """A code whose generator rows (element ints, F_{q^m}-independent)
        and record are valid by construction."""
        code = object.__new__(cls)
        code.ctx, code.generator = ctx, tuple(tuple(r) for r in generator)
        code.decomposition = decomposition
        return code

    def _validate_decomposition(self, dec: Decomposition):
        ctx = self.ctx
        for t in dec.type_vector:
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"decomposition type entry {t!r} is not an integer")
        if dec.n != self.n or dec.k != self.k:
            raise ValueError("decomposition shape mismatch")
        if dec.col_map.n != self.n:
            raise ValueError(f"decomposition col_map is {dec.col_map.n} x "
                             f"{dec.col_map.n}, not n x n with n = {self.n}")
        if list(dec.type_vector) != sorted(dec.type_vector, reverse=True):
            raise ValueError("type vector must be non-increasing")
        for u, ni in zip(dec.blocks, dec.type_vector):
            if len(u) != ni or ni < 1 or ni >= ctx.m:
                raise ValueError("block lengths must satisfy 1 <= n_i < m")
            if rank_weight(ctx, u) != ni:
                raise ValueError("block entries are F_q-dependent (not full weight)")
        wc = [list(r) for r in dec.weight_complementary_generator()]
        mapped = field_matmul(wc, [list(r) for r in dec.col_map.rows], ctx)
        lhs = field_rref(mapped, ctx)[0]
        rhs = field_rref([list(r) for r in self.generator], ctx)[0]
        if lhs != rhs:
            raise ValueError("decomposition does not generate the stored code")

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def n(self) -> int:
        return len(self.generator[0])

    def codeword(self, msg: Sequence[int]) -> tuple[int, ...]:
        return tuple(field_vecmat(list(msg), [list(r) for r in self.generator],
                                  self.ctx))

    def strip_decomposition(self) -> "RankCode":
        return RankCode._unchecked(self.ctx, self.generator)

    def with_decomposition(self, dec: Decomposition) -> "RankCode":
        """The same code with the record attached, checked in full."""
        self._validate_decomposition(dec)
        return RankCode._unchecked(self.ctx, self.generator, dec)

    def relabeled(self, b_rows) -> "RankCode":
        """Same code, new basis: generator B * G."""
        g = field_matmul([list(r) for r in b_rows],
                         [list(r) for r in self.generator], self.ctx)
        return RankCode(self.ctx, g, self.decomposition)

    def to_json(self) -> dict:
        out = {"field": self.ctx.to_descriptor(),
               "generator": [list(r) for r in self.generator]}
        if self.decomposition is not None:
            out["decomposition"] = {
                "type": list(self.decomposition.type_vector),
                "blocks": [list(u) for u in self.decomposition.blocks],
                "col_map": [list(r) for r in self.decomposition.col_map.rows],
            }
        return out

    @classmethod
    def from_json(cls, d: dict) -> "RankCode":
        check_keys(d, "", ("field", "generator"), ("decomposition",))
        ctx = FieldContext.from_descriptor(d["field"])
        dec = None
        if "decomposition" in d:
            rec = d["decomposition"]
            check_keys(rec, "decomposition", ("type", "blocks", "col_map"))
            dec = Decomposition(
                tuple(rec["type"]),
                tuple(tuple(ctx.check_element(v) for v in u) for u in rec["blocks"]),
                EquivalenceMap(ctx, [[ctx.check_element(v) for v in r]
                                     for r in rec["col_map"]]))
        return cls(ctx, d["generator"], dec)

    def __repr__(self):
        return f"RankCode[{self.n},{self.k}] over {self.ctx!r}"


# ----------------------------------------------------------------------
# metric quantities
# ----------------------------------------------------------------------


def code_support(code: RankCode) -> RowSpace:
    """Sum of the row supports, one elimination over the k*m coordinate
    rows; equals F_q^n iff the code is nondegenerate."""
    ctx, k, n = code.ctx, code.k, code.n
    coords = ctx.fq_coords_all([v for row in code.generator for v in row])
    return RowSpace(ctx, n, coords.reshape(k, n, ctx.m).transpose(0, 2, 1)
                    .reshape(k * ctx.m, n).tolist())


def is_nondegenerate(code: RankCode) -> bool:
    return code_support(code).dim == code.n


def weight_distribution(code: RankCode, cap: int = DEFAULT_ENUM_CAP,
                        threads: int = 1) -> WeightDistribution:
    """Exact distribution from the normalised messages only
    (A_i = (q^m - 1) * P_i); the cap bounds their count, the work."""
    words = projective_count(code.ctx, code.k)
    if words > cap:
        raise CapExceededError(words, cap, "codeword enumeration")
    counts = projective_counts(code.ctx, code.generator, threads=threads)
    return WeightDistribution(counts, expected_total=message_space_size(code.ctx, code.k))


def min_distance(code: RankCode, cap: int = DEFAULT_ENUM_CAP,
                 threads: int = 1) -> int:
    """n_k off a (validated) decomposition record, else by enumeration."""
    if code.decomposition is not None:
        return code.decomposition.type_vector[-1]
    return weight_distribution(code, cap=cap, threads=threads).min_distance


def is_mrd(code: RankCode, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Equality in the Singleton-like bound mk <= max(m,n)(min(n,m)-d+1)."""
    ctx = code.ctx
    d = min_distance(code, cap=cap)
    lhs = ctx.m * code.k
    rhs = max(ctx.m, code.n) * (min(ctx.m, code.n) - d + 1)
    if lhs > rhs:
        raise FalsificationAlarm(
            f"Singleton-like bound violated: mk = {lhs} > {rhs}")
    return lhs == rhs


# ----------------------------------------------------------------------
# constructions and equivalence
# ----------------------------------------------------------------------


def _sorted_decomposition(ctx, blocks, inner: EquivalenceMap) -> Decomposition:
    """The record of blocks laid out side by side, where ``inner`` maps
    that layout onto the stored coordinates: the blocks are sorted by
    non-increasing length (stably) and the permutation of their columns
    is pushed into the coordinate map as a reordering of its rows."""
    lens = [len(u) for u in blocks]
    order = sorted(range(len(blocks)), key=lambda i: -lens[i])
    offs = [0, *accumulate(lens)]  # block offsets in the unsorted layout
    rows = [inner.rows[j] for i in order for j in range(offs[i], offs[i + 1])]
    return Decomposition(tuple(lens[i] for i in order),
                         tuple(blocks[i] for i in order),
                         EquivalenceMap._unchecked(ctx, rows))


def apply_equivalence(code: RankCode, amap: EquivalenceMap) -> RankCode:
    """The equivalent code C * A; rank weights are preserved because A is
    an invertible F_q-linear change of coordinates."""
    if amap.n != code.n:
        raise ValueError("size mismatch")
    g = field_matmul([list(r) for r in code.generator],
                     [list(r) for r in amap.rows], code.ctx)
    dec = code.decomposition
    if dec is not None:
        dec = Decomposition(dec.type_vector, dec.blocks,
                            dec.col_map.compose(amap))
    return RankCode._unchecked(code.ctx, g, dec)


def build_completely_decomposable(ctx: FieldContext,
                                  blocks: Iterable[Sequence[int]]) -> RankCode:
    """Direct sum of one-dimensional full-weight blocks, sorted to a
    non-increasing type; each block must have w(u) = len(u) < m."""
    blocks = [tuple(ctx.check_element(v) for v in u) for u in blocks]
    if not blocks:
        raise ValueError("at least one block required")
    for i, u in enumerate(blocks):
        if not 1 <= len(u) < ctx.m:
            raise ValueError(f"block {i}: length {len(u)} must be > 0 and < m = {ctx.m}")
        w = rank_weight(ctx, u)
        if w != len(u):
            raise ValueError(
                f"block {u} has weight {w} < length {len(u)}: entries must be "
                "F_q-independent for a full-weight one-dimensional block")
    order = sorted(range(len(blocks)), key=lambda i: -len(blocks[i]))
    sorted_blocks = tuple(blocks[i] for i in order)
    dec = Decomposition(
        tuple(len(u) for u in sorted_blocks), sorted_blocks,
        EquivalenceMap.identity(ctx, sum(len(u) for u in sorted_blocks)))
    return RankCode._unchecked(ctx, dec.weight_complementary_generator(), dec)


def random_decomposable(ctx: FieldContext, k: int, rng: random.Random,
                        max_len: int | None = None) -> RankCode:
    """Direct sum of k random full-weight blocks.  Each block draws its
    length from 1..max_len (default m - 1), then entries until they are
    F_q-independent; seeded reports depend on this order of draws."""
    max_len = max_len or ctx.m - 1
    blocks = []
    for _ in range(k):
        length = rng.randrange(1, max_len + 1)
        while True:
            u = [rng.randrange(ctx.order) for _ in range(length)]
            if rank_weight(ctx, u) == length:
                blocks.append(u)
                break
    return build_completely_decomposable(ctx, blocks)


def require_decomposition(code: RankCode) -> Decomposition:
    if code.decomposition is None:
        raise ValueError("code has no decomposition record; run detection first")
    return code.decomposition


# ----------------------------------------------------------------------
# decomposability detection
# ----------------------------------------------------------------------


def detect_complete_decomposability(code: RankCode,
                                    cap: int = DEFAULT_ENUM_CAP
                                    ) -> Optional[Decomposition]:
    """Search for a basis whose weights sum to the length.

    Takes the line dimensions d_x = dim(U' n <x>) = m - w(xG) of the
    dual system U' over projective points x from one projective weight
    enumeration (the cap bounds its words), then takes the greedy
    F_{q^m}-basis of points by d_x descending, which has the largest d_x
    total; a decomposition exists iff k independent points reach
    sum(d_x) = km - n with every d_x >= 1.  Returns the sorted-type
    record or None.

    Block u_i is the picked codeword c_i at the RREF pivots j of its
    support S_i (c_i = sum_j c_i[j] * B_j over the rows B_j of S_i); the
    stacked B_j are the col_map.  A guard checks that the supports are
    independent, as a nondegenerate code's basis of weight n always is.
    A degenerate code has no decomposition, so nondegeneracy is checked
    only past the cap and when the guard fails: None if degenerate, else
    the cap's refusal or :class:`FalsificationAlarm`.
    """
    ctx = code.ctx
    npts = projective_count(ctx, code.k)
    if npts > cap:
        if not is_nondegenerate(code):
            return None
        raise CapExceededError(npts, cap, "projective point scan")
    candidates = _line_candidates(ctx, projective_weights(ctx, code.generator))
    picked = _pick_basis(ctx, candidates, code.k, ctx.m * code.k - code.n)
    if picked is None:
        return None

    cwords = [code.codeword(x) for _, x in picked]
    supports = [support(ctx, c) for c in cwords]
    weights = [s.dim for s in supports]
    stacked = RowSpace(ctx, code.n, [r for s in supports for r in s.rows])
    if sum(weights) != code.n or stacked.dim != code.n:
        if not is_nondegenerate(code):
            return None
        raise FalsificationAlarm(
            f"picked basis of a nondegenerate code has weights {weights} and "
            f"supports of rank {stacked.dim}, not n = {code.n}")
    blocks = [tuple(c[j] for j in s.pivots) for c, s in zip(cwords, supports)]
    return _sorted_decomposition(ctx, blocks, EquivalenceMap._unchecked(
        ctx, [r for s in supports for r in s.basis_rows()]))


def _line_candidates(ctx, point_weights):
    """(d_x, index) of the projective points with d_x = m - w(xG) >= 1 by
    d_x descending, in :func:`projective_points` order within one d_x:
    lazily, one weight bucket at a time, as far as the scan reads."""
    for w in range(ctx.m):
        for idx in (point_weights == w).nonzero()[0].tolist():
            yield ctx.m - w, idx


def _pick_basis(ctx, candidates, k, target):
    """The greedy basis: candidates (d, idx) in order (d descending,
    idx a projective point index), each kept when it is
    F_{q^m}-independent of those kept before, until k are kept.  The
    independent sets of points form a matroid, so no basis has a larger
    d total.  The picks are returned when their total is target, else
    None: a total above target means weights summing below n, which only
    a degenerate code has, and it has no decomposition.  The scan stops
    once the current d times the picks still missing cannot reach
    target, and a point is built only when the scan reaches it.
    ``echelon`` holds the kept points as (pivot, row) pairs, 1 at the
    pivot and 0 at earlier pivots: a candidate is independent iff
    reducing it leaves it nonzero."""
    picked, echelon, total = [], [], 0
    for d, idx in candidates:
        if total + d * (k - len(picked)) < target:
            return None
        x = projective_point(ctx, k, idx)
        v = list(x)
        for c, row in echelon:
            if v[c]:
                v = ctx.add_scaled_row(v, ctx.neg(v[c]), row)
        piv = next((c for c, e in enumerate(v) if e), None)
        if piv is None:
            continue
        picked.append((d, x))
        total += d
        if len(picked) == k:
            return picked if total == target else None
        echelon.append((piv, ctx.scale_row(ctx.inv(v[piv]), v)))
    return None


# ----------------------------------------------------------------------
# minimal codewords
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalFamilies:
    """The minimal codewords of a decomposable code: one scalar family
    per block, k*(q^m - 1) words in total."""

    base_words: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.base_words)

    def count(self, ctx: FieldContext) -> int:
        return self.k * (ctx.order - 1)

    def codewords(self, ctx: FieldContext):
        for base in self.base_words:
            for alpha in range(1, ctx.order):
                yield tuple(ctx.mul(alpha, v) for v in base)


def minimal_codewords(code: RankCode) -> MinimalFamilies:
    """Single-block scalar families in the stored coordinates.

    For k >= 2 with blocks that are pairwise not scalar multiples of one
    another (no U_i = c U_j), these are exactly the minimal codewords
    under entry-span containment; a k = 1 code is trivially minimal and
    the single family is every nonzero word.  When two blocks span
    scalar-related subspaces the minimal set degenerates (same-span
    words in different blocks dominate each other) and no exact
    description is asserted; see :func:`blocks_scalar_unrelated`.
    """
    dec = require_decomposition(code)
    ctx = code.ctx
    wc = dec.weight_complementary_generator()
    bases = [tuple(field_vecmat(list(row), [list(r) for r in dec.col_map.rows],
                                ctx)) for row in wc]
    return MinimalFamilies(tuple(bases))


def blocks_scalar_unrelated(code: RankCode) -> bool:
    """True iff no block span is a scalar multiple of (or scalar-embeds
    into) another block span: the hypothesis under which the minimal
    codewords are exactly the single-block families."""
    dec = require_decomposition(code)
    spans = [span(code.ctx, u) for u in dec.blocks]
    return not any(i != j and uj.dim <= ui.dim
                   and scalar_into(ui, uj) is not None
                   for i, ui in enumerate(spans) for j, uj in enumerate(spans))


def _proportional(ctx, u, v) -> bool:
    j = next((i for i, x in enumerate(u) if x), None)
    jv = next((i for i, x in enumerate(v) if x), None)
    if j != jv:
        return False
    alpha = ctx.div(u[j], v[j])
    return all(ctx.mul(alpha, y) == x for x, y in zip(u, v))


def minimal_codeword_census(code: RankCode, cap: int = 1 << 16):
    """All minimal codewords by exhaustive entry-span comparison.

    Codewords are grouped by entry span; a span class is minimal iff it
    is a single projective ray and no other class's span is contained in
    it.  Returns the set of minimal codewords.
    """
    ctx = code.ctx
    total = message_space_size(ctx, code.k)
    if total > cap:
        raise CapExceededError(total, cap, "minimality census")
    classes: dict = {}
    for idx in range(1, total):
        w = code.codeword(message_from_index(ctx, code.k, idx))
        s = span(ctx, w)
        rec = classes.get(s)
        if rec is None:
            classes[s] = [w, True, [w]]
        else:
            rec[1] = rec[1] and _proportional(ctx, rec[0], w)
            rec[2].append(w)
    minimal = set()
    keys = list(classes)
    for s in keys:
        rep, is_ray, members = classes[s]
        if not is_ray:
            continue
        dominated = any(o is not s and s.contains_space(o) for o in keys)
        if not dominated:
            minimal.update(members)
    return minimal


# ----------------------------------------------------------------------
# duals
# ----------------------------------------------------------------------


def dual_code(code: RankCode) -> RankCode:
    """Classical dual under the standard inner product on F_{q^m}^n.

    Exposed for experimentation; the dual of a completely decomposable
    code decomposes blockwise but its blocks are (n_i - 1)-dimensional,
    so nothing is asserted about its structure here.
    """
    from .linalg import field_kernel

    if code.n == code.k:
        raise ValueError("dual of a full-length code is the zero code")
    kern = field_kernel([list(r) for r in code.generator], code.ctx)
    return RankCode._unchecked(code.ctx, kern)


def geometric_dual(code: RankCode) -> RankCode:
    """Code associated with the dual system U'.

    Requires dim(U n <v>) < m for every v (automatic for completely
    decomposable codes).  With a decomposition record the dual is built
    blockwise from the trace duals of the block spans, giving the sorted
    type (m - n_k, ..., m - n_1); otherwise a basis of the dual system
    is used directly and no record is attached.
    """
    ctx = code.ctx
    if code.decomposition is not None:
        duals = [trace_dual(span(ctx, u)) for u in code.decomposition.blocks]
        return build_completely_decomposable(ctx, [d.basis for d in duals])
    from .systems import perp_prime, system_from_code

    cols = perp_prime(system_from_code(code)).vectors
    gen = [[cols[j][i] for j in range(len(cols))] for i in range(code.k)]
    # <x> lies in U iff x . G' = 0 for the dual generator G', so some
    # direction meets U in full dimension iff G' has rank < k
    if not cols or field_rank(gen, ctx) < code.k:
        raise ValueError(
            "geometric dual undefined: a direction meets the system "
            "in full F_{q^m}-dimension")
    return RankCode._unchecked(ctx, gen)


# ----------------------------------------------------------------------
# spec files
# ----------------------------------------------------------------------


def code_from_spec(d: dict) -> RankCode:
    """Build a code from a spec dict: {"field": {...}, "blocks": [...]}
    where each block is {"entries": [...]} or {"geometric":
    {"lambda_degree": e, "t": t}}, the latter with at most one of
    "lambda" and "seed" added.  Any other key is refused."""
    check_keys(d, "", ("field", "blocks"))
    ctx = FieldContext.from_descriptor(d["field"])
    blocks = []
    for i, b in enumerate(d["blocks"]):
        check_keys(b, f"blocks[{i}]", (), ("entries", "geometric"))
        if len(b) != 1:
            raise ValueError(f"blocks[{i}]: need exactly one of 'entries' and 'geometric'")
        if "entries" in b:
            blocks.append(b["entries"])
        else:
            g = b["geometric"]
            check_keys(g, f"blocks[{i}].geometric", ("lambda_degree", "t"),
                       ("lambda", "seed"))
            if "lambda" in g and "seed" in g:
                raise ValueError(f"blocks[{i}].geometric.seed: conflicts with lambda")
            e = as_integer(g["lambda_degree"], f"block {i}: lambda_degree")
            t = as_integer(g["t"], f"block {i}: t")
            lam = g.get("lambda")
            if lam is None:
                lam = ctx.find_element_of_degree(
                    e, seed=as_integer(g.get("seed", 0), f"block {i}: seed"))
            else:
                lam = ctx.check_element(lam)
                if ctx.degree_over_q(lam) != e:
                    raise ValueError(
                        f"block {i}: lambda = {lam} has degree "
                        f"{ctx.degree_over_q(lam)}, not {e}")
            if not 1 <= t <= e:
                raise ValueError(f"block {i}: t = {t} is outside 1..{e} (lambda degree)")
            blocks.append([ctx.pow(lam, j) for j in range(t)])
    return build_completely_decomposable(ctx, blocks)
