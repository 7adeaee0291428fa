"""Calculus of F_q-subspaces of F_{q^m}, on the coordinate layer of
F_{q^m}^k that :mod:`rankdec.systems` shares (:func:`flatten`,
:func:`trace_orthogonal`; elements are the case k = 1).

A :class:`Subspace` is the :class:`~rankdec.linalg.RowSpace` in F_q^m
of its elements' F_q-coordinate rows (:meth:`FieldContext.fq_coords`,
in the power basis of the modulus root); for q = 2 an element int is
its own packed row.  Its ``basis`` is the canonical (RREF) rows read back as
element ints, so equality of subspaces is equality of canonical bases.
An F_{q^e}-linear subspace is the same point set with F_q-dimension e
times its F_{q^e}-dimension; :func:`is_subfield_linear` tells which
subfields a subspace is linear over.  :func:`span_dim` gives a span's
dimension alone: an r-dimensional span's trace dual has
(q^(m-r) - 1)/(q - 1) projective points, so on small fields it is a
popcount of an AND of rows of a cached point table.

Besides the usual lattice operations this module implements the
multiplicative structure that drives the minimum-weight counts:

* ``product``: the F_q-span of all pairwise products U1*U2, computed as
  a sum of shifted copies a_i*U2 over a basis (a_i) of U1;
* ``trace_dual``: the orthogonal complement under the bilinear form
  (x, y) -> Tr_{q^m/q^e}(xy), a nondegenerate reflexive form;
* ``geometric_witnesses``: the scaled geometric-progression forms
  c*<1, lam, ..., lam^(d-1)> of a subspace, which classify the critical
  pairs of the linear Cauchy-Davenport inequality for prime m,
  dim(U1*U2) >= dim U1 + dim U2 - 1 whenever dim(U1*U2) <= m - 1.  The
  products suite (:func:`rankdec.suites.run_products_suite`) checks the
  inequality and the classification on every pair at m = 5.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import FalsificationAlarm
from .fields import FieldContext
from .linalg import RowSpace, field_kernel

#: fields up to this order (all tabled) read :func:`span_dim` off a point
#: table, built in at most 1.4 ms (F_2^8; 26 ms at F_2^10, 2-core Xeon)
_POINT_TABLE_LIMIT = 1 << 8


class Subspace:
    """Canonical F_q-subspace of F_{q^m}; use :func:`span` to build."""

    __slots__ = ("ctx", "space", "basis")

    def __init__(self, ctx: FieldContext, space: RowSpace):
        self.ctx = ctx
        self.space = space
        self.basis = tuple(row_elements(ctx, space.rows))

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, x: int) -> bool:
        ctx = self.ctx
        return self.space.contains(x if ctx.q == 2 else ctx.fq_coords(x))

    def contains_space(self, other: "Subspace") -> bool:
        self.ctx.require_same(other.ctx)
        return self.space.contains_space(other.space)

    def elements(self) -> list[int]:
        """All q^dim elements; guarded for desk-scale sizes."""
        ctx = self.ctx
        size = ctx.q ** self.dim
        if size > 1 << 20:
            raise ValueError(f"subspace too large to enumerate ({size} elements)")
        scalars = ctx.fq_elements()
        out = [0]
        for b in self.basis:
            out = [ctx.add(z, ctx.mul(s, b)) for s in scalars for z in out]
        return sorted(set(out))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx.same_as(other.ctx)
                and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} over F_{self.ctx.q}, basis={list(self.basis)})"


def coordinate_space(ctx: FieldContext, values: Iterable[int],
                     k: int = 1) -> RowSpace:
    """The row space in F_q^(k*m) of vectors of F_{q^m}^k given flat, k
    entries per vector; its dimension is that of their F_q-span."""
    vals = [ctx.check_element(x) for x in values]
    rows = vals if ctx.q == 2 else ctx.fq_coords_all(vals).tolist()
    return flatten(ctx, rows, k)


def span_dim(ctx: FieldContext, values: Iterable[int]) -> int:
    """F_q-dimension r of the span of the given field elements (unchecked
    on a small field).  Its trace dual has (q^(m-r) - 1)/(q - 1)
    projective points, on a field of order at most ``_POINT_TABLE_LIMIT``
    the popcount of an AND of :func:`_point_bits` rows."""
    if ctx.order > _POINT_TABLE_LIMIT:
        return coordinate_space(ctx, values).dim
    bits, dims = _point_bits(ctx)
    acc = bits[0]
    for x in values:
        acc &= bits[x]
    if acc.bit_count() not in dims:
        raise FalsificationAlarm(f"{acc.bit_count()} points orthogonal to a span")
    return dims[acc.bit_count()]


def _point_bits(ctx: FieldContext) -> tuple[tuple[int, ...], dict[int, int]]:
    """(bits, dims), cached: bit i of bits[x] is set iff Tr_{q^m/q}(x*g^i)
    = 0, over the projective points g^i, i < (q^m - 1)/(q - 1), of the
    primitive element g, and dims maps (q^(m-r) - 1)/(q - 1) to r.
    Tr_{q^m/q}(z) = 0 iff Tr_{q^m/p}(b*z) = 0 for each b of an F_p-basis
    of F_q: digit rows times :meth:`FieldContext.trace_gram`."""
    key = ("pointbits",)
    if key not in ctx._caches:
        q, m = ctx.q, ctx.m
        count = (q**m - 1) // (q - 1)
        points = [ctx.pow(ctx.primitive_element, i) for i in range(count)]
        scaled = ctx.digits_all([ctx.mul(b, y) for b in ctx.fp_basis_of_subfield(1)
                                 for y in points])
        traces = ctx.digits_all(range(ctx.order)) @ ctx.trace_gram() @ scaled.T % ctx.p
        zero = ~traces.reshape(ctx.order, -1, count).any(axis=1)
        rows = np.packbits(zero, axis=1, bitorder="little")
        ctx._caches[key] = (tuple(int.from_bytes(r.tobytes(), "little") for r in rows),
                            {(q**(m - r) - 1) // (q - 1): r for r in range(m + 1)})
    return ctx._caches[key]


def flatten(ctx: FieldContext, rows: list, k: int) -> RowSpace:
    """The row space in F_q^(k*m) of the vectors whose components have
    the given coordinate rows, k consecutive ones per vector (callers
    check the count: :class:`rankdec.systems.System` does).  Component
    i fills columns [i*m, (i+1)*m); at q = 2 the row is sum x_i << (i*m)."""
    m = ctx.m
    flat = rows[::k]
    for i in range(1, k):
        parts = zip(flat, rows[i::k])
        flat = ([r | x << (i * m) for r, x in parts] if ctx.q == 2
                else [r + x for r, x in parts])
    return RowSpace(ctx, k * m, flat)


def unflatten(ctx: FieldContext, rows, k: int) -> list:
    """The k component coordinate rows of each row of F_q^(k*m) (as in
    :attr:`RowSpace.rows`), in order: the inverse of :func:`flatten`."""
    m = ctx.m
    if ctx.q == 2:
        mask = (1 << m) - 1
        return [r >> (i * m) & mask for r in rows for i in range(k)]
    return [r[i * m:(i + 1) * m] for r in rows for i in range(k)]


def row_elements(ctx: FieldContext, rows) -> Sequence[int]:
    """The elements with the given coordinate rows."""
    return rows if ctx.q == 2 else [ctx.fq_combine(r) for r in rows]


def trace_orthogonal(ctx: FieldContext, values: Sequence[int], k: int = 1,
                     e: int = 1) -> list[int]:
    """A basis, flat as the given vectors v of F_{q^m}^k are, of
    {z : Tr_{q^m/q^e}(v . z) = 0 for every v}.  As Tr_{q^m/p}(c*y) =
    Tr_{q^e/p}(c*Tr_{q^m/q^e}(y)), this is the absolute dual of the
    F_p-span of the F_{q^e}-multiples of the v: ker(A diag(T, ..., T))
    mod p, with A their F_p digit rows (k blocks of a*m digits) and T
    the context's :meth:`FieldContext.trace_gram`."""
    n = ctx.n
    blocks = ctx.digits_all([ctx.mul(x, wl)
                             for wl in ctx.fp_basis_of_subfield(e) for x in values])
    constraints = (blocks @ ctx.trace_gram()).reshape(-1, k * n) % ctx.p
    # a zero row constrains nothing: no vectors give the whole space
    kern = field_kernel(constraints.tolist() or [[0] * (k * n)], ctx)
    return [ctx.from_digits(z[i * n:(i + 1) * n]) for z in kern for i in range(k)]


def span(ctx: FieldContext, elements: Iterable[int]) -> Subspace:
    """Canonical F_q-span of the given field elements."""
    return Subspace(ctx, coordinate_space(ctx, elements))


def zero_subspace(ctx: FieldContext) -> Subspace:
    return span(ctx, [])


def full_space(ctx: FieldContext) -> Subspace:
    return span(ctx, ctx.fq_power_basis())


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u.ctx.require_same(v.ctx)
    return Subspace(u.ctx, u.space.sum(v.space))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """U n V by Zassenhaus's method: in the echelon form of the vectors
    (a, a) for a in U and (b, 0) for b in V, the rows that vanish on the
    first component hold a basis of U n V in the second."""
    ctx = u.ctx
    ctx.require_same(v.ctx)
    m = ctx.m
    zero = 0 if ctx.q == 2 else (0,) * m
    both = flatten(ctx, [r for a in u.space.rows for r in (a, a)]
                   + [r for b in v.space.rows for r in (b, zero)], 2)
    rows = [r for r, c in zip(both.rows, both.pivots) if c >= m]
    return Subspace(ctx, RowSpace(ctx, m, unflatten(ctx, rows, 2)[1::2]))


def scale(c: int, u: Subspace) -> Subspace:
    if c == 0:
        raise ValueError("scaling a subspace by zero")
    ctx = u.ctx
    return span(ctx, [ctx.mul(c, b) for b in u.basis])


def product(u1: Subspace, u2: Subspace) -> Subspace:
    """F_q-span of {a*b : a in U1, b in U2}, as a sum of scaled copies."""
    ctx = u1.ctx
    ctx.require_same(u2.ctx)
    return span(ctx, [ctx.mul(a, b) for a in u1.basis for b in u2.basis])


def trace_dual(u: Subspace, e: int = 1) -> Subspace:
    """Orthogonal complement of u under (x, y) -> Tr_{q^m/q^e}(xy), the
    case k = 1 of :func:`trace_orthogonal`: F_{q^e}-linear, of
    F_q-dimension m - dim(F_{q^e}*u), which is m - dim(u) for e = 1."""
    return span(u.ctx, trace_orthogonal(u.ctx, u.basis, 1, e))


def kernel_of_trace(ctx: FieldContext, e: int) -> Subspace:
    """Ker(Tr_{q^m/q^e}), an F_{q^e}-linear space of F_q-dimension m - e."""
    return trace_dual(span(ctx, [1]), e)


def geometric_subspace(ctx: FieldContext, lam: int, t: int) -> Subspace:
    """<1, lam, ..., lam^(t-1)> over F_q; powers must stay free."""
    if t < 1:
        raise ValueError("t must be positive")
    if t > ctx.degree_over_q(lam):
        raise ValueError(
            f"t = {t} exceeds the degree {ctx.degree_over_q(lam)} of the element")
    out = span(ctx, [ctx.pow(lam, i) for i in range(t)])
    if out.dim != t:
        raise ValueError("powers are dependent at the requested length")
    return out


def verify_dual_geometric(ctx: FieldContext, lam: int, t: int):
    """For a degree-m element lam, the trace dual of <1,...,lam^(t-1)> is
    delta^(-1) <1,...,lam^(m-t-1)> with delta the derivative of lam's
    minimal polynomial at lam.  Returns (holds, delta)."""
    if ctx.degree_over_q(lam) != ctx.m:
        raise ValueError("element does not generate the extension")
    if not 1 <= t <= ctx.m - 1:
        raise ValueError("t out of range")
    f = ctx.minimal_polynomial(lam)
    delta = ctx.derivative_at(f, lam)
    lhs = trace_dual(geometric_subspace(ctx, lam, t))
    rhs = scale(ctx.inv(delta), geometric_subspace(ctx, lam, ctx.m - t))
    return lhs == rhs, delta


def verify_dual_subfield(ctx: FieldContext, lam: int, t: int):
    """For lam of degree e with 1 < e < m, the F_q-trace dual of
    <1,...,lam^(t-1)> decomposes as Ker(Tr_{q^m/q^e}) + c*<1,...,lam^(e-t-1)>
    for some c with nonzero relative trace.  Finds the first witness c in
    encoding order and returns (holds, c); for t = e the right summand is
    empty and c is reported as 0."""
    e = ctx.degree_over_q(lam)
    if e == ctx.m or e == 1:
        raise ValueError("element degree must be a proper intermediate divisor")
    if not 1 <= t <= e:
        raise ValueError("t out of range")
    dual = trace_dual(geometric_subspace(ctx, lam, t))
    z = kernel_of_trace(ctx, e)
    if t == e:
        return dual == z, 0
    tail = geometric_subspace(ctx, lam, e - t)
    for c in range(1, ctx.order):
        if ctx.trace_rel(c, e) == 0:
            continue
        cand = subspace_sum(z, scale(c, tail))
        if cand.dim == z.dim + tail.dim and cand == dual:
            return True, c
    return False, 0


def geometric_witnesses(u: Subspace) -> dict[int, int]:
    """All (lam -> c) with u = c*<1, lam, ..., lam^(dim-1)>.

    Exhausts lam over the field (guarded at 2^16 elements); candidates c
    are exactly the nonzero elements of the intersection of the shifted
    copies lam^(-i) * u.
    """
    ctx = u.ctx
    if ctx.order > 1 << 16:
        raise ValueError("field too large for exhaustive witness search")
    d = u.dim
    if d < 1:
        return {}
    out = {}
    for lam in range(ctx.order):
        if ctx.degree_over_q(lam) < d:
            continue
        li = ctx.inv(lam) if lam else None
        acc = u
        ok = True
        shift = 1
        for i in range(1, d):
            shift = ctx.mul(shift, li)
            acc = intersect(acc, scale(shift, u))
            if acc.is_zero():
                ok = False
                break
        if ok and not acc.is_zero():
            c = min(acc.basis)
            # sanity: the witness reproduces u
            if span(ctx, [ctx.mul(c, ctx.pow(lam, i)) for i in range(d)]) == u:
                out[lam] = c
    return out


def critical_complement_witness(u1: Subspace, u2: Subspace) -> Optional[int]:
    """If dim U2 = m - dim U1 and the product U1*U2 is a hyperplane, a
    scalar c with U2 = c * trace_dual(U1) exists; search and return it
    (None only if the preconditions fail to force one, which would be a
    falsification of the classification)."""
    ctx = u1.ctx
    if u2.dim != ctx.m - u1.dim:
        raise ValueError("dimensions are not complementary")
    if product(u1, u2).dim != ctx.m - 1:
        raise ValueError("product is not a hyperplane")
    return scalar_into(u2, trace_dual(u1))


def scalar_into(u: Subspace, v: Subspace) -> Optional[int]:
    """Some nonzero d with d*v contained in u, or None; 1 for v = 0.

    Every such d maps the first basis vector b of v into u, so the
    candidates are x/b for the nonzero x in u, tried in the order of
    :meth:`Subspace.elements`.  When dim v = dim u, d*v = u."""
    ctx = u.ctx
    if v.is_zero():
        return 1
    binv = ctx.inv(v.basis[0])
    for x in u.elements():
        if x:
            d = ctx.mul(x, binv)
            if all(u.contains(ctx.mul(d, b)) for b in v.basis):
                return d
    return None


def is_subfield_linear(u: Subspace, e: int) -> bool:
    """True iff u is closed under multiplication by F_{q^e}: checked on
    one multiplicative generator of F_{q^e}^*."""
    ctx = u.ctx
    ctx._check_divisor(e)
    if u.is_zero():
        return True
    g = ctx.subfield_generator(e)
    return scale(g, u) == u


def all_subspaces(ctx: FieldContext, dim: int):
    """All F_q-subspaces of F_{q^m} of the given dimension, enumerated by
    reduced-echelon profile (exact count is the Gaussian binomial)."""
    from itertools import combinations, product as iproduct

    m = ctx.m
    if not 0 <= dim <= m:
        return
    if dim == 0:
        yield zero_subspace(ctx)
        return
    qelems = ctx.fq_elements()
    for pivots in combinations(range(m), dim):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, m):
                if c not in pivots:
                    free_positions.append((r, c))
        for fill in iproduct(qelems, repeat=len(free_positions)):
            rows = [[0] * m for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_positions, fill):
                rows[r][c] = v
            yield Subspace(ctx, RowSpace(ctx, m, rows))


def random_subspace(ctx: FieldContext, dim: int, rng) -> Subspace:
    while True:
        u = span(ctx, [rng.randrange(ctx.order) for _ in range(dim)])
        if u.dim == dim:
            return u
