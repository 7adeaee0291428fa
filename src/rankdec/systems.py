"""Systems: F_q-subspaces of F_{q^m}^k, the geometric side of codes.

The system of a nondegenerate [n, k] code is the F_q-span of the
columns of a generator matrix; codeword weights become hyperplane
intersections, w(xG) = n - dim(U n x_perp), and under the ambient
duality sigma'(u, v) = Tr_{q^m/q}(u . v) they become line dimensions in
the dual system: dim(U' n <x>) = m - w(xG).

Vectors are canonicalised by flattening to F_q coordinates (component i
occupies columns [i*m, (i+1)*m) in the power basis) and row-reducing;
two systems are equal iff their canonical flattenings agree.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapExceededError, FalsificationAlarm
from .fields import FieldContext
from .linalg import RowSpace, field_kernel, field_rank, field_vecmat
from .subspaces import Subspace

from .enumeration import DEFAULT_PROJ_CAP, projective_count, projective_points


class System:
    """F_q-span of vectors in F_{q^m}^k, canonicalised.

    ``spans_ambient`` records whether the F_{q^m}-span is all of
    F_{q^m}^k; only spanning systems correspond to nondegenerate codes,
    but duals of small systems may legitimately fail to span.
    """

    __slots__ = ("ctx", "k", "vectors", "row_space", "spans_ambient")

    def __init__(self, ctx: FieldContext, k: int, vectors: Sequence[Sequence[int]]):
        self.ctx = ctx
        self.k = k
        rows = [_flatten(ctx, v, k) for v in vectors]
        self.row_space = RowSpace(ctx, ctx.m * k, rows)
        self.vectors = tuple(_unflatten(ctx, r, k)
                             for r in self.row_space.basis_rows())
        self.spans_ambient = (
            field_rank([list(v) for v in self.vectors], ctx) == k
            if self.vectors else k == 0)

    @property
    def dim(self) -> int:
        return self.row_space.dim

    def contains(self, v: Sequence[int]) -> bool:
        return self.row_space.contains(_flatten(self.ctx, v, self.k))

    def __eq__(self, other):
        return (isinstance(other, System) and self.k == other.k
                and self.row_space == other.row_space)

    def __hash__(self):
        return hash((self.k, self.row_space))

    def to_json(self) -> dict:
        return {"k": self.k, "basis": [list(v) for v in self.vectors]}

    @classmethod
    def from_json(cls, ctx: FieldContext, d: dict) -> "System":
        return cls(ctx, int(d["k"]), d["basis"])

    def __repr__(self):
        return f"System(dim={self.dim} in F_{{q^m}}^{self.k})"


def _flatten(ctx, v, k):
    if len(v) != k:
        raise ValueError("vector length mismatch")
    return ctx.subfield_coords_all(v, 1).ravel().tolist()


def _unflatten(ctx, row, k):
    m = ctx.m
    return tuple(ctx.q_combine(row[i * m:(i + 1) * m]) for i in range(k))


def flat_span(ctx: FieldContext, k: int, rows: Sequence[Sequence[int]]) -> RowSpace:
    """The F_{q^m}-span of rows in F_{q^m}^k as an F_q row space of
    F_q^(mk): the flattened multiples of each row by the power basis."""
    powers = ctx.subfield_power_basis(1)
    return RowSpace(ctx, ctx.m * k, [_flatten(ctx, [ctx.mul(g, c) for c in row], k)
                                     for row in rows for g in powers])


def system_from_code(code) -> System:
    """F_q-span of the generator columns; the code must be nondegenerate
    (the span then has dimension n)."""
    ctx = code.ctx
    cols = [tuple(code.generator[i][j] for i in range(code.k))
            for j in range(code.n)]
    sys = System(ctx, code.k, cols)
    if sys.dim != code.n:
        raise ValueError(
            f"degenerate code: column span has dimension {sys.dim} < n = {code.n}")
    return sys


def product_system(ctx: FieldContext, parts: Sequence[Subspace]) -> System:
    """Direct product U_1 x ... x U_k embedded block-diagonally."""
    k = len(parts)
    vecs = []
    for i, u in enumerate(parts):
        if u.base_e != 1:
            raise ValueError("product systems take F_q-subspaces")
        if u.is_zero() or u.dim >= ctx.m:
            raise ValueError("parts must have dimension strictly between 0 and m")
        for b in u.basis:
            v = [0] * k
            v[i] = b
            vecs.append(v)
    return System(ctx, k, vecs)


def line_intersection_dim(u: System, x: Sequence[int]) -> int:
    """dim(U n <x>_{F_{q^m}})."""
    line = flat_span(u.ctx, u.k, [x])
    return u.dim + line.dim - u.row_space.sum(line).dim


def hyperplane_intersection_dim(u: System, x: Sequence[int]) -> int:
    """dim(U n x_perp) for the F_{q^m}-hyperplane orthogonal to x."""
    ctx = u.ctx
    if not any(x):
        raise ValueError("x must be nonzero")
    hyp = flat_span(ctx, u.k, fqm_perp(ctx, [x]))
    if hyp.dim != ctx.m * (u.k - 1):
        raise FalsificationAlarm(
            f"hyperplane x_perp has F_q-dimension {hyp.dim}, "
            f"not m(k-1) = {ctx.m * (u.k - 1)}")
    return u.dim + hyp.dim - u.row_space.sum(hyp).dim


def weight_via_system(u: System, x: Sequence[int]) -> int:
    """w(xG) = n - dim(U n x_perp) for the system U of the code."""
    if not any(x):
        raise ValueError("weight of the zero message is not defined this way")
    return u.dim - hyperplane_intersection_dim(u, x)


def perp_prime(u: System) -> System:
    """Orthogonal complement under Tr_{q^m/q}(u . v); dimension km - n."""
    ctx = u.ctx
    k, m = u.k, ctx.m
    powers = ctx.subfield_power_basis(1)
    if not u.vectors:
        basis = []
        for i in range(k):
            for g in powers:
                v = [0] * k
                v[i] = g
                basis.append(v)
        return System(ctx, k, basis)
    rows = [[ctx.trace_rel(ctx.mul(b[i], g), 1) for i in range(k) for g in powers]
            for b in u.vectors]
    kern = RowSpace(ctx, m * k, rows).kernel()
    out = System(ctx, k, [_unflatten(ctx, krow, k) for krow in kern])
    if out.dim != m * k - u.dim:
        raise FalsificationAlarm(
            f"dual system has dimension {out.dim}, not km - n = {m * k - u.dim}")
    return out


def apply_gl_k(u: System, b_rows) -> System:
    """Image system U . B for invertible B over F_{q^m}."""
    ctx = u.ctx
    if field_rank([list(r) for r in b_rows], ctx) != u.k:
        raise ValueError("B is singular")
    vecs = [field_vecmat(list(v), [list(r) for r in b_rows], ctx)
            for v in u.vectors]
    return System(ctx, u.k, vecs)


def max_hyperplane_intersection(u: System, pcap: int = DEFAULT_PROJ_CAP) -> int:
    """max over F_{q^m}-hyperplanes H of dim(U n H); the code-side
    minimum distance is n minus this."""
    ctx = u.ctx
    npts = projective_count(ctx, u.k)
    if npts > pcap:
        raise CapExceededError(npts, pcap, "hyperplane scan")
    best = 0
    for x in projective_points(ctx, u.k):
        d = hyperplane_intersection_dim(u, x)
        if d > best:
            best = d
    return best


def fqm_perp(ctx: FieldContext, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Orthogonal complement of an F_{q^m}-subspace (given by spanning
    rows) under the standard inner product; returns basis rows."""
    return field_kernel([list(r) for r in rows], ctx)
