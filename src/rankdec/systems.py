"""Systems: F_q-subspaces of F_{q^m}^k, the geometric side of codes.

The system of a nondegenerate [n, k] code is the F_q-span of the
columns of a generator matrix.  Under the ambient duality
sigma'(u, v) = Tr_{q^m/q}(u . v) its dual system U' has F_q-dimension
km - n and yields the geometric dual code
(:func:`rankdec.codes.geometric_dual`).

Vectors are canonicalised by flattening to F_q coordinates (component i
occupies columns [i*m, (i+1)*m) in the power basis) and row-reducing;
two systems are equal iff their canonical flattenings agree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FalsificationAlarm
from .fields import FieldContext
from .linalg import RowSpace


class System:
    """F_q-span of vectors in F_{q^m}^k, canonicalised."""

    __slots__ = ("ctx", "k", "vectors", "row_space")

    def __init__(self, ctx: FieldContext, k: int, vectors: Sequence[Sequence[int]]):
        self.ctx = ctx
        self.k = k
        rows = [_flatten(ctx, v, k) for v in vectors]
        self.row_space = RowSpace(ctx, ctx.m * k, rows)
        self.vectors = tuple(_unflatten(ctx, r, k)
                             for r in self.row_space.basis_rows())

    @property
    def dim(self) -> int:
        return self.row_space.dim

    def __eq__(self, other):
        return (isinstance(other, System) and self.k == other.k
                and self.row_space == other.row_space)

    def __hash__(self):
        return hash((self.k, self.row_space))

    def __repr__(self):
        return f"System(dim={self.dim} in F_{{q^m}}^{self.k})"


def _flatten(ctx, v, k):
    if len(v) != k:
        raise ValueError("vector length mismatch")
    return ctx.fq_coords_all(v).ravel().tolist()


def _unflatten(ctx, row, k):
    m = ctx.m
    return tuple(ctx.fq_combine(row[i * m:(i + 1) * m])
                 for i in range(k))


def flat_span(ctx: FieldContext, k: int, rows: Sequence[Sequence[int]]) -> RowSpace:
    """The F_{q^m}-span of rows in F_{q^m}^k as an F_q row space of
    F_q^(mk): the flattened multiples of each row by the power basis."""
    powers = ctx.fq_power_basis()
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


def perp_prime(u: System) -> System:
    """Orthogonal complement under Tr_{q^m/q}(u . v); dimension km - n.

    As in :func:`rankdec.subspaces.trace_dual`, the Tr_{q^m/q}-dual of U
    is the absolute dual of F_q*U.  With A the prime-field digit rows of
    F_q*U (k blocks of n digits each) and T the trace Gram matrix of the
    context, the dual is ker(A diag(T, ..., T)) mod p.
    """
    ctx = u.ctx
    k, n = u.k, ctx.n
    w = ctx.fp_basis_of_subfield(1)
    a_rows = np.array([[d for x in v for d in ctx.digits(ctx.mul(x, wl))]
                       for v in u.vectors for wl in w],
                      dtype=np.int64).reshape(-1, k, n)
    constraints = (a_rows @ ctx.trace_gram()).reshape(-1, k * n) % ctx.p
    kern = RowSpace(ctx, k * n, constraints.tolist()).kernel()
    out = System(ctx, k, [[ctx.from_digits(z[i * n:(i + 1) * n])
                           for i in range(k)] for z in kern])
    want = ctx.m * k - u.dim
    if out.dim != want:
        raise FalsificationAlarm(
            f"dual system has dimension {out.dim}, not km - n = {want}")
    return out
