"""Systems: F_q-subspaces of F_{q^m}^k, the geometric side of codes.

The system of a nondegenerate [n, k] code is the F_q-span of the
columns of a generator matrix.  Under the ambient duality
sigma'(u, v) = Tr_{q^m/q}(u . v) its dual system U' has F_q-dimension
km - n and yields the geometric dual code
(:func:`rankdec.codes.geometric_dual`).

A system is the row space of its vectors flattened to F_q coordinates
by :mod:`rankdec.subspaces`, which also holds the trace kernel that
:func:`perp_prime` shares with :func:`~rankdec.subspaces.trace_dual`;
two systems are equal iff their canonical flattenings agree.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FalsificationAlarm
from .fields import FieldContext
from .linalg import RowSpace
from .subspaces import coordinate_space, row_elements, trace_orthogonal, unflatten


class System:
    """F_q-span of vectors in F_{q^m}^k, canonicalised."""

    __slots__ = ("ctx", "k", "vectors", "row_space")

    def __init__(self, ctx: FieldContext, k: int, vectors: Sequence[Sequence[int]]):
        if any(len(v) != k for v in vectors):
            raise ValueError("vector length mismatch")
        self.ctx, self.k = ctx, k
        self.row_space = coordinate_space(ctx, [x for v in vectors for x in v], k)
        flat = row_elements(ctx, unflatten(ctx, self.row_space.rows, k))
        self.vectors = tuple(zip(*[iter(flat)] * k))

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


def flat_span(ctx: FieldContext, k: int, rows: Sequence[Sequence[int]]) -> RowSpace:
    """The F_{q^m}-span of rows in F_{q^m}^k as an F_q row space of
    F_q^(mk): the flattened multiples of each row by the power basis."""
    powers = ctx.fq_power_basis()
    return System(ctx, k, [[ctx.mul(g, c) for c in row]
                           for row in rows for g in powers]).row_space


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
    """Orthogonal complement under Tr_{q^m/q}(u . v), dimension km - n:
    :func:`rankdec.subspaces.trace_orthogonal` with k components."""
    ctx, k = u.ctx, u.k
    flat = trace_orthogonal(ctx, [x for v in u.vectors for x in v], k)
    out = System(ctx, k, list(zip(*[iter(flat)] * k)))
    want = ctx.m * k - u.dim
    if out.dim != want:
        raise FalsificationAlarm(
            f"dual system has dimension {out.dim}, not km - n = {want}")
    return out
