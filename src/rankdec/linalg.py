"""Exact linear algebra, with one Gaussian elimination per element
representation.

* Matrices whose entries are field-context element ints are reduced by
  :func:`field_rref`.  It works over F_{q^m} or over any subfield
  closed under the context's operations; in particular an F_p digit
  c < p is the context element c, so prime-field coordinate matrices
  (the plumbing of field contexts and subspaces) go through it too.
  Its row normalisations and updates, and the rows of
  :func:`field_matmul`, are whole-row operations of the context
  (:meth:`FieldContext.scale_row`, :meth:`FieldContext.add_scaled_row`):
  on a tabled field (order at most 2^16) each is one pass over the row
  that reads the exp/log lists (and the Zech list for odd p), with no
  per-entry method call.
* :class:`RowSpace`, a canonical row space inside F_q^width, packs its
  rows into ints for q = 2 and reduces them with :func:`_bit_rref`;
  for q > 2 its rows are context ints reduced with :func:`field_rref`.
  Ranks of F_q-matrices, subspaces of F_{q^m} and systems in F_{q^m}^k
  are RowSpaces of coordinate rows (:mod:`rankdec.subspaces` flattens
  them); trace duals are :func:`field_kernel` of F_p digit rows.

Everything is small and dense; the only genuinely hot loops are in
:mod:`rankdec.enumeration`, not here.
"""

from __future__ import annotations

from typing import Sequence

# ----------------------------------------------------------------------
# matrices with field-context entries
# ----------------------------------------------------------------------


def field_rref(rows, ctx):
    """RREF of a matrix whose entries are element ints of ctx.

    Works over any subfield closed under ctx's operations.  Returns
    (list of nonzero canonical rows, pivot column list).  Each pivot
    row is normalised and each other row updated by one row operation
    of the context (:meth:`FieldContext.scale_row`,
    :meth:`FieldContext.add_scaled_row`).
    """
    a = [list(r) for r in rows]
    if not a:
        return [], []
    n_rows = len(a)
    pivots = []
    r = 0
    for c in range(len(a[0])):
        for sel in range(r, n_rows):
            if a[sel][c]:
                break
        else:
            continue
        piv = a[sel]
        a[sel] = a[r]
        if piv[c] != 1:
            piv = ctx.scale_row(ctx.inv(piv[c]), piv)
        a[r] = piv
        for i, row in enumerate(a):
            if row[c] and i != r:
                a[i] = ctx.add_scaled_row(row, ctx.neg(row[c]), piv)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a[:r], pivots


def field_rank(rows, ctx) -> int:
    return len(field_rref(rows, ctx)[1])


def field_kernel(rows, ctx) -> list[list[int]]:
    """Basis of {x : rows @ x = 0} with entries in the context field,
    read off the RREF: one vector per free column f, with 1 at f and
    -rref[r][f] at the r-th pivot."""
    if not rows:
        return []
    rref, pivots = field_rref(rows, ctx)
    width, pivot_set = len(rows[0]), set(pivots)
    out = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [0] * width
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = ctx.neg(rref[r][f])
        out.append(v)
    return out


def field_inverse(rows, ctx) -> list[list[int]]:
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = field_rref(aug, ctx)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref]


def field_matmul(a, b, ctx):
    """a @ b: row i of the product is the sum of a[i][t] * b[t], one
    row update per nonzero entry of a."""
    cols = len(b[0]) if b else 0
    out = []
    for ai in a:
        oi = [0] * cols
        for v, bt in zip(ai, b):
            if v:
                oi = ctx.add_scaled_row(oi, v, bt)
        out.append(oi)
    return out


def field_vecmat(x, a, ctx):
    """Row vector times matrix."""
    return field_matmul([list(x)], a, ctx)[0]


# ----------------------------------------------------------------------
# canonical row spaces over F_q
# ----------------------------------------------------------------------


class RowSpace:
    """Canonical (RREF) row space inside F_q^width.

    Rows are given as sequences of F_q elements (context ints).  For
    q = 2 each row is stored packed into an int (column j at bit j) and
    reduced with :func:`_bit_rref`, which keeps the exhaustive subspace
    scans cheap; packed rows are also accepted as input.  For q > 2 rows
    are tuples of context ints reduced with :func:`field_rref`.

    Instances are immutable; equality and hashing use the canonical
    basis, so two RowSpaces are equal iff they are the same subspace.
    """

    __slots__ = ("ctx", "q", "width", "rows", "pivots")

    def __init__(self, ctx, width: int, rows: Sequence[Sequence[int]] = ()):
        self.ctx = ctx
        self.q = ctx.q
        self.width = width
        if self.q == 2:
            self.rows, self.pivots = _bit_rref([self._pack(r) for r in rows])
        else:
            rref, pivots = field_rref(rows, ctx)
            self.rows = tuple(tuple(r) for r in rref)
            self.pivots = tuple(pivots)

    @staticmethod
    def _pack(row) -> int:
        if isinstance(row, int):
            return row
        v = 0
        for j, c in enumerate(row):
            if c:
                v |= 1 << j
        return v

    def _unpack(self, r: int) -> tuple[int, ...]:
        return tuple((r >> j) & 1 for j in range(self.width))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_rows(self) -> list[tuple[int, ...]]:
        if self.q == 2:
            return [self._unpack(r) for r in self.rows]
        return list(self.rows)

    def reduce(self, row):
        """Reduce a row against the basis; zero result means membership.
        For q = 2 the result is a packed int, otherwise a tuple."""
        if self.q == 2:
            v = self._pack(row)
            for r, c in zip(self.rows, self.pivots):
                if (v >> c) & 1:
                    v ^= r
            return v
        ctx = self.ctx
        v = list(row)
        for r, c in zip(self.rows, self.pivots):
            if v[c]:
                v = ctx.add_scaled_row(v, ctx.neg(v[c]), r)
        return tuple(v)

    def contains(self, row) -> bool:
        red = self.reduce(row)
        return red == 0 if self.q == 2 else not any(red)

    def contains_space(self, other: "RowSpace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "RowSpace") -> "RowSpace":
        if self.width != other.width or self.q != other.q:
            raise ValueError(
                f"sum of row spaces in F_{self.q}^{self.width} and "
                f"F_{other.q}^{other.width}")
        return RowSpace(self.ctx, self.width, self.rows + other.rows)

    def __eq__(self, other):
        return (isinstance(other, RowSpace) and self.q == other.q
                and self.width == other.width and self.rows == other.rows)

    def __hash__(self):
        return hash((self.q, self.width, self.rows))

    def __repr__(self):
        return f"RowSpace(q={self.q}, width={self.width}, dim={self.dim})"


def _bit_rref(packed_rows):
    """RREF of bit-packed rows; pivot = least significant set bit."""
    basis = []  # (pivot, row), kept sorted by pivot
    for v in packed_rows:
        for piv, r in basis:
            if (v >> piv) & 1:
                v ^= r
        if v:
            piv = (v & -v).bit_length() - 1
            # back-substitute into existing rows
            basis = [(p2, r2 ^ v if (r2 >> piv) & 1 else r2) for p2, r2 in basis]
            basis.append((piv, v))
            basis.sort()
    return tuple(r for _, r in basis), tuple(p for p, _ in basis)
